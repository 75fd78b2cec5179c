// Bit-equality suite for pruned candidate scans: every pruned variant must
// return EXACTLY what the full scan returns — same elements, same IEEE
// bits of gain/objective — across randomized churned corpora, thread
// counts, algorithms (greedy, local search, dynamic updater), engine
// plans (single-node, sharded, wire-level shard kernels), and across the
// certify/fallback split (non-metric data demotes to a full rescan, never
// to a wrong answer).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "algorithms/distributed.h"
#include "algorithms/local_search.h"
#include "core/incremental_evaluator.h"
#include "core/solution_state.h"
#include "data/synthetic.h"
#include "dynamic/dynamic_updater.h"
#include "dynamic/perturbation.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/execution_plan.h"
#include "engine/query.h"
#include "matroid/uniform_matroid.h"
#include "metric/dense_metric.h"
#include "metric/pruning_index.h"
#include "metric/vector_metric.h"
#include "rpc/shard_node.h"
#include "rpc/wire.h"
#include "submodular/modular_function.h"
#include "util/random.h"

namespace diverse {
namespace {

VectorMetric MakeVectors(int n, int dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data;
  data.reserve(static_cast<std::size_t>(n) * dim);
  for (int i = 0; i < n * dim; ++i) data.push_back(rng.Uniform(-2.0, 2.0));
  return VectorMetric::FromRows(dim, std::move(data));
}

std::vector<int> AllIds(int n) {
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

std::shared_ptr<const PruningIndex> BuildIndex(const MetricBackend& metric,
                                               int n, int pivots) {
  PruningIndex::Options options;
  options.num_pivots = pivots;
  return PruningIndex::Build(metric, AllIds(n), options);
}

// ---- Evaluator-level swap scans --------------------------------------------

class SwapScanFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SwapScanFuzz, PrunedSwapScansBitEqualFullScans) {
  const int seed = GetParam();
  const int n = 60;
  Rng rng(seed * 17 + 1);
  const VectorMetric vectors = MakeVectors(n, 6, seed * 31 + 5);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);
  const ModularFunction quality(weights);
  const DiversificationProblem problem(&vectors, &quality, 0.4);
  const auto index = BuildIndex(vectors, n, 6);
  ASSERT_TRUE(index->usable());

  SolutionState state(&problem);
  Rng picks(seed * 7 + 1);
  for (int i = 0; i < 8; ++i) {
    int v = picks.UniformInt(0, n - 1);
    while (state.Contains(v)) v = picks.UniformInt(0, n - 1);
    state.Add(v);
  }
  const IncrementalEvaluator eval(&state);

  const BestSwapResult full =
      eval.BestSwapOver(state.members(), eval.Universe());
  const BestSwapResult pruned =
      eval.BestSwapOverPruned(state.members(), eval.Universe(), *index);
  EXPECT_EQ(full.out, pruned.out);
  EXPECT_EQ(full.in, pruned.in);
  EXPECT_EQ(full.gain, pruned.gain);  // bitwise

  for (int out : state.members()) {
    const ScoredCandidate a = eval.BestSwapInFor(out, eval.Universe());
    const ScoredCandidate b =
        eval.BestSwapInForPruned(out, eval.Universe(), *index);
    EXPECT_EQ(a.element, b.element) << "out=" << out;
    EXPECT_EQ(a.gain, b.gain);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwapScanFuzz, ::testing::Range(1, 9));

TEST(PrunedSwapScanTest, PruningActuallyPrunesOnClusteredData) {
  ClusteredConfig config;
  config.n = 300;
  config.dimension = 4;
  config.num_clusters = 8;
  Rng rng(51);
  const Dataset data = MakeClusteredEuclidean(config, rng);
  const ModularFunction quality(data.weights);
  const DiversificationProblem problem(&data.metric, &quality, 0.5);
  const auto index = BuildIndex(data.metric, config.n, 8);

  SolutionState state(&problem);
  for (int v = 0; v < 10; ++v) state.Add(v * 29 % config.n);
  const IncrementalEvaluator eval(&state);
  const BestSwapResult full =
      eval.BestSwapOver(state.members(), eval.Universe());
  const BestSwapResult pruned =
      eval.BestSwapOverPruned(state.members(), eval.Universe(), *index);
  EXPECT_EQ(full.out, pruned.out);
  EXPECT_EQ(full.in, pruned.in);
  EXPECT_EQ(full.gain, pruned.gain);
  const IncrementalEvaluator::Stats stats = eval.stats();
  EXPECT_GT(stats.candidates_pruned, 0);
  EXPECT_GT(stats.certified_scans, 0);
  EXPECT_EQ(stats.fallback_scans, 0);  // Euclidean data is a true metric
}

// Non-metric data: a massive triangle violation must be DETECTED (the
// violating scan demotes to the unpruned path) and the answer must still
// be bit-equal to the full scan.
TEST(PrunedSwapScanTest, TriangleViolationFallsBackBitEqual) {
  const int n = 40;
  Rng rng(61);
  Dataset data = MakeUniformSynthetic(n, rng);  // U[1,2]: genuine metric
  // d(0, 25) = 50 breaks every triangle through any pivot (bounds cap
  // pair distances near 4).
  data.metric.SetDistance(0, 25, 50.0);
  const ModularFunction quality(data.weights);
  const DiversificationProblem problem(&data.metric, &quality, 0.4);
  const auto index = BuildIndex(data.metric, n, 5);

  SolutionState state(&problem);
  for (int v : {0, 7, 14, 21}) state.Add(v);  // 0 in S, 25 a candidate
  const IncrementalEvaluator eval(&state);
  const BestSwapResult full =
      eval.BestSwapOver(state.members(), eval.Universe());
  const BestSwapResult pruned =
      eval.BestSwapOverPruned(state.members(), eval.Universe(), *index);
  EXPECT_EQ(full.out, pruned.out);
  EXPECT_EQ(full.in, pruned.in);
  EXPECT_EQ(full.gain, pruned.gain);
  EXPECT_GT(eval.stats().fallback_scans, 0);

  const ScoredCandidate a = eval.BestSwapInFor(0, eval.Universe());
  const ScoredCandidate b =
      eval.BestSwapInForPruned(0, eval.Universe(), *index);
  EXPECT_EQ(a.element, b.element);
  EXPECT_EQ(a.gain, b.gain);
}

// ---- Pruned greedy ---------------------------------------------------------

class PrunedGreedyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PrunedGreedyFuzz, PrunedGreedyBitEqualFullGreedy) {
  const int seed = GetParam();
  const int n = 80;
  Rng rng(seed * 13 + 3);
  const VectorMetric vectors = MakeVectors(n, 5, seed * 41 + 7);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);
  const ModularFunction quality(weights);
  const DiversificationProblem problem(&vectors, &quality, 0.3);

  CandidateScanConfig pruned_config;
  const auto index = BuildIndex(vectors, n, 6);
  pruned_config.pruning = index.get();

  const std::vector<int> candidates = AllIds(n);
  for (int p : {1, 5, 12}) {
    const AlgorithmResult full =
        GreedyVertexOnCandidates(problem, candidates, p);
    const AlgorithmResult pruned =
        GreedyVertexOnCandidates(problem, candidates, p, pruned_config);
    EXPECT_EQ(full.elements, pruned.elements) << "p=" << p;
    EXPECT_EQ(full.objective, pruned.objective);  // bitwise
    EXPECT_EQ(full.steps, pruned.steps);
  }

  // Dense oracle of the same data: identical answers again (resident
  // index, no stored rows).
  const DenseMetric dense = DenseMetric::Materialize(vectors);
  const DiversificationProblem dense_problem(&dense, &quality, 0.3);
  CandidateScanConfig dense_config;
  const auto dense_index = BuildIndex(dense, n, 6);
  dense_config.pruning = dense_index.get();
  const AlgorithmResult dense_full =
      GreedyVertexOnCandidates(dense_problem, candidates, 12);
  const AlgorithmResult dense_pruned =
      GreedyVertexOnCandidates(dense_problem, candidates, 12, dense_config);
  EXPECT_EQ(dense_full.elements, dense_pruned.elements);
  EXPECT_EQ(dense_full.objective, dense_pruned.objective);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedGreedyFuzz, ::testing::Range(1, 9));

TEST(PrunedGreedyTest, ShardedGreedyBitEqualWithPruning) {
  const int n = 90;
  Rng rng(71);
  const VectorMetric vectors = MakeVectors(n, 6, 73);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);
  const ModularFunction quality(weights);
  const DiversificationProblem problem(&vectors, &quality, 0.4);
  CandidateScanConfig config;
  const auto index = BuildIndex(vectors, n, 6);
  config.pruning = index.get();
  const std::vector<int> candidates = AllIds(n);
  const AlgorithmResult full =
      ShardedGreedy(problem, candidates, 10, 4, 0, 99);
  const AlgorithmResult pruned =
      ShardedGreedy(problem, candidates, 10, 4, 0, 99, config);
  EXPECT_EQ(full.elements, pruned.elements);
  EXPECT_EQ(full.objective, pruned.objective);
}

TEST(PrunedGreedyTest, TriangleViolationInGreedyFallsBackBitEqual) {
  const int n = 50;
  Rng rng(81);
  Dataset data = MakeUniformSynthetic(n, rng);
  data.metric.SetDistance(3, 30, 60.0);  // massive violation
  const ModularFunction quality(data.weights);
  const DiversificationProblem problem(&data.metric, &quality, 0.5);
  CandidateScanConfig config;
  const auto index = BuildIndex(data.metric, n, 5);
  config.pruning = index.get();
  const std::vector<int> candidates = AllIds(n);
  const AlgorithmResult full = GreedyVertexOnCandidates(problem, candidates, 8);
  const AlgorithmResult pruned =
      GreedyVertexOnCandidates(problem, candidates, 8, config);
  EXPECT_EQ(full.elements, pruned.elements);
  EXPECT_EQ(full.objective, pruned.objective);
}

// ---- Local search ----------------------------------------------------------

TEST(PrunedLocalSearchTest, LocalSearchBitEqualWithPruning) {
  for (int seed : {1, 2, 3, 4}) {
    const int n = 70;
    Rng rng(seed * 19 + 5);
    const VectorMetric vectors = MakeVectors(n, 5, seed * 23 + 9);
    std::vector<double> weights(n);
    for (double& w : weights) w = rng.Uniform(0.0, 1.0);
    const ModularFunction quality(weights);
    const DiversificationProblem problem(&vectors, &quality, 0.4);
    const UniformMatroid matroid(n, 9);

    const AlgorithmResult full = LocalSearch(problem, matroid, {});
    LocalSearchOptions options;
    const auto index = BuildIndex(vectors, n, 6);
    options.pruning = index.get();
    const AlgorithmResult pruned = LocalSearch(problem, matroid, options);
    EXPECT_EQ(full.elements, pruned.elements) << "seed=" << seed;
    EXPECT_EQ(full.objective, pruned.objective);
  }
}

// ---- Dynamic updater -------------------------------------------------------

TEST(PrunedDynamicTest, ObliviousUpdatesBitEqualWithPruning) {
  const int n = 40;
  for (int seed : {1, 2, 3}) {
    Rng rng(seed * 101 + 11);
    const Dataset base = MakeUniformSynthetic(n, rng);

    // Two identical mutable twins fed the same perturbation stream.
    auto run = [&](bool prune) {
      Rng stream(seed * 7 + 1);
      DenseMetric metric = base.metric;
      ModularFunction weights(base.weights);
      DiversificationProblem problem(&metric, &weights, 0.3);
      std::vector<int> initial;
      for (int i = 0; i < 8; ++i) initial.push_back(i * 5 % n);
      DynamicUpdater updater(&problem, &weights, &metric, initial);
      std::shared_ptr<const PruningIndex> index;
      if (prune) {
        index = BuildIndex(metric, n, 5);
        updater.SetPruning(index.get());
      }
      std::vector<std::vector<int>> trajectory;
      for (int step = 0; step < 30; ++step) {
        // Alternate the paper's VPERTURBATION / EPERTURBATION; U[1, 2]
        // distance draws keep the space a genuine metric (2*lo >= hi).
        const Perturbation perturbation =
            (step % 2 == 0)
                ? RandomWeightPerturbation(weights, stream, 0.0, 1.0)
                : RandomDistancePerturbation(metric, stream, 1.0, 2.0);
        updater.ApplyAndUpdate(perturbation);
        trajectory.push_back(updater.solution());
      }
      return trajectory;
    };

    EXPECT_EQ(run(false), run(true)) << "seed=" << seed;
  }
}

// ---- Engine end-to-end -----------------------------------------------------

bool SameAnswer(const engine::QueryResult& a, const engine::QueryResult& b) {
  return a.ok == b.ok && a.elements == b.elements &&
         a.objective == b.objective && a.corpus_version == b.corpus_version;
}

TEST(PrunedEngineTest, ForceVsOffBitEqualAcrossChurn) {
  const int n = 60;
  const int dim = 6;
  Rng rng(121);
  const VectorMetric vectors = MakeVectors(n, dim, 127);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);

  engine::DiversificationEngine::Options off;
  off.num_workers = 1;
  off.pruning = engine::PruningMode::kOff;
  engine::DiversificationEngine::Options force;
  force.num_workers = 1;
  force.pruning = engine::PruningMode::kForce;
  force.pruning_config.num_pivots = 6;
  force.pruning_config.rebuild_after = 2;  // exercise staleness rebuilds

  engine::DiversificationEngine plain(weights, vectors, 0.3, off);
  engine::DiversificationEngine pruned(weights, vectors, 0.3, force);

  const long long rebuilds_before = GlobalPruningCounters().rebuilds.value();

  engine::Query query;
  query.p = 10;
  engine::Query forced = query;
  forced.pruning = engine::PruningMode::kForce;
  engine::Query sharded = forced;
  sharded.plan = engine::PlanKind::kSharded;
  sharded.num_shards = 3;

  EXPECT_TRUE(SameAnswer(plain.RunSync(query), pruned.RunSync(forced)));
  EXPECT_TRUE(SameAnswer(plain.RunSync(sharded), pruned.RunSync(sharded)));

  for (int e = 0; e < 6; ++e) {
    std::vector<double> fresh(dim);
    for (double& x : fresh) x = rng.Uniform(-2.0, 2.0);
    const double weight = rng.Uniform(0.0, 1.0);
    const std::vector<engine::CorpusUpdate> epoch = {
        engine::CorpusUpdate::InsertVector(weight, fresh),
        engine::CorpusUpdate::Erase(e)};  // ids 0..5 start alive
    plain.ApplyUpdates(epoch);
    pruned.ApplyUpdates(epoch);
    EXPECT_TRUE(SameAnswer(plain.RunSync(query), pruned.RunSync(forced)))
        << "epoch " << e;
    EXPECT_TRUE(SameAnswer(plain.RunSync(sharded), pruned.RunSync(sharded)))
        << "epoch " << e;

    engine::Query local = query;
    local.algorithm = engine::QueryAlgorithm::kLocalSearch;
    engine::Query local_forced = local;
    local_forced.pruning = engine::PruningMode::kForce;
    EXPECT_TRUE(
        SameAnswer(plain.RunSync(local), pruned.RunSync(local_forced)));
  }
  // rebuild_after=2 with 6 structural epochs must have rebuilt at least
  // twice.
  EXPECT_GE(GlobalPruningCounters().rebuilds.value(), rebuilds_before + 2);
}

TEST(PrunedEngineTest, AutoPrunesVectorSnapshotsOnly) {
  const int n = 30;
  Rng rng(131);
  const VectorMetric vectors = MakeVectors(n, 4, 137);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);

  engine::DiversificationEngine::Options options;
  options.num_workers = 1;  // pruning defaults to kAuto
  engine::DiversificationEngine vec_engine(weights, vectors, 0.3, options);
  engine::DiversificationEngine dense_engine(
      weights, DenseMetric::Materialize(vectors), 0.3, options);

  // kAuto resolves the index on the vector snapshot, not the dense one.
  const engine::SnapshotPtr vec_snapshot = vec_engine.corpus().snapshot();
  const engine::SnapshotPtr dense_snapshot = dense_engine.corpus().snapshot();
  ASSERT_NE(vec_snapshot->pruning(), nullptr);
  ASSERT_NE(dense_snapshot->pruning(), nullptr);
  EXPECT_NE(engine::ResolvePruning(*vec_snapshot, engine::PruningMode::kAuto),
            nullptr);
  EXPECT_EQ(
      engine::ResolvePruning(*dense_snapshot, engine::PruningMode::kAuto),
      nullptr);
  EXPECT_NE(
      engine::ResolvePruning(*dense_snapshot, engine::PruningMode::kForce),
      nullptr);
  EXPECT_EQ(engine::ResolvePruning(*vec_snapshot, engine::PruningMode::kOff),
            nullptr);

  // And the two engines agree bitwise on answers either way.
  engine::Query query;
  query.p = 8;
  EXPECT_TRUE(SameAnswer(vec_engine.RunSync(query),
                         dense_engine.RunSync(query)));
}

// ---- Wire-level shard kernels ----------------------------------------------

TEST(PrunedShardNodeTest, KernelRepliesByteEqualWithPruning) {
  const int n = 48;
  Rng rng(141);
  const VectorMetric vectors = MakeVectors(n, 5, 149);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);

  // Same baseline state for both nodes, via the vector-repr state image.
  engine::Corpus corpus(weights, vectors, 0.4);
  engine::CorpusState state = corpus.snapshot()->State();

  rpc::ShardNode::Options off;
  off.pruning = engine::PruningMode::kOff;
  rpc::ShardNode::Options force;
  force.pruning = engine::PruningMode::kForce;
  force.pruning_config.num_pivots = 5;
  rpc::ShardNode plain(engine::CorpusState(state), off);
  rpc::ShardNode pruned(engine::CorpusState(state), force);

  for (int shard = 0; shard < 3; ++shard) {
    rpc::ShardQueryRequest request;
    request.snapshot_version = state.version;
    request.shard_salt = 7;
    request.num_shards = 3;
    request.shard_index = shard;
    request.p = 6;
    request.per_shard = 6;
    const std::vector<std::uint8_t> payload = rpc::Encode(request);
    EXPECT_EQ(plain.Handle(payload), pruned.Handle(payload))
        << "shard " << shard;
  }
}

}  // namespace
}  // namespace diverse
