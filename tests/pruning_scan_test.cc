// Bit-equality suite for pruned swap scans: every pruned variant must
// return EXACTLY what the full scan returns — same elements, same IEEE
// bits of gain/objective — across randomized corpora, local search, the
// engine's answers across churn, and the certify/fallback split
// (non-metric data demotes to a full rescan, never to a wrong answer).
// Also pins the engine's one pruning policy: only vector snapshots carry
// an index (across Restore too), and only their swap scans prune.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "algorithms/local_search.h"
#include "core/incremental_evaluator.h"
#include "core/solution_state.h"
#include "data/synthetic.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/execution_plan.h"
#include "engine/query.h"
#include "matroid/uniform_matroid.h"
#include "metric/dense_metric.h"
#include "metric/pruning_index.h"
#include "metric/vector_metric.h"
#include "rpc/coordinator.h"
#include "rpc/shard_node.h"
#include "rpc/transport.h"
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

// {candidates_pruned, certified_scans, fallback_scans, rebuilds}.
std::array<long long, 4> PruningCounts() {
  const PruningCounters& counters = GlobalPruningCounters();
  return {counters.candidates_pruned.value(), counters.certified_scans.value(),
          counters.fallback_scans.value(), counters.rebuilds.value()};
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
  const std::array<long long, 4> before = PruningCounts();
  const BestSwapResult pruned =
      eval.BestSwapOverPruned(state.members(), eval.Universe(), *index);
  const std::array<long long, 4> after = PruningCounts();
  EXPECT_EQ(full.out, pruned.out);
  EXPECT_EQ(full.in, pruned.in);
  EXPECT_EQ(full.gain, pruned.gain);
  EXPECT_GT(after[0], before[0]);  // candidates pruned
  EXPECT_GT(after[1], before[1]);  // certified scans
  EXPECT_EQ(after[2], before[2]);  // Euclidean data is a true metric
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
  const long long fallbacks_before =
      GlobalPruningCounters().fallback_scans.value();
  const BestSwapResult pruned =
      eval.BestSwapOverPruned(state.members(), eval.Universe(), *index);
  EXPECT_EQ(full.out, pruned.out);
  EXPECT_EQ(full.in, pruned.in);
  EXPECT_EQ(full.gain, pruned.gain);
  EXPECT_GT(GlobalPruningCounters().fallback_scans.value(), fallbacks_before);

  const ScoredCandidate a = eval.BestSwapInFor(0, eval.Universe());
  const ScoredCandidate b =
      eval.BestSwapInForPruned(0, eval.Universe(), *index);
  EXPECT_EQ(a.element, b.element);
  EXPECT_EQ(a.gain, b.gain);
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

// ---- Engine end-to-end -----------------------------------------------------

bool SameAnswer(const engine::QueryResult& a, const engine::QueryResult& b) {
  return a.ok == b.ok && a.elements == b.elements &&
         a.objective == b.objective && a.corpus_version == b.corpus_version;
}

TEST(PrunedEngineTest, AutoVsOffBitEqualAcrossChurn) {
  const int n = 60;
  const int dim = 6;
  Rng rng(121);
  const VectorMetric vectors = MakeVectors(n, dim, 127);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);

  engine::DiversificationEngine::Options off;
  off.num_workers = 1;
  off.pruning = engine::PruningMode::kOff;
  engine::DiversificationEngine::Options automatic;  // pruning = kAuto
  automatic.num_workers = 1;
  automatic.pruning_config.num_pivots = 6;
  automatic.pruning_config.rebuild_after = 2;  // exercise staleness rebuilds

  engine::DiversificationEngine plain(weights, vectors, 0.3, off);
  engine::DiversificationEngine pruned(weights, vectors, 0.3, automatic);

  const long long rebuilds_before = GlobalPruningCounters().rebuilds.value();

  engine::Query query;
  query.p = 10;
  engine::Query sharded = query;
  sharded.plan = engine::PlanKind::kSharded;
  sharded.num_shards = 3;
  engine::Query local = query;
  local.algorithm = engine::QueryAlgorithm::kLocalSearch;

  EXPECT_TRUE(SameAnswer(plain.RunSync(query), pruned.RunSync(query)));
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
    EXPECT_TRUE(SameAnswer(plain.RunSync(query), pruned.RunSync(query)))
        << "epoch " << e;
    EXPECT_TRUE(SameAnswer(plain.RunSync(sharded), pruned.RunSync(sharded)))
        << "epoch " << e;
    EXPECT_TRUE(SameAnswer(plain.RunSync(local), pruned.RunSync(local)))
        << "epoch " << e;
  }
  // rebuild_after=2 with 6 structural epochs must have rebuilt at least
  // twice.
  EXPECT_GE(GlobalPruningCounters().rebuilds.value(), rebuilds_before + 2);
}

// ---- The pruning policy ----------------------------------------------------

// Only swap scans on vector snapshots prune: greedy never does, whatever
// the plan, and dense snapshots never do.
TEST(PruningPolicyTest, OnlyVectorSwapScansPrune) {
  const int n = 60;
  Rng rng(131);
  const VectorMetric vectors = MakeVectors(n, 4, 137);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);

  // Two shard nodes holding the vector baseline, behind a coordinator.
  const engine::CorpusState state =
      engine::Corpus(weights, vectors, 0.3).snapshot()->State();
  std::vector<std::unique_ptr<rpc::ShardNode>> nodes;
  std::vector<std::unique_ptr<rpc::InProcessTransport>> transports;
  std::vector<rpc::Transport*> raw;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(
        std::make_unique<rpc::ShardNode>(engine::CorpusState(state)));
    transports.push_back(
        std::make_unique<rpc::InProcessTransport>(nodes.back().get()));
    raw.push_back(transports.back().get());
  }
  rpc::Coordinator coordinator(raw);

  engine::DiversificationEngine::Options options;  // pruning = kAuto
  options.num_workers = 1;
  options.remote = &coordinator;
  engine::DiversificationEngine vec_engine(weights, vectors, 0.3, options);
  engine::DiversificationEngine dense_engine(
      weights, DenseMetric::Materialize(vectors), 0.3, options);

  // Only the vector corpus carries an index.
  const engine::SnapshotPtr vec_snapshot = vec_engine.corpus().snapshot();
  const engine::SnapshotPtr dense_snapshot = dense_engine.corpus().snapshot();
  ASSERT_NE(vec_snapshot->pruning(), nullptr);
  EXPECT_EQ(dense_snapshot->pruning(), nullptr);
  EXPECT_NE(engine::ResolvePruning(*vec_snapshot), nullptr);
  EXPECT_EQ(engine::ResolvePruning(*dense_snapshot), nullptr);

  engine::Query greedy;
  greedy.p = 8;
  engine::Query sharded = greedy;
  sharded.plan = engine::PlanKind::kSharded;
  sharded.num_shards = 2;
  engine::Query remote = sharded;
  remote.plan = engine::PlanKind::kRemoteSharded;

  for (const engine::Query& query : {greedy, sharded, remote}) {
    const std::array<long long, 4> before = PruningCounts();
    const engine::QueryResult result = vec_engine.RunSync(query);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(PruningCounts(), before)
        << "plan " << static_cast<int>(query.plan);
  }
  EXPECT_GT(coordinator.stats().remote_shards, 0);
  EXPECT_TRUE(SameAnswer(vec_engine.RunSync(sharded),
                         vec_engine.RunSync(remote)));

  engine::Query local = greedy;
  local.algorithm = engine::QueryAlgorithm::kLocalSearch;
  const long long certified_before =
      GlobalPruningCounters().certified_scans.value();
  const engine::QueryResult vec_local = vec_engine.RunSync(local);
  EXPECT_GT(GlobalPruningCounters().certified_scans.value(),
            certified_before);

  const std::array<long long, 4> before = PruningCounts();
  const engine::QueryResult dense_local = dense_engine.RunSync(local);
  EXPECT_EQ(PruningCounts(), before);
  EXPECT_TRUE(SameAnswer(vec_local, dense_local));
  EXPECT_TRUE(
      SameAnswer(vec_engine.RunSync(greedy), dense_engine.RunSync(greedy)));
}

// The pruning setting survives Restore: a restore to a vector image gains
// a usable index, a restore to a dense image drops it, and local search
// answers stay bit-equal to an unpruned corpus on either image.
TEST(PruningPolicyTest, RestoreGainsAndDropsIndexWithRepresentation) {
  const int n = 60;
  Rng rng(139);
  const VectorMetric vectors = MakeVectors(n, 4, 149);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);
  const DenseMetric dense = DenseMetric::Materialize(vectors);
  engine::CorpusState vector_image =
      engine::Corpus(weights, vectors, 0.3).snapshot()->State();
  engine::CorpusState dense_image =
      engine::Corpus(weights, dense, 0.3).snapshot()->State();
  vector_image.version = 5;
  dense_image.version = 9;

  // Both start dense; only `pruned` has pruning enabled.
  engine::Corpus plain(weights, dense, 0.3);
  engine::Corpus pruned(weights, dense, 0.3);
  PruningIndex::Options config;
  config.num_pivots = 6;
  pruned.EnablePruning(config);
  EXPECT_EQ(pruned.snapshot()->pruning(), nullptr);

  engine::Query local;
  local.p = 8;
  local.algorithm = engine::QueryAlgorithm::kLocalSearch;

  plain.Restore(vector_image);
  pruned.Restore(vector_image);
  ASSERT_NE(pruned.snapshot()->pruning(), nullptr);
  EXPECT_TRUE(pruned.snapshot()->pruning()->usable());
  EXPECT_EQ(plain.snapshot()->pruning(), nullptr);
  const long long certified_before =
      GlobalPruningCounters().certified_scans.value();
  EXPECT_TRUE(SameAnswer(engine::ExecuteQuery(*plain.snapshot(), local),
                         engine::ExecuteQuery(*pruned.snapshot(), local)));
  EXPECT_GT(GlobalPruningCounters().certified_scans.value(), certified_before);

  plain.Restore(dense_image);
  pruned.Restore(dense_image);
  EXPECT_EQ(pruned.snapshot()->pruning(), nullptr);
  const std::array<long long, 4> before = PruningCounts();
  EXPECT_TRUE(SameAnswer(engine::ExecuteQuery(*plain.snapshot(), local),
                         engine::ExecuteQuery(*pruned.snapshot(), local)));
  EXPECT_EQ(PruningCounts(), before);
}

}  // namespace
}  // namespace diverse
