// Tests for the concurrent serving engine (src/engine): snapshot-isolated
// queries under concurrent updates, per-query problem views, constraint
// handling over retired ids, and determinism of the sharded plan across
// worker-pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/distributed.h"
#include "algorithms/greedy_vertex.h"
#include "core/diversification_problem.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "matroid/partition_matroid.h"
#include "matroid/uniform_matroid.h"
#include "metric/vector_metric.h"
#include "submodular/modular_function.h"
#include "util/random.h"

namespace diverse {
namespace engine {
namespace {

DiversificationEngine MakeEngine(int n, std::uint64_t seed, double lambda,
                                 DiversificationEngine::Options options) {
  Rng rng(seed);
  Dataset data = MakeUniformSynthetic(n, rng);
  return DiversificationEngine(data.weights, std::move(data.metric), lambda,
                               options);
}

// Reference: the same algorithm the single-node greedy plan runs, executed
// directly on a snapshot's problem view.
std::vector<int> ReferenceGreedy(const CorpusSnapshot& snapshot, int p) {
  return GreedyVertexOnCandidates(snapshot.problem(), snapshot.candidates(),
                                  p)
      .elements;
}

TEST(EngineTest, SingleQueryMatchesGreedyReference) {
  DiversificationEngine engine = MakeEngine(30, 1, 0.3, {.num_workers = 2});
  Query query;
  query.p = 6;
  const QueryResult result = engine.Submit(query).get();
  const SnapshotPtr snapshot = engine.corpus().snapshot();
  EXPECT_EQ(result.corpus_version, 0u);
  EXPECT_EQ(result.elements, ReferenceGreedy(*snapshot, 6));
  EXPECT_NEAR(result.objective,
              snapshot->problem().Objective(result.elements), 1e-9);
  EXPECT_GE(result.latency_seconds, 0.0);
}

TEST(EngineTest, CorpusFromBaseMetricMaterializesOnce) {
  Rng rng(21);
  Dataset data = MakeUniformSynthetic(12, rng);
  std::vector<double> weights(12, 0.5);
  const Corpus corpus =
      Corpus::FromBaseMetric(data.metric, weights, /*lambda=*/0.3);
  const SnapshotPtr snapshot = corpus.snapshot();
  EXPECT_EQ(snapshot->universe_size(), 12);
  for (int u = 0; u < 12; ++u) {
    for (int v = 0; v < 12; ++v) {
      EXPECT_DOUBLE_EQ(snapshot->metric().Distance(u, v),
                       data.metric.Distance(u, v));
    }
  }
}

TEST(EngineTest, SyncAndPooledAnswersAgree) {
  DiversificationEngine engine = MakeEngine(25, 2, 0.25, {.num_workers = 3});
  Query query;
  query.p = 5;
  const QueryResult sync = engine.RunSync(query);
  const QueryResult pooled = engine.Submit(query).get();
  EXPECT_EQ(sync.elements, pooled.elements);
  EXPECT_NEAR(sync.objective, pooled.objective, 1e-12);
}

TEST(EngineTest, PerQueryRelevanceOverridesCorpusWeights) {
  Rng rng(3);
  Dataset data = MakeUniformSynthetic(20, rng);
  DiversificationEngine engine(data.weights, data.metric, 0.1,
                               {.num_workers = 2});
  // A relevance function concentrated on two ids must pull them in.
  std::vector<double> relevance(20, 0.0);
  relevance[7] = 50.0;
  relevance[13] = 50.0;
  Query query;
  query.p = 4;
  query.relevance = relevance;
  const QueryResult result = engine.Submit(query).get();
  const std::set<int> chosen(result.elements.begin(), result.elements.end());
  EXPECT_TRUE(chosen.count(7));
  EXPECT_TRUE(chosen.count(13));

  // And the result is exactly the greedy answer under that relevance.
  const ModularFunction fn(relevance);
  const DiversificationProblem reference_problem(&data.metric, &fn, 0.1);
  std::vector<int> all(20);
  for (int i = 0; i < 20; ++i) all[i] = i;
  EXPECT_EQ(result.elements,
            GreedyVertexOnCandidates(reference_problem, all, 4).elements);
}

TEST(EngineTest, LambdaOverrideChangesTradeoff) {
  Rng rng(4);
  Dataset data = MakeUniformSynthetic(22, rng);
  DiversificationEngine engine(data.weights, data.metric, 0.2,
                               {.num_workers = 1});
  Query query;
  query.p = 5;
  query.lambda = 5.0;  // diversity-dominated
  const QueryResult result = engine.Submit(query).get();
  const ModularFunction weights(data.weights);
  const DiversificationProblem reference(&data.metric, &weights, 5.0);
  std::vector<int> all(22);
  for (int i = 0; i < 22; ++i) all[i] = i;
  EXPECT_EQ(result.elements,
            GreedyVertexOnCandidates(reference, all, 5).elements);
}

TEST(EngineTest, LocalSearchQueryHonorsMatroid) {
  DiversificationEngine engine = MakeEngine(18, 5, 0.3, {.num_workers = 2});
  // Three blocks of six ids, at most two per block.
  std::vector<int> block_of(18);
  for (int e = 0; e < 18; ++e) block_of[e] = e / 6;
  const PartitionMatroid matroid(block_of, {2, 2, 2});
  Query query;
  query.p = 6;
  query.algorithm = QueryAlgorithm::kLocalSearch;
  query.matroid = &matroid;
  const QueryResult result = engine.Submit(query).get();
  EXPECT_TRUE(matroid.IsIndependent(result.elements));
  EXPECT_EQ(result.elements.size(), 6u);
  const SnapshotPtr snapshot = engine.corpus().snapshot();
  EXPECT_NEAR(result.objective,
              snapshot->problem().Objective(result.elements), 1e-9);
}

TEST(EngineTest, StaleMatroidSurvivesRacingInsert) {
  // A client matroid built for the pre-insert id space must keep working
  // (and never admit the new id) after an insert epoch publishes.
  DiversificationEngine engine = MakeEngine(10, 22, 0.3, {.num_workers = 2});
  const UniformMatroid matroid(10, 3);
  std::vector<double> distances(10, 1.5);
  engine.ApplyUpdate(CorpusUpdate::Insert(5.0, std::move(distances)));
  Query query;
  query.p = 3;
  query.algorithm = QueryAlgorithm::kLocalSearch;
  query.matroid = &matroid;
  const QueryResult result = engine.Submit(query).get();
  EXPECT_EQ(result.corpus_version, 1u);
  EXPECT_EQ(result.elements.size(), 3u);
  for (int e : result.elements) EXPECT_LT(e, 10);
}

TEST(EngineTest, KnapsackQueryRespectsBudget) {
  DiversificationEngine engine = MakeEngine(16, 6, 0.3, {.num_workers = 2});
  Query query;
  query.p = 16;  // knapsack ignores p; budget binds
  query.algorithm = QueryAlgorithm::kKnapsack;
  query.costs.assign(16, 1.0);
  query.budget = 3.0;
  const QueryResult result = engine.Submit(query).get();
  EXPECT_LE(result.elements.size(), 3u);
  EXPECT_FALSE(result.elements.empty());
}

// Non-finite query inputs are rejected on the submitting thread. Accepted,
// an infinite relevance aborted a worker (and the process), an infinite
// lambda answered NaN, and an infinite budget lifted the knapsack
// constraint altogether.
TEST(EngineDeathTest, NonFiniteQueryInputsRejectedAtSubmit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DiversificationEngine engine = MakeEngine(12, 7, 0.3, {.num_workers = 1});
  constexpr double kInf = std::numeric_limits<double>::infinity();

  Query relevance;
  relevance.p = 3;
  relevance.relevance.assign(12, 1.0);
  relevance.relevance[4] = kInf;
  EXPECT_DEATH(engine.Submit(relevance), "relevance scores must be finite");

  Query lambda;
  lambda.p = 3;
  lambda.lambda = kInf;
  EXPECT_DEATH(engine.Submit(lambda), "query.lambda must be finite");

  Query knapsack;
  knapsack.algorithm = QueryAlgorithm::kKnapsack;
  knapsack.costs.assign(12, 1.0);
  knapsack.budget = kInf;
  EXPECT_DEATH(engine.Submit(knapsack), "knapsack budget must be finite");
}

TEST(EngineTest, InsertedElementBecomesSelectable) {
  // Low-weight corpus; the inserted element dominates on quality.
  DenseMetric metric(4);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) metric.SetDistance(u, v, 1.0);
  }
  DiversificationEngine engine(std::vector<double>(4, 0.1), metric, 0.01,
                               {.num_workers = 1});
  engine.ApplyUpdate(CorpusUpdate::Insert(10.0, {1.0, 1.0, 1.0, 1.0}));
  Query query;
  query.p = 2;
  const QueryResult result = engine.Submit(query).get();
  EXPECT_EQ(result.corpus_version, 1u);
  EXPECT_NE(std::find(result.elements.begin(), result.elements.end(), 4),
            result.elements.end());
}

TEST(EngineTest, ErasedElementsNeverReturned) {
  DiversificationEngine engine = MakeEngine(20, 7, 0.3, {.num_workers = 2});
  const std::vector<CorpusUpdate> updates = {
      CorpusUpdate::Erase(3), CorpusUpdate::Erase(11),
      CorpusUpdate::Erase(17)};
  engine.ApplyUpdates(updates);
  for (QueryAlgorithm algorithm :
       {QueryAlgorithm::kGreedy, QueryAlgorithm::kLocalSearch,
        QueryAlgorithm::kKnapsack}) {
    Query query;
    query.p = 8;
    query.algorithm = algorithm;
    if (algorithm == QueryAlgorithm::kKnapsack) {
      query.costs.assign(20, 1.0);
      query.budget = 8.0;
    }
    const QueryResult result = engine.Submit(query).get();
    for (int e : result.elements) {
      EXPECT_NE(e, 3);
      EXPECT_NE(e, 11);
      EXPECT_NE(e, 17);
    }
    EXPECT_FALSE(result.elements.empty());
  }
  // Sharded plan too.
  Query sharded;
  sharded.p = 8;
  sharded.plan = PlanKind::kSharded;
  sharded.num_shards = 3;
  const QueryResult result = engine.Submit(sharded).get();
  for (int e : result.elements) {
    EXPECT_NE(e, 3);
    EXPECT_NE(e, 11);
    EXPECT_NE(e, 17);
  }
}

// The corpus holding exactly `snapshot`'s live ids, in ascending order:
// rebuilt id i is live id snapshot.candidates()[i]. Same representation,
// weights, distances (or vectors) and lambda.
Corpus RebuildFromLive(const CorpusSnapshot& snapshot) {
  const std::vector<int>& live = snapshot.candidates();
  const int m = static_cast<int>(live.size());
  std::vector<double> weights(m);
  for (int i = 0; i < m; ++i) weights[i] = snapshot.weights().weight(live[i]);
  if (snapshot.repr() == MetricRepr::kVector) {
    std::vector<double> rows;
    for (int id : live) {
      const std::span<const double> row = snapshot.vectors().row(id);
      rows.insert(rows.end(), row.begin(), row.end());
    }
    return Corpus(std::move(weights),
                  VectorMetric::FromRows(snapshot.dim(), std::move(rows)),
                  snapshot.lambda());
  }
  DenseMetric metric(m);
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      metric.SetDistance(i, j, snapshot.metric().Distance(live[i], live[j]));
    }
  }
  return Corpus(std::move(weights), std::move(metric), snapshot.lambda());
}

// Erases several ids and inserts one, then checks that local search (with
// a partition matroid and with the default uniform one) and knapsack
// answer exactly as on the corpus rebuilt from the live ids: same
// elements (mapped back), same objective bits, same steps. Retired ids
// are absent from every scan, not merely rejected by one.
void ExpectAnswersEqualLiveRestriction(Corpus* corpus,
                                       const CorpusUpdate& insert) {
  std::vector<CorpusUpdate> churn = {CorpusUpdate::Erase(1),
                                     CorpusUpdate::Erase(6),
                                     CorpusUpdate::Erase(7),
                                     CorpusUpdate::Erase(13),
                                     CorpusUpdate::Erase(20), insert};
  corpus->Apply(churn);
  const SnapshotPtr snapshot = corpus->snapshot();
  const std::vector<int>& live = snapshot->candidates();
  ASSERT_EQ(static_cast<int>(live.size()), snapshot->universe_size() - 5);
  const Corpus rebuilt = RebuildFromLive(*snapshot);

  const int n = snapshot->universe_size();
  std::vector<int> block_of(n);
  std::vector<double> costs(n);
  for (int id = 0; id < n; ++id) {
    block_of[id] = id % 3;
    costs[id] = 0.5 + 0.25 * (id % 4);
  }
  std::vector<int> live_block_of;
  std::vector<double> live_costs;
  for (int id : live) {
    live_block_of.push_back(block_of[id]);
    live_costs.push_back(costs[id]);
  }
  const PartitionMatroid matroid(block_of, {2, 2, 2});
  const PartitionMatroid live_matroid(live_block_of, {2, 2, 2});

  Query partition;
  partition.p = 6;
  partition.algorithm = QueryAlgorithm::kLocalSearch;
  partition.matroid = &matroid;
  Query live_partition = partition;
  live_partition.matroid = &live_matroid;

  Query uniform;
  uniform.p = 6;
  uniform.algorithm = QueryAlgorithm::kLocalSearch;

  Query knapsack;
  knapsack.algorithm = QueryAlgorithm::kKnapsack;
  knapsack.costs = costs;
  knapsack.budget = 3.0;
  Query live_knapsack = knapsack;
  live_knapsack.costs = live_costs;

  const std::pair<Query, Query> cases[] = {{partition, live_partition},
                                           {uniform, uniform},
                                           {knapsack, live_knapsack}};
  for (const auto& [query, live_query] : cases) {
    const QueryResult answer = ExecuteQuery(*snapshot, query);
    const QueryResult expected = ExecuteQuery(*rebuilt.snapshot(), live_query);
    std::vector<int> mapped_back;
    for (int e : expected.elements) mapped_back.push_back(live[e]);
    EXPECT_FALSE(answer.elements.empty());
    EXPECT_EQ(answer.elements, mapped_back);
    EXPECT_EQ(answer.objective, expected.objective);
    EXPECT_EQ(answer.steps, expected.steps);
  }
}

TEST(EngineTest, RetiredIdsAnswerAsLiveRestrictionDense) {
  Rng rng(31);
  Dataset data = MakeUniformSynthetic(24, rng);
  Corpus corpus(data.weights, std::move(data.metric), 0.3);
  std::vector<double> distances(24);
  for (double& d : distances) d = rng.Uniform(1.0, 2.0);
  ExpectAnswersEqualLiveRestriction(
      &corpus, CorpusUpdate::Insert(0.9, std::move(distances)));
}

TEST(EngineTest, RetiredIdsAnswerAsLiveRestrictionVector) {
  Rng rng(32);
  constexpr int kDim = 4;
  std::vector<double> weights(24);
  for (double& w : weights) w = rng.Uniform();
  std::vector<double> rows(24 * kDim);
  for (double& x : rows) x = rng.Uniform(-1.0, 1.0);
  Corpus corpus(std::move(weights),
                VectorMetric::FromRows(kDim, std::move(rows)), 0.3);
  std::vector<double> vector(kDim);
  for (double& x : vector) x = rng.Uniform(-1.0, 1.0);
  ExpectAnswersEqualLiveRestriction(
      &corpus, CorpusUpdate::InsertVector(0.9, std::move(vector)));
}

// Every id retired: each algorithm and plan answers the empty set, with
// objective 0, at the erasing version.
TEST(EngineTest, AllRetiredCorpusAnswersEmpty) {
  DiversificationEngine engine = MakeEngine(8, 33, 0.3, {.num_workers = 2});
  std::vector<CorpusUpdate> erase_all;
  for (int id = 0; id < 8; ++id) erase_all.push_back(CorpusUpdate::Erase(id));
  engine.ApplyUpdates(erase_all);
  const std::uint64_t version = engine.corpus().version();
  ASSERT_TRUE(engine.corpus().snapshot()->candidates().empty());

  Query greedy;
  greedy.p = 3;
  Query local_search = greedy;
  local_search.algorithm = QueryAlgorithm::kLocalSearch;
  Query knapsack;
  knapsack.algorithm = QueryAlgorithm::kKnapsack;
  knapsack.costs.assign(8, 1.0);
  knapsack.budget = 3.0;
  Query sharded = greedy;
  sharded.plan = PlanKind::kSharded;
  sharded.num_shards = 3;
  for (const Query& query : {greedy, local_search, knapsack, sharded}) {
    const QueryResult result = engine.Submit(query).get();
    EXPECT_TRUE(result.elements.empty());
    EXPECT_EQ(result.objective, 0.0);
    EXPECT_EQ(result.corpus_version, version);
  }
}

TEST(EngineTest, ShardedPlanIndependentOfWorkerPoolSize) {
  std::vector<std::vector<int>> answers;
  for (int workers : {1, 2, 4}) {
    DiversificationEngine engine =
        MakeEngine(60, 8, 0.3, {.num_workers = workers, .max_batch = 2});
    Query query;
    query.p = 8;
    query.plan = PlanKind::kSharded;
    query.num_shards = 4;
    query.shard_salt = 42;
    // Several in flight at once so batching boundaries differ by pool.
    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 6; ++i) futures.push_back(engine.Submit(query));
    std::vector<std::vector<int>> results;
    for (auto& future : futures) results.push_back(future.get().elements);
    for (const std::vector<int>& elements : results) {
      EXPECT_EQ(elements, results[0]);
    }
    answers.push_back(results[0]);
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[0], answers[2]);
}

TEST(EngineTest, ShardedPlanMatchesDirectShardedGreedy) {
  Rng rng(9);
  Dataset data = MakeUniformSynthetic(50, rng);
  DiversificationEngine engine(data.weights, data.metric, 0.3,
                               {.num_workers = 2});
  Query query;
  query.p = 7;
  query.plan = PlanKind::kSharded;
  query.num_shards = 5;
  query.shard_salt = 7;
  const QueryResult result = engine.Submit(query).get();
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.3);
  std::vector<int> all(50);
  for (int i = 0; i < 50; ++i) all[i] = i;
  const AlgorithmResult direct = ShardedGreedy(problem, all, 7, 5, 0, 7);
  EXPECT_EQ(result.elements, direct.elements);
  EXPECT_NEAR(result.objective, direct.objective, 1e-12);
}

TEST(EngineTest, BatchingAmortizesSnapshots) {
  DiversificationEngine engine =
      MakeEngine(24, 10, 0.3, {.num_workers = 1, .max_batch = 8});
  Query query;
  query.p = 4;
  std::vector<Query> queries(20, query);
  std::vector<std::future<QueryResult>> futures =
      engine.SubmitBatch(std::move(queries));
  for (auto& future : futures) future.get();
  const DiversificationEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.queries_served, 20);
  // 20 jobs on one worker at max_batch 8 drain in at most 3 wakeups.
  EXPECT_LE(stats.batches, 3);
  EXPECT_EQ(stats.snapshots_acquired, stats.batches);
}

// The paper-§6 bridge: perturbations map to the equivalent corpus update.
TEST(EngineTest, PerturbationBridge) {
  Perturbation weight_perturbation;
  weight_perturbation.type = PerturbationType::kWeightDecrease;
  weight_perturbation.u = 3;
  weight_perturbation.old_value = 0.9;
  weight_perturbation.new_value = 0.4;
  const CorpusUpdate weight_update =
      CorpusUpdate::FromPerturbation(weight_perturbation);
  EXPECT_EQ(weight_update.kind, CorpusUpdate::Kind::kSetWeight);
  EXPECT_EQ(weight_update.u, 3);
  EXPECT_DOUBLE_EQ(weight_update.value, 0.4);

  Perturbation distance_perturbation;
  distance_perturbation.type = PerturbationType::kDistanceIncrease;
  distance_perturbation.u = 1;
  distance_perturbation.v = 5;
  distance_perturbation.old_value = 1.2;
  distance_perturbation.new_value = 1.9;
  const CorpusUpdate distance_update =
      CorpusUpdate::FromPerturbation(distance_perturbation);
  EXPECT_EQ(distance_update.kind, CorpusUpdate::Kind::kSetDistance);
  EXPECT_EQ(distance_update.u, 1);
  EXPECT_EQ(distance_update.v, 5);
  EXPECT_DOUBLE_EQ(distance_update.value, 1.9);
}

// One update epoch racing a stream of queries: every answer must equal the
// reference answer on the pre-update or post-update version — never a
// torn mix of the two.
TEST(EngineTest, QueriesDuringUpdateMatchPreOrPostAnswer) {
  DiversificationEngine engine =
      MakeEngine(18, 11, 0.4, {.num_workers = 3, .max_batch = 2});
  const SnapshotPtr pre = engine.corpus().snapshot();

  Query query;
  query.p = 4;
  std::vector<std::future<QueryResult>> futures;
  std::thread writer([&engine] {
    // A weight spike plus a distance rewrite: both change the greedy
    // answer with high probability.
    const std::vector<CorpusUpdate> updates = {
        CorpusUpdate::SetWeight(0, 25.0),
        CorpusUpdate::SetDistance(1, 2, 2.0)};
    engine.ApplyUpdates(updates);
  });
  for (int i = 0; i < 40; ++i) futures.push_back(engine.Submit(query));
  writer.join();
  const SnapshotPtr post = engine.corpus().snapshot();

  const std::vector<int> pre_answer = ReferenceGreedy(*pre, 4);
  const std::vector<int> post_answer = ReferenceGreedy(*post, 4);
  for (auto& future : futures) {
    const QueryResult result = future.get();
    if (result.corpus_version == pre->version()) {
      EXPECT_EQ(result.elements, pre_answer);
    } else {
      EXPECT_EQ(result.corpus_version, post->version());
      EXPECT_EQ(result.elements, post_answer);
    }
  }
}

// Sustained stress: a writer publishing many epochs (weights, distances,
// inserts, erases) while readers query concurrently. Every result must be
// exactly the reference answer computed on the snapshot of the version it
// reports — the snapshot-isolation contract, checked under ASan/UBSan in
// the sanitizer CI configurations.
TEST(EngineTest, ConcurrentUpdateStressServesConsistentVersions) {
  DiversificationEngine engine =
      MakeEngine(24, 12, 0.3, {.num_workers = 3, .max_batch = 3});

  std::map<std::uint64_t, SnapshotPtr> versions;
  versions[0] = engine.corpus().snapshot();

  constexpr int kEpochs = 25;
  std::thread writer([&engine, &versions] {
    Rng rng(99);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      std::vector<CorpusUpdate> updates;
      const int n = engine.corpus().snapshot()->universe_size();
      updates.push_back(
          CorpusUpdate::SetWeight(rng.UniformInt(0, n - 1), rng.Uniform()));
      const int u = rng.UniformInt(0, n - 2);
      updates.push_back(CorpusUpdate::SetDistance(
          u, rng.UniformInt(u + 1, n - 1), rng.Uniform(1.0, 2.0)));
      if (epoch % 7 == 3) {
        std::vector<double> distances(n);
        for (double& d : distances) d = rng.Uniform(1.0, 2.0);
        updates.push_back(
            CorpusUpdate::Insert(rng.Uniform(), std::move(distances)));
      }
      if (epoch % 11 == 5) {
        updates.push_back(CorpusUpdate::Erase(rng.UniformInt(0, n - 1)));
      }
      engine.ApplyUpdates(updates);
      // The writer is the only mutator, so the snapshot taken right after
      // Apply is exactly the version it published.
      SnapshotPtr snapshot = engine.corpus().snapshot();
      versions[snapshot->version()] = std::move(snapshot);
      std::this_thread::yield();
    }
  });

  Query query;
  query.p = 5;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 120; ++i) {
    futures.push_back(engine.Submit(query));
    if (i % 4 == 0) std::this_thread::yield();
  }
  writer.join();

  ASSERT_EQ(versions.size(), static_cast<std::size_t>(kEpochs) + 1);
  for (auto& future : futures) {
    const QueryResult result = future.get();
    const auto it = versions.find(result.corpus_version);
    ASSERT_NE(it, versions.end()) << "unknown version served";
    const CorpusSnapshot& snapshot = *it->second;
    EXPECT_EQ(result.elements, ReferenceGreedy(snapshot, 5));
    EXPECT_NEAR(result.objective,
                snapshot.problem().Objective(result.elements), 1e-9);
    for (int e : result.elements) EXPECT_TRUE(snapshot.alive(e));
  }
}

// Every distance of a dense metric, row-major: a deep copy, unlike a
// DenseMetric copy, which shares its rows.
std::vector<double> DenseValues(const DenseMetric& metric) {
  const int n = metric.size();
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(n) * n);
  for (int u = 0; u < n; ++u) {
    values.insert(values.end(), metric.TryRow(u), metric.TryRow(u) + n);
  }
  return values;
}

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    bits[i] = std::bit_cast<std::uint64_t>(values[i]);
  }
  return bits;
}

// Distance epochs clone the rows they write instead of writing into rows
// an older snapshot still reads: a snapshot held across 20 of them keeps
// the values its own State() showed before them, bit for bit.
TEST(EngineTest, HeldSnapshotKeepsItsValuesAcrossDistanceEpochs) {
  Rng rng(31);
  Dataset data = MakeUniformSynthetic(16, rng);
  Corpus corpus(data.weights, std::move(data.metric), 0.3);
  const SnapshotPtr held = corpus.snapshot();
  const CorpusState before = held->State();
  const std::vector<double> before_values = DenseValues(before.metric);
  for (int epoch = 0; epoch < 20; ++epoch) {
    std::vector<CorpusUpdate> updates;
    for (int i = 0; i < 3; ++i) {
      const int u = rng.UniformInt(0, 14);
      const int v = rng.UniformInt(u + 1, 15);
      const double d = rng.Uniform(2.0, 3.0);
      updates.push_back(CorpusUpdate::SetDistance(u, v, d));
    }
    updates.push_back(CorpusUpdate::SetWeight(epoch % 16, rng.Uniform()));
    corpus.Apply(updates);
  }
  const SnapshotPtr now = corpus.snapshot();
  EXPECT_EQ(now->version(), 20u);
  EXPECT_NE(Bits(DenseValues(now->metric())), Bits(before_values));
  EXPECT_EQ(Bits(DenseValues(held->metric())), Bits(before_values));
  EXPECT_EQ(held->weights().weights(), before.weights);
  EXPECT_EQ(held->version(), before.version);
}

// A distance epoch clones exactly the two rows it writes; the next version
// shares every other row with the one before it.
TEST(EngineTest, ConsecutiveVersionsShareUntouchedRows) {
  Rng rng(32);
  const int n = 12;
  Dataset data = MakeUniformSynthetic(n, rng);
  Corpus corpus(data.weights, std::move(data.metric), 0.3);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const SnapshotPtr prev = corpus.snapshot();
    const int u = rng.UniformInt(0, n - 2);
    const int v = rng.UniformInt(u + 1, n - 1);
    const double old_value = prev->metric().Distance(u, v);
    corpus.Apply(CorpusUpdate::SetDistance(u, v, 2.5 + epoch));
    const SnapshotPtr next = corpus.snapshot();
    for (int w = 0; w < n; ++w) {
      if (w == u || w == v) {
        EXPECT_NE(next->metric().TryRow(w), prev->metric().TryRow(w));
      } else {
        EXPECT_EQ(next->metric().TryRow(w), prev->metric().TryRow(w))
            << "row " << w << " of version " << next->version();
      }
    }
    EXPECT_EQ(next->metric().Distance(v, u), 2.5 + epoch);
    EXPECT_EQ(prev->metric().Distance(v, u), old_value);
  }
  // A weight-only epoch shares the whole metric.
  const SnapshotPtr prev = corpus.snapshot();
  corpus.Apply(CorpusUpdate::SetWeight(0, 0.5));
  EXPECT_EQ(&corpus.snapshot()->metric(), &prev->metric());
}

// One epoch with k = 3 inserts interleaved with distance writes, some of
// them to the inserted ids, equals the matrix built pair by pair.
TEST(EngineTest, DenseInsertEpochMatchesFromMatrixReference) {
  Rng rng(33);
  const int n = 9;
  const int k = 3;
  const int m = n + k;
  Dataset data = MakeUniformSynthetic(n, rng);
  std::vector<double> want(static_cast<std::size_t>(m) * m, 0.0);
  const auto set = [&want, m](int u, int v, double d) {
    want[static_cast<std::size_t>(u) * m + v] = d;
    want[static_cast<std::size_t>(v) * m + u] = d;
  };
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) set(u, v, data.metric.Distance(u, v));
  }
  Corpus corpus(data.weights, std::move(data.metric), 0.3);
  const SnapshotPtr before = corpus.snapshot();
  const std::vector<double> before_values = DenseValues(before->metric());

  std::vector<CorpusUpdate> updates;
  updates.push_back(CorpusUpdate::SetDistance(1, 2, 3.5));
  set(1, 2, 3.5);
  for (int i = 0; i < k; ++i) {
    std::vector<double> distances(n + i);
    for (int j = 0; j < n + i; ++j) {
      distances[j] = rng.Uniform(1.0, 2.0);
      set(n + i, j, distances[j]);
    }
    updates.push_back(CorpusUpdate::Insert(rng.Uniform(), distances));
    updates.push_back(CorpusUpdate::SetDistance(n + i, i, 4.0 + i));
    set(n + i, i, 4.0 + i);
  }
  updates.push_back(CorpusUpdate::SetDistance(n, n + 2, 5.5));
  set(n, n + 2, 5.5);
  corpus.Apply(updates);

  const DenseMetric reference = DenseMetric::FromMatrix(m, want);
  const DenseMetric& got = corpus.snapshot()->metric();
  ASSERT_EQ(got.size(), m);
  EXPECT_EQ(Bits(DenseValues(got)), Bits(DenseValues(reference)));
  EXPECT_EQ(Bits(DenseValues(before->metric())), Bits(before_values));
  EXPECT_EQ(static_cast<int>(corpus.snapshot()->candidates().size()), m);
}

TEST(ShardAssignmentTest, PartitionsEveryCandidateExactlyOnce) {
  std::vector<int> candidates;
  for (int e = 0; e < 97; e += 2) candidates.push_back(e);
  const std::vector<std::vector<int>> shards =
      AssignShards(candidates, 5, /*salt=*/123);
  ASSERT_EQ(shards.size(), 5u);
  std::vector<int> recovered;
  for (const std::vector<int>& shard : shards) {
    for (int e : shard) {
      recovered.push_back(e);
      EXPECT_EQ(ShardOf(123, e, 5),
                static_cast<int>(&shard - shards.data()));
    }
  }
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, candidates);
}

TEST(ShardAssignmentTest, StableUnderCandidateReordering) {
  // The shard of an element depends only on (salt, element, num_shards) —
  // not on how the candidate list is ordered or what else it contains.
  for (int e : {0, 1, 17, 1000, 123456}) {
    const int shard = ShardOf(7, e, 8);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 8);
    EXPECT_EQ(ShardOf(7, e, 8), shard);
  }
}

TEST(DistributedGreedyTest, DeterministicGivenSeed) {
  Rng data_rng(13);
  Dataset data = MakeUniformSynthetic(40, data_rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  Rng rng_a(77);
  Rng rng_b(77);
  const AlgorithmResult a =
      DistributedGreedy(problem, {.p = 6, .num_shards = 4}, rng_a);
  const AlgorithmResult b =
      DistributedGreedy(problem, {.p = 6, .num_shards = 4}, rng_b);
  EXPECT_EQ(a.elements, b.elements);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

}  // namespace
}  // namespace engine
}  // namespace diverse
