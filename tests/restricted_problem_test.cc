// Restriction parity: each candidate entry, run on a gapped id list, must
// answer exactly as the plain algorithm on the problem rebuilt from those
// ids alone (elements, objective bits and steps), over dense and vector
// metrics, modular and coverage quality, partition and graphic matroids.
// A full list must serve the problem itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/distributed.h"
#include "algorithms/greedy_vertex.h"
#include "algorithms/knapsack_greedy.h"
#include "algorithms/local_search.h"
#include "core/diversification_problem.h"
#include "core/restricted_problem.h"
#include "matroid/graphic_matroid.h"
#include "matroid/partition_matroid.h"
#include "metric/dense_metric.h"
#include "metric/vector_metric.h"
#include "submodular/coverage_function.h"
#include "submodular/modular_function.h"
#include "util/random.h"

namespace diverse {
namespace {

constexpr int kN = 48;
constexpr int kDim = 4;
constexpr int kTopics = 12;
constexpr int kVertices = 10;
constexpr double kLambda = 0.3;

// Per-id data every instance is built from, over any id list: kN x kDim
// points, modular weights, coverage topics, partition blocks, graphic
// edges and knapsack costs.
struct Data {
  std::vector<double> rows;
  std::vector<double> weights;
  std::vector<std::vector<int>> covers;
  std::vector<double> topic_weights;
  std::vector<int> block_of;
  std::vector<std::pair<int, int>> edges;
  std::vector<double> costs;
};

Data MakeData(std::uint64_t seed) {
  Rng rng(seed);
  Data data;
  data.rows.resize(kN * kDim);
  for (double& x : data.rows) x = rng.Uniform(0.0, 10.0);
  for (int e = 0; e < kN; ++e) {
    data.weights.push_back(rng.Uniform(0.0, 1.0));
    data.covers.push_back(
        rng.SampleWithoutReplacement(kTopics, rng.UniformInt(1, 3)));
    data.block_of.push_back(e % 4);
    data.edges.emplace_back(rng.UniformInt(0, kVertices - 1),
                            rng.UniformInt(0, kVertices - 1));
    data.costs.push_back(rng.Uniform(0.5, 2.0));
  }
  for (int t = 0; t < kTopics; ++t) {
    data.topic_weights.push_back(rng.Uniform(0.2, 1.0));
  }
  return data;
}

// A problem and its matroids built from the data of `ids` alone.
struct Instance {
  std::unique_ptr<MetricSpace> metric;
  std::unique_ptr<SetFunction> quality;
  std::unique_ptr<DiversificationProblem> problem;
  std::unique_ptr<Matroid> partition;
  std::unique_ptr<Matroid> graphic;
};

Instance Build(const Data& data, std::span<const int> ids, bool dense,
               bool coverage) {
  std::vector<double> rows;
  std::vector<double> weights;
  std::vector<std::vector<int>> covers;
  std::vector<int> block_of;
  std::vector<std::pair<int, int>> edges;
  for (int id : ids) {
    rows.insert(rows.end(), data.rows.begin() + id * kDim,
                data.rows.begin() + (id + 1) * kDim);
    weights.push_back(data.weights[id]);
    covers.push_back(data.covers[id]);
    block_of.push_back(data.block_of[id]);
    edges.push_back(data.edges[id]);
  }
  Instance instance;
  auto vectors =
      std::make_unique<VectorMetric>(VectorMetric::FromRows(kDim, rows));
  if (dense) {
    instance.metric =
        std::make_unique<DenseMetric>(DenseMetric::Materialize(*vectors));
  } else {
    instance.metric = std::move(vectors);
  }
  if (coverage) {
    instance.quality =
        std::make_unique<CoverageFunction>(covers, data.topic_weights);
  } else {
    instance.quality = std::make_unique<ModularFunction>(weights);
  }
  instance.problem = std::make_unique<DiversificationProblem>(
      instance.metric.get(), instance.quality.get(), kLambda);
  instance.partition = std::make_unique<PartitionMatroid>(
      block_of, std::vector<int>{2, 1, 2, 1});
  instance.graphic = std::make_unique<GraphicMatroid>(kVertices, edges);
  return instance;
}

std::vector<int> AllIds(int n) {
  std::vector<int> ids(n);
  for (int e = 0; e < n; ++e) ids[e] = e;
  return ids;
}

// Churned-like live ids: a retired prefix, then scattered erasures.
std::vector<int> GappedIds(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> ids;
  for (int e = 5; e < kN; ++e) {
    if (rng.Uniform(0.0, 1.0) < 0.7) ids.push_back(e);
  }
  return ids;
}

std::vector<int> Mapped(std::span<const int> ids, std::vector<int> local) {
  for (int& e : local) e = ids[e];
  return local;
}

void ExpectSameAnswer(const AlgorithmResult& got, const AlgorithmResult& want) {
  EXPECT_EQ(got.elements, want.elements);
  EXPECT_EQ(got.objective, want.objective);  // bit-equal
  EXPECT_EQ(got.steps, want.steps);
}

// The two-round plan with every Greedy B run on its own rebuilt problem:
// each shard's, and the kernel's.
AlgorithmResult RebuiltShardedGreedy(const Data& data, bool dense,
                                     bool coverage, const Instance& full,
                                     std::span<const int> candidates, int p,
                                     int num_shards, std::uint64_t salt) {
  AlgorithmResult result;
  long long shard_steps = 0;
  std::vector<int> kernel;
  std::vector<int> best_local;
  double best_local_objective = -std::numeric_limits<double>::infinity();
  for (const std::vector<int>& shard :
       AssignShards(candidates, num_shards, salt)) {
    if (shard.empty()) continue;
    const Instance own = Build(data, shard, dense, coverage);
    const AlgorithmResult local = GreedyVertex(*own.problem, {.p = p});
    shard_steps += local.steps;
    const std::vector<int> elements = Mapped(shard, local.elements);
    kernel.insert(kernel.end(), elements.begin(), elements.end());
    const double value = full.problem->Objective(elements);
    if (value > best_local_objective) {
      best_local_objective = value;
      best_local = elements;
    }
  }
  std::sort(kernel.begin(), kernel.end());
  kernel.erase(std::unique(kernel.begin(), kernel.end()), kernel.end());
  const Instance own = Build(data, kernel, dense, coverage);
  result = GreedyVertex(*own.problem, {.p = p});
  result.elements = Mapped(kernel, result.elements);
  if (best_local_objective > result.objective) {
    result.elements = best_local;
    result.objective = best_local_objective;
  }
  result.steps += shard_steps;
  return result;
}

// Local search on `live` against the rebuilt problem, under the partition
// or the graphic matroid, from the paper's start and from an initial set
// given in problem ids, under both basis completions; and the best pair.
void ExpectLocalSearchParity(const Instance& full, const Instance& rebuilt,
                             std::span<const int> live, bool graphic) {
  const Matroid& matroid = graphic ? *full.graphic : *full.partition;
  const Matroid& own_matroid = graphic ? *rebuilt.graphic : *rebuilt.partition;
  const std::vector<int> own_ids = AllIds(static_cast<int>(live.size()));
  const std::vector<int> pair =
      BestIndependentPair(*full.problem, matroid, live);
  const std::vector<int> own_pair =
      BestIndependentPair(*rebuilt.problem, own_matroid, own_ids);
  EXPECT_EQ(pair, Mapped(live, own_pair));
  for (bool greedy_completion : {true, false}) {
    for (bool from_pair : {false, true}) {
      LocalSearchOptions options;
      options.greedy_completion = greedy_completion;
      LocalSearchOptions own_options = options;
      if (from_pair && pair.size() == 2 && own_pair.size() == 2) {
        options.initial = {pair[1]};
        own_options.initial = {own_pair[1]};
      }
      AlgorithmResult want =
          LocalSearch(*rebuilt.problem, own_matroid, own_options);
      want.elements = Mapped(live, want.elements);
      const AlgorithmResult got =
          LocalSearchOnCandidates(*full.problem, matroid, live, options);
      ExpectSameAnswer(got, want);
    }
  }
}

class RestrictionParityTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(RestrictionParityTest, CandidateEntriesEqualRebuiltProblem) {
  const auto [dense, coverage] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Data data = MakeData(seed);
    const Instance full = Build(data, AllIds(kN), dense, coverage);
    const std::vector<int> live = GappedIds(seed + 100);
    const Instance rebuilt = Build(data, live, dense, coverage);
    const DiversificationProblem& problem = *full.problem;

    // Greedy B.
    AlgorithmResult want = GreedyVertex(*rebuilt.problem, {.p = 6});
    want.elements = Mapped(live, want.elements);
    ExpectSameAnswer(GreedyVertexOnCandidates(problem, live, 6), want);

    // Knapsack, one- and two-element seeds, costs gathered by id.
    for (int seed_size : {1, 2}) {
      KnapsackOptions options;
      options.costs = data.costs;
      options.budget = 4.0;
      options.seed_size = seed_size;
      KnapsackOptions own_options = options;
      own_options.costs.clear();
      for (int id : live) own_options.costs.push_back(data.costs[id]);
      want = KnapsackGreedy(*rebuilt.problem, own_options);
      want.elements = Mapped(live, want.elements);
      const AlgorithmResult got =
          KnapsackGreedyOnCandidates(problem, live, options);
      ExpectSameAnswer(got, want);
    }

    // The two-round sharded plan.
    want = RebuiltShardedGreedy(data, dense, coverage, full, live, 5, 3, seed);
    ExpectSameAnswer(ShardedGreedy(problem, live, 5, 3, 0, seed), want);

    // Local search under both matroids.
    ExpectLocalSearchParity(full, rebuilt, live, /*graphic=*/false);
    ExpectLocalSearchParity(full, rebuilt, live, /*graphic=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(MetricsAndQualities, RestrictionParityTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// A full list restricts to the problem itself: the same metric object (so
// DenseMetric keeps its zero-copy rows), quality and matroid. A gapped
// list gets views that forward the triangle-inequality declaration.
TEST(RestrictTest, FullListServesTheProblemItself) {
  const Data data = MakeData(7);
  for (bool dense : {true, false}) {
    const Instance full = Build(data, AllIds(kN), dense, false);
    const std::vector<int> all = AllIds(kN);
    const RestrictedProblem same =
        Restrict(*full.problem, all, full.partition.get());
    EXPECT_EQ(&same.problem().metric(), full.metric.get());
    EXPECT_EQ(same.problem().metric().TryRow(3), full.metric->TryRow(3));
    EXPECT_EQ(&same.problem().quality(), full.quality.get());
    EXPECT_EQ(&same.matroid(), full.partition.get());

    const std::vector<int> live = GappedIds(8);
    const RestrictedProblem gapped =
        Restrict(*full.problem, live, full.partition.get());
    EXPECT_NE(&gapped.problem().metric(), full.metric.get());
    EXPECT_EQ(gapped.problem().size(), static_cast<int>(live.size()));
    EXPECT_EQ(gapped.problem().metric().ObeysTriangleInequality(),
              full.metric->ObeysTriangleInequality());
    EXPECT_EQ(gapped.problem().metric().ObeysPtolemyInequality(),
              full.metric->ObeysPtolemyInequality());
    const std::vector<int> local = {0, 2, 4};
    EXPECT_EQ(gapped.ToLocal(gapped.ToGlobal(local)), local);
  }
  // A prefix of the problem's ids that is the whole matroid ground set
  // keeps the matroid while restricting the problem.
  const Instance full = Build(data, AllIds(kN), true, false);
  const PartitionMatroid prefix(std::vector<int>(10, 0), {3});
  const RestrictedProblem head = Restrict(*full.problem, AllIds(10), &prefix);
  EXPECT_EQ(&head.matroid(), &prefix);
  EXPECT_EQ(head.problem().size(), 10);
}

}  // namespace
}  // namespace diverse
