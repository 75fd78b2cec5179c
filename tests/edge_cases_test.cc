// Boundary conditions and contract-violation (failure-injection) tests
// across the public API: empty universes, singleton universes, p = 0,
// degenerate metrics, and the death paths of every precondition check.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algorithms/brute_force.h"
#include "algorithms/greedy_edge.h"
#include "algorithms/greedy_vertex.h"
#include "algorithms/knapsack_greedy.h"
#include "algorithms/local_search.h"
#include "algorithms/matching.h"
#include "algorithms/streaming.h"
#include "core/diversification_problem.h"
#include "core/solution_state.h"
#include "data/synthetic.h"
#include "engine/corpus.h"
#include "matroid/matroid.h"
#include "matroid/partition_matroid.h"
#include "matroid/uniform_matroid.h"
#include "metric/dense_metric.h"
#include "metric/vector_metric.h"
#include "submodular/modular_function.h"
#include "submodular/set_function.h"
#include "util/random.h"

namespace diverse {
namespace {

TEST(EdgeCasesTest, SingletonUniverse) {
  DenseMetric metric(1);
  const ModularFunction weights({0.7});
  const DiversificationProblem problem(&metric, &weights, 0.2);
  const AlgorithmResult greedy = GreedyVertex(problem, {.p = 1});
  EXPECT_EQ(greedy.elements, (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(greedy.objective, 0.7);
  const AlgorithmResult opt = BruteForceCardinality(problem, {.p = 1});
  EXPECT_DOUBLE_EQ(opt.objective, 0.7);
}

TEST(EdgeCasesTest, PZeroEverywhere) {
  Rng rng(1);
  Dataset data = MakeUniformSynthetic(6, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  EXPECT_TRUE(GreedyVertex(problem, {.p = 0}).elements.empty());
  EXPECT_TRUE(GreedyEdge(problem, weights, {.p = 0}).elements.empty());
  EXPECT_TRUE(BruteForceCardinality(problem, {.p = 0}).elements.empty());
  const UniformMatroid empty_matroid(6, 0);
  EXPECT_TRUE(LocalSearch(problem, empty_matroid, {}).elements.empty());
}

TEST(EdgeCasesTest, AllZeroDistancesDegenerateMetric) {
  // A pseudo-metric where everything coincides: algorithms reduce to pure
  // quality maximization.
  DenseMetric metric(5);
  const ModularFunction weights({0.1, 0.9, 0.3, 0.7, 0.5});
  const DiversificationProblem problem(&metric, &weights, 1.0);
  const AlgorithmResult greedy = GreedyVertex(problem, {.p = 2});
  EXPECT_NEAR(greedy.objective, 1.6, 1e-12);  // picks 0.9 and 0.7
}

TEST(EdgeCasesTest, AllZeroWeights) {
  Rng rng(2);
  Dataset data = MakeUniformSynthetic(8, rng);
  const ModularFunction weights(std::vector<double>(8, 0.0));
  const DiversificationProblem problem(&data.metric, &weights, 0.5);
  const AlgorithmResult greedy = GreedyVertex(problem, {.p = 3});
  EXPECT_EQ(greedy.elements.size(), 3u);
  EXPECT_GT(greedy.objective, 0.0);  // dispersion only
}

TEST(EdgeCasesTest, LambdaZeroTiesBrokenDeterministically) {
  DenseMetric metric(4);
  const ModularFunction weights({0.5, 0.5, 0.5, 0.5});
  const DiversificationProblem problem(&metric, &weights, 0.0);
  const AlgorithmResult a = GreedyVertex(problem, {.p = 2});
  const AlgorithmResult b = GreedyVertex(problem, {.p = 2});
  EXPECT_EQ(a.elements, b.elements);  // deterministic tie-breaking
}

TEST(EdgeCasesTest, RankOneMatroidLocalSearch) {
  Rng rng(3);
  Dataset data = MakeUniformSynthetic(6, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const UniformMatroid matroid(6, 1);
  const AlgorithmResult ls = LocalSearch(problem, matroid, {});
  ASSERT_EQ(ls.elements.size(), 1u);
  // Rank 1: the best singleton is optimal.
  const AlgorithmResult opt = BruteForceMatroid(problem, matroid);
  EXPECT_NEAR(ls.objective, opt.objective, 1e-12);
}

TEST(EdgeCasesTest, MatroidWithDependentElements) {
  // Elements in a zero-capacity block can never be chosen.
  Rng rng(4);
  Dataset data = MakeUniformSynthetic(6, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const PartitionMatroid matroid({0, 0, 0, 1, 1, 1}, {0, 2});
  const AlgorithmResult ls = LocalSearch(problem, matroid, {});
  for (int e : ls.elements) EXPECT_GE(e, 3);
  EXPECT_EQ(static_cast<int>(ls.elements.size()), 2);
}

TEST(EdgeCasesDeathTest, SolutionStateContractViolations) {
  Rng rng(5);
  Dataset data = MakeUniformSynthetic(5, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  SolutionState state(&problem);
  state.Add(2);
  EXPECT_DEATH(state.Add(2), "already in S");
  EXPECT_DEATH(state.Remove(4), "not in S");
  EXPECT_DEATH(state.Add(7), "");  // out of range
}

TEST(EdgeCasesDeathTest, NegativeLambdaRejected) {
  DenseMetric metric(3);
  const ModularFunction weights({1.0, 1.0, 1.0});
  EXPECT_DEATH(DiversificationProblem(&metric, &weights, -0.5),
               "non-negative");
}

TEST(EdgeCasesDeathTest, GreedyEdgeRequiresMatchingQualityFunction) {
  Rng rng(6);
  Dataset data = MakeUniformSynthetic(5, rng);
  const ModularFunction weights(data.weights);
  const ModularFunction other(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  EXPECT_DEATH(GreedyEdge(problem, other, {.p = 2}), "quality function");
}

TEST(EdgeCasesDeathTest, LocalSearchRejectsDependentInitialSet) {
  Rng rng(7);
  Dataset data = MakeUniformSynthetic(6, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const UniformMatroid matroid(6, 2);
  LocalSearchOptions options;
  options.initial = {0, 1, 2};  // size 3 > rank 2
  EXPECT_DEATH(LocalSearch(problem, matroid, options), "independent");
}

TEST(EdgeCasesDeathTest, CandidateEntriesRejectMalformedLists) {
  Rng rng(9);
  Dataset data = MakeUniformSynthetic(6, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  // A matroid over the first four ids only: id 4 lies beyond it.
  const UniformMatroid matroid(4, 2);
  const std::vector<int> beyond = {0, 2, 4};
  EXPECT_DEATH(LocalSearchOnCandidates(problem, matroid, beyond, {}),
               "matroid's ground set");
  const std::vector<int> unordered = {2, 0, 3};
  EXPECT_DEATH(LocalSearchOnCandidates(problem, matroid, unordered, {}),
               "ascending and distinct");
  KnapsackOptions knapsack;
  knapsack.costs.assign(6, 1.0);
  knapsack.budget = 2.0;
  EXPECT_DEATH(KnapsackGreedyOnCandidates(problem, unordered, knapsack),
               "ascending and distinct");
  // The initial set holds problem ids, and each must be a candidate.
  LocalSearchOptions outside;
  outside.initial = {0, 1};
  const std::vector<int> gapped = {0, 2, 3};
  EXPECT_DEATH(LocalSearchOnCandidates(problem, matroid, gapped, outside),
               "outside the candidate list");
}

TEST(EdgeCasesDeathTest, StreamRejectsDuplicateObservation) {
  Rng rng(8);
  Dataset data = MakeUniformSynthetic(5, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  StreamingDiversifier stream(&problem, 3);
  stream.Observe(1);
  EXPECT_DEATH(stream.Observe(1), "twice");
}

TEST(EdgeCasesDeathTest, MatchingSizeLimits) {
  const std::vector<double> w(25 * 25, 1.0);
  EXPECT_DEATH(MaxWeightMatchingExact(25, w, 2), "n <= 20");
  const std::vector<double> small(16, 1.0);
  EXPECT_DEATH(MaxWeightMatchingExact(4, small, 3), "");  // 2k > n
}

TEST(EdgeCasesDeathTest, DenseMetricValidation) {
  DenseMetric m(3);
  EXPECT_DEATH(m.SetDistance(0, 0, 1.0), "");
  EXPECT_DEATH(m.SetDistance(0, 1, -1.0), "");
  EXPECT_DEATH(m.SetDistance(0, 5, 1.0), "");
}

// Corpus::Apply runs engine::ValidUpdate over the whole batch before it
// mutates anything, and aborts on the first invalid update.
TEST(EdgeCasesDeathTest, CorpusApplyRejectsInvalidUpdates) {
  using engine::CorpusUpdate;
  engine::Corpus vectors({0.5, 0.25},
                         VectorMetric::FromRows(2, {0.0, 1.0, 1.0, 0.0}),
                         0.3);
  EXPECT_DEATH(vectors.Apply(CorpusUpdate::SetDistance(0, 1, 1.0)),
               "update invalid");
  EXPECT_DEATH(vectors.Apply(CorpusUpdate::InsertVector(0.5, {1.0})),
               "update invalid");

  engine::Corpus dense({0.5, 0.25, 0.75}, DenseMetric(3), 0.3);
  EXPECT_DEATH(dense.Apply(CorpusUpdate::SetWeight(1, std::nan(""))),
               "update invalid");
  EXPECT_DEATH(dense.Apply(CorpusUpdate::Erase(3)), "update invalid");
  const std::vector<CorpusUpdate> valid_then_invalid = {
      CorpusUpdate::SetWeight(0, 0.9), CorpusUpdate::Erase(-1)};
  EXPECT_DEATH(dense.Apply(valid_then_invalid), "update invalid");
}

TEST(EdgeCasesTest, LargePGreedyEdgeOddEven) {
  // p == n odd/even paths through the final-vertex logic.
  Rng rng(9);
  for (int n : {5, 6}) {
    Dataset data = MakeUniformSynthetic(n, rng);
    const ModularFunction weights(data.weights);
    const DiversificationProblem problem(&data.metric, &weights, 0.2);
    const AlgorithmResult result = GreedyEdge(problem, weights, {.p = n});
    EXPECT_EQ(static_cast<int>(result.elements.size()), n);
  }
}

TEST(EdgeCasesTest, SolutionStateClear) {
  Rng rng(10);
  Dataset data = MakeUniformSynthetic(6, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  SolutionState state(&problem);
  state.Add(0);
  state.Add(3);
  state.Clear();
  EXPECT_EQ(state.size(), 0);
  EXPECT_DOUBLE_EQ(state.objective(), 0.0);
  for (int v = 0; v < 6; ++v) EXPECT_DOUBLE_EQ(state.DistanceToSet(v), 0.0);
}

}  // namespace
}  // namespace diverse
