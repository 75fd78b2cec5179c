#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algorithms/brute_force.h"
#include "algorithms/greedy_vertex.h"
#include "algorithms/local_search.h"
#include "core/diversification_problem.h"
#include "data/synthetic.h"
#include "matroid/graphic_matroid.h"
#include "matroid/partition_matroid.h"
#include "matroid/transversal_matroid.h"
#include "matroid/uniform_matroid.h"
#include "submodular/coverage_function.h"
#include "submodular/modular_function.h"
#include "util/random.h"

namespace diverse {
namespace {

TEST(LocalSearchTest, ReturnsABasis) {
  Rng rng(1);
  Dataset data = MakeUniformSynthetic(12, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const PartitionMatroid matroid({0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2},
                                 {2, 1, 2});
  const AlgorithmResult result = LocalSearch(problem, matroid, {});
  EXPECT_EQ(static_cast<int>(result.elements.size()), matroid.rank());
  EXPECT_TRUE(matroid.IsIndependent(result.elements));
}

TEST(LocalSearchTest, LocallyOptimalUnderSingleSwaps) {
  Rng rng(2);
  Dataset data = MakeUniformSynthetic(10, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const UniformMatroid matroid(10, 4);
  const AlgorithmResult result = LocalSearch(problem, matroid, {});
  // No single swap may improve the objective.
  for (int out : result.elements) {
    for (int in = 0; in < 10; ++in) {
      if (std::find(result.elements.begin(), result.elements.end(), in) !=
          result.elements.end()) {
        continue;
      }
      std::vector<int> swapped;
      for (int e : result.elements) {
        if (e != out) swapped.push_back(e);
      }
      swapped.push_back(in);
      EXPECT_LE(problem.Objective(swapped), result.objective + 1e-9);
    }
  }
}

TEST(LocalSearchTest, RespectsInitialSet) {
  Rng rng(3);
  Dataset data = MakeUniformSynthetic(8, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const UniformMatroid matroid(8, 3);
  LocalSearchOptions options;
  options.initial = {0, 1, 2};
  options.max_swaps = 0;  // no searching: result is the completed initial set
  const AlgorithmResult result = LocalSearch(problem, matroid, options);
  EXPECT_EQ(result.elements, (std::vector<int>{0, 1, 2}));
}

TEST(LocalSearchTest, MaxSwapsLimitsWork) {
  Rng rng(4);
  Dataset data = MakeUniformSynthetic(20, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const UniformMatroid matroid(20, 6);
  LocalSearchOptions options;
  options.initial = {0, 1, 2, 3, 4, 5};  // deliberately poor start
  options.max_swaps = 2;
  const AlgorithmResult result = LocalSearch(problem, matroid, options);
  EXPECT_LE(result.steps, 2);
}

TEST(LocalSearchTest, EpsilonStopsEarly) {
  Rng rng(5);
  Dataset data = MakeUniformSynthetic(15, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const UniformMatroid matroid(15, 5);
  LocalSearchOptions strict;
  strict.epsilon = 0.5;  // only accept enormous improvements
  const AlgorithmResult with_eps = LocalSearch(problem, matroid, strict);
  const AlgorithmResult without = LocalSearch(problem, matroid, {});
  EXPECT_LE(with_eps.steps, without.steps);
  EXPECT_LE(with_eps.objective, without.objective + 1e-9);
}

// Theorem 2: 2-approximation for arbitrary matroid constraints, checked
// against brute force over bases.
struct MatroidCase {
  int seed;
  double lambda;
};

class LocalSearchMatroidSweep : public ::testing::TestWithParam<MatroidCase> {
};

TEST_P(LocalSearchMatroidSweep, UniformWithinFactorTwo) {
  const MatroidCase c = GetParam();
  Rng rng(c.seed);
  Dataset data = MakeUniformSynthetic(11, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, c.lambda);
  const UniformMatroid matroid(11, 4);
  const AlgorithmResult ls = LocalSearch(problem, matroid, {});
  const AlgorithmResult opt = BruteForceMatroid(problem, matroid);
  EXPECT_GE(ls.objective * 2.0 + 1e-9, opt.objective);
  EXPECT_LE(ls.objective, opt.objective + 1e-9);
}

TEST_P(LocalSearchMatroidSweep, PartitionWithinFactorTwo) {
  const MatroidCase c = GetParam();
  Rng rng(c.seed + 100);
  Dataset data = MakeUniformSynthetic(12, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, c.lambda);
  const PartitionMatroid matroid({0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2},
                                 {1, 2, 1});
  const AlgorithmResult ls = LocalSearch(problem, matroid, {});
  const AlgorithmResult opt = BruteForceMatroid(problem, matroid);
  EXPECT_GE(ls.objective * 2.0 + 1e-9, opt.objective);
}

TEST_P(LocalSearchMatroidSweep, TransversalWithinFactorTwo) {
  const MatroidCase c = GetParam();
  Rng rng(c.seed + 200);
  Dataset data = MakeUniformSynthetic(10, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, c.lambda);
  const TransversalMatroid matroid(
      10, {{0, 1, 2, 3}, {3, 4, 5}, {5, 6, 7}, {7, 8, 9}});
  const AlgorithmResult ls = LocalSearch(problem, matroid, {});
  const AlgorithmResult opt = BruteForceMatroid(problem, matroid);
  EXPECT_GE(ls.objective * 2.0 + 1e-9, opt.objective);
}

TEST_P(LocalSearchMatroidSweep, GraphicWithinFactorTwo) {
  const MatroidCase c = GetParam();
  Rng rng(c.seed + 300);
  Dataset data = MakeUniformSynthetic(10, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, c.lambda);
  // 10 edges over 6 vertices.
  const GraphicMatroid matroid(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                   {5, 0}, {0, 2}, {1, 3}, {2, 4}, {3, 5}});
  const AlgorithmResult ls = LocalSearch(problem, matroid, {});
  const AlgorithmResult opt = BruteForceMatroid(problem, matroid);
  EXPECT_GE(ls.objective * 2.0 + 1e-9, opt.objective);
}

TEST_P(LocalSearchMatroidSweep, SubmodularCoverageWithinFactorTwo) {
  const MatroidCase c = GetParam();
  Rng rng(c.seed + 400);
  Dataset data = MakeUniformSynthetic(10, rng);
  std::vector<std::vector<int>> covers(10);
  for (auto& cv : covers) {
    cv = rng.SampleWithoutReplacement(8, rng.UniformInt(1, 4));
  }
  std::vector<double> topic_weights(8);
  for (double& w : topic_weights) w = rng.Uniform(0.2, 1.0);
  const CoverageFunction coverage(covers, topic_weights);
  const DiversificationProblem problem(&data.metric, &coverage, c.lambda);
  const PartitionMatroid matroid({0, 0, 0, 1, 1, 1, 1, 2, 2, 2}, {1, 2, 1});
  const AlgorithmResult ls = LocalSearch(problem, matroid, {});
  const AlgorithmResult opt = BruteForceMatroid(problem, matroid);
  EXPECT_GE(ls.objective * 2.0 + 1e-9, opt.objective);
}

INSTANTIATE_TEST_SUITE_P(Cases, LocalSearchMatroidSweep,
                         ::testing::Values(MatroidCase{1, 0.2},
                                           MatroidCase{2, 0.2},
                                           MatroidCase{3, 0.0},
                                           MatroidCase{4, 1.0},
                                           MatroidCase{5, 0.5},
                                           MatroidCase{6, 0.1},
                                           MatroidCase{7, 2.0},
                                           MatroidCase{8, 0.2},
                                           MatroidCase{9, 0.05},
                                           MatroidCase{10, 5.0},
                                           MatroidCase{11, 0.8},
                                           MatroidCase{12, 0.3}));

// The appendix counterexample: under a partition matroid, vertex greedy's
// ratio is unbounded while local search stays within 2.
TEST(AppendixCounterexampleTest, GreedyFailsLocalSearchSucceeds) {
  // Universe: A = {a, b} (block 0, capacity 1), C = {c_1..c_r} (block 1,
  // capacity r). q(a) = l + eps, all other weights 0. d(b, x) = l for all
  // x; d(u, v) = eps otherwise. eps = 1/C(r,2), l = 1.
  const int r = 8;
  const double eps = 1.0 / (r * (r - 1) / 2);
  const double l = 1.0;
  const int n = 2 + r;  // 0 = a, 1 = b, 2.. = c_i
  DenseMetric metric(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      metric.SetDistance(u, v, (u == 1 || v == 1) ? l : eps);
    }
  }
  std::vector<double> q(n, 0.0);
  q[0] = l + eps;
  const ModularFunction weights(q);
  const DiversificationProblem problem(&metric, &weights, 1.0);
  std::vector<int> block_of(n, 1);
  block_of[0] = block_of[1] = 0;
  const PartitionMatroid matroid(block_of, {1, r});

  // Vertex-greedy analogue restricted to the matroid: start from the best
  // feasible singleton (that's `a`) and add the best feasible element each
  // round — reproduce the appendix's greedy trajectory by hand.
  std::vector<int> greedy_set = {0};
  while (true) {
    int best = -1;
    double best_gain = -1.0;
    for (int u = 0; u < n; ++u) {
      if (std::find(greedy_set.begin(), greedy_set.end(), u) !=
          greedy_set.end()) {
        continue;
      }
      if (!matroid.CanAdd(greedy_set, u)) continue;
      std::vector<int> trial = greedy_set;
      trial.push_back(u);
      const double gain = problem.Objective(trial) -
                          problem.Objective(greedy_set);
      if (gain > best_gain) {
        best_gain = gain;
        best = u;
      }
    }
    if (best < 0) break;
    greedy_set.push_back(best);
  }
  const double greedy_value = problem.Objective(greedy_set);

  const AlgorithmResult ls = LocalSearch(problem, matroid, {});
  const AlgorithmResult opt = BruteForceMatroid(problem, matroid);

  // Optimal takes b + all of C: value ~ r*l. Greedy keeps a: value ~ l.
  EXPECT_GE(opt.objective / greedy_value, 3.0);
  EXPECT_GE(ls.objective * 2.0 + 1e-9, opt.objective);
}

// The candidate entry over every id is the plain entry, bit for bit, under
// both basis completions.
TEST(LocalSearchTest, CandidateEntryOverAllIdsMatchesPlainEntry) {
  Rng rng(7);
  Dataset data = MakeUniformSynthetic(20, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.3);
  std::vector<int> block_of(20);
  for (int e = 0; e < 20; ++e) block_of[e] = e % 4;
  const PartitionMatroid matroid(block_of, {2, 1, 2, 1});
  std::vector<int> all(20);
  for (int e = 0; e < 20; ++e) all[e] = e;
  for (bool greedy_completion : {true, false}) {
    LocalSearchOptions options;
    options.greedy_completion = greedy_completion;
    const AlgorithmResult plain = LocalSearch(problem, matroid, options);
    const AlgorithmResult listed =
        LocalSearchOnCandidates(problem, matroid, all, options);
    EXPECT_EQ(listed.elements, plain.elements);
    EXPECT_EQ(listed.objective, plain.objective);
    EXPECT_EQ(listed.steps, plain.steps);
  }
}

TEST(LocalSearchTest, ImprovesOnGreedyInitialization) {
  // The paper's §7 protocol: LS initialized from Greedy B can only improve.
  Rng rng(6);
  Dataset data = MakeUniformSynthetic(30, rng);
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, 0.2);
  const AlgorithmResult greedy = GreedyVertex(problem, {.p = 8});
  const UniformMatroid matroid(30, 8);
  LocalSearchOptions options;
  options.initial = greedy.elements;
  const AlgorithmResult ls = LocalSearch(problem, matroid, options);
  EXPECT_GE(ls.objective + 1e-9, greedy.objective);
}

}  // namespace
}  // namespace diverse
