#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "algorithms/brute_force.h"
#include "algorithms/greedy_vertex.h"
#include "algorithms/local_search.h"
#include "core/diversification_problem.h"
#include "core/restricted_problem.h"
#include "core/solution_state.h"
#include "data/synthetic.h"
#include "matroid/graphic_matroid.h"
#include "matroid/partition_matroid.h"
#include "matroid/transversal_matroid.h"
#include "matroid/uniform_matroid.h"
#include "metric/cosine_metric.h"
#include "metric/dense_metric.h"
#include "metric/euclidean_metric.h"
#include "metric/jaccard_metric.h"
#include "metric/relaxed_metric.h"
#include "metric/vector_metric.h"
#include "submodular/coverage_function.h"
#include "submodular/facility_location.h"
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

// ---- The initial pair: pruned scan against an exhaustive reference ------

// The exhaustive scan the pruned one must reproduce: every pair in (i, j)
// candidate order, a strictly greater value replaces the best, and the
// best independent singleton when no pair is independent.
std::vector<int> ReferencePair(const DiversificationProblem& problem,
                               const Matroid& matroid,
                               std::span<const int> candidates) {
  std::vector<int> best;
  double best_value = -1.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      const std::vector<int> pair = {candidates[i], candidates[j]};
      if (!matroid.IsIndependent(pair)) continue;
      const double value = problem.Objective(pair);
      if (value > best_value) {
        best_value = value;
        best = pair;
      }
    }
  }
  if (!best.empty()) return best;
  for (int x : candidates) {
    const std::vector<int> single = {x};
    if (!matroid.IsIndependent(single)) continue;
    const double value = problem.Objective(single);
    if (best.empty() || value > best_value) {
      best_value = value;
      best = single;
    }
  }
  return best;
}

// BestIndependentPair returns the reference pair with the same value bits,
// and LocalSearchOnCandidates answers exactly as it does when started from
// the reference pair: elements, objective bits and swaps.
void ExpectPairParity(const DiversificationProblem& problem,
                      const Matroid& matroid,
                      std::span<const int> candidates) {
  const std::vector<int> expected =
      ReferencePair(problem, matroid, candidates);
  const std::vector<int> pair =
      BestIndependentPair(problem, matroid, candidates);
  ASSERT_EQ(pair, expected);
  if (expected.empty()) return;
  EXPECT_EQ(problem.Objective(pair), problem.Objective(expected));
  LocalSearchOptions from_reference;
  from_reference.initial = expected;
  const AlgorithmResult want =
      LocalSearchOnCandidates(problem, matroid, candidates, from_reference);
  const AlgorithmResult got =
      LocalSearchOnCandidates(problem, matroid, candidates, {});
  EXPECT_EQ(got.elements, want.elements);
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.steps, want.steps);
}

// n points in `dim` dimensions around `clusters` centres ~ U[0, 10]^dim,
// point i near centre i mod clusters.
VectorMetric ClusteredVectors(int n, int dim, int clusters, double spread,
                              Rng& rng) {
  std::vector<std::vector<double>> centres(clusters,
                                           std::vector<double>(dim));
  for (auto& centre : centres) {
    for (double& x : centre) x = rng.Uniform(0.0, 10.0);
  }
  std::vector<double> rows;
  for (int i = 0; i < n; ++i) {
    for (double c : centres[i % clusters]) {
      rows.push_back(c + rng.Gaussian(0.0, spread));
    }
  }
  return VectorMetric::FromRows(dim, std::move(rows));
}

std::vector<double> UniformWeights(int n, Rng& rng) {
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);
  return weights;
}

std::vector<int> AllIds(int n) {
  std::vector<int> ids(n);
  for (int e = 0; e < n; ++e) ids[e] = e;
  return ids;
}

PartitionMatroid ModuloPartition(int n, std::vector<int> capacities) {
  std::vector<int> block_of(n);
  for (int e = 0; e < n; ++e) {
    block_of[e] = e % static_cast<int>(capacities.size());
  }
  return PartitionMatroid(block_of, std::move(capacities));
}

TEST(BestPairParityTest, ClusteredVectorsUnderPartitionAndUniform) {
  for (int seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const int n = 150;
    const VectorMetric metric = ClusteredVectors(n, 8, 5, 0.4, rng);
    ASSERT_TRUE(metric.ObeysTriangleInequality());
    const ModularFunction weights(UniformWeights(n, rng));
    const PartitionMatroid partition = ModuloPartition(n, {1, 1, 1, 1, 1});
    const UniformMatroid uniform(n, 5);
    const std::vector<int> all = AllIds(n);
    for (double lambda : {0.2, 1.0}) {
      const DiversificationProblem problem(&metric, &weights, lambda);
      ExpectPairParity(problem, partition, all);
      ExpectPairParity(problem, uniform, all);
    }
  }
}

// Duplicated points with equal weights: many pairs tie exactly, so the
// winner is decided by the earliest-(i, j) rule alone. The points lie on
// a line at decimal offsets, where computed distances miss the triangle
// equality d(x, y) = d(x, p) + d(p, y) by an ulp either way.
TEST(BestPairParityTest, TiesKeepEarliestPairOnDuplicatesAndEqualWeights) {
  for (int seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const int distinct = 12;
    const int copies = 3;
    const int n = distinct * copies;
    std::vector<int> order = AllIds(n);
    rng.Shuffle(&order);
    std::vector<double> rows(static_cast<std::size_t>(n) * 2);
    for (int e = 0; e < n; ++e) {
      const int point = order[e] % distinct;
      rows[2 * e] = 0.1 * point;
      rows[2 * e + 1] = 0.3 * point;
    }
    const VectorMetric line = VectorMetric::FromRows(2, std::move(rows));
    const VectorMetric clustered = ClusteredVectors(n, 4, 3, 0.3, rng);
    const ModularFunction equal(std::vector<double>(n, 0.5));
    // Zero weights: phi is the distance alone, so an ulp lost in a bound
    // is not absorbed by the f terms.
    const ModularFunction zero(std::vector<double>(n, 0.0));
    const UniformMatroid uniform(n, 4);
    const PartitionMatroid partition = ModuloPartition(n, {1, 2, 1});
    const std::vector<int> all = AllIds(n);
    for (const VectorMetric* metric : {&line, &clustered}) {
      for (const ModularFunction* weights : {&equal, &zero}) {
        for (double lambda : {0.2, 1.0}) {
          const DiversificationProblem problem(metric, weights, lambda);
          ExpectPairParity(problem, uniform, all);
          ExpectPairParity(problem, partition, all);
        }
      }
    }
  }
}

// A bound that falls an ulp below the exact value it bounds. Z = 1.3 lies
// on the segment from H1 = 0.0 to H2 = 3.6, and the computed distances
// give d(H1, Z) + d(Z, H2) = 3.5999999999999996 < d(H1, H2) = 3.6. The
// pair {H1, H2} ties {G1, G2} one unit above it, and {G1, G2} is verified
// first because G1 and G2 are pivots (nine far points and Z, all in a
// block of capacity 0, take the other ten pivot rows). Only the bound's
// slack keeps {H1, H2}, the earlier of the two, as the winner.
TEST(BestPairParityTest, SlackCoversBoundsAnUlpBelowTheValue) {
  const double pi = 3.14159265358979323846;
  std::vector<double> rows = {1.3, 0.0,   // 0: Z, the only weight
                              0.0, 0.0,   // 1: H1
                              3.6, 0.0,   // 2: H2
                              0.0, 1.0,   // 3: G1
                              3.6, 1.0};  // 4: G2
  for (int k = 0; k < 9; ++k) {  // 5..13: far points around Z
    rows.push_back(1.3 + 100.0 * std::cos(k * 2.0 * pi / 9.0));
    rows.push_back(100.0 * std::sin(k * 2.0 * pi / 9.0));
  }
  const VectorMetric metric = VectorMetric::FromRows(2, std::move(rows));
  const int n = metric.size();
  ASSERT_LT(metric.Distance(1, 0) + metric.Distance(0, 2),
            metric.Distance(1, 2));
  std::vector<double> weights(n, 0.0);
  weights[0] = 1.0;
  const ModularFunction quality(weights);
  std::vector<int> block_of(n, 0);
  block_of[1] = block_of[4] = 1;
  block_of[2] = block_of[3] = 2;
  const PartitionMatroid matroid(block_of, {0, 1, 1});
  const DiversificationProblem problem(&metric, &quality, 1.0);
  EXPECT_EQ(BestIndependentPair(problem, matroid, AllIds(n)),
            (std::vector<int>{1, 2}));
  ExpectPairParity(problem, matroid, AllIds(n));
}

// Unclustered points where the winner is rarely a pair through a pivot,
// so the cell and pair bounds of the row scan decide the answer, not the
// seeds. The heaviest element sits alone in a block of capacity 0: it is
// the first pivot but pairs with nothing.
TEST(BestPairParityTest, RowBoundsDecideAwayFromPivots) {
  for (int seed = 1; seed <= 8; ++seed) {
    Rng rng(seed + 70);
    const int n = 200;
    std::vector<double> rows(static_cast<std::size_t>(n) * 3);
    for (double& x : rows) x = rng.Uniform(0.0, 10.0);
    const VectorMetric metric = VectorMetric::FromRows(3, std::move(rows));
    std::vector<double> weights = UniformWeights(n, rng);
    weights[0] = 2.0;
    const ModularFunction quality(weights);
    std::vector<int> block_of(n, 1);
    block_of[0] = 0;
    const PartitionMatroid matroid(block_of, {0, 2});
    for (double lambda : {0.02, 0.05, 0.1}) {
      const DiversificationProblem problem(&metric, &quality, lambda);
      ExpectPairParity(problem, matroid, AllIds(n));
    }
  }
}

// A candidate list with gaps, as after retirements in a serving snapshot.
TEST(BestPairParityTest, CandidateSubsetWithGaps) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 10);
    const int n = 120;
    const VectorMetric metric = ClusteredVectors(n, 6, 4, 0.5, rng);
    const ModularFunction weights(UniformWeights(n, rng));
    std::vector<int> live;
    for (int e = 0; e < n; ++e) {
      if (rng.Uniform(0.0, 1.0) < 0.6) live.push_back(e);
    }
    const PartitionMatroid partition = ModuloPartition(n, {1, 1, 1, 1});
    const UniformMatroid uniform(n, 4);
    const DiversificationProblem problem(&metric, &weights, 0.3);
    ExpectPairParity(problem, partition, live);
    ExpectPairParity(problem, uniform, live);
  }
}

// EuclideanMetric declares the triangle inequality under each of its norms,
// and the restricted view of a gapped list forwards it, so the pruned scan
// runs over the restricted ids.
TEST(BestPairParityTest, EuclideanNormsOverGappedCandidates) {
  for (Norm norm : {Norm::kL1, Norm::kL2, Norm::kLInf}) {
    Rng rng(static_cast<int>(norm) + 80);
    const int n = 90;
    std::vector<std::vector<double>> points(n, std::vector<double>(3));
    for (auto& point : points) {
      for (double& x : point) x = rng.Uniform(0.0, 10.0);
    }
    const EuclideanMetric metric(std::move(points), norm);
    ASSERT_TRUE(metric.ObeysTriangleInequality());
    const ModularFunction weights(UniformWeights(n, rng));
    const DiversificationProblem problem(&metric, &weights, 0.4);
    std::vector<int> live;
    for (int e = 3; e < n; ++e) {
      if (rng.Uniform(0.0, 1.0) < 0.7) live.push_back(e);
    }
    EXPECT_TRUE(
        Restrict(problem, live).problem().metric().ObeysTriangleInequality());
    ExpectPairParity(problem, ModuloPartition(n, {1, 1, 2}), live);
    ExpectPairParity(problem, UniformMatroid(n, 4), live);
  }
}

// Each id of [2, n) with probability `keep`: a gapped candidate list.
std::vector<int> GappedIds(int n, double keep, Rng& rng) {
  std::vector<int> live;
  for (int e = 2; e < n; ++e) {
    if (rng.Uniform(0.0, 1.0) < keep) live.push_back(e);
  }
  return live;
}

// Jaccard distances are ratios of small integers, so many pairs tie
// exactly and the earliest-pair rule decides among them.
TEST(BestPairParityTest, JaccardOverGappedCandidates) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 100);
    const int n = 90;
    std::vector<std::vector<int>> tags(n);
    for (auto& set : tags) {
      set = rng.SampleWithoutReplacement(10, rng.UniformInt(0, 5));
    }
    const JaccardMetric metric(std::move(tags));
    ASSERT_TRUE(metric.ObeysTriangleInequality());
    const ModularFunction weights(UniformWeights(n, rng));
    const std::vector<int> live = GappedIds(n, 0.7, rng);
    for (double lambda : {0.1, 1.0}) {
      const DiversificationProblem problem(&metric, &weights, lambda);
      ExpectPairParity(problem, ModuloPartition(n, {1, 1, 2}), live);
      ExpectPairParity(problem, UniformMatroid(n, 4), live);
    }
  }
}

// Angular cosine distances over clustered directions, with exact
// duplicates and opposite vectors, where arccos is least accurate. The
// 1 - cos form does not declare the inequality.
TEST(BestPairParityTest, AngularCosineOverGappedCandidates) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 110);
    const int n = 90;
    const VectorMetric clustered = ClusteredVectors(n, 5, 4, 0.6, rng);
    std::vector<std::vector<double>> vectors(n);
    for (int i = 0; i < n; ++i) {
      const int source = i % 10 == 9 ? i - 1 : i;  // a duplicate of i - 1
      const std::span<const double> row = clustered.row(source);
      vectors[i].assign(row.begin(), row.end());
      if (i % 15 == 7) {
        for (double& x : vectors[i]) x = -x;
      }
    }
    const CosineMetric angular(vectors, CosineMetric::Form::kAngular);
    ASSERT_TRUE(angular.ObeysTriangleInequality());
    EXPECT_FALSE(CosineMetric(vectors).ObeysTriangleInequality());
    const ModularFunction weights(UniformWeights(n, rng));
    const std::vector<int> live = GappedIds(n, 0.7, rng);
    for (double lambda : {0.2, 1.0}) {
      const DiversificationProblem problem(&angular, &weights, lambda);
      ExpectPairParity(problem, ModuloPartition(n, {1, 1, 1, 1}), live);
      ExpectPairParity(problem, UniformMatroid(n, 4), live);
    }
  }
}

// A dense oracle materialized from clustered vectors declares the
// triangle inequality as its source does, so it takes the pruned scan as
// well: its pair is the exhaustive pair, and the vector metric's pair.
TEST(BestPairParityTest, MaterializedDenseOracleOfClusteredVectors) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 90);
    const int n = 120;
    const VectorMetric vectors = ClusteredVectors(n, 8, 5, 0.4, rng);
    const DenseMetric dense = DenseMetric::Materialize(vectors);
    ASSERT_TRUE(dense.ObeysTriangleInequality());
    const ModularFunction weights(UniformWeights(n, rng));
    const PartitionMatroid partition = ModuloPartition(n, {1, 1, 1, 1, 1});
    const UniformMatroid uniform(n, 5);
    std::vector<int> live;
    for (int e = 0; e < n; ++e) {
      if (rng.Uniform(0.0, 1.0) < 0.7) live.push_back(e);
    }
    const DiversificationProblem over_dense(&dense, &weights, 0.3);
    const DiversificationProblem over_vectors(&vectors, &weights, 0.3);
    for (const std::vector<int>& candidates : {AllIds(n), live}) {
      for (const Matroid* matroid :
           std::initializer_list<const Matroid*>{&partition, &uniform}) {
        ExpectPairParity(over_dense, *matroid, candidates);
        EXPECT_EQ(BestIndependentPair(over_dense, *matroid, candidates),
                  BestIndependentPair(over_vectors, *matroid, candidates));
      }
    }
  }
}

// A block of capacity 0 (its elements are dependent on their own) and a
// graphic matroid with self-loops (dependent singletons) and parallel
// edges (dependent pairs).
TEST(BestPairParityTest, EmptyBlockAndGraphicMatroid) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 20);
    const int n = 90;
    const VectorMetric metric = ClusteredVectors(n, 6, 3, 0.5, rng);
    const ModularFunction weights(UniformWeights(n, rng));
    const PartitionMatroid partition = ModuloPartition(n, {1, 0, 2});
    std::vector<std::pair<int, int>> edges;
    for (int e = 0; e < n; ++e) {
      edges.emplace_back(rng.UniformInt(0, 7), rng.UniformInt(0, 7));
    }
    const GraphicMatroid graphic(8, edges);
    const std::vector<int> all = AllIds(n);
    const DiversificationProblem problem(&metric, &weights, 0.5);
    ExpectPairParity(problem, partition, all);
    ExpectPairParity(problem, graphic, all);
  }
}

TEST(BestPairParityTest, CoverageAndFacilityLocationQuality) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 30);
    const int n = 80;
    const VectorMetric metric = ClusteredVectors(n, 6, 4, 0.5, rng);
    std::vector<std::vector<int>> covers(n);
    for (auto& cover : covers) {
      cover = rng.SampleWithoutReplacement(12, rng.UniformInt(1, 4));
    }
    std::vector<double> topic_weights(12);
    for (double& w : topic_weights) w = rng.Uniform(0.2, 1.0);
    const CoverageFunction coverage(covers, topic_weights);
    std::vector<std::vector<double>> similarity(
        10, std::vector<double>(n));
    for (auto& client : similarity) {
      for (double& s : client) s = rng.Uniform(0.0, 1.0);
    }
    const FacilityLocationFunction facility(similarity);
    const PartitionMatroid partition = ModuloPartition(n, {1, 1, 2, 1});
    const UniformMatroid uniform(n, 5);
    const std::vector<int> all = AllIds(n);
    for (const SetFunction* quality :
         std::initializer_list<const SetFunction*>{&coverage, &facility}) {
      const DiversificationProblem problem(&metric, quality, 0.1);
      ExpectPairParity(problem, partition, all);
      ExpectPairParity(problem, uniform, all);
    }
  }
}

// lambda = 0: the bound is f({x}) + f({y}) alone.
TEST(BestPairParityTest, ZeroLambda) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 40);
    const int n = 100;
    const VectorMetric metric = ClusteredVectors(n, 6, 4, 0.5, rng);
    const ModularFunction weights(UniformWeights(n, rng));
    const DiversificationProblem problem(&metric, &weights, 0.0);
    ExpectPairParity(problem, ModuloPartition(n, {1, 1, 1}), AllIds(n));
    ExpectPairParity(problem, UniformMatroid(n, 3), AllIds(n));
  }
}

// Metrics that do not declare the triangle inequality take the exhaustive
// scan: a dense matrix that violates it, and squared Euclidean distances.
TEST(BestPairParityTest, NonDeclaringMetricsTakeExhaustiveScan) {
  for (int seed = 1; seed <= 3; ++seed) {
    Rng rng(seed + 50);
    const int n = 60;
    DenseMetric violating(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        violating.SetDistance(u, v, rng.Uniform(0.0, 1.0) < 0.1
                                        ? rng.Uniform(20.0, 40.0)
                                        : rng.Uniform(0.0, 2.0));
      }
    }
    const VectorMetric vectors = ClusteredVectors(n, 6, 4, 0.5, rng);
    const PowerRelaxedMetric squared(&vectors, 2.0);
    ASSERT_FALSE(violating.ObeysTriangleInequality());
    ASSERT_FALSE(squared.ObeysTriangleInequality());
    const ModularFunction weights(UniformWeights(n, rng));
    for (const MetricSpace* metric :
         std::initializer_list<const MetricSpace*>{&violating, &squared}) {
      const DiversificationProblem problem(metric, &weights, 0.3);
      ExpectPairParity(problem, ModuloPartition(n, {1, 1, 1}), AllIds(n));
      ExpectPairParity(problem, UniformMatroid(n, 4), AllIds(n));
    }
  }
}

// Rank < 2 (a uniform matroid of capacity 1) and tiny candidate lists
// fall back to the best singleton or to nothing.
TEST(BestPairParityTest, SingletonFallbackAndTinyLists) {
  Rng rng(60);
  const int n = 30;
  const VectorMetric metric = ClusteredVectors(n, 4, 3, 0.5, rng);
  const ModularFunction weights(UniformWeights(n, rng));
  const DiversificationProblem problem(&metric, &weights, 0.4);
  ExpectPairParity(problem, UniformMatroid(n, 1), AllIds(n));
  const UniformMatroid uniform(n, 3);
  for (const std::vector<int>& list :
       std::vector<std::vector<int>>{{}, {7}, {3, 19}, {0, 1, 2}}) {
    ExpectPairParity(problem, uniform, list);
  }
  ExpectPairParity(problem, UniformMatroid(n, 0), AllIds(n));
}

// The serving benchmark's swap_vector shape: 64 dimensions in 10
// clusters, a partition of 10 blocks of capacity 1, and a candidate list
// with gaps as after erasures. Every cell is large, so each row's sorted
// walk stops partway through most of them.
TEST(BestPairParityTest, ServingShapeOverGappedCandidates) {
  for (int seed = 1; seed <= 2; ++seed) {
    Rng rng(seed + 120);
    const int n = 1000;
    const VectorMetric metric = ClusteredVectors(n, 64, 10, 0.4, rng);
    const ModularFunction weights(UniformWeights(n, rng));
    const PartitionMatroid partition =
        ModuloPartition(n, std::vector<int>(10, 1));
    const std::vector<int> live = GappedIds(n, 0.9, rng);
    for (double lambda : {0.1, 0.5}) {
      const DiversificationProblem problem(&metric, &weights, lambda);
      ExpectPairParity(problem, partition, live);
    }
  }
}

// A cell whose partners all tie on h(y) = f({y}) + lambda * d(p, y):
// equal weights, and four copies each of (5, 0) and (-5, 0) around the
// first pivot at the origin. Ten far points take the next pivots and Q =
// (15, 0) the last; the origin and the far points sit in a block of
// capacity 0. Every independent pair at the top, (5, -5) or (5, Q), is at
// distance exactly 10, so they all tie, and Q's seeds find a (5, Q) pair
// first. Q has the last id, so an earlier (5, -5) pair wins, and a row
// reaches it only if its walk goes on while the bound merely ties the
// best.
TEST(BestPairParityTest, PartnersTiedOnTheWalkKey) {
  const double pi = 3.14159265358979323846;
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 130);
    std::vector<int> copies = AllIds(8);  // < 4: (5, 0); else (-5, 0)
    rng.Shuffle(&copies);
    std::vector<double> rows = {0.0, 0.0};  // 0: the origin
    std::vector<int> block_of = {0};
    for (int copy : copies) {  // 1..8
      rows.push_back(copy < 4 ? 5.0 : -5.0);
      rows.push_back(0.0);
      block_of.push_back(copy < 4 ? 1 : 2);
    }
    for (int k = 0; k < 10; ++k) {  // 9..18
      rows.push_back(1000.0 * std::cos(k * 2.0 * pi / 10.0));
      rows.push_back(1000.0 * std::sin(k * 2.0 * pi / 10.0));
      block_of.push_back(0);
    }
    rows.push_back(15.0);  // 19: Q
    rows.push_back(0.0);
    block_of.push_back(2);
    const VectorMetric metric = VectorMetric::FromRows(2, std::move(rows));
    const int n = metric.size();
    const PartitionMatroid matroid(block_of, {0, 1, 1});
    const ModularFunction equal(std::vector<double>(n, 0.5));
    const ModularFunction zero(std::vector<double>(n, 0.0));
    for (const ModularFunction* weights : {&equal, &zero}) {
      for (double lambda : {0.25, 1.0}) {
        const DiversificationProblem problem(&metric, weights, lambda);
        const std::vector<int> pair =
            BestIndependentPair(problem, matroid, AllIds(n));
        ASSERT_EQ(pair.size(), 2u);
        EXPECT_NE(pair[1], n - 1);
        EXPECT_EQ(metric.Distance(pair[0], pair[1]), 10.0);
        ExpectPairParity(problem, matroid, AllIds(n));
      }
    }
  }
}

// ---- Ptolemy's bound on Euclidean metrics ------------------------------

// The corners A = (0, 0) (id 0), C = (a, b) (id 1), B = (a, 0) (id 2) and
// D = (0, b) (id 3) of an a x b rectangle, a <= b, then the heaviest point
// H = D + 2 (D - B) (id 4) and nine far points 1000 from the origin (ids
// 5..13). H is the first pivot and the far points the next nine; then B,
// farthest from H, and D, farthest from H and B, take the last two pivot
// rows. For a < b, A falls in B's cell and C in D's, so the row of A
// bounds its partner C through p = D and q = B. A rectangle's corners are
// concyclic, so under L2 that bound is Ptolemy's equality: it is d(A, C)
// exactly and may round below it. `rotate` turns the plane by 45 degrees
// and scales it by sqrt(2), which maps L-infinity distances onto the L1
// distances of the unrotated points.
std::vector<std::vector<double>> RectangleWithPivots(double a, double b,
                                                     bool rotate) {
  const double pi = 3.14159265358979323846;
  std::vector<std::vector<double>> points = {
      {0.0, 0.0}, {a, b}, {a, 0.0}, {0.0, b}, {-2.0 * a, 3.0 * b}};
  for (int k = 0; k < 9; ++k) {
    points.push_back({1000.0 * std::cos(k * 2.0 * pi / 9.0),
                      1000.0 * std::sin(k * 2.0 * pi / 9.0)});
  }
  if (rotate) {
    for (auto& point : points) {
      point = {point[0] - point[1], point[0] + point[1]};
    }
  }
  return points;
}

// The corners in a block of capacity 2, H and the far points in a block
// of capacity 0.
PartitionMatroid RectangleBlocks() {
  std::vector<int> block_of(14, 0);
  for (int corner = 0; corner < 4; ++corner) block_of[corner] = 1;
  return PartitionMatroid(block_of, {0, 2});
}

// Weights 0 or 0.5 on the corners, 1 on H (the first pivot) and 0 on the
// far points: {A, C} and {B, D} tie, both diagonals, and the seeds verify
// {B, D} first. The earlier pair {A, C} wins only if its row keeps it.
std::vector<ModularFunction> RectangleWeights() {
  std::vector<ModularFunction> weightings;
  for (double corner : {0.0, 0.5}) {
    std::vector<double> weights(14, 0.0);
    for (int c = 0; c < 4; ++c) weights[c] = corner;
    weights[4] = 1.0;
    weightings.emplace_back(std::move(weights));
  }
  return weightings;
}

std::vector<double> Flatten(const std::vector<std::vector<double>>& points) {
  std::vector<double> rows;
  for (const auto& point : points) {
    rows.insert(rows.end(), point.begin(), point.end());
  }
  return rows;
}

// The rectangles under L2, both as VectorMetric and as EuclideanMetric.
// In several of them the bound, computed as the scan computes it, lands a
// few ulps below the computed d(A, C); only the bound's slack keeps {A, C}.
// The unit square is among them: there A and C each sit as close to D as
// to B and join B's cell, the first pivot's, so only the triangle bound
// applies.
TEST(BestPairParityTest, ConcyclicPartnersAtPtolemysEquality) {
  const PartitionMatroid matroid = RectangleBlocks();
  const std::vector<ModularFunction> weightings = RectangleWeights();
  int below = 0;
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {1.0, 1.0}, {3.0, 4.0}, {1.0, 3.0}, {2.5, 2.6}, {0.2, 0.9},
           {1.1, 1.2}, {1.0, 1.5}}) {
    const std::vector<std::vector<double>> points =
        RectangleWithPivots(a, b, false);
    const VectorMetric vectors = VectorMetric::FromRows(2, Flatten(points));
    const EuclideanMetric euclidean(points, Norm::kL2);
    const double inv = 1.0 / vectors.Distance(3, 2);
    const double bound =
        vectors.Distance(0, 3) * inv * vectors.Distance(1, 2) +
        vectors.Distance(0, 2) * inv * vectors.Distance(1, 3);
    below += bound < vectors.Distance(0, 1);
    for (const MetricSpace* metric :
         std::initializer_list<const MetricSpace*>{&vectors, &euclidean}) {
      ASSERT_TRUE(metric->ObeysPtolemyInequality());
      for (const ModularFunction& weights : weightings) {
        for (double lambda : {0.25, 1.0}) {
          const DiversificationProblem problem(metric, &weights, lambda);
          EXPECT_EQ(BestIndependentPair(problem, matroid, AllIds(14)),
                    (std::vector<int>{0, 1}));
          ExpectPairParity(problem, matroid, AllIds(14));
        }
      }
    }
  }
  EXPECT_GT(below, 0);
}

// The same rectangles under L1, and turned by 45 degrees under
// L-infinity: d(A, C) d(B, D) = (a + b)^2 > a^2 + b^2 there (4 > 2 on the
// unit square), so a bound built from Ptolemy's inequality would drop
// {A, C}. Neither norm declares it, and the triangle bound keeps parity.
TEST(BestPairParityTest, L1AndLInfinityDoNotDeclarePtolemy) {
  const PartitionMatroid matroid = RectangleBlocks();
  const std::vector<ModularFunction> weightings = RectangleWeights();
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {1.0, 1.0}, {3.0, 4.0}, {1.0, 3.0}, {0.2, 0.9}}) {
    for (Norm norm : {Norm::kL1, Norm::kLInf}) {
      const EuclideanMetric metric(
          RectangleWithPivots(a, b, norm == Norm::kLInf), norm);
      ASSERT_TRUE(metric.ObeysTriangleInequality());
      ASSERT_FALSE(metric.ObeysPtolemyInequality());
      EXPECT_GT(metric.Distance(0, 1) * metric.Distance(2, 3),
                metric.Distance(0, 2) * metric.Distance(1, 3) +
                    metric.Distance(0, 3) * metric.Distance(1, 2));
      for (const ModularFunction& weights : weightings) {
        for (double lambda : {0.25, 1.0}) {
          const DiversificationProblem problem(&metric, &weights, lambda);
          EXPECT_EQ(BestIndependentPair(problem, matroid, AllIds(14)),
                    (std::vector<int>{0, 1}));
          ExpectPairParity(problem, matroid, AllIds(14));
        }
      }
    }
  }
}

// Answers cannot show whether a restricted view forwards the declaration
// (the bound only prunes), so the view of a gapped list is asked directly.
TEST(BestPairParityTest, RestrictedViewForwardsPtolemy) {
  Rng rng(140);
  const int n = 40;
  const VectorMetric vectors = ClusteredVectors(n, 4, 3, 0.5, rng);
  std::vector<std::vector<double>> points(n);
  for (int i = 0; i < n; ++i) {
    points[i].assign(vectors.row(i).begin(), vectors.row(i).end());
  }
  const EuclideanMetric l1(points, Norm::kL1);
  const ModularFunction weights(UniformWeights(n, rng));
  const std::vector<int> live = GappedIds(n, 0.6, rng);
  for (const MetricSpace* metric :
       std::initializer_list<const MetricSpace*>{&vectors, &l1}) {
    const DiversificationProblem problem(metric, &weights, 0.3);
    const RestrictedProblem view = Restrict(problem, live);
    ASSERT_NE(&view.problem().metric(), metric);
    EXPECT_TRUE(view.problem().metric().ObeysTriangleInequality());
    EXPECT_EQ(view.problem().metric().ObeysPtolemyInequality(),
              metric == &vectors);
    ExpectPairParity(problem, ModuloPartition(n, {1, 1, 2}), live);
  }
}

// Pivots a hair apart: five locations, each a base point and a twin
// `hair` above it, then two copies of each. H, the heaviest, sits in a
// block of capacity 0; it and the ten locations' first ids take eleven
// pivot rows, and every copy lies on its own pivot, so a copy of a base
// and a copy of its twin bound each other through pivots at d(p, q) =
// hair. The heaviest pair is such a pair at the first location.
TEST(BestPairParityTest, PivotsAHairApart) {
  for (double hair : {1e-3, 1e-9, 1e-100, 1e-150}) {
    Rng rng(150);
    std::vector<double> rows = {50.0, 50.0, 0.0};  // 0: H
    std::vector<double> weights = {2.0};
    std::vector<int> block_of = {0};
    for (int location = 0; location < 5; ++location) {
      const double x = rng.Uniform(0.0, 10.0);
      const double y = rng.Uniform(0.0, 10.0);
      for (int copy = 0; copy < 3; ++copy) {
        for (double z : {0.0, hair}) {
          rows.insert(rows.end(), {x, y, z});
          weights.push_back(copy == 0 ? 0.0 : rng.Uniform(0.0, 0.9));
          block_of.push_back(1);
        }
      }
    }
    weights[3] = weights[4] = 1.0;  // copies of the first base and twin
    const VectorMetric metric = VectorMetric::FromRows(3, std::move(rows));
    const int n = metric.size();
    ASSERT_GT(metric.Distance(1, 2), 0.0);
    const ModularFunction quality(weights);
    const PartitionMatroid matroid(block_of, {0, 2});
    for (double lambda : {1e-3, 1.0, 1e3}) {
      const DiversificationProblem problem(&metric, &quality, lambda);
      ExpectPairParity(problem, matroid, AllIds(n));
    }
    const DiversificationProblem light(&metric, &quality, 1e-3);
    EXPECT_EQ(BestIndependentPair(light, matroid, AllIds(n)),
              (std::vector<int>{3, 4}));
  }
}

// The basis completion as a full rescan: every round tests every
// non-member against the matroid, then adds the best gain (greedy) or the
// first feasible element. Returns the state, its members in the order
// they joined.
SolutionState RescanCompletion(const DiversificationProblem& problem,
                               const Matroid& matroid,
                               const std::vector<int>& initial, bool greedy) {
  SolutionState state(&problem);
  for (int v : initial) state.Add(v);
  while (true) {
    std::vector<int> feasible;
    for (int e = 0; e < problem.size(); ++e) {
      if (!state.Contains(e) && matroid.CanAdd(state.members(), e)) {
        feasible.push_back(e);
      }
    }
    if (feasible.empty()) break;
    state.Add(greedy ? state.BestAddOver(feasible).element : feasible[0]);
  }
  return state;
}

// LocalSearch's completion tests only the elements the previous round
// found feasible. It must build the basis the full rescan builds, in the
// same order, so the whole search then answers as it does when started
// from the rescan's basis: elements, objective bits and swaps. Greedy and
// first-feasible completions, from the best pair and from a singleton, on
// partition, graphic and transversal matroids.
TEST(LocalSearchTest, CompletionMatchesFullRescan) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 140);
    const int n = 60;
    const VectorMetric metric = ClusteredVectors(n, 4, 4, 0.6, rng);
    const ModularFunction weights(UniformWeights(n, rng));
    const DiversificationProblem problem(&metric, &weights, 0.3);
    const PartitionMatroid partition = ModuloPartition(n, {2, 1, 0, 3});
    std::vector<std::pair<int, int>> edges;
    for (int e = 0; e < n; ++e) {
      edges.emplace_back(rng.UniformInt(0, 9), rng.UniformInt(0, 9));
    }
    const GraphicMatroid graphic(10, edges);
    std::vector<std::vector<int>> collections(7);
    for (int e = 0; e < n; ++e) {
      collections[rng.UniformInt(0, 6)].push_back(e);
      if (rng.Bernoulli(0.3)) collections[rng.UniformInt(0, 6)].push_back(e);
    }
    for (std::vector<int>& set : collections) {
      std::sort(set.begin(), set.end());
      set.erase(std::unique(set.begin(), set.end()), set.end());
    }
    const TransversalMatroid transversal(n, collections);
    for (const Matroid* matroid : std::initializer_list<const Matroid*>{
             &partition, &graphic, &transversal}) {
      std::vector<std::vector<int>> starts = {
          BestIndependentPair(problem, *matroid, AllIds(n))};
      for (int e = 0; e < n; ++e) {
        if (matroid->CanAdd({}, e)) {
          starts.push_back({e});
          break;
        }
      }
      for (const std::vector<int>& start : starts) {
        for (const bool greedy : {true, false}) {
          const SolutionState rescan =
              RescanCompletion(problem, *matroid, start, greedy);
          const std::vector<int>& basis = rescan.members();
          ASSERT_TRUE(matroid->IsIndependent(basis));
          LocalSearchOptions completion_only;
          completion_only.initial = start;
          completion_only.greedy_completion = greedy;
          completion_only.max_swaps = 0;
          const AlgorithmResult completed =
              LocalSearch(problem, *matroid, completion_only);
          std::vector<int> sorted = basis;
          std::sort(sorted.begin(), sorted.end());
          EXPECT_EQ(completed.elements, sorted);
          EXPECT_EQ(completed.objective, rescan.objective());

          LocalSearchOptions from_start = completion_only;
          from_start.max_swaps = -1;
          LocalSearchOptions from_basis;
          from_basis.initial = basis;
          const AlgorithmResult got =
              LocalSearch(problem, *matroid, from_start);
          const AlgorithmResult want =
              LocalSearch(problem, *matroid, from_basis);
          EXPECT_EQ(got.elements, want.elements);
          EXPECT_EQ(got.objective, want.objective);
          EXPECT_EQ(got.steps, want.steps);
        }
      }
    }
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
