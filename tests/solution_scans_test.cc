// Randomized equivalence suite for SolutionState's gains and batched
// scans: every gain they report must equal the corresponding brute-force
// DiversificationProblem::Objective delta to 1e-9.
#include "core/solution_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "algorithms/batch_greedy.h"
#include "algorithms/greedy_edge.h"
#include "algorithms/greedy_vertex.h"
#include "algorithms/group_diversification.h"
#include "algorithms/knapsack_greedy.h"
#include "algorithms/local_search.h"
#include "algorithms/streaming.h"
#include "core/diversification_problem.h"
#include "data/synthetic.h"
#include "dynamic/dynamic_updater.h"
#include "dynamic/perturbation.h"
#include "matroid/uniform_matroid.h"
#include "metric/dense_metric.h"
#include "submodular/coverage_function.h"
#include "submodular/facility_location.h"
#include "submodular/modular_function.h"
#include "util/random.h"

namespace diverse {
namespace {

// phi(S + v) - phi(S) via two from-scratch evaluations.
double BruteAddDelta(const DiversificationProblem& problem,
                     const std::vector<int>& members, int v) {
  std::vector<int> extended = members;
  extended.push_back(v);
  return problem.Objective(extended) - problem.Objective(members);
}

double BruteRemoveDelta(const DiversificationProblem& problem,
                        const std::vector<int>& members, int v) {
  std::vector<int> reduced;
  for (int u : members) {
    if (u != v) reduced.push_back(u);
  }
  return problem.Objective(reduced) - problem.Objective(members);
}

double BruteSwapDelta(const DiversificationProblem& problem,
                      const std::vector<int>& members, int out, int in) {
  std::vector<int> swapped;
  for (int u : members) {
    if (u != out) swapped.push_back(u);
  }
  swapped.push_back(in);
  return problem.Objective(swapped) - problem.Objective(members);
}

struct Instance {
  Dataset data;
  ModularFunction weights;
  DiversificationProblem problem;

  Instance(int n, double lambda, std::uint64_t seed, Rng&& rng)
      : data(MakeUniformSynthetic(n, rng)),
        weights(data.weights),
        problem(&data.metric, &weights, lambda) {
    (void)seed;
  }
  Instance(int n, double lambda, std::uint64_t seed)
      : Instance(n, lambda, seed, Rng(seed)) {}
};

class EvaluatorFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EvaluatorFuzz, GainsMatchBruteForceDeltasUnderRandomMutations) {
  Rng rng(GetParam());
  Instance inst(14, 0.3, GetParam() * 7 + 1);
  SolutionState state(&inst.problem);
  for (int step = 0; step < 120; ++step) {
    const int v = rng.UniformInt(0, 13);
    if (state.Contains(v) && state.size() > 1 && state.size() < 14 &&
        rng.Uniform() < 0.3) {
      // Randomized swap with some non-member.
      int in = rng.UniformInt(0, 13);
      while (state.Contains(in)) in = rng.UniformInt(0, 13);
      EXPECT_NEAR(state.SwapGain(v, in),
                  BruteSwapDelta(inst.problem, state.members(), v, in), 1e-9);
      state.Swap(v, in);
    } else if (state.Contains(v)) {
      EXPECT_NEAR(state.RemoveGain(v),
                  BruteRemoveDelta(inst.problem, state.members(), v), 1e-9);
      state.Remove(v);
    } else {
      EXPECT_NEAR(state.AddGain(v),
                  BruteAddDelta(inst.problem, state.members(), v), 1e-9);
      state.Add(v);
    }
    EXPECT_NEAR(state.objective(), inst.problem.Objective(state.members()),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorFuzz, ::testing::Range(1, 11));

TEST(SolutionScansTest, BestAddOverMatchesSequentialArgmax) {
  Instance inst(40, 0.25, 21);
  SolutionState state(&inst.problem);
  for (int v : {3, 11, 27}) state.Add(v);
  const ScoredCandidate best = state.BestAddOver(state.Universe());
  int expected = -1;
  double expected_gain = 0.0;
  for (int u = 0; u < 40; ++u) {
    if (state.Contains(u)) continue;
    const double gain = BruteAddDelta(inst.problem, state.members(), u);
    if (expected < 0 || gain > expected_gain) {
      expected = u;
      expected_gain = gain;
    }
  }
  EXPECT_EQ(best.element, expected);
  EXPECT_NEAR(best.gain, expected_gain, 1e-9);
}

TEST(SolutionScansTest, BestPrimeAddOverMatchesStatePrimeGain) {
  Instance inst(30, 0.4, 22);
  SolutionState state(&inst.problem);
  for (int v : {1, 5}) state.Add(v);
  const ScoredCandidate best = state.BestPrimeAddOver(state.Universe());
  int expected = -1;
  double expected_gain = 0.0;
  for (int u = 0; u < 30; ++u) {
    if (state.Contains(u)) continue;
    const double gain = state.PrimeGain(u);
    if (expected < 0 || gain > expected_gain) {
      expected = u;
      expected_gain = gain;
    }
  }
  EXPECT_EQ(best.element, expected);
  EXPECT_NEAR(best.gain, expected_gain, 1e-12);
}

TEST(SolutionScansTest, SwapScansMatchBruteForceDeltas) {
  Instance inst(25, 0.35, 23);
  SolutionState state(&inst.problem);
  for (int v : {2, 9, 17, 21}) state.Add(v);
  std::vector<double> gains(25);
  for (int out : {2, 9, 17, 21}) {
    state.ScoreSwapsFor(out, state.Universe(), gains);
    for (int in = 0; in < 25; ++in) {
      if (state.Contains(in) || in == out) {
        EXPECT_EQ(gains[in], -std::numeric_limits<double>::infinity());
        continue;
      }
      EXPECT_NEAR(gains[in],
                  BruteSwapDelta(inst.problem, state.members(), out, in),
                  1e-9)
          << "swap " << out << " -> " << in;
      // Scans and the single-pair gain share one expression: bitwise.
      EXPECT_EQ(gains[in], state.SwapGain(out, in))
          << "swap " << out << " -> " << in;
    }
    const ScoredCandidate best = state.BestSwapInFor(out, state.Universe());
    ASSERT_TRUE(best.valid());
    EXPECT_NEAR(best.gain, *std::max_element(gains.begin(), gains.end()),
                1e-12);
  }
  // BestSwapOver agrees with the max over all (out, in) pairs.
  const BestSwapResult best =
      state.BestSwapOver(state.members(), state.Universe());
  ASSERT_TRUE(best.valid());
  double expected = -std::numeric_limits<double>::infinity();
  for (int out : state.members()) {
    for (int in = 0; in < 25; ++in) {
      if (state.Contains(in)) continue;
      expected = std::max(
          expected, BruteSwapDelta(inst.problem, state.members(), out, in));
    }
  }
  EXPECT_NEAR(best.gain, expected, 1e-9);
}

TEST(SolutionScansTest, SwapScansWorkWithSubmodularQuality) {
  Rng rng(24);
  Dataset data = MakeUniformSynthetic(12, rng);
  std::vector<std::vector<int>> covers(12);
  for (auto& cv : covers) {
    cv = rng.SampleWithoutReplacement(8, rng.UniformInt(1, 4));
  }
  const CoverageFunction coverage(covers, std::vector<double>(8, 1.0));
  const DiversificationProblem problem(&data.metric, &coverage, 0.3);
  SolutionState state(&problem);
  for (int v : {0, 4, 8}) state.Add(v);
  const double objective_before = state.objective();
  std::vector<double> gains(12);
  for (int out : {0, 4, 8}) {
    state.ScoreSwapsFor(out, state.Universe(), gains);
    for (int in = 0; in < 12; ++in) {
      if (state.Contains(in) || in == out) continue;
      EXPECT_NEAR(gains[in],
                  BruteSwapDelta(problem, state.members(), out, in), 1e-9);
    }
  }
  // The hoisted quality-evaluator repositioning must leave no net change.
  EXPECT_DOUBLE_EQ(state.objective(), objective_before);
  EXPECT_NEAR(state.quality_value(), coverage.Value(state.members()), 1e-9);
}

TEST(SolutionScansTest, BestDensityAddOverRespectsBudgetAndCosts) {
  Instance inst(20, 0.2, 25);
  Rng rng(26);
  std::vector<double> costs(20);
  for (double& c : costs) c = rng.Uniform(0.5, 2.0);
  SolutionState state(&inst.problem);
  state.Add(4);
  const double budget_left = 1.4;
  const ScoredCandidate best =
      state.BestDensityAddOver(state.Universe(), costs, budget_left);
  int expected = -1;
  double expected_density = 0.0;
  for (int u = 0; u < 20; ++u) {
    if (state.Contains(u)) continue;
    if (costs[u] > budget_left + 1e-12) continue;
    const double density = state.PrimeGain(u) / std::max(costs[u], 1e-12);
    if (expected < 0 || density > expected_density) {
      expected = u;
      expected_density = density;
    }
  }
  EXPECT_EQ(best.element, expected);
  if (expected >= 0) {
    EXPECT_NEAR(best.gain, expected_density, 1e-12);
  }
  // An empty budget admits nothing.
  EXPECT_FALSE(state.BestDensityAddOver(state.Universe(), costs, 0.0).valid());
}

TEST(SolutionScansTest, BlockPrimeAddGainMatchesFromScratch) {
  Instance inst(15, 0.3, 27);
  SolutionState state(&inst.problem);
  for (int v : {0, 7}) state.Add(v);
  const std::vector<int> block = {2, 5, 11};
  std::vector<int> extended = state.members();
  extended.insert(extended.end(), block.begin(), block.end());
  const double f_gain = inst.problem.quality().Value(extended) -
                        inst.problem.quality().Value(state.members());
  double dist = 0.0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    dist += state.DistanceToSet(block[i]);
    for (std::size_t j = i + 1; j < block.size(); ++j) {
      dist += inst.data.metric.Distance(block[i], block[j]);
    }
  }
  const double expected = 0.5 * f_gain + inst.problem.lambda() * dist;
  EXPECT_NEAR(state.BlockPrimeAddGain(block), expected, 1e-9);
  // No net state change.
  EXPECT_NEAR(state.objective(), inst.problem.Objective(state.members()),
              1e-9);
}

// Equal gains go to the earliest candidate *position*, not the smallest
// id: every algorithm's determinism rests on this rule.
TEST(SolutionScansTest, TiesKeepEarliestPosition) {
  const int n = 6;
  std::vector<double> matrix(n * n, 1.0);
  for (int i = 0; i < n; ++i) matrix[i * n + i] = 0.0;
  const DenseMetric metric = DenseMetric::FromMatrix(n, std::move(matrix));
  const ModularFunction weights(std::vector<double>(n, 0.5));
  const DiversificationProblem problem(&metric, &weights, 0.3);
  SolutionState state(&problem);
  state.Add(0);

  // Every non-member has the same gain; the member 0 is skipped.
  const std::vector<int> reversed = {5, 4, 3, 2, 1, 0};
  EXPECT_EQ(state.BestAddOver(reversed).element, 5);
  EXPECT_EQ(state.BestPrimeAddOver(reversed).element, 5);
  EXPECT_EQ(state.BestSwapInFor(0, reversed).element, 5);

  // Pair scan: every pair with a == 2 or b == 4 ties at the top. The
  // lexicographically earliest positions (0, 3) hold (7, 4); a column-first
  // order would pick (2, 9) and a smallest-id rule (2, 4).
  const std::vector<int> items = {7, 2, 9, 4};
  const auto score = [](int a, int b) { return a == 2 || b == 4 ? 1.0 : 0.0; };
  const ScoredPair best = ArgmaxOverPairs(items, score);
  EXPECT_EQ(best.first, 7);
  EXPECT_EQ(best.second, 4);
  EXPECT_EQ(best.gain, 1.0);
}

// Regression for a lazy-rebuild race: Universe() used to resize a mutable
// cache vector inside a const method, so two threads scanning the same
// (const) state raced on the resize. The universe list is now built
// eagerly at construction; this test hammers Universe() and the read-only
// add scans that consume it from many threads — under TSan it fails
// loudly if the lazy rebuild ever comes back. (Swap scans stay out of the
// threaded section on purpose: BestSwapInFor scopes a quality-evaluator
// mutation, so concurrent swap scans on one state were never a supported
// pattern — every engine query owns its own state.)
TEST(SolutionScansTest, UniverseIsSafeUnderConcurrentScans) {
  Instance inst(80, 0.3, 91);
  SolutionState state(&inst.problem);
  for (int v : {3, 17, 42, 61}) state.Add(v);
  const ScoredCandidate expected_add = state.BestAddOver(state.Universe());
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        const std::span<const int> universe = state.Universe();
        ASSERT_EQ(static_cast<int>(universe.size()), 80);
        const ScoredCandidate add = state.BestAddOver(universe);
        EXPECT_EQ(add.element, expected_add.element);
        EXPECT_EQ(add.gain, expected_add.gain);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Greedy B's fused step against the two calls it replaces, at every step
// of a state grown to p = n: AddThenBestPrimeAdd(v) must return the same
// element and gain bits as Add(v) followed by BestPrimeAddOver(Universe()),
// leave the same objective and d_u(S) bits, and keep the earliest id among
// equal gains. Odd steps hand the state the caller's row.
void ExpectFusedStepMatchesAddThenScan(const DiversificationProblem& problem) {
  const int n = problem.size();
  SolutionState fused(&problem);
  SolutionState plain(&problem);
  std::vector<double> row(n);
  ScoredCandidate next = plain.BestPrimeAddOver(plain.Universe());
  for (int step = 0; step < n; ++step) {
    ASSERT_TRUE(next.valid()) << "step " << step;
    std::span<const double> given;
    if (step % 2 == 1) {
      problem.metric().DistanceRow(next.element, row);
      given = row;
    }
    const ScoredCandidate from_fused =
        fused.AddThenBestPrimeAdd(next.element, given);
    plain.Add(next.element);
    const ScoredCandidate from_plain = plain.BestPrimeAddOver(plain.Universe());
    EXPECT_EQ(from_fused.element, from_plain.element) << "step " << step;
    EXPECT_EQ(Bits(from_fused.gain), Bits(from_plain.gain)) << "step " << step;
    EXPECT_EQ(Bits(fused.objective()), Bits(plain.objective()))
        << "step " << step;
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(Bits(fused.DistanceToSet(u)), Bits(plain.DistanceToSet(u)))
          << "step " << step << ", u " << u;
      if (u < from_fused.element && !fused.Contains(u)) {
        EXPECT_LT(fused.PrimeGain(u), from_fused.gain)
            << "step " << step << ": earlier id " << u << " ties";
      }
    }
    next = from_plain;
  }
  EXPECT_FALSE(next.valid());  // S = U leaves nothing to score
}

TEST(SolutionScansTest, FusedStepMatchesAddThenScanWithModularQuality) {
  Instance inst(30, 0.3, 51);
  ExpectFusedStepMatchesAddThenScan(inst.problem);
}

TEST(SolutionScansTest, FusedStepMatchesAddThenScanWithCoverageQuality) {
  Rng rng(52);
  Dataset data = MakeUniformSynthetic(24, rng);
  std::vector<std::vector<int>> covers(24);
  for (auto& cv : covers) {
    cv = rng.SampleWithoutReplacement(10, rng.UniformInt(1, 4));
  }
  const CoverageFunction coverage(covers, std::vector<double>(10, 1.0));
  const DiversificationProblem problem(&data.metric, &coverage, 0.2);
  ExpectFusedStepMatchesAddThenScan(problem);
}

TEST(SolutionScansTest, FusedStepMatchesAddThenScanWithFacilityLocation) {
  Rng rng(53);
  Dataset data = MakeUniformSynthetic(24, rng);
  std::vector<std::vector<double>> similarity(6, std::vector<double>(24));
  for (auto& client : similarity) {
    for (double& s : client) s = rng.Uniform(0.0, 1.0);
  }
  const FacilityLocationFunction facility(std::move(similarity));
  const DiversificationProblem problem(&data.metric, &facility, 0.25);
  ExpectFusedStepMatchesAddThenScan(problem);
}

// Equal weights over a {1, 2}-valued metric: most steps tie, and the
// earliest id must win in the fused pass as in the plain scan.
TEST(SolutionScansTest, FusedStepKeepsEarliestIdUnderForcedTies) {
  const int n = 20;
  Rng rng(54);
  std::vector<double> matrix(n * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      matrix[i * n + j] = matrix[j * n + i] = rng.Uniform() < 0.5 ? 1.0 : 2.0;
    }
  }
  const DenseMetric metric = DenseMetric::FromMatrix(n, std::move(matrix));
  const ModularFunction weights(std::vector<double>(n, 0.5));
  const DiversificationProblem problem(&metric, &weights, 0.5);
  ExpectFusedStepMatchesAddThenScan(problem);

  // At the empty set every candidate ties: the fused pass after adding 0
  // must pick 1 when d(0, .) is constant.
  std::vector<double> flat(n * n, 1.0);
  for (int i = 0; i < n; ++i) flat[i * n + i] = 0.0;
  const DenseMetric flat_metric = DenseMetric::FromMatrix(n, std::move(flat));
  const DiversificationProblem flat_problem(&flat_metric, &weights, 0.5);
  SolutionState state(&flat_problem);
  EXPECT_EQ(state.BestPrimeAddOver(state.Universe()).element, 0);
  EXPECT_EQ(state.AddThenBestPrimeAdd(0).element, 1);
  EXPECT_EQ(state.AddThenBestPrimeAdd(1).element, 2);
  ExpectFusedStepMatchesAddThenScan(flat_problem);
}

// The rewired algorithms must report objectives that equal a from-scratch
// evaluation of the sets they return.
class RewiredAlgorithmsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RewiredAlgorithmsFuzz, ReportedObjectivesMatchFromScratch) {
  const int seed = GetParam();
  Instance inst(24, 0.1 * (seed % 5) + 0.05, seed * 13 + 3);

  const AlgorithmResult greedy = GreedyVertex(inst.problem, {.p = 6});
  EXPECT_NEAR(greedy.objective, inst.problem.Objective(greedy.elements),
              1e-9);

  const AlgorithmResult greedy_pair =
      GreedyVertex(inst.problem, {.p = 6, .best_first_pair = true});
  EXPECT_NEAR(greedy_pair.objective,
              inst.problem.Objective(greedy_pair.elements), 1e-9);
  EXPECT_GE(greedy_pair.objective + 1e-9, 0.0);

  for (int p : {5, 6}) {  // odd p exercises the final-vertex path
    const AlgorithmResult edge = GreedyEdge(
        inst.problem, inst.weights, {.p = p, .best_last_vertex = true});
    EXPECT_EQ(static_cast<int>(edge.elements.size()), p);
    EXPECT_NEAR(edge.objective, inst.problem.Objective(edge.elements), 1e-9);
  }

  const AlgorithmResult batch =
      BatchGreedy(inst.problem, {.p = 6, .batch = 2});
  EXPECT_NEAR(batch.objective, inst.problem.Objective(batch.elements), 1e-9);

  const UniformMatroid matroid(24, 5);
  const AlgorithmResult ls = LocalSearch(inst.problem, matroid, {});
  EXPECT_NEAR(ls.objective, inst.problem.Objective(ls.elements), 1e-9);

  Rng rng(seed);
  std::vector<double> costs(24);
  for (double& c : costs) c = rng.Uniform(0.2, 1.5);
  KnapsackOptions knapsack;
  knapsack.costs = costs;
  knapsack.budget = 3.0;
  knapsack.seed_size = 1;
  const AlgorithmResult ks = KnapsackGreedy(inst.problem, knapsack);
  EXPECT_NEAR(ks.objective, inst.problem.Objective(ks.elements), 1e-9);

  GroupOptions group;
  group.p = 3;
  group.k = 2;
  const GroupResult groups = GroupGreedy(inst.problem, group);
  EXPECT_NEAR(groups.objective, GroupObjective(inst.problem, groups.groups),
              1e-9);

  StreamingDiversifier streaming(&inst.problem, 5);
  std::vector<int> stream(24);
  for (int i = 0; i < 24; ++i) stream[i] = i;
  rng.Shuffle(&stream);
  streaming.ObserveAll(stream);
  EXPECT_NEAR(streaming.objective(),
              inst.problem.Objective(streaming.current()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewiredAlgorithmsFuzz, ::testing::Range(1, 9));

// The dynamic-update path: random perturbations + oblivious updates keep
// the incremental objective equal to a from-scratch evaluation.
class DynamicPathFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DynamicPathFuzz, UpdaterObjectiveMatchesFromScratch) {
  Rng rng(GetParam() * 31 + 5);
  Dataset data = MakeUniformSynthetic(16, rng);
  ModularFunction weights(data.weights);
  DiversificationProblem problem(&data.metric, &weights, 0.4);
  const AlgorithmResult initial = GreedyVertex(problem, {.p = 5});
  DynamicUpdater updater(&problem, &weights, &data.metric, initial.elements);
  for (int step = 0; step < 40; ++step) {
    const Perturbation perturbation =
        rng.Uniform() < 0.5
            ? RandomWeightPerturbation(weights, rng, 0.0, 1.0)
            : RandomDistancePerturbation(data.metric, rng, 1.0, 2.0);
    updater.ApplyAndUpdate(perturbation);
    EXPECT_NEAR(updater.objective(), problem.Objective(updater.solution()),
                1e-9)
        << "after step " << step << " (" << ToString(perturbation.type)
        << ")";
  }
  EXPECT_GE(updater.total_swaps(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicPathFuzz, ::testing::Range(1, 11));

// Scans run on the object's own state, so a copy taken mid-stream and the
// source it was copied from evolve independently: the copy must end where
// a fresh diversifier fed the same prefix and suffix ends.
TEST(CopySafetyTest, CopiedStreamingDiversifierMatchesFreshOne) {
  Instance inst(40, 0.3, 31);
  Rng rng(32);
  std::vector<int> stream(40);
  for (int i = 0; i < 40; ++i) stream[i] = i;
  rng.Shuffle(&stream);
  const std::vector<int> prefix(stream.begin(), stream.begin() + 10);
  const std::vector<int> suffix(stream.begin() + 10, stream.begin() + 30);

  StreamingDiversifier source(&inst.problem, 5);
  source.ObserveAll(prefix);
  StreamingDiversifier copy = source;
  source.ObserveAll(std::vector<int>(stream.begin() + 30, stream.end()));
  copy.ObserveAll(suffix);

  StreamingDiversifier fresh(&inst.problem, 5);
  fresh.ObserveAll(prefix);
  fresh.ObserveAll(suffix);
  EXPECT_EQ(copy.current(), fresh.current());
  EXPECT_EQ(copy.objective(), fresh.objective());
  EXPECT_EQ(copy.swaps_performed(), fresh.swaps_performed());
}

TEST(CopySafetyTest, CopiedDynamicUpdaterMatchesFreshOne) {
  Rng rng(33);
  Dataset data = MakeUniformSynthetic(30, rng);
  ModularFunction weights(data.weights);
  DiversificationProblem problem(&data.metric, &weights, 0.4);
  const std::vector<int> initial = {0, 1, 2, 3, 4};

  DynamicUpdater source(&problem, &weights, &data.metric, initial);
  DynamicUpdater copy = source;
  for (int i = 0; i < 3; ++i) source.ObliviousUpdate();
  DynamicUpdater fresh(&problem, &weights, &data.metric, initial);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(copy.ObliviousUpdate(), fresh.ObliviousUpdate()) << i;
  }
  EXPECT_EQ(copy.solution(), fresh.solution());
  EXPECT_EQ(copy.objective(), fresh.objective());
  EXPECT_EQ(copy.total_swaps(), fresh.total_swaps());
}

}  // namespace
}  // namespace diverse
