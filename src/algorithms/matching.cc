#include "algorithms/matching.h"

#include <algorithm>
#include <bit>

#include "algorithms/greedy_edge.h"
#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {

std::vector<std::pair<int, int>> MaxWeightMatchingExact(
    int n, const std::vector<double>& w, int k) {
  DIVERSE_CHECK_MSG(n <= 20, "exact matching limited to n <= 20");
  DIVERSE_CHECK(static_cast<int>(w.size()) == n * n);
  DIVERSE_CHECK(0 <= k && 2 * k <= n);
  if (k == 0) return {};

  const unsigned limit = 1u << n;
  constexpr double kNegInf = -1e300;
  // dp[mask] = max weight of a PERFECT matching on the vertices of `mask`
  // (kNegInf when popcount is odd or unmatchable). choice[mask] records the
  // partner chosen for the lowest set bit.
  std::vector<double> dp(limit, kNegInf);
  std::vector<int> choice(limit, -1);
  dp[0] = 0.0;
  for (unsigned mask = 1; mask < limit; ++mask) {
    if (std::popcount(mask) % 2 != 0) continue;
    const int i = std::countr_zero(mask);
    for (int j = i + 1; j < n; ++j) {
      const unsigned bit_j = 1u << j;
      if (!(mask & bit_j)) continue;
      const unsigned rest = mask & ~(1u << i) & ~bit_j;
      if (dp[rest] == kNegInf) continue;
      const double cand = dp[rest] + w[static_cast<std::size_t>(i) * n + j];
      if (cand > dp[mask]) {
        dp[mask] = cand;
        choice[mask] = j;
      }
    }
  }

  // Best mask with exactly 2k vertices.
  unsigned best_mask = 0;
  double best = kNegInf;
  for (unsigned mask = 0; mask < limit; ++mask) {
    if (std::popcount(mask) != 2 * k) continue;
    if (dp[mask] > best) {
      best = dp[mask];
      best_mask = mask;
    }
  }
  DIVERSE_CHECK_MSG(best != kNegInf, "no k-matching exists");

  std::vector<std::pair<int, int>> edges;
  unsigned mask = best_mask;
  while (mask != 0) {
    const int i = std::countr_zero(mask);
    const int j = choice[mask];
    edges.emplace_back(i, j);
    mask &= ~(1u << i);
    mask &= ~(1u << j);
  }
  return edges;
}

AlgorithmResult MatchingDiversifier(
    const DiversificationProblem& problem, const ModularFunction& weights,
    const MatchingDiversifierOptions& options) {
  const int n = problem.size();
  const int p = std::min(options.p, n);
  DIVERSE_CHECK_MSG(&problem.quality() == &weights,
                    "weights must be the problem's quality function");
  WallTimer timer;
  AlgorithmResult result;

  std::vector<int> selected;
  if (p >= 2) {
    std::vector<double> reduced(static_cast<std::size_t>(n) * n, 0.0);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        const double d = ReducedDistance(weights, problem.metric(),
                                         problem.lambda(), p, u, v);
        reduced[static_cast<std::size_t>(u) * n + v] = d;
        reduced[static_cast<std::size_t>(v) * n + u] = d;
      }
    }
    const auto edges = MaxWeightMatchingExact(n, reduced, p / 2);
    for (const auto& [a, b] : edges) {
      selected.push_back(a);
      selected.push_back(b);
    }
    result.steps = static_cast<long long>(edges.size());
  }

  if (static_cast<int>(selected.size()) < p) {
    int pick = -1;
    if (options.best_last_vertex) {
      SolutionState state(&problem);
      state.Assign(selected);
      pick = state.BestAddOver(state.Universe()).element;
    } else {
      std::vector<bool> chosen(n, false);
      for (int e : selected) chosen[e] = true;
      for (int u = 0; u < n && pick < 0; ++u) {
        if (!chosen[u]) pick = u;
      }
    }
    if (pick >= 0) selected.push_back(pick);
  }

  result.elements = selected;
  result.objective = problem.Objective(selected);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace diverse
