#include "algorithms/greedy_edge.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/argmax_scan.h"
#include "core/solution_state.h"
#include "metric/dense_metric.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {

double ReducedDistance(const ModularFunction& weights,
                       const MetricSpace& metric, double lambda, int p, int u,
                       int v) {
  DIVERSE_CHECK(p >= 2);
  return (weights.weight(u) + weights.weight(v)) / (p - 1) +
         lambda * metric.Distance(u, v);
}

AlgorithmResult GreedyEdge(const DiversificationProblem& problem,
                           const ModularFunction& weights,
                           const GreedyEdgeOptions& options) {
  const int n = problem.size();
  const int p = std::min(options.p, n);
  DIVERSE_CHECK_MSG(options.p >= 0, "p must be non-negative");
  DIVERSE_CHECK_MSG(&problem.quality() == &weights,
                    "weights must be the problem's quality function");
  WallTimer timer;
  AlgorithmResult result;
  // The edge greedy rescans surviving pairs every round. Metrics that
  // compute distances on demand are materialized once into a dense
  // matrix; a DenseMetric is used directly.
  const MetricSpace& base_metric = problem.metric();
  std::optional<DenseMetric> dense;
  if (p >= 2 && dynamic_cast<const DenseMetric*>(&base_metric) == nullptr) {
    dense.emplace(DenseMetric::Materialize(base_metric));
  }
  const MetricSpace& metric = dense ? *dense : base_metric;
  const double lambda = problem.lambda();

  std::vector<bool> chosen(n, false);
  std::vector<int> selected;

  if (p >= 2) {
    // Edge greedy over d': each round scans all unchosen pairs.
    const auto reduced = [&](int u, int v) {
      return ReducedDistance(weights, metric, lambda, p, u, v);
    };
    std::vector<int> unchosen;
    unchosen.reserve(n);
    while (static_cast<int>(selected.size()) + 2 <= p) {
      unchosen.clear();
      for (int u = 0; u < n; ++u) {
        if (!chosen[u]) unchosen.push_back(u);
      }
      const ScoredPair best = ArgmaxOverPairs(unchosen, reduced);
      DIVERSE_CHECK(best.valid());
      chosen[best.first] = chosen[best.second] = true;
      selected.push_back(best.first);
      selected.push_back(best.second);
      ++result.steps;
    }
  }

  if (static_cast<int>(selected.size()) < p) {
    // Final odd vertex (or the entire selection when p == 1).
    int pick = -1;
    if (options.best_last_vertex) {
      SolutionState state(&problem);
      state.Assign(selected);
      std::vector<int> candidates;
      for (int u = 0; u < n; ++u) {
        if (!chosen[u]) candidates.push_back(u);
      }
      pick = state.BestAddOver(candidates).element;
    } else {
      // "Arbitrary" vertex, deterministically the lowest unchosen index —
      // mirroring the paper's observation that Greedy A as defined does not
      // optimize this choice.
      for (int u = 0; u < n && pick < 0; ++u) {
        if (!chosen[u]) pick = u;
      }
    }
    if (pick >= 0) {
      chosen[pick] = true;
      selected.push_back(pick);
      ++result.steps;
    }
  }

  result.elements = selected;
  result.objective = problem.Objective(selected);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace diverse
