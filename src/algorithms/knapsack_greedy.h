// Knapsack-constrained max-sum diversification — the open question in the
// paper's §8 ("can our results be extended to ... a knapsack constraint?").
// We implement the natural heuristic transfer: Sviridenko-style partial
// enumeration over small seed sets, each completed by a density greedy that
// ranks candidates by Greedy B's potential per unit cost,
// phi'_u(S) / c(u). No approximation guarantee is claimed (that is exactly
// the open problem); tests verify feasibility and sane behaviour, and the
// ablation bench measures empirical quality against brute force.
#ifndef DIVERSE_ALGORITHMS_KNAPSACK_GREEDY_H_
#define DIVERSE_ALGORITHMS_KNAPSACK_GREEDY_H_

#include <span>
#include <vector>

#include "algorithms/result.h"
#include "core/diversification_problem.h"

namespace diverse {

struct KnapsackOptions {
  // Non-negative per-element costs, indexed by element id; size must equal
  // the ground size.
  std::vector<double> costs;
  double budget = 0.0;
  // Enumerate all seed sets of size <= seed_size (0, 1 or 2), complete each
  // greedily, return the best. seed_size 2 costs O(n^2) greedy runs.
  int seed_size = 1;
};

// Enumerates and completes over every id.
AlgorithmResult KnapsackGreedy(const DiversificationProblem& problem,
                               const KnapsackOptions& options);

// Seeds and completes from `candidates` only (the serving engine passes a
// snapshot's live ids): ascending, distinct ids below problem.size(). Runs
// KnapsackGreedy on the problem restricted to the list
// (core/restricted_problem.h) with the costs gathered, and maps the answer
// back, so it equals KnapsackGreedy on the problem rebuilt from those ids.
AlgorithmResult KnapsackGreedyOnCandidates(
    const DiversificationProblem& problem, std::span<const int> candidates,
    const KnapsackOptions& options);

// Exact knapsack-constrained optimum by DFS; exponential, for tests and
// small ablations only (n <= ~24).
AlgorithmResult BruteForceKnapsack(const DiversificationProblem& problem,
                                   const std::vector<double>& costs,
                                   double budget);

}  // namespace diverse

#endif  // DIVERSE_ALGORITHMS_KNAPSACK_GREEDY_H_
