#include "algorithms/knapsack_greedy.h"

#include <algorithm>

#include "core/restricted_problem.h"
#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {
namespace {

double TotalCost(const std::vector<double>& costs,
                 const std::vector<int>& set) {
  double sum = 0.0;
  for (int e : set) sum += costs[e];
  return sum;
}

// Completes the state greedily by potential-per-cost among the elements
// that fit. The per-iteration scan runs through the state's batched density
// argmax (a tiny epsilon denominator ranks zero-cost elements with positive
// gain first).
void DensityGreedyComplete(const std::vector<double>& costs, double budget,
                           SolutionState* state, long long* steps) {
  double used = TotalCost(costs, state->members());
  while (true) {
    const ScoredCandidate best =
        state->BestDensityAddOver(state->Universe(), costs, budget - used);
    if (!best.valid()) break;
    used += costs[best.element];
    state->Add(best.element);
    ++*steps;
  }
}

void KnapsackDfs(const DiversificationProblem& problem,
                 const std::vector<double>& costs, double budget, int start,
                 std::vector<int>* chosen, double used,
                 AlgorithmResult* result, std::vector<int>* best_set,
                 double* best_value) {
  ++result->steps;
  const double value = problem.Objective(*chosen);
  if (value > *best_value) {
    *best_value = value;
    *best_set = *chosen;
  }
  for (int v = start; v < problem.size(); ++v) {
    if (used + costs[v] > budget + 1e-12) continue;
    chosen->push_back(v);
    KnapsackDfs(problem, costs, budget, v + 1, chosen, used + costs[v], result,
                best_set, best_value);
    chosen->pop_back();
  }
}

}  // namespace

AlgorithmResult KnapsackGreedy(const DiversificationProblem& problem,
                               const KnapsackOptions& options) {
  const int n = problem.size();
  DIVERSE_CHECK(static_cast<int>(options.costs.size()) == n);
  DIVERSE_CHECK(options.budget >= 0.0);
  DIVERSE_CHECK(0 <= options.seed_size && options.seed_size <= 2);
  for (double c : options.costs) DIVERSE_CHECK(c >= 0.0);

  WallTimer timer;
  AlgorithmResult best;
  best.objective = -1.0;
  SolutionState state(&problem);

  auto try_seed = [&](const std::vector<int>& seed) {
    if (TotalCost(options.costs, seed) > options.budget + 1e-12) return;
    state.Assign(seed);
    long long steps = 0;
    DensityGreedyComplete(options.costs, options.budget, &state, &steps);
    if (state.objective() > best.objective) {
      best.objective = state.objective();
      best.elements = state.SortedMembers();
    }
    best.steps += steps;
  };

  try_seed({});
  if (options.seed_size >= 1) {
    for (int u = 0; u < n; ++u) try_seed({u});
  }
  if (options.seed_size >= 2) {
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) try_seed({u, v});
    }
  }

  if (best.objective < 0.0) {
    best.objective = 0.0;  // nothing fits the budget
    best.elements.clear();
  }
  best.elapsed_seconds = timer.Seconds();
  return best;
}

AlgorithmResult KnapsackGreedyOnCandidates(
    const DiversificationProblem& problem, std::span<const int> candidates,
    const KnapsackOptions& options) {
  const int n = problem.size();
  DIVERSE_CHECK(static_cast<int>(options.costs.size()) == n);
  WallTimer timer;
  const RestrictedProblem local = Restrict(problem, candidates);
  KnapsackOptions local_options = options;
  local_options.costs.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    local_options.costs[i] = options.costs[candidates[i]];
  }
  AlgorithmResult result = KnapsackGreedy(local.problem(), local_options);
  result.elements = local.ToGlobal(result.elements);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

AlgorithmResult BruteForceKnapsack(const DiversificationProblem& problem,
                                   const std::vector<double>& costs,
                                   double budget) {
  DIVERSE_CHECK(static_cast<int>(costs.size()) == problem.size());
  DIVERSE_CHECK_MSG(problem.size() <= 24,
                    "BruteForceKnapsack limited to n <= 24");
  WallTimer timer;
  AlgorithmResult result;
  std::vector<int> chosen;
  std::vector<int> best_set;
  double best_value = -1.0;
  KnapsackDfs(problem, costs, budget, 0, &chosen, 0.0, &result, &best_set,
              &best_value);
  result.elements = best_set;
  result.objective = std::max(best_value, 0.0);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace diverse
