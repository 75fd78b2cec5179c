#include "algorithms/local_search.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {
namespace {

// Best independent pair {x,y} maximizing phi({x,y}).
std::vector<int> BestIndependentPair(const DiversificationProblem& problem,
                                     const Matroid& matroid) {
  const int n = problem.size();
  std::vector<int> best;
  double best_value = -1.0;
  std::vector<int> pair(2);
  for (int x = 0; x < n; ++x) {
    for (int y = x + 1; y < n; ++y) {
      pair[0] = x;
      pair[1] = y;
      if (!matroid.IsIndependent(pair)) continue;
      const double value = problem.Objective(pair);
      if (value > best_value) {
        best_value = value;
        best = pair;
      }
    }
  }
  if (best.empty()) {
    // Rank < 2: fall back to the best independent singleton, if any.
    std::vector<int> single(1);
    for (int x = 0; x < n; ++x) {
      single[0] = x;
      if (!matroid.IsIndependent(single)) continue;
      const double value = problem.Objective(single);
      if (best.empty() || value > best_value) {
        best_value = value;
        best = single;
      }
    }
  }
  return best;
}

// Extends `state` to a basis of `matroid`.
void CompleteToBasis(const Matroid& matroid, bool greedy,
                     SolutionState* state) {
  const int n = state->universe_size();
  std::vector<int> feasible;
  feasible.reserve(n);
  while (true) {
    const std::vector<int>& members = state->members();
    feasible.clear();
    int pick = -1;
    for (int e = 0; e < n; ++e) {
      if (state->Contains(e)) continue;
      if (!matroid.CanAdd(members, e)) continue;
      if (!greedy) {
        pick = e;  // lowest feasible index suffices
        break;
      }
      feasible.push_back(e);
    }
    if (greedy) pick = state->BestAddOver(feasible).element;
    if (pick < 0) break;
    state->Add(pick);
  }
}

// One candidate exchange surfaced by the batched swap scan.
struct SwapCandidate {
  double gain;
  int out_rank;  // position of `out` in the scanned member order
  int in;
};

}  // namespace

AlgorithmResult LocalSearch(const DiversificationProblem& problem,
                            const Matroid& matroid,
                            const LocalSearchOptions& options) {
  DIVERSE_CHECK_MSG(matroid.ground_size() == problem.size(),
                    "matroid and problem ground sets differ");
  WallTimer timer;
  AlgorithmResult result;
  SolutionState state(&problem);

  if (options.initial.empty()) {
    state.Assign(BestIndependentPair(problem, matroid));
  } else {
    DIVERSE_CHECK_MSG(matroid.IsIndependent(options.initial),
                      "initial set must be independent");
    state.Assign(options.initial);
  }
  CompleteToBasis(matroid, options.greedy_completion, &state);

  const int n = problem.size();
  std::vector<double> gains(n);
  std::vector<SwapCandidate> candidates;
  while (options.max_swaps < 0 || result.steps < options.max_swaps) {
    if (options.time_limit_seconds > 0.0 &&
        timer.Seconds() >= options.time_limit_seconds) {
      break;
    }
    const double threshold =
        options.epsilon * std::max(std::abs(state.objective()), 1.0);
    const std::vector<int> members = state.members();  // copy: stable order
    // Batch-score every exchange, then test the (expensive) matroid oracle
    // in descending-gain order: the first feasible candidate is the best
    // feasible exchange, matching the scalar scan's result.
    candidates.clear();
    for (int rank = 0; rank < static_cast<int>(members.size()); ++rank) {
      state.ScoreSwapsFor(members[rank], state.Universe(), gains);
      for (int in = 0; in < n; ++in) {
        const double gain = gains[in];
        if (gain <= threshold || gain <= 1e-12) continue;
        candidates.push_back({gain, rank, in});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const SwapCandidate& a, const SwapCandidate& b) {
                if (a.gain != b.gain) return a.gain > b.gain;
                if (a.out_rank != b.out_rank) return a.out_rank < b.out_rank;
                return a.in < b.in;
              });
    int best_out = -1;
    int best_in = -1;
    for (const SwapCandidate& c : candidates) {
      if (!matroid.CanExchange(members, members[c.out_rank], c.in)) continue;
      best_out = members[c.out_rank];
      best_in = c.in;
      break;
    }
    if (best_out < 0) break;  // local optimum
    state.Swap(best_out, best_in);
    ++result.steps;
  }

  result.elements = state.SortedMembers();
  result.objective = state.objective();
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace diverse
