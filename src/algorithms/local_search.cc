#include "algorithms/local_search.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {
namespace {

// Best independent pair {x,y} over `candidates` maximizing phi({x,y}).
std::vector<int> BestIndependentPair(const DiversificationProblem& problem,
                                     const Matroid& matroid,
                                     std::span<const int> candidates) {
  const std::size_t n = candidates.size();
  std::vector<int> best;
  double best_value = -1.0;
  std::vector<int> pair(2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      pair[0] = candidates[i];
      pair[1] = candidates[j];
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
    for (int x : candidates) {
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

// Extends `state` to a basis of `matroid` restricted to `candidates`.
void CompleteToBasis(const Matroid& matroid, std::span<const int> candidates,
                     bool greedy, SolutionState* state) {
  std::vector<int> feasible;
  feasible.reserve(candidates.size());
  while (true) {
    const std::vector<int>& members = state->members();
    feasible.clear();
    int pick = -1;
    for (int e : candidates) {
      if (state->Contains(e)) continue;
      if (!matroid.CanAdd(members, e)) continue;
      if (!greedy) {
        pick = e;  // first feasible candidate suffices
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
  std::vector<int> all(problem.size());
  std::iota(all.begin(), all.end(), 0);
  return LocalSearchOnCandidates(problem, matroid, all, options);
}

AlgorithmResult LocalSearchOnCandidates(const DiversificationProblem& problem,
                                        const Matroid& matroid,
                                        std::span<const int> candidates,
                                        const LocalSearchOptions& options) {
  DIVERSE_CHECK_MSG(std::adjacent_find(candidates.begin(), candidates.end(),
                                       std::greater_equal<int>()) ==
                        candidates.end(),
                    "candidates must be ascending and distinct");
  DIVERSE_CHECK_MSG(
      candidates.empty() ||
          (candidates.front() >= 0 &&
           candidates.back() < std::min(problem.size(), matroid.ground_size())),
      "candidates must lie in the problem's and the matroid's ground sets");
  WallTimer timer;
  AlgorithmResult result;
  SolutionState state(&problem);

  if (options.initial.empty()) {
    state.Assign(BestIndependentPair(problem, matroid, candidates));
  } else {
    DIVERSE_CHECK_MSG(matroid.IsIndependent(options.initial),
                      "initial set must be independent");
    state.Assign(options.initial);
  }
  CompleteToBasis(matroid, candidates, options.greedy_completion, &state);

  std::vector<double> gains(candidates.size());
  std::vector<SwapCandidate> swaps;
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
    swaps.clear();
    for (int rank = 0; rank < static_cast<int>(members.size()); ++rank) {
      state.ScoreSwapsFor(members[rank], candidates, gains);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double gain = gains[i];
        if (gain <= threshold || gain <= 1e-12) continue;
        swaps.push_back({gain, rank, candidates[i]});
      }
    }
    std::sort(swaps.begin(), swaps.end(),
              [](const SwapCandidate& a, const SwapCandidate& b) {
                if (a.gain != b.gain) return a.gain > b.gain;
                if (a.out_rank != b.out_rank) return a.out_rank < b.out_rank;
                return a.in < b.in;
              });
    int best_out = -1;
    int best_in = -1;
    for (const SwapCandidate& c : swaps) {
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
