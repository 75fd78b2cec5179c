#include "algorithms/greedy_vertex.h"

#include <algorithm>

#include "core/restricted_problem.h"
#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {

AlgorithmResult GreedyVertex(const DiversificationProblem& problem,
                             const GreedyVertexOptions& options) {
  const int n = problem.size();
  const int p = std::min(options.p, n);
  DIVERSE_CHECK_MSG(options.p >= 0, "p must be non-negative");
  WallTimer timer;
  SolutionState state(&problem);
  AlgorithmResult result;

  if (options.best_first_pair && p >= 2) {
    // Seed with the best pair under the true objective: phi({x,y}) =
    // phi({x}) + AddGain(y | {x}), scanned through the incremental state
    // (one temporary Add per x) instead of O(n^2) from-scratch objective
    // evaluations.
    int best_x = -1;
    int best_y = -1;
    double best_value = -1.0;
    const std::span<const int> universe = state.Universe();
    for (int x = 0; x + 1 < n; ++x) {
      state.Add(x);
      const ScoredCandidate y = state.BestAddOver(universe.subspan(x + 1));
      if (y.valid() && state.objective() + y.gain > best_value) {
        best_value = state.objective() + y.gain;
        best_x = x;
        best_y = y.element;
      }
      state.Remove(x);
    }
    DIVERSE_CHECK(best_x >= 0);
    state.Add(best_x);
    state.Add(best_y);
    result.steps += 2;
  }

  // Greedy B: each step adds the element the previous scan chose and, in
  // the same pass over U, scores the next one (SolutionState::
  // AddThenBestPrimeAdd). The last step only appends its element: its
  // objective is phi(S) + AddGain(v), the sum Add itself would form, and
  // the d(., S) refresh no later step reads is skipped.
  ScoredCandidate next;
  if (state.size() < p) next = state.BestPrimeAddOver(state.Universe());
  while (state.size() + 1 < p) {
    DIVERSE_CHECK(next.valid());
    next = state.AddThenBestPrimeAdd(next.element);
    ++result.steps;
  }

  result.elements = state.members();
  result.objective = state.objective();
  if (state.size() < p) {
    DIVERSE_CHECK(next.valid());
    result.elements.push_back(next.element);
    result.objective += state.AddGain(next.element);
    ++result.steps;
  }
  result.elapsed_seconds = timer.Seconds();
  return result;
}

AlgorithmResult GreedyVertexOnCandidates(const DiversificationProblem& problem,
                                         std::span<const int> candidates,
                                         int p) {
  WallTimer timer;
  const RestrictedProblem local = Restrict(problem, candidates);
  AlgorithmResult result = GreedyVertex(local.problem(), {.p = std::max(p, 0)});
  result.elements = local.ToGlobal(result.elements);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace diverse
