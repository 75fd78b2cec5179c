#include "algorithms/partial_enumeration.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {
namespace {

// Completes `state` to size p with the Greedy B potential rule.
void GreedyComplete(int p, SolutionState* state, long long* steps) {
  while (state->size() < p) {
    const ScoredCandidate best = state->BestPrimeAddOver(state->Universe());
    DIVERSE_CHECK(best.valid());
    state->Add(best.element);
    ++*steps;
  }
}

void EnumerateSeeds(int n, int d, int start, std::vector<int>* seed,
                    const std::function<void()>& visit) {
  if (static_cast<int>(seed->size()) == d) {
    visit();
    return;
  }
  for (int v = start; v < n; ++v) {
    seed->push_back(v);
    EnumerateSeeds(n, d, v + 1, seed, visit);
    seed->pop_back();
  }
}

}  // namespace

AlgorithmResult PartialEnumerationGreedy(
    const DiversificationProblem& problem,
    const PartialEnumerationOptions& options) {
  const int n = problem.size();
  const int p = std::min(options.p, n);
  DIVERSE_CHECK_MSG(0 <= options.seed_size && options.seed_size <= 3,
                    "seed size must be 0..3");
  const int d = std::min(options.seed_size, p);
  WallTimer timer;
  AlgorithmResult best;
  best.objective = -1.0;
  SolutionState state(&problem);
  std::vector<int> seed;

  auto visit = [&]() {
    state.Assign(seed);
    GreedyComplete(p, &state, &best.steps);
    if (state.objective() > best.objective) {
      best.objective = state.objective();
      best.elements = state.SortedMembers();
    }
  };
  EnumerateSeeds(n, d, 0, &seed, visit);
  if (best.objective < 0.0) {  // p == 0
    best.objective = 0.0;
    best.elements.clear();
  }
  best.elapsed_seconds = timer.Seconds();
  return best;
}

}  // namespace diverse
