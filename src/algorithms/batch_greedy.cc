#include "algorithms/batch_greedy.h"

#include <algorithm>
#include <vector>

#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {

double BatchGreedyDispersionBound(int p, int d) {
  DIVERSE_CHECK(p >= 2 && d >= 1);
  return (2.0 * p - 2.0) / (p + d - 2.0);
}

AlgorithmResult BatchGreedy(const DiversificationProblem& problem,
                            const BatchGreedyOptions& options) {
  const int n = problem.size();
  const int p = std::min(options.p, n);
  DIVERSE_CHECK_MSG(1 <= options.batch && options.batch <= 3,
                    "batch size must be 1, 2 or 3");
  WallTimer timer;
  SolutionState state(&problem);
  AlgorithmResult result;

  while (state.size() < p) {
    const int d = std::min(options.batch, p - state.size());
    std::vector<int> best_block;
    double best_gain = -1.0;
    // Enumerate all blocks of size d from U - S.
    std::vector<int> candidates;
    for (int u = 0; u < n; ++u) {
      if (!state.Contains(u)) candidates.push_back(u);
    }
    const int m = static_cast<int>(candidates.size());
    std::vector<int> block(d);
    // Iterative combination enumeration over `candidates`.
    std::vector<int> idx(d);
    for (int i = 0; i < d; ++i) idx[i] = i;
    while (true) {
      for (int i = 0; i < d; ++i) block[i] = candidates[idx[i]];
      const double gain = state.BlockPrimeAddGain(block);
      if (gain > best_gain) {
        best_gain = gain;
        best_block = block;
      }
      // Advance the combination.
      int pos = d - 1;
      while (pos >= 0 && idx[pos] == m - d + pos) --pos;
      if (pos < 0) break;
      ++idx[pos];
      for (int i = pos + 1; i < d; ++i) idx[i] = idx[i - 1] + 1;
    }
    DIVERSE_CHECK(!best_block.empty());
    for (int u : best_block) state.Add(u);
    ++result.steps;
  }

  result.elements = state.members();
  result.objective = state.objective();
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace diverse
