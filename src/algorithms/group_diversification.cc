#include "algorithms/group_diversification.h"

#include <algorithm>

#include "core/solution_state.h"
#include "util/check.h"

namespace diverse {

double GroupObjective(const DiversificationProblem& problem,
                      const std::vector<std::vector<int>>& groups) {
  double total = 0.0;
  for (const auto& g : groups) total += problem.Objective(g);
  return total;
}

GroupResult GroupGreedy(const DiversificationProblem& problem,
                        const GroupOptions& options) {
  const int n = problem.size();
  DIVERSE_CHECK(options.p >= 0 && options.k >= 1);
  DIVERSE_CHECK_MSG(options.k * options.p <= n,
                    "k groups of p elements need k*p <= n");
  GroupResult result;
  result.groups.assign(options.k, {});
  if (options.p == 0) return result;

  // One incremental state per group; global chosen-flags keep groups
  // disjoint. Groups are filled round-robin so that early groups do not
  // starve late ones.
  std::vector<SolutionState> states;
  states.reserve(options.k);
  for (int g = 0; g < options.k; ++g) states.emplace_back(&problem);
  std::vector<bool> taken(n, false);
  std::vector<int> available;
  available.reserve(n);

  for (int round = 0; round < options.p; ++round) {
    for (int g = 0; g < options.k; ++g) {
      available.clear();
      for (int u = 0; u < n; ++u) {
        if (!taken[u]) available.push_back(u);
      }
      const ScoredCandidate best = states[g].BestPrimeAddOver(available);
      DIVERSE_CHECK(best.valid());
      taken[best.element] = true;
      states[g].Add(best.element);
      result.groups[g].push_back(best.element);
      ++result.steps;
    }
  }
  result.objective = GroupObjective(problem, result.groups);
  return result;
}

namespace {

// Exhaustive assignment: each element gets a label in {-1, 0..k-1}
// (unassigned or group id), with group capacities enforced. To avoid
// counting permutations of identical groups, group g may only open (get
// its first element) after group g-1 has opened.
void GroupDfs(const DiversificationProblem& problem, const GroupOptions& opt,
              int element, std::vector<std::vector<int>>* groups,
              GroupResult* result, long long* nodes) {
  ++*nodes;
  const int n = problem.size();
  // Prune: remaining elements cannot fill the remaining slots.
  int missing = 0;
  for (const auto& g : *groups) {
    missing += opt.p - static_cast<int>(g.size());
  }
  if (missing > n - element) return;
  if (element == n) {
    const double value = GroupObjective(problem, *groups);
    if (value > result->objective) {
      result->objective = value;
      result->groups = *groups;
    }
    return;
  }
  // Skip this element.
  GroupDfs(problem, opt, element + 1, groups, result, nodes);
  // Or place it in each non-full group (first empty group only once).
  bool seen_empty = false;
  for (int g = 0; g < opt.k; ++g) {
    auto& group = (*groups)[g];
    if (static_cast<int>(group.size()) >= opt.p) continue;
    if (group.empty()) {
      if (seen_empty) continue;
      seen_empty = true;
    }
    group.push_back(element);
    GroupDfs(problem, opt, element + 1, groups, result, nodes);
    group.pop_back();
  }
}

}  // namespace

GroupResult GroupBruteForce(const DiversificationProblem& problem,
                            const GroupOptions& options) {
  DIVERSE_CHECK_MSG(problem.size() <= 14,
                    "GroupBruteForce limited to small n");
  DIVERSE_CHECK(options.k * options.p <= problem.size());
  GroupResult result;
  result.objective = -1.0;
  std::vector<std::vector<int>> groups(options.k);
  GroupDfs(problem, options, 0, &groups, &result, &result.steps);
  if (result.objective < 0.0) {
    result.objective = 0.0;
    result.groups.assign(options.k, {});
  }
  return result;
}

}  // namespace diverse
