// The oblivious single-element-swap update rule (paper §6):
//
//   find (u in S, v outside S) maximizing phi_{v->u}(S) = phi(S - u + v) -
//   phi(S); if the gain is positive, swap, else do nothing.
//
// Theorems 3–6: starting from a 3-approximate solution, one update after a
// weight increase / distance increase / distance decrease maintains a
// 3-approximation; a weight decrease of magnitude delta needs
// ceil(log_{(p-2)/(p-3)} (w / (w - delta))) updates (a single one when
// delta <= w / (p-2)).
#ifndef DIVERSE_DYNAMIC_DYNAMIC_UPDATER_H_
#define DIVERSE_DYNAMIC_DYNAMIC_UPDATER_H_

#include <vector>

#include "core/diversification_problem.h"
#include "core/solution_state.h"
#include "dynamic/perturbation.h"

namespace diverse {

// Number of oblivious updates Theorem 4 prescribes after a weight decrease
// of magnitude `delta` on a solution of weight `w` with cardinality p.
// Returns 1 for p <= 3 or delta <= w/(p-2) (Corollary 3 / Theorem 4).
int RequiredUpdatesForWeightDecrease(int p, double solution_weight,
                                     double delta);

class DynamicUpdater {
 public:
  // The updater mutates `weights` / `metric` in place when applying
  // perturbations; `problem` must be built over exactly those objects. All
  // pointers must outlive the updater.
  DynamicUpdater(const DiversificationProblem* problem,
                 ModularFunction* weights, DenseMetric* metric,
                 std::vector<int> initial_solution);

  const std::vector<int>& solution() const { return state_.members(); }
  double objective() const { return state_.objective(); }
  int p() const { return state_.size(); }

  // Applies the perturbation to the data and refreshes cached state (the
  // solution set itself is unchanged). Does not run any update.
  void Apply(const Perturbation& perturbation);

  // One application of the oblivious update rule. Returns true when a swap
  // was performed. O(p * n) swap-gain evaluations, batched through
  // SolutionState::BestSwapOver.
  bool ObliviousUpdate();

  // The paper's full reaction to a perturbation: Apply() followed by the
  // prescribed number of oblivious updates for its type (1 for types I,
  // III, IV; Theorem 4's count for type II). Returns the number of swaps
  // actually performed (updates stop early at a local optimum).
  int ApplyAndUpdate(const Perturbation& perturbation);

  long long total_swaps() const { return total_swaps_; }

 private:
  SolutionState state_;
  ModularFunction* weights_;
  DenseMetric* metric_;
  long long total_swaps_ = 0;
};

}  // namespace diverse

#endif  // DIVERSE_DYNAMIC_DYNAMIC_UPDATER_H_
