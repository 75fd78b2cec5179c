#include "dynamic/dynamic_updater.h"

#include <cmath>

#include "util/check.h"

namespace diverse {

int RequiredUpdatesForWeightDecrease(int p, double solution_weight,
                                     double delta) {
  DIVERSE_CHECK(delta >= 0.0);
  if (p <= 3) return 1;
  if (delta <= 0.0) return 1;
  const double w = solution_weight;
  if (w <= delta) {
    // Degenerate: the whole solution weight vanishes; the bound is not
    // finite. One update per remaining improving swap is the practical
    // choice; callers relying on the theorem keep delta < w.
    return p;
  }
  if (delta <= w / (p - 2)) return 1;
  const double base = static_cast<double>(p - 2) / (p - 3);
  const double count = std::log(w / (w - delta)) / std::log(base);
  return static_cast<int>(std::ceil(count - 1e-12));
}

DynamicUpdater::DynamicUpdater(const DiversificationProblem* problem,
                               ModularFunction* weights, DenseMetric* metric,
                               std::vector<int> initial_solution)
    : state_(problem), weights_(weights), metric_(metric) {
  DIVERSE_CHECK(weights != nullptr);
  DIVERSE_CHECK(metric != nullptr);
  DIVERSE_CHECK_MSG(&problem->quality() == weights,
                    "problem must be built over the mutable weights");
  DIVERSE_CHECK_MSG(&problem->metric() == metric,
                    "problem must be built over the mutable metric");
  state_.Assign(initial_solution);
}

void DynamicUpdater::Apply(const Perturbation& perturbation) {
  ApplyPerturbation(perturbation, weights_, metric_);
  // Patch the solution-state caches incrementally: O(1) for distance
  // perturbations, O(p) for weight perturbations — versus O(p * n) for a
  // full rebuild.
  switch (perturbation.type) {
    case PerturbationType::kWeightIncrease:
    case PerturbationType::kWeightDecrease:
      state_.RefreshQuality();
      break;
    case PerturbationType::kDistanceIncrease:
    case PerturbationType::kDistanceDecrease:
      state_.ApplyDistanceUpdate(perturbation.u, perturbation.v,
                                 perturbation.old_value,
                                 perturbation.new_value);
      break;
  }
}

bool DynamicUpdater::ObliviousUpdate() {
  const BestSwapResult best =
      state_.BestSwapOver(state_.members(), state_.Universe());
  if (!best.valid() || best.gain <= 1e-12) return false;
  state_.Swap(best.out, best.in);
  ++total_swaps_;
  return true;
}

int DynamicUpdater::ApplyAndUpdate(const Perturbation& perturbation) {
  int budget = 1;
  if (perturbation.type == PerturbationType::kWeightDecrease) {
    budget = RequiredUpdatesForWeightDecrease(p(), state_.quality_value(),
                                              perturbation.delta());
  }
  Apply(perturbation);
  int performed = 0;
  for (int i = 0; i < budget; ++i) {
    if (!ObliviousUpdate()) break;
    ++performed;
  }
  return performed;
}

}  // namespace diverse
