// Modular (linear) quality function f(S) = sum of per-element weights — the
// setting of Gollapudi–Sharma [3] and of the dynamic-update results (paper
// §6). Weights are mutable to support type (I)/(II) perturbations.
#ifndef DIVERSE_SUBMODULAR_MODULAR_FUNCTION_H_
#define DIVERSE_SUBMODULAR_MODULAR_FUNCTION_H_

#include <vector>

#include "submodular/set_function.h"

namespace diverse {

class ModularFunction : public SetFunction {
 public:
  // Weights must be non-negative (normalization f(empty) = 0 is inherent).
  explicit ModularFunction(std::vector<double> weights);

  int ground_size() const override {
    return static_cast<int>(weights_.size());
  }
  std::unique_ptr<SetFunctionEvaluator> MakeEvaluator() const override;
  double Value(std::span<const int> set) const override;
  // Gathers the weights of `ids` into a modular function of their own.
  std::unique_ptr<SetFunction> Restrict(
      std::span<const int> ids) const override;

  double weight(int e) const { return weights_[e]; }
  const std::vector<double>& weights() const { return weights_; }

  // Dynamic update support (paper §6 types I/II). Value must stay
  // non-negative. Live evaluators are invalidated by this call.
  void SetWeight(int e, double value);

 private:
  std::vector<double> weights_;
};

}  // namespace diverse

#endif  // DIVERSE_SUBMODULAR_MODULAR_FUNCTION_H_
