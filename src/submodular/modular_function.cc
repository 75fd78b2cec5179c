#include "submodular/modular_function.h"

#include <cmath>
#include <cstddef>
#include <utility>

#include "util/check.h"

namespace diverse {
namespace {

class ModularEvaluator : public SetFunctionEvaluator {
 public:
  explicit ModularEvaluator(const std::vector<double>* weights)
      : weights_(weights) {}

  double value() const override { return sum_; }
  double Gain(int e) const override { return (*weights_)[e]; }
  void Gains(std::span<const int> ids, std::span<double> out) const override {
    const double* weights = weights_->data();
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = weights[ids[i]];
  }
  void Add(int e) override { sum_ += (*weights_)[e]; }
  void Remove(int e) override { sum_ -= (*weights_)[e]; }
  void Reset() override { sum_ = 0.0; }

 private:
  const std::vector<double>* weights_;
  double sum_ = 0.0;
};

}  // namespace

ModularFunction::ModularFunction(std::vector<double> weights)
    : weights_(std::move(weights)) {
  for (double w : weights_) {
    DIVERSE_CHECK_MSG(w >= 0.0 && std::isfinite(w),
                      "modular weights must be non-negative and finite");
  }
}

std::unique_ptr<SetFunctionEvaluator> ModularFunction::MakeEvaluator() const {
  return std::make_unique<ModularEvaluator>(&weights_);
}

double ModularFunction::Value(std::span<const int> set) const {
  double sum = 0.0;
  for (int e : set) sum += weights_[e];
  return sum;
}

std::unique_ptr<SetFunction> ModularFunction::Restrict(
    std::span<const int> ids) const {
  std::vector<double> gathered(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) gathered[i] = weights_[ids[i]];
  return std::make_unique<ModularFunction>(std::move(gathered));
}

void ModularFunction::SetWeight(int e, double value) {
  DIVERSE_CHECK(0 <= e && e < ground_size());
  DIVERSE_CHECK(value >= 0.0 && std::isfinite(value));
  weights_[e] = value;
}

}  // namespace diverse
