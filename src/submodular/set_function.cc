#include "submodular/set_function.h"

#include <utility>
#include <vector>

#include "util/check.h"

namespace diverse {
namespace {

class ZeroEvaluator : public SetFunctionEvaluator {
 public:
  double value() const override { return 0.0; }
  double Gain(int /*e*/) const override { return 0.0; }
  void Add(int /*e*/) override {}
  void Remove(int /*e*/) override {}
  void Reset() override {}
};

// SetFunction::Restrict's default view: each call maps its ids through
// ids_ into the base function.
class RestrictedEvaluator : public SetFunctionEvaluator {
 public:
  RestrictedEvaluator(std::unique_ptr<SetFunctionEvaluator> base,
                      const std::vector<int>* ids)
      : base_(std::move(base)), ids_(ids) {}

  double value() const override { return base_->value(); }
  double Gain(int e) const override { return base_->Gain((*ids_)[e]); }
  void Add(int e) override { base_->Add((*ids_)[e]); }
  void Remove(int e) override { base_->Remove((*ids_)[e]); }
  void Reset() override { base_->Reset(); }

 private:
  std::unique_ptr<SetFunctionEvaluator> base_;
  const std::vector<int>* ids_;
};

class RestrictedFunction : public SetFunction {
 public:
  RestrictedFunction(const SetFunction& base, std::span<const int> ids)
      : base_(base), ids_(ids.begin(), ids.end()) {}

  int ground_size() const override { return static_cast<int>(ids_.size()); }
  std::unique_ptr<SetFunctionEvaluator> MakeEvaluator() const override {
    return std::make_unique<RestrictedEvaluator>(base_.MakeEvaluator(), &ids_);
  }
  // The base's own Value (some override the evaluator path) on the mapped
  // set, so values keep the base's bits.
  double Value(std::span<const int> set) const override {
    std::vector<int> mapped(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) mapped[i] = ids_[set[i]];
    return base_.Value(mapped);
  }

 private:
  const SetFunction& base_;
  std::vector<int> ids_;
};

}  // namespace

std::unique_ptr<SetFunction> SetFunction::Restrict(
    std::span<const int> ids) const {
  return std::make_unique<RestrictedFunction>(*this, ids);
}

double SetFunction::Value(std::span<const int> set) const {
  auto eval = MakeEvaluator();
  for (int e : set) eval->Add(e);
  return eval->value();
}

double SetFunction::MarginalGain(std::span<const int> set, int e) const {
  auto eval = MakeEvaluator();
  for (int u : set) eval->Add(u);
  return eval->Gain(e);
}

ZeroFunction::ZeroFunction(int ground_size) : n_(ground_size) {
  DIVERSE_CHECK(ground_size >= 0);
}

std::unique_ptr<SetFunctionEvaluator> ZeroFunction::MakeEvaluator() const {
  return std::make_unique<ZeroEvaluator>();
}

double ZeroFunction::Value(std::span<const int> /*set*/) const { return 0.0; }

}  // namespace diverse
