#include "core/restricted_problem.h"

#include <algorithm>
#include <array>
#include <functional>

#include "util/check.h"

namespace diverse {
namespace {

// Base ids of local ids, mapped through a stack chunk: the oracle and
// DistancesTo calls of the scans stay allocation-free.
constexpr std::size_t kChunk = 64;

// True when ids = [0, n), given ascending, distinct ids below n (Restrict
// checks it).
bool IsAll(std::span<const int> ids, int n) {
  return static_cast<int>(ids.size()) == n;
}

// d(u, v) = base.Distance(ids[u], ids[v]); rows and DistancesTo call the
// base's batched DistancesTo on the mapped ids, so they hold the same bits.
class SubsetMetric : public MetricSpace {
 public:
  SubsetMetric(const MetricSpace& base, std::span<const int> ids)
      : base_(base), ids_(ids) {}

  int size() const override { return static_cast<int>(ids_.size()); }
  double Distance(int u, int v) const override {
    return base_.Distance(ids_[u], ids_[v]);
  }
  void DistanceRow(int u, std::span<double> row) const override {
    base_.DistancesTo(ids_[u], ids_, row);
  }
  void DistancesTo(int u, std::span<const int> ids,
                   std::span<double> out) const override {
    std::array<int, kChunk> mapped;
    for (std::size_t begin = 0; begin < ids.size(); begin += kChunk) {
      const std::size_t len = std::min(kChunk, ids.size() - begin);
      for (std::size_t i = 0; i < len; ++i) mapped[i] = ids_[ids[begin + i]];
      base_.DistancesTo(ids_[u], std::span<const int>(mapped.data(), len),
                        out.subspan(begin, len));
    }
  }
  bool ObeysTriangleInequality() const override {
    return base_.ObeysTriangleInequality();
  }
  bool ObeysPtolemyInequality() const override {
    return base_.ObeysPtolemyInequality();
  }

 private:
  const MetricSpace& base_;
  std::span<const int> ids_;
};

// Each oracle query runs on the base matroid with the set mapped through
// ids; sets up to kChunk elements map on the stack.
class SubsetMatroid : public Matroid {
 public:
  SubsetMatroid(const Matroid& base, std::span<const int> ids)
      : base_(base), ids_(ids) {}

  int ground_size() const override { return static_cast<int>(ids_.size()); }
  bool IsIndependent(std::span<const int> set) const override {
    return Mapped(set, [&](std::span<const int> global) {
      return base_.IsIndependent(global);
    });
  }
  // The restriction's own rank: a greedy basis over its ground set.
  int rank() const override {
    return static_cast<int>(ExtendToBasis(*this, {}).size());
  }
  bool CanAdd(std::span<const int> set, int e) const override {
    return Mapped(set, [&](std::span<const int> global) {
      return base_.CanAdd(global, ids_[e]);
    });
  }
  bool CanExchange(std::span<const int> set, int out, int in) const override {
    return Mapped(set, [&](std::span<const int> global) {
      return base_.CanExchange(global, ids_[out], ids_[in]);
    });
  }

 private:
  template <typename Query>
  bool Mapped(std::span<const int> set, const Query& query) const {
    std::array<int, kChunk> stack;
    std::vector<int> heap;
    std::span<int> global(stack.data(), set.size());
    if (set.size() > kChunk) {
      heap.resize(set.size());
      global = heap;
    }
    for (std::size_t i = 0; i < set.size(); ++i) global[i] = ids_[set[i]];
    return query(std::span<const int>(global));
  }

  const Matroid& base_;
  std::span<const int> ids_;
};

}  // namespace

RestrictedProblem::RestrictedProblem(const DiversificationProblem& problem,
                                     std::span<const int> ids,
                                     const Matroid* matroid)
    : ids_(ids.begin(), ids.end()), matroid_(matroid), problem_(problem) {
  if (!IsAll(ids, problem.size())) {
    const double lambda = problem.lambda();
    metric_ = std::make_unique<SubsetMetric>(problem.metric(), ids_);
    quality_ = problem.quality().Restrict(ids_);
    problem_ = DiversificationProblem(metric_.get(), quality_.get(), lambda);
  }
  if (matroid != nullptr && !IsAll(ids, matroid->ground_size())) {
    own_matroid_ = std::make_unique<SubsetMatroid>(*matroid, ids_);
    matroid_ = own_matroid_.get();
  }
}

const Matroid& RestrictedProblem::matroid() const {
  DIVERSE_CHECK_MSG(matroid_ != nullptr, "restricted without a matroid");
  return *matroid_;
}

std::vector<int> RestrictedProblem::ToGlobal(std::span<const int> local) const {
  std::vector<int> global(local.size());
  for (std::size_t i = 0; i < local.size(); ++i) global[i] = ids_[local[i]];
  return global;
}

std::vector<int> RestrictedProblem::ToLocal(std::span<const int> global) const {
  std::vector<int> local(global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), global[i]);
    DIVERSE_CHECK_MSG(it != ids_.end() && *it == global[i],
                      "id lies outside the candidate list");
    local[i] = static_cast<int>(it - ids_.begin());
  }
  return local;
}

RestrictedProblem Restrict(const DiversificationProblem& problem,
                           std::span<const int> ids, const Matroid* matroid) {
  const auto descent =
      std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<int>());
  DIVERSE_CHECK_MSG(descent == ids.end(),
                    "candidates must be ascending and distinct");
  int bound = problem.size();
  if (matroid != nullptr) bound = std::min(bound, matroid->ground_size());
  const bool in_range = ids.empty() || (ids.front() >= 0 && ids.back() < bound);
  if (matroid == nullptr) {
    DIVERSE_CHECK_MSG(in_range,
                      "candidates must lie in the problem's ground set");
  } else {
    DIVERSE_CHECK_MSG(
        in_range,
        "candidates must lie in the problem's and the matroid's ground sets");
  }
  return RestrictedProblem(problem, ids, matroid);
}

}  // namespace diverse
