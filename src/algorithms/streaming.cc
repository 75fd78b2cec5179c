#include "algorithms/streaming.h"

#include "util/check.h"

namespace diverse {

StreamingDiversifier::StreamingDiversifier(
    const DiversificationProblem* problem, int p)
    : state_(problem), p_(p) {
  DIVERSE_CHECK(p >= 0);
}

bool StreamingDiversifier::Observe(int v) {
  DIVERSE_CHECK(0 <= v && v < state_.universe_size());
  DIVERSE_CHECK_MSG(!state_.Contains(v), "element observed twice");
  if (p_ == 0) return false;
  if (state_.size() < p_) {
    state_.Add(v);
    return true;
  }
  const BestSwapResult best =
      state_.BestSwapOver(state_.members(), std::span<const int>(&v, 1));
  if (!best.valid() || best.gain <= 1e-12) return false;
  state_.Swap(best.out, best.in);
  ++swaps_;
  return true;
}

void StreamingDiversifier::ObserveAll(const std::vector<int>& stream) {
  for (int v : stream) Observe(v);
}

}  // namespace diverse
