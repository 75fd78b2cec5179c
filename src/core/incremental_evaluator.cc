#include "core/incremental_evaluator.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "metric/metric_backend.h"
#include "util/check.h"

namespace diverse {
namespace {

// Row d(out, .) for a swap scan: a stored backend row when available,
// else `scratch` filled by one batched kernel call, else nullptr (the
// scan falls back to one scalar Distance() per candidate). Hoisting the
// row out of the scan replaces per-candidate virtual dispatch
// with contiguous reads — and is what feature-vector backends need to
// amortize their O(d) per-distance kernels.
const double* SwapRowFor(const MetricSpace& metric, int out,
                         std::vector<double>* scratch) {
  const MetricBackend* backend = AsBackend(&metric);
  if (backend == nullptr) return nullptr;
  if (const double* row = backend->TryRow(out)) return row;
  scratch->resize(metric.size());
  backend->DistanceRow(out, *scratch);
  return scratch->data();
}

}  // namespace

IncrementalEvaluator::IncrementalEvaluator(SolutionState* state)
    : state_(state) {
  DIVERSE_CHECK(state != nullptr);
  // Built eagerly: the universe size is fixed per problem, and an eager
  // build keeps Universe() a pure read that concurrent const scans can
  // share without synchronization.
  universe_.resize(static_cast<std::size_t>(state->universe_size()));
  std::iota(universe_.begin(), universe_.end(), 0);
}

double IncrementalEvaluator::GainOfAdd(int u) const {
  return state_->AddGain(u);
}

double IncrementalEvaluator::GainOfPrimeAdd(int u) const {
  return state_->PrimeGain(u);
}

double IncrementalEvaluator::GainOfRemove(int u) const {
  return state_->RemoveGain(u);
}

double IncrementalEvaluator::GainOfSwap(int out, int in) const {
  return state_->SwapGain(out, in);
}

ScoredCandidate IncrementalEvaluator::BestAddOver(
    std::span<const int> candidates) const {
  return ArgmaxOver(candidates, [&](int e, double* gain) {
    if (state_->Contains(e)) return false;
    *gain = state_->AddGain(e);
    return true;
  });
}

ScoredCandidate IncrementalEvaluator::BestPrimeAddOver(
    std::span<const int> candidates) const {
  return ArgmaxOver(candidates, [&](int e, double* gain) {
    if (state_->Contains(e)) return false;
    *gain = state_->PrimeGain(e);
    return true;
  });
}

ScoredCandidate IncrementalEvaluator::BestDensityAddOver(
    std::span<const int> candidates, std::span<const double> costs,
    double budget_left, double cost_floor) const {
  return ArgmaxOver(candidates, [&](int e, double* gain) {
    if (state_->Contains(e)) return false;
    if (costs[e] > budget_left + 1e-12) return false;
    *gain = state_->PrimeGain(e) / std::max(costs[e], cost_floor);
    return true;
  });
}

template <typename Fn>
auto IncrementalEvaluator::WithQualityRemoved(int out, Fn&& fn) const {
  SetFunctionEvaluator* eval = state_->eval_.get();
  eval->Remove(out);
  auto result = fn(*eval);
  eval->Add(out);
  return result;
}

ScoredCandidate IncrementalEvaluator::BestSwapInFor(
    int out, std::span<const int> ins) const {
  DIVERSE_DCHECK(state_->Contains(out));
  const double lambda = state_->lambda();
  const MetricSpace& metric = state_->problem().metric();
  std::vector<double> row_scratch;
  const double* row_out = SwapRowFor(metric, out, &row_scratch);
  const double dist_out = state_->DistanceToSet(out);
  return WithQualityRemoved(out, [&](const SetFunctionEvaluator& eval) {
    const double f_out = eval.Gain(out);  // f(S) - f(S - out)
    return ArgmaxOver(ins, [&](int in, double* gain) {
      if (in == out || state_->Contains(in)) return false;
      const double d_in_out =
          row_out != nullptr ? row_out[in] : metric.Distance(in, out);
      *gain = (eval.Gain(in) - f_out) +
              lambda * (state_->DistanceToSet(in) - d_in_out - dist_out);
      return true;
    });
  });
}

BestSwapResult IncrementalEvaluator::BestSwapOver(
    std::span<const int> outs, std::span<const int> ins) const {
  BestSwapResult best;
  for (int out : outs) {
    const ScoredCandidate in = BestSwapInFor(out, ins);
    if (!in.valid()) continue;
    if (!best.valid() || in.gain > best.gain) {
      best = {out, in.element, in.gain};
    }
  }
  return best;
}

void IncrementalEvaluator::ScoreSwapsFor(int out, std::span<const int> ins,
                                         std::span<double> gains) const {
  DIVERSE_DCHECK(state_->Contains(out));
  DIVERSE_CHECK(gains.size() == ins.size());
  const double lambda = state_->lambda();
  const MetricSpace& metric = state_->problem().metric();
  std::vector<double> row_scratch;
  const double* row_out = SwapRowFor(metric, out, &row_scratch);
  const double dist_out = state_->DistanceToSet(out);
  WithQualityRemoved(out, [&](const SetFunctionEvaluator& eval) {
    const double f_out = eval.Gain(out);
    ScoreAll(ins, gains, [&](int in, double* gain) {
      if (in == out || state_->Contains(in)) return false;
      const double d_in_out =
          row_out != nullptr ? row_out[in] : metric.Distance(in, out);
      *gain = (eval.Gain(in) - f_out) +
              lambda * (state_->DistanceToSet(in) - d_in_out - dist_out);
      return true;
    });
    return 0;
  });
}

double IncrementalEvaluator::BlockPrimeAddGain(
    std::span<const int> block) const {
  SetFunctionEvaluator* eval = state_->eval_.get();
  double f_gain = 0.0;
  for (int b : block) {
    DIVERSE_DCHECK(!state_->Contains(b));
    f_gain += eval->Gain(b);
    eval->Add(b);
  }
  for (int b : block) eval->Remove(b);
  const MetricSpace& metric = state_->problem().metric();
  double dist = 0.0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    dist += state_->DistanceToSet(block[i]);  // d(b_i, S)
    for (std::size_t j = i + 1; j < block.size(); ++j) {
      dist += metric.Distance(block[i], block[j]);
    }
  }
  return 0.5 * f_gain + state_->lambda() * dist;
}

std::span<const int> IncrementalEvaluator::Universe() const {
  return universe_;
}

}  // namespace diverse
