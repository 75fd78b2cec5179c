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
  add_gain_queries_.Inc();
  return state_->AddGain(u);
}

double IncrementalEvaluator::GainOfPrimeAdd(int u) const {
  add_gain_queries_.Inc();
  return state_->PrimeGain(u);
}

double IncrementalEvaluator::GainOfRemove(int u) const {
  remove_gain_queries_.Inc();
  return state_->RemoveGain(u);
}

double IncrementalEvaluator::GainOfSwap(int out, int in) const {
  swap_gain_queries_.Inc();
  return state_->SwapGain(out, in);
}

ScoredCandidate IncrementalEvaluator::BestAddOver(
    std::span<const int> candidates) const {
  batch_scans_.Inc();
  return ArgmaxOver(candidates, candidates_scored_, [&](int e, double* gain) {
    if (state_->Contains(e)) return false;
    *gain = state_->AddGain(e);
    return true;
  });
}

ScoredCandidate IncrementalEvaluator::BestPrimeAddOver(
    std::span<const int> candidates) const {
  batch_scans_.Inc();
  return ArgmaxOver(candidates, candidates_scored_, [&](int e, double* gain) {
    if (state_->Contains(e)) return false;
    *gain = state_->PrimeGain(e);
    return true;
  });
}

ScoredCandidate IncrementalEvaluator::BestDensityAddOver(
    std::span<const int> candidates, std::span<const double> costs,
    double budget_left, double cost_floor) const {
  batch_scans_.Inc();
  return ArgmaxOver(candidates, candidates_scored_, [&](int e, double* gain) {
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
  batch_scans_.Inc();
  const double lambda = state_->lambda();
  const MetricSpace& metric = state_->problem().metric();
  std::vector<double> row_scratch;
  const double* row_out = SwapRowFor(metric, out, &row_scratch);
  const double dist_out = state_->DistanceToSet(out);
  return WithQualityRemoved(out, [&](const SetFunctionEvaluator& eval) {
    const double f_out = eval.Gain(out);  // f(S) - f(S - out)
    return ArgmaxOver(ins, candidates_scored_, [&](int in, double* gain) {
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

void IncrementalEvaluator::ScanSwapInsPruned(int out, std::span<const int> ins,
                                             const PruningIndex& index,
                                             std::span<double> profile,
                                             BestSwapResult* best) const {
  DIVERSE_DCHECK(state_->Contains(out));
  batch_scans_.Inc();
  const double lambda = state_->lambda();
  const MetricSpace& metric = state_->problem().metric();
  const double dist_out = state_->DistanceToSet(out);
  const bool bounded = index.Profile(out, profile);
  bool violated = false;
  long long scored = 0;
  long long pruned = 0;
  WithQualityRemoved(out, [&](const SetFunctionEvaluator& eval) {
    const double f_out = eval.Gain(out);  // f(S) - f(S - out)
    for (int in : ins) {
      if (in == out || state_->Contains(in)) continue;
      if (bounded && best->valid()) {
        // Exact expression shape of the full scan with the distance lower
        // bound substituted for d(in, out): rounding monotonicity then
        // guarantees gain_ub >= the exact gain bit-wise, so a skipped
        // candidate could at most tie the running best — and ties lose to
        // the earlier holder.
        const double lb = index.Lower(profile, in);
        const double gain_ub =
            (eval.Gain(in) - f_out) +
            lambda * (state_->DistanceToSet(in) - lb - dist_out);
        if (gain_ub <= best->gain) {
          ++pruned;
          continue;
        }
      }
      const double d_in_out = metric.Distance(in, out);
      if (bounded && !index.Consistent(profile, in, d_in_out)) {
        violated = true;
        break;
      }
      const double gain =
          (eval.Gain(in) - f_out) +
          lambda * (state_->DistanceToSet(in) - d_in_out - dist_out);
      ++scored;
      if (!best->valid() || gain > best->gain) *best = {out, in, gain};
    }
    return 0;
  });
  candidates_scored_.Inc(scored);
  if (!bounded) return;
  GlobalPruningCounters().candidates_pruned.Inc(pruned);
  if (!violated) {
    GlobalPruningCounters().certified_scans.Inc();
    return;
  }
  // The data violates the triangle inequality beyond slack: the bounds
  // (and every pruning decision for this out) are unsound. Demote to the
  // unpruned reference scan.
  GlobalPruningCounters().fallback_scans.Inc();
  const ScoredCandidate full = BestSwapInFor(out, ins);
  if (full.valid() && (!best->valid() || full.gain > best->gain)) {
    *best = {out, full.element, full.gain};
  }
}

ScoredCandidate IncrementalEvaluator::BestSwapInForPruned(
    int out, std::span<const int> ins, const PruningIndex& index) const {
  std::vector<double> profile(static_cast<std::size_t>(index.num_pivots()));
  BestSwapResult best;
  ScanSwapInsPruned(out, ins, index, profile, &best);
  ScoredCandidate result;
  if (best.valid()) {
    result.element = best.in;
    result.gain = best.gain;
  }
  return result;
}

BestSwapResult IncrementalEvaluator::BestSwapOverPruned(
    std::span<const int> outs, std::span<const int> ins,
    const PruningIndex& index) const {
  std::vector<double> profile(static_cast<std::size_t>(index.num_pivots()));
  BestSwapResult best;
  for (int out : outs) {
    ScanSwapInsPruned(out, ins, index, profile, &best);
  }
  return best;
}

void IncrementalEvaluator::ScoreSwapsFor(int out, std::span<const int> ins,
                                         std::span<double> gains) const {
  DIVERSE_DCHECK(state_->Contains(out));
  DIVERSE_CHECK(gains.size() == ins.size());
  batch_scans_.Inc();
  const double lambda = state_->lambda();
  const MetricSpace& metric = state_->problem().metric();
  std::vector<double> row_scratch;
  const double* row_out = SwapRowFor(metric, out, &row_scratch);
  const double dist_out = state_->DistanceToSet(out);
  WithQualityRemoved(out, [&](const SetFunctionEvaluator& eval) {
    const double f_out = eval.Gain(out);
    ScoreAll(ins, candidates_scored_, gains, [&](int in, double* gain) {
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
  add_gain_queries_.Inc(static_cast<long long>(block.size()));
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

IncrementalEvaluator::Stats IncrementalEvaluator::stats() const {
  Stats stats;
  stats.add_gain_queries = add_gain_queries_.value();
  stats.remove_gain_queries = remove_gain_queries_.value();
  stats.swap_gain_queries = swap_gain_queries_.value();
  stats.batch_scans = batch_scans_.value();
  stats.candidates_scored = candidates_scored_.value();
  return stats;
}

}  // namespace diverse
