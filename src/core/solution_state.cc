#include "core/solution_state.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace diverse {
namespace {

// phi(S + v) - phi(S) and Greedy B's potential phi'_v(S) from f_v(S) and
// d_v(S). The single-element gains, Add and every add scan evaluate these
// expressions, so their gains agree bitwise.
double AddDelta(double lambda, double f_gain, double dist) {
  return f_gain + lambda * dist;
}
double PrimeDelta(double lambda, double f_gain, double dist) {
  return 0.5 * f_gain + lambda * dist;
}

// phi(S - out + in) - phi(S) from its parts: f_in = f(S - out + in) -
// f(S - out), f_out = f(S) - f(S - out), d_in = d_in(S), d_out =
// d_out(S). SwapGain and the swap scans all evaluate this one expression,
// so their gains agree bitwise.
double SwapDelta(double lambda, double f_in, double f_out, double d_in,
                 double d_in_out, double d_out) {
  return (f_in - f_out) + lambda * (d_in - d_in_out - d_out);
}

// ScoreSwapsFor's entry for members of S and `out` itself.
constexpr double kSkippedSwap = -std::numeric_limits<double>::infinity();

}  // namespace

SolutionState::SolutionState(const DiversificationProblem* problem)
    : problem_(problem) {
  DIVERSE_CHECK(problem != nullptr);
  universe_.resize(problem->size());
  std::iota(universe_.begin(), universe_.end(), 0);
  in_set_.assign(problem->size(), 0);
  dist_to_set_.assign(problem->size(), 0.0);
  eval_ = problem->quality().MakeEvaluator();
}

SolutionState::SolutionState(const SolutionState& other)
    : SolutionState(other.problem_) {
  *this = other;
}

SolutionState& SolutionState::operator=(const SolutionState& other) {
  if (this == &other) return *this;
  DIVERSE_CHECK_MSG(problem_ == other.problem_,
                    "assignment across different problems");
  // The caches are copied bit for bit, so a copy goes on exactly as its
  // source would. The quality evaluator cannot be copied; it is replayed
  // from the member list.
  members_ = other.members_;
  in_set_ = other.in_set_;
  dist_to_set_ = other.dist_to_set_;
  dispersion_sum_ = other.dispersion_sum_;
  objective_ = other.objective_;
  eval_->Reset();
  for (int v : members_) eval_->Add(v);
  return *this;
}

std::vector<int> SolutionState::SortedMembers() const {
  std::vector<int> sorted = members_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

double SolutionState::quality_value() const { return eval_->value(); }

double SolutionState::AddGain(int v) const {
  DIVERSE_DCHECK(!in_set_[v]);
  return AddDelta(lambda(), eval_->Gain(v), dist_to_set_[v]);
}

double SolutionState::PrimeGain(int v) const {
  DIVERSE_DCHECK(!in_set_[v]);
  return PrimeDelta(lambda(), eval_->Gain(v), dist_to_set_[v]);
}

double SolutionState::RemoveGain(int v) const {
  DIVERSE_DCHECK(in_set_[v]);
  // f(S - v) - f(S) = -(f(S) - f(S - v)): query the evaluator by a
  // temporary remove/re-add (const_cast-free: evaluator is owned).
  auto* eval = eval_.get();
  eval->Remove(v);
  const double f_drop = eval->Gain(v);
  eval->Add(v);
  return -f_drop - lambda() * dist_to_set_[v];
}

double SolutionState::SwapGain(int out, int in) const {
  DIVERSE_DCHECK(in_set_[out]);
  DIVERSE_DCHECK(!in_set_[in]);
  auto* eval = eval_.get();
  eval->Remove(out);
  const double f_in = eval->Gain(in);   // f(S-out+in) - f(S-out)
  const double f_out = eval->Gain(out);  // f(S) - f(S-out)
  eval->Add(out);
  return SwapDelta(lambda(), f_in, f_out, dist_to_set_[in],
                   problem_->metric().Distance(in, out), dist_to_set_[out]);
}

std::vector<double> SolutionState::GainsOver(
    std::span<const int> candidates) const {
  std::vector<double> gains(candidates.size());
  eval_->Gains(candidates, gains);
  return gains;
}

ScoredCandidate SolutionState::BestAddOver(
    std::span<const int> candidates) const {
  const std::vector<double> f_gains = GainsOver(candidates);
  const double lambda = this->lambda();
  return ArgmaxOver(candidates, [&](std::size_t i, double* gain) {
    const int e = candidates[i];
    if (in_set_[e]) return false;
    *gain = AddDelta(lambda, f_gains[i], dist_to_set_[e]);
    return true;
  });
}

ScoredCandidate SolutionState::BestPrimeAddOver(
    std::span<const int> candidates) const {
  const std::vector<double> f_gains = GainsOver(candidates);
  const double lambda = this->lambda();
  return ArgmaxOver(candidates, [&](std::size_t i, double* gain) {
    const int e = candidates[i];
    if (in_set_[e]) return false;
    *gain = PrimeDelta(lambda, f_gains[i], dist_to_set_[e]);
    return true;
  });
}

ScoredCandidate SolutionState::BestDensityAddOver(
    std::span<const int> candidates, std::span<const double> costs,
    double budget_left, double cost_floor) const {
  const std::vector<double> f_gains = GainsOver(candidates);
  const double lambda = this->lambda();
  return ArgmaxOver(candidates, [&](std::size_t i, double* gain) {
    const int e = candidates[i];
    if (in_set_[e]) return false;
    if (costs[e] > budget_left + 1e-12) return false;
    *gain = PrimeDelta(lambda, f_gains[i], dist_to_set_[e]) /
            std::max(costs[e], cost_floor);
    return true;
  });
}

void SolutionState::ScoreSwapsFor(int out, std::span<const int> ins,
                                  std::span<double> gains,
                                  std::span<const double> out_row) const {
  DIVERSE_CHECK(gains.size() == ins.size());
  DIVERSE_DCHECK(in_set_[out]);
  // Without a caller's row, one batched read of d(out, ins[i]) into a
  // buffer of this call's own. Costs |ins| distances on every metric.
  std::vector<double> dist_read;
  std::span<const double> dist_in_out = out_row;
  if (out_row.empty()) {
    dist_read.resize(ins.size());
    problem_->metric().DistancesTo(out, ins, dist_read);
    dist_in_out = dist_read;
  } else {
    DIVERSE_CHECK(out_row.size() == ins.size());
  }
  const double lambda = this->lambda();
  const double dist_out = dist_to_set_[out];
  SetFunctionEvaluator* eval = eval_.get();
  eval->Remove(out);
  const double f_out = eval->Gain(out);  // f(S) - f(S - out)
  // gains[i] first holds f(S - out + ins[i]) - f(S - out), from one
  // batched call, and is then overwritten by the swap gain.
  eval->Gains(ins, gains);
  eval->Add(out);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const int in = ins[i];
    gains[i] = in == out || in_set_[in]
                   ? kSkippedSwap
                   : SwapDelta(lambda, gains[i], f_out, dist_to_set_[in],
                               dist_in_out[i], dist_out);
  }
}

ScoredCandidate SolutionState::BestSwapInFor(int out,
                                             std::span<const int> ins) const {
  std::vector<double> gains(ins.size());
  ScoreSwapsFor(out, ins, gains);
  ScoredCandidate best;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    if (ins[i] == out || in_set_[ins[i]]) continue;
    if (!best.valid() || gains[i] > best.gain) best = {ins[i], gains[i]};
  }
  return best;
}

BestSwapResult SolutionState::BestSwapOver(std::span<const int> outs,
                                           std::span<const int> ins) const {
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

double SolutionState::BlockPrimeAddGain(std::span<const int> block) const {
  SetFunctionEvaluator* eval = eval_.get();
  double f_gain = 0.0;
  for (int b : block) {
    DIVERSE_DCHECK(!in_set_[b]);
    f_gain += eval->Gain(b);
    eval->Add(b);
  }
  for (int b : block) eval->Remove(b);
  const MetricSpace& metric = problem_->metric();
  double dist = 0.0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    dist += dist_to_set_[block[i]];  // d(b_i, S)
    for (std::size_t j = i + 1; j < block.size(); ++j) {
      dist += metric.Distance(block[i], block[j]);
    }
  }
  return PrimeDelta(lambda(), f_gain, dist);
}

const double* SolutionState::DistanceRowFor(int v,
                                            std::span<const double> row) {
  if (!row.empty()) {
    DIVERSE_CHECK(static_cast<int>(row.size()) == universe_size());
    return row.data();
  }
  const MetricSpace& metric = problem_->metric();
  if (const double* stored = metric.TryRow(v)) return stored;
  row_scratch_.resize(universe_size());
  metric.DistanceRow(v, row_scratch_);
  return row_scratch_.data();
}

const double* SolutionState::Join(int v, std::span<const double> row) {
  DIVERSE_CHECK(0 <= v && v < universe_size());
  DIVERSE_CHECK_MSG(!in_set_[v], "Add of an element already in S");
  objective_ += AddDelta(lambda(), eval_->Gain(v), dist_to_set_[v]);
  dispersion_sum_ += dist_to_set_[v];
  eval_->Add(v);
  members_.push_back(v);
  in_set_[v] = 1;
  return DistanceRowFor(v, row);
}

void SolutionState::Add(int v, std::span<const double> row) {
  const double* d = Join(v, row);
  for (int u = 0; u < universe_size(); ++u) dist_to_set_[u] += d[u];
}

ScoredCandidate SolutionState::AddThenBestPrimeAdd(
    int v, std::span<const double> row) {
  const double* d = Join(v, row);
  // The gains are read after the evaluator has taken v, so they are
  // f_u(S + v) for every f, not only modular ones.
  gain_scratch_.resize(universe_size());
  eval_->Gains(universe_, gain_scratch_);
  const double* f_gains = gain_scratch_.data();
  double* dist = dist_to_set_.data();
  const std::uint8_t* in_set = in_set_.data();
  const double lambda = this->lambda();
  // Position u holds element u. Each u's d_u(S + v) is final before it is
  // scored, so the score is BestPrimeAddOver's on S + v.
  return ArgmaxOver(universe_, [&](std::size_t u, double* gain) {
    dist[u] += d[u];
    if (in_set[u]) return false;
    *gain = PrimeDelta(lambda, f_gains[u], dist[u]);
    return true;
  });
}

void SolutionState::Remove(int v, std::span<const double> row) {
  DIVERSE_CHECK(0 <= v && v < universe_size());
  DIVERSE_CHECK_MSG(in_set_[v], "Remove of an element not in S");
  const double* d = DistanceRowFor(v, row);
  for (int u = 0; u < universe_size(); ++u) dist_to_set_[u] -= d[u];
  eval_->Remove(v);
  // After the update, dist_to_set_[v] = d(v, S - v).
  objective_ -= lambda() * dist_to_set_[v];
  dispersion_sum_ -= dist_to_set_[v];
  // Quality drop: f(S) - f(S - v) = Gain(v) evaluated at S - v.
  objective_ -= eval_->Gain(v);
  auto it = std::find(members_.begin(), members_.end(), v);
  members_.erase(it);
  in_set_[v] = 0;
}

void SolutionState::Swap(int out, int in, std::span<const double> out_row,
                         std::span<const double> in_row) {
  Remove(out, out_row);
  Add(in, in_row);
}

void SolutionState::Clear() { RebuildFrom({}); }

void SolutionState::Rebuild() { RebuildFrom(members_); }

void SolutionState::ApplyDistanceUpdate(int u, int v, double old_value,
                                        double new_value) {
  DIVERSE_CHECK(0 <= u && u < universe_size());
  DIVERSE_CHECK(0 <= v && v < universe_size());
  DIVERSE_CHECK(u != v);
  const double delta = new_value - old_value;
  // dist_to_set[x] = sum over members s of d(x, s): only the two endpoints
  // can be affected, and each only if the OTHER endpoint is a member.
  if (in_set_[v]) dist_to_set_[u] += delta;
  if (in_set_[u]) dist_to_set_[v] += delta;
  if (in_set_[u] && in_set_[v]) {
    dispersion_sum_ += delta;
    objective_ += lambda() * delta;
  }
}

void SolutionState::RefreshQuality() {
  const double old_quality = eval_->value();
  eval_->Reset();
  for (int v : members_) eval_->Add(v);
  objective_ += eval_->value() - old_quality;
}

void SolutionState::Assign(const std::vector<int>& set) { RebuildFrom(set); }

void SolutionState::RebuildFrom(const std::vector<int>& members) {
  const std::vector<int> target = members;  // copy: `members` may alias ours
  members_.clear();
  std::fill(in_set_.begin(), in_set_.end(), 0);
  std::fill(dist_to_set_.begin(), dist_to_set_.end(), 0.0);
  eval_->Reset();
  dispersion_sum_ = 0.0;
  objective_ = 0.0;
  for (int v : target) Add(v);
}

}  // namespace diverse
