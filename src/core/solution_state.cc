#include "core/solution_state.h"

#include <algorithm>

#include "util/check.h"

namespace diverse {

SolutionState::SolutionState(const DiversificationProblem* problem)
    : problem_(problem), backend_(AsBackend(&problem->metric())) {
  DIVERSE_CHECK(problem != nullptr);
  in_set_.assign(problem->size(), false);
  dist_to_set_.assign(problem->size(), 0.0);
  eval_ = problem->quality().MakeEvaluator();
}

SolutionState::SolutionState(const SolutionState& other)
    : problem_(other.problem_), backend_(other.backend_) {
  in_set_.assign(problem_->size(), false);
  dist_to_set_.assign(problem_->size(), 0.0);
  eval_ = problem_->quality().MakeEvaluator();
  RebuildFrom(other.members_);
}

SolutionState& SolutionState::operator=(const SolutionState& other) {
  if (this == &other) return *this;
  DIVERSE_CHECK_MSG(problem_ == other.problem_,
                    "assignment across different problems");
  RebuildFrom(other.members_);
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
  return eval_->Gain(v) + lambda() * dist_to_set_[v];
}

double SolutionState::PrimeGain(int v) const {
  DIVERSE_DCHECK(!in_set_[v]);
  return 0.5 * eval_->Gain(v) + lambda() * dist_to_set_[v];
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
  const double dist_delta =
      dist_to_set_[in] - problem_->metric().Distance(in, out) -
      dist_to_set_[out];
  return (f_in - f_out) + lambda() * dist_delta;
}

const double* SolutionState::DistanceRowFor(int v) {
  if (backend_ == nullptr) return nullptr;
  if (const double* row = backend_->TryRow(v)) return row;
  row_scratch_.resize(universe_size());
  backend_->DistanceRow(v, row_scratch_);
  return row_scratch_.data();
}

void SolutionState::Add(int v) {
  DIVERSE_CHECK(0 <= v && v < universe_size());
  DIVERSE_CHECK_MSG(!in_set_[v], "Add of an element already in S");
  objective_ += eval_->Gain(v) + lambda() * dist_to_set_[v];
  dispersion_sum_ += dist_to_set_[v];
  eval_->Add(v);
  members_.push_back(v);
  in_set_[v] = true;
  if (const double* row = DistanceRowFor(v)) {
    for (int u = 0; u < universe_size(); ++u) dist_to_set_[u] += row[u];
    return;
  }
  const MetricSpace& metric = problem_->metric();
  for (int u = 0; u < universe_size(); ++u) {
    dist_to_set_[u] += metric.Distance(u, v);
  }
}

void SolutionState::Remove(int v) {
  DIVERSE_CHECK(0 <= v && v < universe_size());
  DIVERSE_CHECK_MSG(in_set_[v], "Remove of an element not in S");
  if (const double* row = DistanceRowFor(v)) {
    for (int u = 0; u < universe_size(); ++u) dist_to_set_[u] -= row[u];
  } else {
    const MetricSpace& metric = problem_->metric();
    for (int u = 0; u < universe_size(); ++u) {
      dist_to_set_[u] -= metric.Distance(u, v);
    }
  }
  eval_->Remove(v);
  // After the update, dist_to_set_[v] = d(v, S - v).
  objective_ -= lambda() * dist_to_set_[v];
  dispersion_sum_ -= dist_to_set_[v];
  // Quality drop: f(S) - f(S - v) = Gain(v) evaluated at S - v.
  objective_ -= eval_->Gain(v);
  auto it = std::find(members_.begin(), members_.end(), v);
  members_.erase(it);
  in_set_[v] = false;
}

void SolutionState::Swap(int out, int in) {
  Remove(out);
  Add(in);
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
  std::fill(in_set_.begin(), in_set_.end(), false);
  std::fill(dist_to_set_.begin(), dist_to_set_.end(), 0.0);
  eval_->Reset();
  dispersion_sum_ = 0.0;
  objective_ = 0.0;
  for (int v : target) Add(v);
}

}  // namespace diverse
