// Incremental solution state shared by all algorithms.
//
// Maintains, for a current set S:
//   * membership flags and the member list,
//   * dist_to_set[v] = sum_{u in S} d(v, u) for EVERY v in U   (O(n) per
//     add/remove — the Birnbaum–Goldman bookkeeping that makes Greedy B run
//     in O(n p) total, paper §4). U is the problem's own id space: the
//     candidate entries run on a problem restricted to their candidate
//     list (core/restricted_problem.h), so there U is that list in local
//     ids and n is its length, not the corpus size,
//   * an incremental quality-function evaluator,
//   * the current objective value phi(S).
//
// Gains:
//   AddGain(v)        = phi(S + v) - phi(S)
//   PrimeGain(v)      = 1/2 f_v(S) + lambda d_v(S)  (Greedy B's potential)
//   RemoveGain(v)     = phi(S - v) - phi(S)  (<= 0 for monotone f)
//   SwapGain(out,in)  = phi(S - out + in) - phi(S)
//
// On top of those sums it runs the batched argmax scans every algorithm
// uses: BestAddOver, BestPrimeAddOver (Greedy B), BestDensityAddOver
// (knapsack), the swap kernel ScoreSwapsFor with its argmaxes
// BestSwapInFor / BestSwapOver (local search, streaming, dynamic updates)
// and BlockPrimeAddGain (batch greedy). Scans are const and ties keep the
// earliest candidate position. Each scan reads the quality gains of its
// whole candidate list from one SetFunctionEvaluator::Gains call (a gather
// for modular f) into a buffer of its own, so a candidate costs contiguous
// reads and a byte membership test, not a virtual Gain() query. The swap
// kernel positions the quality evaluator at S - out once per scan and
// reads d(out, .) over the scanned list from the caller's row or one
// DistancesTo call; the net state is unchanged.
//
// Greedy B's step is one pass over U: AddThenBestPrimeAdd adds v's row
// into dist_to_set and scores every non-member for the next step in the
// same loop, with the same gain bits and tie rule as Add followed by
// BestPrimeAddOver(Universe()).
//
// The O(n) dist_to_set refresh on Add/Remove consumes one whole distance
// row d(v, .): the caller's row when it holds one (local search keeps each
// member's), else the metric's stored row when TryRow has one
// (DenseMetric), else one DistanceRow call into scratch. Rows hold exactly
// the scalar Distance() values (metric/metric_space.h), so every metric's
// answers are bit-equal to those over its DenseMetric::Materialize.
#ifndef DIVERSE_CORE_SOLUTION_STATE_H_
#define DIVERSE_CORE_SOLUTION_STATE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/argmax_scan.h"
#include "core/diversification_problem.h"

namespace diverse {

// Best (out, in) exchange found by a swap scan.
struct BestSwapResult {
  int out = -1;
  int in = -1;
  double gain = 0.0;
  bool valid() const { return out >= 0; }
};

class SolutionState {
 public:
  // `problem` must outlive the state. Starts at the empty set.
  explicit SolutionState(const DiversificationProblem* problem);

  // Copyable so algorithms can snapshot/restore candidate states. A copy
  // holds the source's cached sums and objective bit for bit.
  SolutionState(const SolutionState& other);
  SolutionState& operator=(const SolutionState& other);

  const DiversificationProblem& problem() const { return *problem_; }
  int universe_size() const { return problem_->size(); }
  int size() const { return static_cast<int>(members_.size()); }
  bool Contains(int v) const { return in_set_[v] != 0; }
  const std::vector<int>& members() const { return members_; }
  // Members in ascending order (for reporting / comparisons).
  std::vector<int> SortedMembers() const;

  // phi(S), maintained incrementally.
  double objective() const { return objective_; }
  // f(S).
  double quality_value() const;
  // lambda * d(S).
  double dispersion_term() const { return lambda() * dispersion_sum_; }
  // d(S) (unweighted dispersion).
  double dispersion_sum() const { return dispersion_sum_; }
  double lambda() const { return problem_->lambda(); }

  // d_v(S) = sum_{u in S} d(v, u); O(1). For v in S this excludes d(v,v)=0,
  // so it equals d(v, S - v).
  double DistanceToSet(int v) const { return dist_to_set_[v]; }

  // phi(S + v) - phi(S); v must not be in S. O(1) plus one f-gain query.
  double AddGain(int v) const;

  // Greedy B's potential phi'_v(S) = 1/2 f_v(S) + lambda d_v(S).
  double PrimeGain(int v) const;

  // phi(S - v) - phi(S); v must be in S.
  double RemoveGain(int v) const;

  // phi(S - out + in) - phi(S); `out` in S, `in` not in S. Implemented
  // without mutating the state. O(1) for modular f; for general f it
  // temporarily adjusts the evaluator (still no net state change).
  double SwapGain(int out, int in) const;

  // Argmax of AddGain / PrimeGain over `candidates`; members of S are
  // skipped. Invalid result when no candidate qualifies.
  ScoredCandidate BestAddOver(std::span<const int> candidates) const;
  ScoredCandidate BestPrimeAddOver(std::span<const int> candidates) const;

  // Argmax of PrimeGain(u) / max(costs[u], cost_floor) over candidates;
  // skips members and candidates with costs[u] > budget_left. `costs` is
  // indexed by element id.
  ScoredCandidate BestDensityAddOver(std::span<const int> candidates,
                                     std::span<const double> costs,
                                     double budget_left,
                                     double cost_floor = 1e-12) const;

  // Best swap partner for a fixed out in S over `ins` (members and `out`
  // skipped): argmax of ScoreSwapsFor's gains.
  ScoredCandidate BestSwapInFor(int out, std::span<const int> ins) const;

  // Best swap over outs x ins; `outs` must all be members. Ties keep the
  // earliest (out position, in position).
  BestSwapResult BestSwapOver(std::span<const int> outs,
                              std::span<const int> ins) const;

  // The swap kernel: fills gains[i] = SwapGain(out, ins[i]), or -infinity
  // for skipped candidates (members of S and `out` itself). gains.size()
  // must equal ins.size(). `out_row` holds d(out, ins[i]) when the caller
  // keeps it (local search keeps each member's row across rounds); empty,
  // the kernel reads it with one DistancesTo call.
  void ScoreSwapsFor(int out, std::span<const int> ins,
                     std::span<double> gains,
                     std::span<const double> out_row = {}) const;

  // Batch greedy's block potential for a block B disjoint from S:
  //   1/2 [f(S + B) - f(S)] + lambda [d(B) + d(B, S)],
  // computed via |B| incremental quality updates (net state unchanged).
  double BlockPrimeAddGain(std::span<const int> block) const;

  // All elements {0, .., n-1} as a candidate list. Built eagerly at
  // construction (the universe size is fixed per problem), so concurrent
  // const scans share a read-only span.
  std::span<const int> Universe() const { return universe_; }

  // Mutators; each is O(n) to refresh dist_to_set. A caller that already
  // holds the row d(v, .) (size universe_size()) passes it; otherwise the
  // state reads one (see DistanceRowFor).
  void Add(int v, std::span<const double> row = {});
  // Add(v), then returns BestPrimeAddOver(Universe()) over the new set:
  // the same element and gain bits, from one pass over U that refreshes
  // dist_to_set and scores every non-member (Greedy B's step).
  ScoredCandidate AddThenBestPrimeAdd(int v, std::span<const double> row = {});
  void Remove(int v, std::span<const double> row = {});
  void Swap(int out, int in, std::span<const double> out_row = {},
            std::span<const double> in_row = {});
  void Clear();

  // Recomputes all cached values from scratch (used after external metric or
  // weight perturbations — paper §6 dynamic updates).
  void Rebuild();

  // O(1) cache patch after an external change of d(u, v) from `old_value`
  // to `new_value` (the metric itself must already hold the new value).
  // This is the fast path for paper §6 type (III)/(IV) perturbations; the
  // equivalent Rebuild costs O(|S| * n).
  void ApplyDistanceUpdate(int u, int v, double old_value, double new_value);

  // O(|S|) refresh of the quality evaluator and objective after an external
  // change to the quality function (paper §6 type (I)/(II) perturbations).
  // Distance caches are untouched.
  void RefreshQuality();

  // Replaces the current set.
  void Assign(const std::vector<int>& set);

 private:
  void RebuildFrom(const std::vector<int>& members);
  // Add's bookkeeping except the dist_to_set refresh; returns the row
  // d(v, .) that refresh adds.
  const double* Join(int v, std::span<const double> row);
  // Gain(candidates[i]) for every position i, from one Gains call into a
  // buffer of this call's own.
  std::vector<double> GainsOver(std::span<const int> candidates) const;
  // Row d(v, .) for Add/Remove: the caller's `row` when given, else the
  // metric's stored row when it has one, else row_scratch_ filled by one
  // DistanceRow call.
  const double* DistanceRowFor(int v, std::span<const double> row);

  const DiversificationProblem* problem_;
  std::vector<int> universe_;  // {0, .., n-1}
  std::vector<double> row_scratch_;
  std::vector<double> gain_scratch_;  // AddThenBestPrimeAdd's gains over U
  std::vector<int> members_;
  std::vector<std::uint8_t> in_set_;  // 1 for members of S
  std::vector<double> dist_to_set_;
  std::unique_ptr<SetFunctionEvaluator> eval_;
  double dispersion_sum_ = 0.0;  // d(S)
  double objective_ = 0.0;       // phi(S)
};

}  // namespace diverse

#endif  // DIVERSE_CORE_SOLUTION_STATE_H_
