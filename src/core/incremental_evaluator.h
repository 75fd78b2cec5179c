// Batched marginal-gain oracle over a SolutionState.
//
// SolutionState already maintains the Birnbaum–Goldman per-element
// dispersion sums (dist_to_set) that make single gains O(1) plus one
// quality-gain query. IncrementalEvaluator layers the batched hot-loop
// queries every algorithm actually runs on top of that state:
//
//   * O(1) cached Objective() and O(1)/O(|S|) single gains
//     (GainOfAdd / GainOfRemove / GainOfSwap);
//   * sequential argmax scans over candidate lists — BestAddOver,
//     BestPrimeAddOver (Greedy B's potential), BestDensityAddOver
//     (knapsack), BestSwapInFor / BestSwapOver (local search, streaming,
//     dynamic updates) — ties keep the earliest candidate position;
//   * ScoreSwapsFor, which batch-fills swap gains so callers can apply
//     their own feasibility filters (matroid exchange oracles) in
//     descending-gain order;
//   * BlockPrimeAddGain for batch greedy's d-element blocks, evaluated
//     through the state's quality evaluator instead of from-scratch
//     f(S + block) calls.
//
// Swap scans hoist the quality-evaluator Remove(out) so the per-candidate
// work is a const Gain() query plus contiguous reads. The evaluator never
// outlives or invalidates its state; mutations still go through
// SolutionState.
#ifndef DIVERSE_CORE_INCREMENTAL_EVALUATOR_H_
#define DIVERSE_CORE_INCREMENTAL_EVALUATOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/argmax_scan.h"
#include "core/solution_state.h"

namespace diverse {

// Best (out, in) exchange found by a swap scan.
struct BestSwapResult {
  int out = -1;
  int in = -1;
  double gain = 0.0;
  bool valid() const { return out >= 0; }
};

class IncrementalEvaluator {
 public:
  // Empty; kept only as the type of engine::Options::eval and
  // engine::PlanDefaults::eval, which servebench/serving.cc assigns.
  struct Options {};

  // `state` must outlive the evaluator. The evaluator holds no copies of
  // solution data; it reads the state on every query.
  explicit IncrementalEvaluator(SolutionState* state);

  const SolutionState& state() const { return *state_; }

  // phi(S), O(1) from the state's cache.
  double Objective() const { return state_->objective(); }

  // Single-element gains; O(1) plus one quality-gain query (GainOfSwap:
  // one temporary quality remove/re-add, O(|S|)-bounded for all bundled
  // evaluators).
  double GainOfAdd(int u) const;
  double GainOfPrimeAdd(int u) const;  // 1/2 f_u(S) + lambda d_u(S)
  double GainOfRemove(int u) const;
  double GainOfSwap(int out, int in) const;

  // Argmax of GainOfAdd / GainOfPrimeAdd over `candidates`; members of S
  // are skipped. Invalid result when no candidate qualifies.
  ScoredCandidate BestAddOver(std::span<const int> candidates) const;
  ScoredCandidate BestPrimeAddOver(std::span<const int> candidates) const;

  // Argmax of GainOfPrimeAdd(u) / max(costs[u], cost_floor) over
  // candidates; skips members and candidates with costs[u] >
  // budget_left. `costs` is indexed by element id.
  ScoredCandidate BestDensityAddOver(std::span<const int> candidates,
                                     std::span<const double> costs,
                                     double budget_left,
                                     double cost_floor = 1e-12) const;

  // Best swap partner for a fixed out in S over `ins` (members and `out`
  // skipped): argmax of GainOfSwap(out, in).
  ScoredCandidate BestSwapInFor(int out, std::span<const int> ins) const;

  // Best swap over outs x ins; `outs` must all be members. Ties keep the
  // earliest (out position, in position).
  BestSwapResult BestSwapOver(std::span<const int> outs,
                              std::span<const int> ins) const;

  // Fills gains[i] = GainOfSwap(out, ins[i]), or -infinity for skipped
  // candidates (members of S and `out` itself). gains.size() must equal
  // ins.size().
  void ScoreSwapsFor(int out, std::span<const int> ins,
                     std::span<double> gains) const;

  // Batch greedy's block potential for a disjoint block B with S:
  //   1/2 [f(S + B) - f(S)] + lambda [d(B) + d(B, S)],
  // computed via |B| incremental quality updates (net state unchanged).
  double BlockPrimeAddGain(std::span<const int> block) const;

  // All elements {0, .., n-1} as a reusable candidate list. Built eagerly
  // at construction (the universe size is fixed per state), so concurrent
  // const scans share a read-only span.
  std::span<const int> Universe() const;

 private:
  // Runs fn() with the state's quality evaluator positioned at S - out.
  template <typename Fn>
  auto WithQualityRemoved(int out, Fn&& fn) const;

  SolutionState* state_;
  std::vector<int> universe_;  // built eagerly at construction
};

}  // namespace diverse

#endif  // DIVERSE_CORE_INCREMENTAL_EVALUATOR_H_
