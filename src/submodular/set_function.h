// Interfaces for normalized monotone set functions f : 2^U -> R>=0.
//
// Algorithms interact with functions through a stateful evaluator that
// tracks the current set S and answers marginal-gain queries
// f_u(S) = f(S + u) - f(S) incrementally. Every concrete function supplies
// an evaluator with O(1)-amortized Add/Remove/Gain where its structure
// allows (modular: O(1); coverage: O(topics per element); facility
// location: O(clients) on Remove).
#ifndef DIVERSE_SUBMODULAR_SET_FUNCTION_H_
#define DIVERSE_SUBMODULAR_SET_FUNCTION_H_

#include <cstddef>
#include <memory>
#include <span>

namespace diverse {

// Incremental evaluator positioned at a current set S (initially empty).
// Elements are indices into the ground set of the owning SetFunction.
//
// Thread-safety contract: the const queries (value(), Gain(), Gains())
// must be safe for concurrent calls at a fixed S — several threads may run
// SolutionState's const add scans (core/solution_state.h) on one state,
// each issuing its own Gains() call. Mutators (Add/Remove/Reset) require
// exclusive access.
class SetFunctionEvaluator {
 public:
  virtual ~SetFunctionEvaluator() = default;

  // f(S) for the current set.
  virtual double value() const = 0;

  // Marginal gain f(S + e) - f(S) for `e` not in S. For `e` in S the value
  // has no meaning, but it must still be computed without fault: batched
  // scans score whole candidate lists and skip the members afterwards.
  virtual double Gain(int e) const = 0;

  // out[i] = Gain(ids[i]) for every i, bit for bit; out.size() must equal
  // ids.size(). Ids may come in any order and repeat. One call per scan
  // replaces one virtual Gain() per candidate. Default: a loop over Gain().
  virtual void Gains(std::span<const int> ids, std::span<double> out) const {
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = Gain(ids[i]);
  }

  // S <- S + e. `e` must not already be in S (not verified by all
  // implementations; callers own membership bookkeeping).
  virtual void Add(int e) = 0;

  // S <- S - e. `e` must be in S.
  virtual void Remove(int e) = 0;

  // S <- empty set.
  virtual void Reset() = 0;
};

class SetFunction {
 public:
  virtual ~SetFunction() = default;

  // Size of the ground set U.
  virtual int ground_size() const = 0;

  // A fresh evaluator positioned at the empty set.
  virtual std::unique_ptr<SetFunctionEvaluator> MakeEvaluator() const = 0;

  // Convenience: f(set), evaluated through a temporary evaluator. Elements
  // must be distinct.
  virtual double Value(std::span<const int> set) const;

  // Convenience: f(set + e) - f(set). `e` must not be in `set`.
  double MarginalGain(std::span<const int> set, int e) const;

  // f over local ids: g(S) = f({ids[s] : s in S}) on ground set
  // 0..ids.size()-1, with the same gain and value bits as f on the mapped
  // sets (core/restricted_problem.h). `ids` are distinct ground-set ids.
  // Default: a view mapping every call through a copy of `ids`, which
  // must not outlive this function.
  virtual std::unique_ptr<SetFunction> Restrict(std::span<const int> ids) const;
};

// The identically-zero function. With this quality function the
// diversification problem degenerates to max-sum p-dispersion (paper
// Corollary 1: Greedy B becomes exactly the Ravi et al. dispersion greedy).
class ZeroFunction : public SetFunction {
 public:
  explicit ZeroFunction(int ground_size);

  int ground_size() const override { return n_; }
  std::unique_ptr<SetFunctionEvaluator> MakeEvaluator() const override;
  double Value(std::span<const int> set) const override;

 private:
  int n_;
};

}  // namespace diverse

#endif  // DIVERSE_SUBMODULAR_SET_FUNCTION_H_
