// A problem restricted to a candidate list C: the same objective over local
// ids 0..|C|-1, where local id u stands for C[u].
//
// The paper's algorithms are stated over one ground set U, and their
// O(n p) bookkeeping refreshes d(v, S) for v in U only. The candidate
// entries (GreedyVertexOnCandidates, LocalSearchOnCandidates,
// KnapsackGreedyOnCandidates, BestIndependentPair) therefore restrict the
// problem to C, run the plain algorithm over the local ids, and map the
// answer back with ToGlobal. The view is exact:
//
//   * every distance is base.Distance(C[u], C[v]), and every row holds
//     those values (the MetricSpace row contract);
//   * the quality is SetFunction::Restrict's f over C, so gains and values
//     are the base function's bits;
//   * the matroid, when given, answers each query on the mapped set;
//   * the metric declares ObeysTriangleInequality() and
//     ObeysPtolemyInequality() exactly as its base.
//
// Position in C is local id, so the algorithms' earliest-position tie
// rules pick the same elements and every sum keeps its terms in the same
// order: the answer on the view, mapped back, is bit-equal to the answer
// on the problem rebuilt from C alone.
//
// When C = [0, n) the view serves the problem itself (its metric object,
// with DenseMetric's zero-copy TryRow), and when C = [0, ground_size()) the
// matroid itself: a full candidate list costs one pass over its ids.
#ifndef DIVERSE_CORE_RESTRICTED_PROBLEM_H_
#define DIVERSE_CORE_RESTRICTED_PROBLEM_H_

#include <memory>
#include <span>
#include <vector>

#include "core/diversification_problem.h"
#include "matroid/matroid.h"

namespace diverse {

class RestrictedProblem {
 public:
  // The problem over local ids 0..|C|-1.
  const DiversificationProblem& problem() const { return problem_; }
  // The matroid over the same local ids; requires Restrict's `matroid`.
  const Matroid& matroid() const;

  // C[local] for each local id.
  std::vector<int> ToGlobal(std::span<const int> local) const;
  // The local id of each base id; CHECK-aborts when one lies outside C.
  std::vector<int> ToLocal(std::span<const int> global) const;

 private:
  friend RestrictedProblem Restrict(const DiversificationProblem& problem,
                                    std::span<const int> ids,
                                    const Matroid* matroid);
  RestrictedProblem(const DiversificationProblem& problem,
                    std::span<const int> ids, const Matroid* matroid);

  // Heap-held so that the views' pointers survive a move of the owner.
  // The three views are null where the base serves itself.
  std::vector<int> ids_;
  std::unique_ptr<MetricSpace> metric_;
  std::unique_ptr<SetFunction> quality_;
  std::unique_ptr<Matroid> own_matroid_;
  const Matroid* matroid_;
  DiversificationProblem problem_;
};

// Restricts `problem` (and `matroid`, when given) to `ids`: ascending,
// distinct ids below problem.size() and, with a matroid, below its
// ground_size(), else a CHECK-abort. Local order is then base order, so
// ToGlobal keeps a sorted answer sorted. Both must outlive the view.
RestrictedProblem Restrict(const DiversificationProblem& problem,
                           std::span<const int> ids,
                           const Matroid* matroid = nullptr);

}  // namespace diverse

#endif  // DIVERSE_CORE_RESTRICTED_PROBLEM_H_
