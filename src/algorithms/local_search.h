// Oblivious single-swap local search for max-sum diversification under an
// arbitrary matroid constraint (paper §5, Theorem 2): starting from a basis
// containing the best independent pair {x,y} (by phi), repeatedly perform
// the best objective-improving exchange S <- S - v + u with S - v + u
// independent, until locally optimal. 2-approximation for monotone
// submodular f. Each round batch-scores every exchange
// (SolutionState::ScoreSwapsFor) and tests the matroid oracle in
// descending-gain order, so the first feasible exchange is the best one.
// Each member's row d(m, .) is read once, when m joins, and is handed to
// the state's bookkeeping and every later round: an accepted swap reads one
// new row.
//
// The initial pair is exact. On a metric that declares the triangle
// inequality (MetricSpace::ObeysTriangleInequality) the O(n^2) pair scan
// is pruned: f is normalized submodular, so f({x}) + f({y}) + lambda *
// (d(x, p) + d(p, y)) bounds phi({x, y}) for every pivot p of a few
// farthest-point pivots. Each pivot's cell is sorted by descending
// f({y}) + lambda * d(p, y), so a row x walks a cell only until that
// pivot's bound falls short of the best, and meets each partner in a
// later slot once. The partners it meets are bounded by the minimum over
// all pivots and, on a metric that also declares Ptolemy's inequality
// (MetricSpace::ObeysPtolemyInequality: Euclidean distances), first by
// (d(x, p) d(y, q) + d(x, q) d(y, p)) / d(p, q) through the two cells'
// pivots. Only pairs whose bound can reach the best pay an exact
// distance, the matroid oracle and phi. The pruned scan returns the
// exhaustive scan's pair, with its earliest-(i, j) tie rule and the same
// value bits; other metrics run the exhaustive scan. The basis completion
// after it tests, each round, only the elements the round before found
// feasible.
//
// As the paper notes, polynomial running time requires accepting only
// swaps that improve phi by a relative epsilon; epsilon = 0 accepts any
// strict improvement.
#ifndef DIVERSE_ALGORITHMS_LOCAL_SEARCH_H_
#define DIVERSE_ALGORITHMS_LOCAL_SEARCH_H_

#include <span>
#include <vector>

#include "algorithms/result.h"
#include "core/diversification_problem.h"
#include "matroid/matroid.h"

namespace diverse {

struct LocalSearchOptions {
  // Accept a swap only if gain > epsilon * max(|phi(S)|, 1).
  double epsilon = 0.0;
  // Stop after this many applied swaps; < 0 means unlimited.
  long long max_swaps = -1;
  // Stop when this much wall-clock time has elapsed; <= 0 means unlimited.
  // Used by the paper's "LS runs for 10x the Greedy B time" protocol (§7).
  double time_limit_seconds = 0.0;
  // Starting set. If empty, the paper's initialization is used: the best
  // independent pair extended to a basis. If non-empty it must be
  // independent; it is extended to a basis before searching.
  std::vector<int> initial;
  // When extending the initial set to a basis, add elements by best
  // objective gain (true) or by first feasible candidate (false, the
  // paper's "arbitrary" completion).
  bool greedy_completion = true;
};

// The paper's initialization over `candidates` (a list as
// LocalSearchOnCandidates takes): the independent pair {x, y} maximizing
// phi({x, y}), ties broken by the earliest (i, j) in candidate order,
// returned as {candidates[i], candidates[j]}. When no pair is independent
// (rank < 2), the best independent singleton; empty when there is none.
std::vector<int> BestIndependentPair(const DiversificationProblem& problem,
                                     const Matroid& matroid,
                                     std::span<const int> candidates);

// Search over every id; the matroid's ground set must equal the problem's.
AlgorithmResult LocalSearch(const DiversificationProblem& problem,
                            const Matroid& matroid,
                            const LocalSearchOptions& options);

// Search over `candidates` only (the serving engine passes a snapshot's
// live ids): ascending, distinct ids below both problem.size() and
// matroid.ground_size(). Restricts the problem and the matroid to the list
// (core/restricted_problem.h), runs LocalSearch there and maps the answer
// back, so it equals LocalSearch on the problem rebuilt from those ids
// alone. options.initial holds problem ids, all of them in the list.
AlgorithmResult LocalSearchOnCandidates(const DiversificationProblem& problem,
                                        const Matroid& matroid,
                                        std::span<const int> candidates,
                                        const LocalSearchOptions& options);

}  // namespace diverse

#endif  // DIVERSE_ALGORITHMS_LOCAL_SEARCH_H_
