// Greedy B (paper §4, Theorem 1): the non-oblivious vertex greedy for
// max-sum diversification under a cardinality constraint. In each step it
// adds the element maximizing the potential
//
//   phi'_u(S) = 1/2 * f_u(S) + lambda * d_u(S)
//
// rather than the objective's own marginal phi_u(S) = f_u(S) + lambda
// d_u(S) — halving the quality marginal is exactly what makes the
// 2-approximation proof for monotone submodular f go through. With f == 0
// this is the Ravi–Rosenkrantz–Tayi dispersion greedy (Corollary 1).
//
// Running time: O(p * n) gain evaluations thanks to the incremental
// distance bookkeeping in SolutionState (the Birnbaum–Goldman observation).
#ifndef DIVERSE_ALGORITHMS_GREEDY_VERTEX_H_
#define DIVERSE_ALGORITHMS_GREEDY_VERTEX_H_

#include <span>

#include "algorithms/result.h"
#include "core/diversification_problem.h"

namespace diverse {

struct GreedyVertexOptions {
  // Cardinality constraint |S| = p (p <= n enforced; fewer if n < p).
  int p = 0;
  // Paper §7.1 "improved Greedy B": seed with the pair {x,y} maximizing
  // phi({x,y}) instead of starting from the best singleton. Costs O(n^2).
  bool best_first_pair = false;
};

AlgorithmResult GreedyVertex(const DiversificationProblem& problem,
                             const GreedyVertexOptions& options);

// Greedy B over `candidates` only (ascending, distinct ids below
// problem.size()), returning min(p, |candidates|) elements: the serving
// engine's single-node, merge and per-shard kernel. Runs GreedyVertex on
// the problem restricted to the list (core/restricted_problem.h), where
// ties keep the earliest candidate, and maps the answer back; over all ids
// it is GreedyVertex.
AlgorithmResult GreedyVertexOnCandidates(const DiversificationProblem& problem,
                                         std::span<const int> candidates,
                                         int p);

}  // namespace diverse

#endif  // DIVERSE_ALGORITHMS_GREEDY_VERTEX_H_
