// Distributed (two-round, GreeDi-style) max-sum diversification — the
// direction the paper's §8 points to ("approximation and application of
// diversification maximization in a distributed setting is pursued in
// Abbasi-Zadeh et al."): partition the universe across m machines, run
// Greedy B locally on each shard, union the m local solutions into a small
// kernel, and run Greedy B again on the kernel. Returns the better of the
// kernel solution and the best single-shard solution (the standard
// composable-core-set safeguard).
//
// Seed-stability contract (ShardOf / AssignShards): the shard of an
// element is a pure function of (salt, element id, num_shards) — a
// SplitMix64 finalizer of salt ^ id reduced mod num_shards. It does NOT
// depend on the universe size, the ordering or contents of any candidate
// list, the process, the thread, or the host: two machines that agree on
// the salt agree on every element's shard, forever. AssignShards adds one
// guarantee on top: within each shard, elements keep the relative order
// of the input candidate list. Callers may therefore reconstruct a
// shard's candidate range independently (as the RPC shard nodes do from
// their replicas with ShardCandidates, in src/rpc/shard_node.cc) and
// obtain byte-identical kernel inputs, provided they filter an identical
// candidate list. This is what makes the serving engine's sharded plans
// (in-process and cross-node) pure functions of (snapshot, query),
// independent of worker-pool size and node placement; tests/rpc_test.cc
// asserts both.
// Changing Mix64, the salt mixing, or the mod reduction is a
// wire-protocol-level break: coordinator and shard nodes must be
// upgraded together (bump rpc::kWireVersion to force it).
//
// Every greedy run here, per shard and on the kernel, is
// GreedyVertexOnCandidates (algorithms/greedy_vertex.h).
//
// No worst-case guarantee is claimed here (that is the cited follow-up
// work); tests and bench/ablation_distributed measure empirical quality
// against the sequential algorithm.
#ifndef DIVERSE_ALGORITHMS_DISTRIBUTED_H_
#define DIVERSE_ALGORITHMS_DISTRIBUTED_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "algorithms/greedy_vertex.h"  // GreedyVertexOnCandidates
#include "algorithms/result.h"
#include "core/diversification_problem.h"
#include "util/random.h"

namespace diverse {

struct DistributedOptions {
  int p = 0;
  // Number of shards ("machines"); elements are assigned by a seed-derived
  // hash, deterministically given the Rng seed.
  int num_shards = 4;
  // Elements each shard returns; defaults to p when <= 0.
  int per_shard = 0;
};

// Shard id in [0, num_shards) for `element` under `salt` — a pure function
// (SplitMix64 finalizer), independent of universe size and ordering.
int ShardOf(std::uint64_t salt, int element, int num_shards);

// Partitions `candidates` into num_shards lists by ShardOf, preserving the
// candidates' relative order within each shard. Shards may be empty.
std::vector<std::vector<int>> AssignShards(std::span<const int> candidates,
                                           int num_shards, std::uint64_t salt);

// Exactly AssignShards(candidates, num_shards, salt)[shard_index] (the two
// share one partition loop), without materializing the other shards, so a
// num_shards that arrived over the wire costs nothing to honour. Requires
// 0 <= shard_index < num_shards.
std::vector<int> ShardCandidates(std::span<const int> candidates,
                                 int num_shards, std::uint64_t salt,
                                 int shard_index);

// One shard's round-1 kernel solution.
struct ShardSolution {
  std::vector<int> elements;
  long long steps = 0;
};

// Computes round 1 off-box (the RPC coordinator's node fan-out): called
// once with every shard (empty ones included, so indices are shard ids)
// and the resolved per_shard, it returns one entry per shard, engaged
// where a solution arrived.
using RemoteShardRound =
    std::function<std::vector<std::optional<ShardSolution>>(
        const std::vector<std::vector<int>>& shards, int per_shard)>;

// Round 1 of the two-round scheme, shared by ShardedGreedy and the RPC
// coordinator (src/rpc/coordinator.cc) so the round structure exists
// once: AssignShards, per_shard <= 0 defaulting to p, empty shards
// skipped, and each non-empty shard's GreedyVertexOnCandidates run here
// unless `remote` (may be empty) delivered its solution. Returns the
// non-empty shards' solutions in shard order, ready for
// MergeShardSolutions, and adds every shard's steps to *steps.
std::vector<std::vector<int>> RunShardRound(
    const DiversificationProblem& problem, std::span<const int> candidates,
    int p, int num_shards, int per_shard, std::uint64_t salt,
    const RemoteShardRound& remote, long long* steps);

// Round 2, shared verbatim by ShardedGreedy and the RPC coordinator so the
// two paths cannot drift apart — their bit-equality IS the RPC layer's
// correctness contract. `local_solutions` is RunShardRound's output: each
// solution is scored truncated to its best p-prefix, their union forms
// the kernel for the final Greedy B run, and the better of kernel
// solution and best truncated local solution wins (strict >, earlier
// shard wins ties). steps counts the kernel run only; callers add the
// per-shard steps.
AlgorithmResult MergeShardSolutions(
    const DiversificationProblem& problem,
    const std::vector<std::vector<int>>& local_solutions, int p);

// The two-round scheme over an explicit candidate pool: hash-partition with
// `salt`, Greedy B per shard (per_shard <= 0 defaults to p), union the
// local solutions into a kernel, Greedy B on the kernel, and return the
// better of the kernel solution and the best truncated local solution.
// Deterministic given (candidates, p, num_shards, per_shard, salt).
AlgorithmResult ShardedGreedy(const DiversificationProblem& problem,
                              std::span<const int> candidates, int p,
                              int num_shards, int per_shard,
                              std::uint64_t salt);

AlgorithmResult DistributedGreedy(const DiversificationProblem& problem,
                                  const DistributedOptions& options,
                                  Rng& rng);

}  // namespace diverse

#endif  // DIVERSE_ALGORITHMS_DISTRIBUTED_H_
