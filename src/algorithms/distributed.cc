#include "algorithms/distributed.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {
namespace {

// SplitMix64 finalizer: a high-quality 64-bit mix used as a stateless hash.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int ShardOf(std::uint64_t salt, int element, int num_shards) {
  DIVERSE_CHECK(num_shards >= 1);
  return static_cast<int>(Mix64(salt ^ static_cast<std::uint64_t>(element)) %
                          static_cast<std::uint64_t>(num_shards));
}

std::vector<std::vector<int>> AssignShards(std::span<const int> candidates,
                                           int num_shards,
                                           std::uint64_t salt) {
  DIVERSE_CHECK_MSG(num_shards >= 1, "need at least one shard");
  std::vector<std::vector<int>> shards(num_shards);
  for (int e : candidates) shards[ShardOf(salt, e, num_shards)].push_back(e);
  return shards;
}

AlgorithmResult GreedyVertexOnCandidates(
    const DiversificationProblem& problem, const std::vector<int>& candidates,
    int p) {
  WallTimer timer;
  SolutionState state(&problem);
  AlgorithmResult result;
  const int target = std::min<int>(p, static_cast<int>(candidates.size()));
  while (state.size() < target) {
    const ScoredCandidate best = state.BestPrimeAddOver(candidates);
    DIVERSE_CHECK(best.valid());
    state.Add(best.element);
    ++result.steps;
  }
  result.elements = state.members();
  result.objective = state.objective();
  result.elapsed_seconds = timer.Seconds();
  return result;
}

AlgorithmResult MergeShardSolutions(
    const DiversificationProblem& problem,
    const std::vector<std::vector<int>>& local_solutions, int p) {
  std::vector<int> kernel;
  std::vector<int> best_local;
  // -infinity, not -1: per-query relevance can drive objectives negative,
  // and a finite sentinel would then beat every real shard solution and
  // return an empty set.
  double best_local_objective = -std::numeric_limits<double>::infinity();
  for (const std::vector<int>& local : local_solutions) {
    kernel.insert(kernel.end(), local.begin(), local.end());
    // Score the local solution truncated to p (it may carry per_shard > p
    // elements; evaluate its best prefix, which is its greedy order).
    std::vector<int> prefix = local;
    if (static_cast<int>(prefix.size()) > p) prefix.resize(p);
    const double value = problem.Objective(prefix);
    if (value > best_local_objective) {
      best_local_objective = value;
      best_local = std::move(prefix);
    }
  }

  // Greedy over the unioned kernel, then the composable-core-set
  // safeguard: the better of the two rounds.
  std::sort(kernel.begin(), kernel.end());
  kernel.erase(std::unique(kernel.begin(), kernel.end()), kernel.end());
  AlgorithmResult merged = GreedyVertexOnCandidates(problem, kernel, p);
  if (best_local_objective > merged.objective) {
    merged.elements = std::move(best_local);
    merged.objective = best_local_objective;
  }
  return merged;
}

AlgorithmResult ShardedGreedy(const DiversificationProblem& problem,
                              std::span<const int> candidates, int p,
                              int num_shards, int per_shard,
                              std::uint64_t salt) {
  DIVERSE_CHECK(p >= 0);
  if (per_shard <= 0) per_shard = p;
  WallTimer timer;

  // Round 1: hash partition, local greedy per shard.
  const std::vector<std::vector<int>> shards =
      AssignShards(candidates, num_shards, salt);
  AlgorithmResult result;
  std::vector<std::vector<int>> local_solutions;
  local_solutions.reserve(shards.size());
  for (const std::vector<int>& shard : shards) {
    if (shard.empty()) continue;
    AlgorithmResult local =
        GreedyVertexOnCandidates(problem, shard, per_shard);
    result.steps += local.steps;
    local_solutions.push_back(std::move(local.elements));
  }

  // Round 2 + safeguard (shared with the RPC coordinator).
  AlgorithmResult merged =
      MergeShardSolutions(problem, local_solutions, p);
  result.steps += merged.steps;
  result.elements = std::move(merged.elements);
  result.objective = merged.objective;
  result.elapsed_seconds = timer.Seconds();
  return result;
}

AlgorithmResult DistributedGreedy(const DiversificationProblem& problem,
                                  const DistributedOptions& options,
                                  Rng& rng) {
  DIVERSE_CHECK(options.p >= 0);
  DIVERSE_CHECK_MSG(options.num_shards >= 1, "need at least one shard");
  std::vector<int> universe(problem.size());
  std::iota(universe.begin(), universe.end(), 0);
  // One seed draw decides the whole partition; everything downstream is a
  // pure function of it.
  const std::uint64_t salt = rng.NextSeed();
  return ShardedGreedy(problem, universe, options.p, options.num_shards,
                       options.per_shard, salt);
}

}  // namespace diverse
