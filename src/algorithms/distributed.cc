#include "algorithms/distributed.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

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

// The one partition loop: appends each candidate, in input order, to
// out[shard - first] when its shard lies in [first, first + out.size()).
void PartitionInto(std::span<const int> candidates, int num_shards,
                   std::uint64_t salt, int first,
                   std::span<std::vector<int>> out) {
  for (int e : candidates) {
    const int slot = ShardOf(salt, e, num_shards) - first;
    if (slot >= 0 && slot < static_cast<int>(out.size())) {
      out[slot].push_back(e);
    }
  }
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
  PartitionInto(candidates, num_shards, salt, 0, shards);
  return shards;
}

std::vector<int> ShardCandidates(std::span<const int> candidates,
                                 int num_shards, std::uint64_t salt,
                                 int shard_index) {
  DIVERSE_CHECK(shard_index >= 0 && shard_index < num_shards);
  std::vector<int> shard;
  PartitionInto(candidates, num_shards, salt, shard_index,
                std::span<std::vector<int>>(&shard, 1));
  return shard;
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

std::vector<std::vector<int>> RunShardRound(
    const DiversificationProblem& problem, std::span<const int> candidates,
    int p, int num_shards, int per_shard, std::uint64_t salt,
    const RemoteShardRound& remote, long long* steps) {
  if (per_shard <= 0) per_shard = p;
  const std::vector<std::vector<int>> shards =
      AssignShards(candidates, num_shards, salt);
  std::vector<std::optional<ShardSolution>> arrived(shards.size());
  if (remote) arrived = remote(shards, per_shard);
  DIVERSE_CHECK(arrived.size() == shards.size());
  std::vector<std::vector<int>> local_solutions;
  local_solutions.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].empty()) continue;
    if (!arrived[s]) {
      AlgorithmResult local =
          GreedyVertexOnCandidates(problem, shards[s], per_shard);
      arrived[s] = ShardSolution{std::move(local.elements), local.steps};
    }
    *steps += arrived[s]->steps;
    local_solutions.push_back(std::move(arrived[s]->elements));
  }
  return local_solutions;
}

AlgorithmResult ShardedGreedy(const DiversificationProblem& problem,
                              std::span<const int> candidates, int p,
                              int num_shards, int per_shard,
                              std::uint64_t salt) {
  DIVERSE_CHECK(p >= 0);
  WallTimer timer;
  long long shard_steps = 0;
  const std::vector<std::vector<int>> local_solutions = RunShardRound(
      problem, candidates, p, num_shards, per_shard, salt, {}, &shard_steps);
  AlgorithmResult result = MergeShardSolutions(problem, local_solutions, p);
  result.steps += shard_steps;
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
