// Request/response types for the serving engine.
//
// A Query is one diversification request against whatever corpus version
// is current when a worker picks it up: subset size p, an optional
// per-query relevance function (the "f" of the paper's objective, e.g. a
// user's personalized scores over the shared corpus), an optional lambda
// override, an algorithm choice, an optional matroid or knapsack
// constraint, and an execution-plan choice (single-node incremental path
// vs. the sharded two-round plan).
#ifndef DIVERSE_ENGINE_QUERY_H_
#define DIVERSE_ENGINE_QUERY_H_

#include <cstdint>
#include <vector>

#include "matroid/matroid.h"

namespace diverse {
namespace obs {
class QueryTrace;
}  // namespace obs

namespace engine {

enum class QueryAlgorithm {
  kGreedy,       // Greedy B over the live candidates (default)
  kLocalSearch,  // matroid local search; uses `matroid` or uniform rank p
  kKnapsack,     // density greedy under `costs` / `budget`
};

enum class PlanKind {
  kSingleNode,     // one SolutionState scan run over all live candidates
  kSharded,        // hash-partitioned two-round GreeDi plan (greedy only)
  kRemoteSharded,  // same plan, per-shard kernels on remote nodes via the
                   // configured RemoteExecutor (src/rpc/coordinator.h);
                   // bit-equal to kSharded at the same snapshot version
};

struct Query {
  int p = 0;
  // Trade-off override; negative means "use the corpus default".
  double lambda = -1.0;
  // Per-query relevance, indexed by element id. Empty: corpus weights.
  // Shorter than the snapshot's id space (an insert raced the query):
  // missing entries count as 0; longer: the tail is ignored.
  std::vector<double> relevance;

  QueryAlgorithm algorithm = QueryAlgorithm::kGreedy;
  PlanKind plan = PlanKind::kSingleNode;
  // Sharded plan: shard count (0 = engine default) and per-shard yield
  // (0 = p). `shard_salt` makes the partition reproducible; results are a
  // pure function of (snapshot, query), independent of worker count.
  int num_shards = 0;
  int per_shard = 0;
  std::uint64_t shard_salt = 0;

  // kLocalSearch: optional constraint; must outlive the query. Ids beyond
  // its ground set (inserts that raced the query) are never picked. Null:
  // uniform matroid of rank p over the snapshot's id space.
  const Matroid* matroid = nullptr;

  // kKnapsack: per-id costs and budget (ids beyond costs.size() cost 0).
  std::vector<double> costs;
  double budget = 0.0;

  // Optional span recorder (obs/query_trace.h); must outlive the query's
  // future. Observation-only: a traced query returns bit-identical
  // elements to the same query untraced. Null = no tracing.
  obs::QueryTrace* trace = nullptr;
};

struct QueryResult {
  std::vector<int> elements;
  double objective = 0.0;
  // Always true: every plan answers, and the remote plan runs a failed
  // shard's kernel locally. Kept only because servebench reads it; listed
  // for deletion with the other servebench-only stubs (ROADMAP item 8).
  bool ok = true;
  // Corpus version the query was served from — the snapshot-isolation
  // witness: the result is exactly what the chosen algorithm produces on
  // this version, regardless of concurrent updates.
  std::uint64_t corpus_version = 0;
  // Submit-to-completion latency (queueing included) for engine queries;
  // pure execution time for synchronous ones.
  double latency_seconds = 0.0;
  long long steps = 0;
};

}  // namespace engine
}  // namespace diverse

#endif  // DIVERSE_ENGINE_QUERY_H_
