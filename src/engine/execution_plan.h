// Pluggable execution plans: how one Query is answered on one snapshot.
//
// ExecuteQuery is a pure function of (snapshot, query): it builds the
// per-query problem view (relevance + lambda rebinding via the
// DiversificationProblem snapshot hooks) and dispatches on the plan. Every
// algorithm runs over one candidate list, snapshot.candidates() (the live
// ids, ascending): each *OnCandidates entry restricts the problem to the
// list (core/restricted_problem.h), runs the plain algorithm over local
// ids and maps the answer back, so retired ids are never scanned and an
// answer equals the same query on the corpus rebuilt from the live ids:
//
//   * kSingleNode — GreedyVertexOnCandidates, LocalSearchOnCandidates (over
//     the candidates below the matroid's ground size, so a matroid built
//     before an insert epoch never admits the new ids), or
//     KnapsackGreedyOnCandidates;
//   * kSharded — the deterministic hash-partitioned two-round plan
//     (algorithms/distributed.h), reusing GreedyVertexOnCandidates as the
//     per-shard kernel and the composable-core-set safeguard as merge;
//   * kRemoteSharded — the same two-round plan with the per-shard kernels
//     executed on remote replicas through the RemoteExecutor seam below
//     (implemented by rpc::Coordinator). Because the remote kernels run
//     the identical code on version-checked replicas, its answers are
//     bit-equal to kSharded on the same snapshot.
//
// Purity is what makes the engine's answers independent of worker-pool
// size and of when the worker picked the job up within an epoch.
#ifndef DIVERSE_ENGINE_EXECUTION_PLAN_H_
#define DIVERSE_ENGINE_EXECUTION_PLAN_H_

#include <memory>
#include <variant>
#include <vector>

#include "engine/corpus.h"
#include "engine/query.h"

namespace diverse {
namespace engine {

// The per-query problem view over one snapshot: per-query relevance
// (resized to the snapshot's id space, missing entries 0) rebound via
// WithQuality, and an optional lambda override (negative keeps the corpus
// default). Shared by every execution path — local plans, the RPC
// coordinator's merge round, and shard-node kernels — so that all of them
// evaluate the exact same objective. `relevance` owns the rebound quality
// function (heap-allocated so the view is movable); null when the corpus
// weights serve.
struct ProblemView {
  std::unique_ptr<ModularFunction> relevance;
  DiversificationProblem problem;
};

ProblemView MakeProblemView(const CorpusSnapshot& snapshot,
                            std::vector<double> relevance, double lambda);

// Executes the sharded two-round plan with per-shard kernels off-box.
// Implementations must be pure functions of (snapshot, query, num_shards)
// — rpc::Coordinator, the one implementation, achieves this by running
// both rounds through algorithms/distributed.h's RunShardRound and
// MergeShardSolutions, enforcing snapshot-version agreement with its
// replicas, and running a shard's kernel locally when a node cannot serve
// the version.
class RemoteExecutor {
 public:
  virtual ~RemoteExecutor() = default;
  // `num_shards` is the resolved shard count (query.num_shards or the
  // engine default). Must set result.corpus_version = snapshot.version().
  virtual QueryResult ExecuteSharded(const CorpusSnapshot& snapshot,
                                     const Query& query, int num_shards) = 0;
};

struct PlanDefaults {
  int num_shards = 4;  // used when query.num_shards == 0
  // Required for PlanKind::kRemoteSharded queries; unused otherwise.
  RemoteExecutor* remote = nullptr;
  // Inert; only servebench/serving.cc reads it (assigned from
  // engine::Options::eval).
  std::monostate eval{};
};

// Answers `query` on `snapshot`. latency_seconds is the execution time
// only; the engine overwrites it with queue-inclusive latency.
QueryResult ExecuteQuery(const CorpusSnapshot& snapshot, const Query& query,
                         const PlanDefaults& defaults = {});

}  // namespace engine
}  // namespace diverse

#endif  // DIVERSE_ENGINE_EXECUTION_PLAN_H_
