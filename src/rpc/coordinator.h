// Coordinator — the coordinator side of cross-node sharding: one
// ReplicationLog (epoch log + retained bootstrap image), one
// ReplicaSyncService (per-target acked tracking, publish fan-out,
// catch-up, snapshot transfer, standby mirroring), and the
// engine::RemoteExecutor itself, which fans shard kernels out to the
// nodes and merges, bit-equal to the in-process sharded plan.
//
//   * PublishEpoch appends the epoch that advanced the corpus owner to
//     `version` and pushes it to every target best-effort (standby
//     mirrors FIRST, so a reachable standby never trails a replica),
//     with unreachable or lagging targets left to catch-up.
//   * CompactLog folds a corpus snapshot into the retained bootstrap
//     image and truncates the epoch log below min(every target's acked
//     version, image version, contiguous published prefix).
//   * ExecuteSharded answers kRemoteSharded queries through
//     algorithms/distributed.h's RunShardRound and MergeShardSolutions,
//     the two rounds ShardedGreedy runs. Shard s goes to node s mod N in
//     parallel (one thread per busy node). When the tracked version says
//     a node is behind the query's snapshot, it is caught up BEFORE the
//     ask; the kVersionMismatch round-trip only fires when the tracking
//     is stale (a silently restarted node). A node one epoch ahead still
//     answers from its one-version ring (see shard_node.h), and every
//     answer records the node's latest version as its tracked one. A node
//     that cannot serve the exact version (further ahead, or re-imaged
//     since), is unreachable, or answers with something its shard could
//     not produce has that shard's kernel run on the coordinator instead.
//     Over SocketTransport the kernel asks and the replication traffic
//     (publishes, catch-ups) use separate connections per node, so a
//     publish does not wait behind queries in flight. Every scoring
//     decision uses the coordinator's own problem view of the query's
//     snapshot, so the answer is a pure function of (snapshot, query,
//     num_shards), bit-equal to PlanKind::kSharded — the property
//     tests/rpc_test.cc asserts.
//
// Active/standby: construct with `mirrors` naming the standby
// coordinators to keep in sync; a replication::StandbyCoordinator on the
// other end folds the same epoch stream into its own corpus and log, and
// its Promote() builds a new Coordinator (via the log-adopting
// constructor below) that resumes publishing from the mirrored tail —
// answers bit-equal across a kill-active/promote-standby cycle because
// corpus state is a deterministic fold of the versioned epoch stream.
//
// Thread-safety: ExecuteSharded, PublishEpoch, and CompactLog may be
// called concurrently from any threads (engine workers, an updater, a
// checkpointing loop).
#ifndef DIVERSE_RPC_COORDINATOR_H_
#define DIVERSE_RPC_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/corpus.h"
#include "engine/execution_plan.h"
#include "engine/query.h"
#include "obs/metric_registry.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "replication/replica_sync.h"
#include "replication/replication_log.h"
#include "rpc/transport.h"
#include "rpc/wire.h"

namespace diverse {
namespace rpc {

class Coordinator : public engine::RemoteExecutor {
 public:
  using Options = replication::ReplicaSyncService::Options;

  // `nodes` (one transport per shard node, all distinct) must outlive the
  // coordinator and hold at least one entry; `mirrors` (possibly empty)
  // names the standby coordinators to keep in sync.
  Coordinator(std::vector<Transport*> nodes, std::vector<Transport*> mirrors,
              Options options);
  Coordinator(std::vector<Transport*> nodes, Options options)
      : Coordinator(std::move(nodes), {}, options) {}
  explicit Coordinator(std::vector<Transport*> nodes)
      : Coordinator(std::move(nodes), {}, Options()) {}

  // Promotion path (replication::StandbyCoordinator::Promote): adopts a
  // mirrored log and per-node tracking seeds instead of starting empty,
  // so publishing resumes from the mirrored tail and lagging replicas
  // are caught up with the exact epochs the dead active published.
  Coordinator(std::shared_ptr<replication::ReplicationLog> log,
              std::vector<replication::ReplicaSeed> seeds,
              std::vector<Transport*> nodes, std::vector<Transport*> mirrors,
              Options options);

  // Records the update epoch that advanced the corpus owner to `version`
  // (i.e. pass exactly what ApplyUpdates was given and what it returned)
  // and pushes it to every target, best-effort. Safe to call from
  // concurrent updater threads: the epoch is slotted into the log at
  // version - 1, so a race between publishers cannot reorder the replay
  // log relative to the versions Corpus::Apply assigned. Publishing the
  // same version twice is a caller bug and CHECK-aborts.
  void PublishEpoch(std::uint64_t version,
                    std::span<const engine::CorpusUpdate> updates);

  // Folds `snapshot` into the retained bootstrap image (if it is newer
  // than the current one) and truncates the epoch log below
  // min(min over targets of acked version, image version, contiguous
  // published prefix — acks cross a trust boundary and must not truncate
  // a slot a concurrent publish has not filled yet). Epochs below the
  // cut survive only inside the image; targets that still needed them
  // are bootstrapped by snapshot transfer instead. Returns the new log
  // start. A target that never acks (down since birth) pins truncation
  // at 0 but not the bootstrap image — it is still snapshot-reachable.
  // A corpus too large for the image format is not retained and nothing
  // is truncated (see snapshot::FitsSnapshotFormat).
  std::uint64_t CompactLog(const engine::CorpusSnapshot& snapshot);

  // Length of the contiguous published prefix of the epoch log — the
  // corpus version replicas can currently converge to.
  std::uint64_t published_version() const {
    return log_->published_version();
  }
  // First version still replayable from the epoch log (0 = never
  // compacted). Epochs in [log_start, published_version) are retained.
  std::uint64_t log_start() const { return log_->log_start(); }
  // Version of the retained bootstrap image (0 = none retained).
  std::uint64_t retained_snapshot_version() const {
    return log_->retained_version();
  }

  // engine::RemoteExecutor (see the file comment). Always answers.
  engine::QueryResult ExecuteSharded(const engine::CorpusSnapshot& snapshot,
                                     const engine::Query& query,
                                     int num_shards) override;

  struct Stats {
    long long remote_shards = 0;      // shard kernels answered by a node
    long long local_fallbacks = 0;    // shard kernels run on-box instead
    long long version_mismatches = 0; // stale-replica query responses seen
    long long catchup_batches = 0;    // replay batches sent
    long long proactive_catchups = 0; // catch-ups sent before the query
                                      // (tracked version, no mismatch
                                      // round-trip)
    long long snapshots_sent = 0;       // bootstrap transfers started
    long long snapshot_chunks_sent = 0; // chunk frames sent
    long long compactions = 0;          // CompactLog calls
    long long acked_syncs_sent = 0;     // acked-table frames mirrored
  };
  Stats stats() const;

  // Publishes the coordinator's metrics into `registry`: its query-path
  // counters (diverse_router_*), the sync service's (diverse_sync_*), and
  // the log's gauges (diverse_log_published_version, diverse_log_start,
  // diverse_log_retained_snapshot_version, diverse_log_compactions). The
  // registry must outlive the coordinator.
  void RegisterMetrics(obs::MetricRegistry* registry);

  int num_nodes() const { return sync_.num_nodes(); }

  const replication::ReplicationLog& log() const { return *log_; }
  replication::ReplicaSyncService& sync() { return sync_; }

 private:
  // One shard's remote round-trip including proactive catch-up and
  // mismatch-driven rounds; false leaves the shard to run locally. On
  // success *elements/*steps hold the validated kernel solution. `trace`
  // (nullable) collects catchup.node<k> spans plus the node's
  // NodeTiming, which QueryTrace::spans() renders as
  // "rpc.shard<s>/<phase> node=<k>" spans (QueryTrace::AddNodeTiming).
  bool RunShardRemote(const engine::CorpusSnapshot& snapshot,
                      const ShardQueryRequest& request,
                      obs::QueryTrace* trace, std::vector<int>* elements,
                      long long* steps);

  std::shared_ptr<replication::ReplicationLog> log_;
  replication::ReplicaSyncService sync_;

  obs::Counter remote_shards_;
  obs::Counter local_fallbacks_;
  obs::Counter version_mismatches_;
  obs::Counter proactive_catchups_;
  // Declared last so the views unregister before anything they read dies.
  std::vector<obs::MetricRegistry::Registration> registrations_;
};

}  // namespace rpc
}  // namespace diverse

#endif  // DIVERSE_RPC_COORDINATOR_H_
