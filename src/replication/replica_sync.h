// ReplicaSyncService — the "who syncs replicas" half of
// rpc::Coordinator: per-target acked-version tracking, epoch
// publish fan-out, catch-up (epoch replay and/or snapshot transfer), and
// the acked-table mirror that keeps standby coordinators promotable.
//
// The service is parameterized over a ReplicationLog (the epoch/image
// source) and two lists of transports:
//
//   * nodes   — shard replicas, indices [0, num_nodes()); the
//     coordinator fans kernel requests across exactly these.
//   * mirrors — sync-only targets (standby coordinators), indices
//     [num_nodes(), num_targets()). A standby is literally a sync target
//     that also receives the acked table: Publish pushes every epoch to
//     the mirrors FIRST, then to the nodes, then an AckedTableSync to
//     the mirrors — so a reachable standby never trails any replica, and
//     promotion can resume publishing from the mirrored tail without
//     rewinding anyone.
//
// Divergence quarantine: a target flagged needs_reimage holds epochs
// from a dead coordinator's lineage beyond the adopted log (detected by
// the promote-time probe). Epoch replay onto it would silently interleave
// two histories, so catch-up for such a target is snapshot-only until an
// image newer than the target's state installs and replaces the replica
// wholesale; until then queries fall back locally (still bit-equal).
//
// Thread-safety: all methods may be called concurrently (engine workers,
// updater threads, a compaction loop).
#ifndef DIVERSE_REPLICATION_REPLICA_SYNC_H_
#define DIVERSE_REPLICATION_REPLICA_SYNC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "engine/corpus.h"
#include "obs/metric_registry.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/trace_buffer.h"
#include "replication/replication_log.h"
#include "rpc/transport.h"

namespace diverse {
namespace replication {

// Adopted tracking state for one target — the promotion seed. `acked` is
// the last known replica version; `needs_reimage` quarantines a target
// whose state is ahead of the adopted log (see class comment).
struct ReplicaSeed {
  std::uint64_t acked = 0;
  bool needs_reimage = false;
};

// Asks `node` for its authoritative replica version with an empty epoch
// batch (from_version 0: always answered, never applied). Returns false
// when the node is unreachable or replies garbage.
bool ProbeVersion(rpc::Transport* node, std::uint64_t* version);

// Builds the promotion seeds for adopting `nodes` at a takeover whose
// corpus fold is at `version`: each node is probed (the authoritative
// answer), falling back to `advisory_acked` (a mirrored table, possibly
// stale/short) when unreachable, and any node AHEAD of the fold is
// quarantined (needs_reimage) — it holds epochs of the dead
// coordinator's lineage that the takeover never saw. Shared by
// StandbyCoordinator::Promote and the engine_server_cli --promote path
// so both quarantine identically.
std::vector<ReplicaSeed> BuildPromotionSeeds(
    const std::vector<rpc::Transport*>& nodes, std::uint64_t version,
    const std::vector<std::uint64_t>& advisory_acked);

class ReplicaSyncService {
 public:
  // The one options struct of the coordinator side; rpc::Coordinator
  // takes it as is.
  struct Options {
    // Slice size for snapshot transfers; must leave frame headroom
    // (clamped to wire.h kMaxFrameBytes - 64).
    std::uint32_t snapshot_chunk_bytes = 1u << 20;
    // Replication-trace sink (must outlive the service): roughly 1 in
    // replication_trace_sample_every publishes and query-path catch-ups
    // records its fan-out/replay/snapshot-chunk timeline here, feeding
    // the coordinator's /tracez?kind=replication. Observation-only.
    // Null = untraced.
    obs::TraceBuffer* replication_traces = nullptr;
    // <= 1 traces every operation.
    std::uint32_t replication_trace_sample_every = 8;
  };

  // The service's counters, published as diverse_sync_* by
  // RegisterMetrics.
  struct Counters {
    obs::Counter catchup_batches;       // replay batches sent
    obs::Counter snapshots_sent;        // bootstrap transfers started
    obs::Counter snapshot_chunks_sent;  // chunk frames sent
    obs::Counter acked_syncs_sent;      // acked-table frames mirrored
  };

  // `log` and every transport must outlive the service; `nodes` holds at
  // least one entry, all entries distinct and non-null. `seeds` (empty =
  // all zero) adopts an existing tracking table, node entries first.
  ReplicaSyncService(ReplicationLog* log,
                     std::vector<rpc::Transport*> nodes,
                     std::vector<rpc::Transport*> mirrors, Options options,
                     std::vector<ReplicaSeed> seeds = {});

  int num_nodes() const { return num_nodes_; }
  int num_targets() const { return static_cast<int>(targets_.size()); }
  rpc::Transport* transport(int target) const { return targets_[target]; }

  // Appends the epoch that advanced the corpus to `version` to the log
  // and fans it out best-effort: mirrors first, nodes second, acked
  // table to the mirrors last. An unreachable or lagging target is left
  // to catch-up (re-attempted here when its mismatch ack reveals it).
  void Publish(std::uint64_t version,
               std::span<const engine::CorpusUpdate> updates);

  // Brings the target from `from` to exactly `to`: snapshot transfer
  // when the log no longer reaches back to `from`, the target refuses
  // replay outright (bootstrap node), or the target is quarantined;
  // epoch replay for the rest. False leaves the caller to run the
  // target's shard kernel locally.
  bool CatchUpTarget(int target, std::uint64_t from, std::uint64_t to);

  void SetAcked(int target, std::uint64_t version);
  std::uint64_t GetAcked(int target) const;
  // Minimum acked version over every target, mirrors included — a
  // standby pins log compaction exactly like a lagging node, keeping its
  // catch-up cheap.
  std::uint64_t MinAcked() const;
  bool NeedsReimage(int target) const;
  // The node entries of the tracking table (what AckedTableSync carries).
  std::vector<std::uint64_t> acked_table() const;

  const Counters& counters() const { return counters_; }

  // Publishes the service's counters into `registry` (diverse_sync_*),
  // plus per-target replication-lag gauges:
  // diverse_replica_acked_version{target="..."} and
  // diverse_replication_lag_epochs{target="..."} (published − acked,
  // floored at 0). The registry must outlive the service; calling again
  // replaces the previous registrations.
  void RegisterMetrics(obs::MetricRegistry* registry);

 private:
  enum class EpochSendResult { kOk, kFailed, kRefused };
  // "node<i>" for query nodes, "mirror<j>" for sync-only targets — the
  // label replication spans and lag gauges carry.
  std::string TargetLabel(int target) const;
  // One epoch-log replay batch [from, to). kRefused means the target
  // answered kVersionMismatch — its real version is in *target_version.
  // `trace` (nullable) collects the replay span.
  EpochSendResult SendEpochs(int target, std::uint64_t from,
                             std::uint64_t to, std::uint64_t* target_version,
                             obs::QueryTrace* trace);
  // Streams the retained bootstrap image, resuming where the target's
  // SnapshotAck points. On success *installed_version is the target's
  // (authoritative) version afterwards — the image's version, or higher
  // when the target was already past it — and the quarantine is lifted.
  // `trace` (nullable) collects offer + per-chunk spans.
  bool SendSnapshot(int target, std::uint64_t* installed_version,
                    obs::QueryTrace* trace);
  // CatchUpTarget's worker; the public entry point wraps it in a sampled
  // replication trace.
  bool CatchUpTraced(int target, std::uint64_t from, std::uint64_t to,
                     obs::QueryTrace* trace);
  void SyncAckedTable();

  ReplicationLog* const log_;
  const std::vector<rpc::Transport*> targets_;  // nodes, then mirrors
  const int num_nodes_;
  const Options options_;
  std::unique_ptr<obs::TraceSampler> sampler_;  // iff replication_traces set

  mutable std::mutex mu_;
  // Last authoritative replica version per target (acks + query replies);
  // assigned, not maxed, so a silently restarted node corrects the
  // tracking on first contact.
  std::vector<std::uint64_t> acked_;
  std::vector<bool> needs_reimage_;

  Counters counters_;
  // Declared last so the views unregister before anything they read dies.
  std::vector<obs::MetricRegistry::Registration> registrations_;
};

}  // namespace replication
}  // namespace diverse

#endif  // DIVERSE_REPLICATION_REPLICA_SYNC_H_
