// ShardNode — one RPC worker holding a full corpus replica and answering
// per-shard Greedy B kernel queries for the coordinator.
//
// The replica is an engine::Corpus seeded from the same baseline (weights,
// metric, lambda — version 0) as the coordinator's corpus and kept in sync
// by applying CorpusUpdateBatch epochs strictly in version order: a batch
// whose from_version is ahead of the replica is refused with
// kVersionMismatch (the coordinator then resends the gap), and epochs at
// or below the replica's version are skipped, making replayed batches
// idempotent. Kernel queries run only when the replica is exactly at the
// requested snapshot version, which is what makes the coordinator's merged
// answer bit-equal to the in-process ShardedGreedy plan. Kernels are
// greedy-only and run the plain full scan.
//
// Durability & bootstrap (src/snapshot): a node can also cold-start from a
// decoded checkpoint (engine::CorpusState) at any version, or completely
// empty — an empty node answers every query and epoch batch with
// kVersionMismatch at version 0 until the coordinator streams it a full
// snapshot image (SnapshotOffer + SnapshotChunk, resumable across
// reconnects), after which it joins ordinary epoch replay. With a
// CheckpointStore configured the node persists its replica every
// checkpoint_every epochs and after every snapshot install, so a restart
// resumes from disk instead of re-replaying or re-transferring.
//
// Handle() is the transport-agnostic entry point: one decoded-validated-
// executed request per call, always returning an encoded reply (malformed
// input yields a kError reply, never an abort — the frame crossed a trust
// boundary). Queries are lock-free on corpus data (snapshot acquisition);
// update batches and snapshot chunks serialize on an apply mutex. Safe to
// call from multiple transport threads.
#ifndef DIVERSE_RPC_SHARD_NODE_H_
#define DIVERSE_RPC_SHARD_NODE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "engine/corpus.h"
#include "engine/query.h"
#include "metric/dense_metric.h"
#include "obs/metric_registry.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "snapshot/checkpoint_store.h"

namespace diverse {
namespace rpc {

class ShardNode : public Handler {
 public:
  struct Options {
    // When set, the replica checkpoints itself into this store (which
    // must outlive the node) every `checkpoint_every` applied epochs and
    // after every snapshot install. Saves happen on the apply path —
    // replica sync pauses for the write, queries do not. Steady-state
    // epoch checkpoints persist a delta (the epoch tail since the last
    // save, see CheckpointStore::SaveDelta) instead of re-encoding the
    // whole replica, which is what makes checkpoint_every=1 viable for
    // large corpora.
    snapshot::CheckpointStore* checkpoint = nullptr;
    int checkpoint_every = 16;
    // Mirror observers, called under the apply mutex AFTER the replica
    // advanced: every applied epoch with the version it produced, and
    // every installed snapshot image with its encoded bytes. This is how
    // replication::StandbyCoordinator folds the sync stream it consumes
    // into its own ReplicationLog.
    std::function<void(std::uint64_t version,
                       std::span<const engine::CorpusUpdate> updates)>
        on_epoch_applied;
    std::function<void(
        std::uint64_t version,
        const std::shared_ptr<const std::vector<std::uint8_t>>& image)>
        on_snapshot_installed;
    // Sampled-tracing sink (must outlive the node): roughly 1 in
    // trace_sample_every kernel queries records its kernel span into
    // this buffer, feeding the node's /tracez. Observation-only — the
    // kernel never sees the trace.
    obs::TraceBuffer* trace_buffer = nullptr;
    std::uint32_t trace_sample_every = 64;  // <= 1 samples every query
  };

  struct Stats {
    long long queries = 0;
    long long version_mismatches = 0;
    long long epochs_applied = 0;
    long long rejected = 0;  // decode failures + invalid requests
    long long snapshot_chunks = 0;     // chunk frames accepted
    long long snapshots_installed = 0; // full images decoded + restored
    long long checkpoints_saved = 0;
    long long traced_queries = 0;  // kernel queries with a nonzero trace id
  };

  // Version-0 replica baseline; must match the coordinator's corpus.
  ShardNode(std::vector<double> weights, DenseMetric metric, double lambda,
            Options options);
  ShardNode(std::vector<double> weights, DenseMetric metric, double lambda)
      : ShardNode(std::move(weights), std::move(metric), lambda, Options()) {}

  // Cold start from a loaded checkpoint or transferred image, at the
  // image's version.
  ShardNode(engine::CorpusState state, Options options);
  explicit ShardNode(engine::CorpusState state)
      : ShardNode(std::move(state), Options()) {}

  // Bootstrap node: empty replica with no baseline. Refuses queries and
  // epoch replay (kVersionMismatch at version 0) until the coordinator
  // installs a snapshot.
  explicit ShardNode(Options options);
  ShardNode() : ShardNode(Options()) {}

  // Serves one request payload (wire.h), returning the encoded reply.
  std::vector<std::uint8_t> Handle(
      std::span<const std::uint8_t> request_payload) override;

  std::uint64_t version() const { return replica_.version(); }
  const engine::Corpus& replica() const { return replica_; }
  bool awaiting_bootstrap() const {
    return awaiting_bootstrap_.load(std::memory_order_acquire);
  }
  Stats stats() const;

  // The node's own registry (diverse_node_* counters, replica-version
  // gauge, kernel latency histogram). Owned so a StatsRequest can always
  // be served, whatever process the node is embedded in; what Handle()
  // renders for kStatsRequest and what shard_node_cli dumps.
  const obs::MetricRegistry& registry() const { return registry_; }

 private:
  // A partially transferred snapshot image, kept across interrupted
  // transfers so a reconnecting coordinator resumes at next_chunk
  // instead of restarting from zero. Guarded by apply_mu_.
  struct PendingSnapshot {
    std::uint64_t version = 0;
    std::uint64_t total_bytes = 0;
    std::uint32_t chunk_bytes = 0;
    std::uint32_t num_chunks = 0;
    std::uint32_t next_chunk = 0;
    std::vector<std::uint8_t> bytes;
  };

  // `received`/`decoded` are Handle()'s steady-clock stamps for request
  // arrival and decode completion: the origin and first stamp of the
  // NodeTiming a traced response carries back.
  std::vector<std::uint8_t> HandleQuery(
      const ShardQueryRequest& request,
      std::chrono::steady_clock::time_point received,
      std::chrono::steady_clock::time_point decoded);
  std::vector<std::uint8_t> HandleUpdates(const CorpusUpdateBatch& batch);
  std::vector<std::uint8_t> HandleOffer(const SnapshotOffer& offer);
  std::vector<std::uint8_t> HandleChunk(const SnapshotChunk& chunk);
  std::vector<std::uint8_t> HandleStats(const StatsRequest& request);
  void MaybeCheckpoint(const std::vector<std::uint8_t>* encoded_image);
  void RegisterMetrics();

  engine::Corpus replica_;
  const Options options_;
  std::unique_ptr<obs::TraceSampler> sampler_;  // iff trace_buffer set
  std::atomic<bool> awaiting_bootstrap_{false};
  std::mutex apply_mu_;  // serializes update batches (version-order gate)
                         // and snapshot transfers
  std::optional<PendingSnapshot> pending_;  // guarded by apply_mu_
  int epochs_since_checkpoint_ = 0;         // guarded by apply_mu_
  // Epochs applied since the last successful checkpoint — the delta
  // payload. pending_from_ is the replica version the chain extends.
  // Guarded by apply_mu_; only accumulated while a store is configured.
  std::uint64_t pending_from_ = 0;
  std::vector<std::vector<engine::CorpusUpdate>> pending_epochs_;

  obs::Counter queries_;
  obs::Counter version_mismatches_;
  obs::Counter epochs_applied_;
  obs::Counter rejected_;
  obs::Counter snapshot_chunks_;
  obs::Counter snapshots_installed_;
  obs::Counter checkpoints_saved_;
  obs::Counter traced_queries_;
  obs::Histogram kernel_latency_hist_;  // per-shard kernel execution time

  obs::MetricRegistry registry_;
  // Declared last so the views unregister before anything they read dies.
  std::vector<obs::MetricRegistry::Registration> registrations_;
};

}  // namespace rpc
}  // namespace diverse

#endif  // DIVERSE_RPC_SHARD_NODE_H_
