#include "replication/replica_sync.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "util/check.h"

namespace diverse {
namespace replication {
namespace {

std::vector<rpc::Transport*> Concat(
    std::vector<rpc::Transport*> nodes,
    const std::vector<rpc::Transport*>& mirrors) {
  nodes.insert(nodes.end(), mirrors.begin(), mirrors.end());
  return nodes;
}

}  // namespace

bool ProbeVersion(rpc::Transport* node, std::uint64_t* version) {
  // An empty batch at from_version 0 is always answerable and never
  // applies anything: a live replica skip-acks kOk with its version, a
  // bootstrap node reports kVersionMismatch at 0. Either way the ack's
  // node_version is the authoritative answer.
  rpc::CorpusUpdateBatch probe;
  std::vector<std::uint8_t> reply;
  if (!node->Call(rpc::Encode(probe), &reply)) return false;
  rpc::UpdateAck ack;
  if (!rpc::Decode(reply, &ack)) return false;
  *version = ack.node_version;
  return true;
}

std::vector<ReplicaSeed> BuildPromotionSeeds(
    const std::vector<rpc::Transport*>& nodes, std::uint64_t version,
    const std::vector<std::uint64_t>& advisory_acked) {
  std::vector<ReplicaSeed> seeds(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i < advisory_acked.size()) seeds[i].acked = advisory_acked[i];
    std::uint64_t probed;
    if (ProbeVersion(nodes[i], &probed)) seeds[i].acked = probed;
    seeds[i].needs_reimage = seeds[i].acked > version;
  }
  return seeds;
}

ReplicaSyncService::ReplicaSyncService(ReplicationLog* log,
                                       std::vector<rpc::Transport*> nodes,
                                       std::vector<rpc::Transport*> mirrors,
                                       Options options,
                                       std::vector<ReplicaSeed> seeds)
    : log_(log),
      targets_(Concat(std::move(nodes), mirrors)),
      num_nodes_(static_cast<int>(targets_.size() - mirrors.size())),
      options_(options) {
  DIVERSE_CHECK(log_ != nullptr);
  DIVERSE_CHECK_MSG(num_nodes_ >= 1, "sync service needs at least one node");
  DIVERSE_CHECK(options_.snapshot_chunk_bytes >= 1);
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    DIVERSE_CHECK(targets_[i] != nullptr);
    for (std::size_t j = 0; j < i; ++j) {
      DIVERSE_CHECK_MSG(targets_[i] != targets_[j],
                        "node/mirror transports must be distinct");
    }
  }
  acked_.assign(targets_.size(), 0);
  needs_reimage_.assign(targets_.size(), false);
  DIVERSE_CHECK(seeds.size() <= targets_.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    acked_[i] = seeds[i].acked;
    needs_reimage_[i] = seeds[i].needs_reimage;
  }
  if (options_.replication_traces != nullptr) {
    sampler_ = std::make_unique<obs::TraceSampler>(
        options_.replication_trace_sample_every);
  }
}

std::string ReplicaSyncService::TargetLabel(int target) const {
  return target < num_nodes_
             ? "node" + std::to_string(target)
             : "mirror" + std::to_string(target - num_nodes_);
}

void ReplicaSyncService::SetAcked(int target, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  acked_[target] = version;
}

std::uint64_t ReplicaSyncService::GetAcked(int target) const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_[target];
}

std::uint64_t ReplicaSyncService::MinAcked() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t min_acked = acked_[0];
  for (std::uint64_t acked : acked_) min_acked = std::min(min_acked, acked);
  return min_acked;
}

bool ReplicaSyncService::NeedsReimage(int target) const {
  std::lock_guard<std::mutex> lock(mu_);
  return needs_reimage_[target];
}

std::vector<std::uint64_t> ReplicaSyncService::acked_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::uint64_t>(
      acked_.begin(), acked_.begin() + static_cast<std::ptrdiff_t>(num_nodes_));
}

void ReplicaSyncService::Publish(
    std::uint64_t version, std::span<const engine::CorpusUpdate> updates) {
  log_->Append(version, updates);
  // Sampled replication trace: one publish in trace_sample_every records
  // its whole fan-out (per-target push spans, any inline catch-up work,
  // the acked-table mirror) into the replication buffer.
  std::unique_ptr<obs::QueryTrace> trace;
  if (sampler_ != nullptr && sampler_->Sample()) {
    trace = std::make_unique<obs::QueryTrace>();
  }
  const auto publish_start = obs::QueryTrace::Clock::now();
  rpc::CorpusUpdateBatch batch;
  batch.from_version = version - 1;
  batch.epochs.emplace_back(updates.begin(), updates.end());
  const std::vector<std::uint8_t> encoded = Encode(batch);
  const auto push = [&](int target) {
    obs::ScopedSpan span(trace.get(), "publish." + TargetLabel(target));
    if (NeedsReimage(target)) {
      // Epoch replay onto a quarantined target would silently interleave
      // two histories (the node skips versions it already holds); try to
      // replace its replica wholesale instead.
      CatchUpTraced(target, GetAcked(target), version, trace.get());
      return;
    }
    std::vector<std::uint8_t> reply;
    if (!targets_[target]->Call(encoded, &reply)) return;
    rpc::UpdateAck ack;
    if (!rpc::Decode(reply, &ack)) return;
    SetAcked(target, ack.node_version);
    if (ack.status == rpc::RpcStatus::kVersionMismatch &&
        ack.node_version < batch.from_version) {
      // The target missed earlier epochs too; re-sync it now rather than
      // on the next query's critical path.
      CatchUpTraced(target, ack.node_version, version, trace.get());
    }
  };
  // Mirrors first: a reachable standby must never trail a shard replica,
  // or killing the active after this fan-out would leave the standby
  // unable to resume the nodes' history (promote would quarantine them).
  for (int i = num_nodes_; i < num_targets(); ++i) push(i);
  for (int i = 0; i < num_nodes_; ++i) push(i);
  if (num_targets() > num_nodes_) {
    obs::ScopedSpan span(trace.get(), "acked_sync");
    SyncAckedTable();
  }
  if (trace != nullptr) {
    options_.replication_traces->Add(
        *trace, "publish v" + std::to_string(version),
        std::chrono::duration<double>(obs::QueryTrace::Clock::now() -
                                      publish_start)
            .count(),
        version);
  }
}

void ReplicaSyncService::SyncAckedTable() {
  rpc::AckedTableSync table;
  table.acked = acked_table();
  const std::vector<std::uint8_t> encoded = Encode(table);
  for (int i = num_nodes_; i < num_targets(); ++i) {
    std::vector<std::uint8_t> reply;
    if (!targets_[i]->Call(encoded, &reply)) continue;
    counters_.acked_syncs_sent.Inc();
  }
}

ReplicaSyncService::EpochSendResult ReplicaSyncService::SendEpochs(
    int target, std::uint64_t from, std::uint64_t to,
    std::uint64_t* target_version, obs::QueryTrace* trace) {
  *target_version = 0;
  if (from >= to) return EpochSendResult::kOk;
  rpc::CorpusUpdateBatch batch;
  // Epochs below the compaction cut, beyond the log head, or whose
  // concurrent publish has not landed yet cannot be replayed; the shard
  // falls back to local execution (still bit-equal).
  if (!log_->Slice(from, to, &batch)) return EpochSendResult::kFailed;
  counters_.catchup_batches.Inc();
  obs::ScopedSpan span(trace, "replay." + TargetLabel(target) + " " +
                                  std::to_string(from) + "->" +
                                  std::to_string(to));
  std::vector<std::uint8_t> reply;
  if (!targets_[target]->Call(Encode(batch), &reply)) {
    return EpochSendResult::kFailed;
  }
  rpc::UpdateAck ack;
  if (!rpc::Decode(reply, &ack)) return EpochSendResult::kFailed;
  SetAcked(target, ack.node_version);
  *target_version = ack.node_version;
  if (ack.status == rpc::RpcStatus::kOk && ack.node_version >= to) {
    return EpochSendResult::kOk;
  }
  if (ack.status == rpc::RpcStatus::kVersionMismatch) {
    return EpochSendResult::kRefused;
  }
  return EpochSendResult::kFailed;
}

bool ReplicaSyncService::SendSnapshot(int target,
                                      std::uint64_t* installed_version,
                                      obs::QueryTrace* trace) {
  std::uint64_t version;
  const std::shared_ptr<const std::vector<std::uint8_t>> image =
      log_->image(&version);
  *installed_version = 0;
  if (image == nullptr) return false;
  rpc::Transport* node = targets_[target];
  const std::string label = TargetLabel(target);
  const std::uint32_t chunk_bytes =
      std::min(std::max<std::uint32_t>(options_.snapshot_chunk_bytes, 1),
               rpc::kMaxSnapshotChunkBytes);
  const std::uint32_t num_chunks = static_cast<std::uint32_t>(
      (image->size() + chunk_bytes - 1) / chunk_bytes);

  rpc::SnapshotOffer offer;
  offer.snapshot_version = version;
  offer.total_bytes = image->size();
  offer.chunk_bytes = chunk_bytes;
  offer.num_chunks = num_chunks;
  std::vector<std::uint8_t> reply;
  bool offer_ok;
  {
    obs::ScopedSpan span(trace, "snapshot.offer." + label + " v" +
                                    std::to_string(version));
    offer_ok = node->Call(Encode(offer), &reply);
  }
  if (!offer_ok) return false;
  rpc::SnapshotAck ack;
  if (!rpc::Decode(reply, &ack)) return false;
  if (ack.status == rpc::RpcStatus::kVersionMismatch) {
    // Already at or past the image; nothing to stream. For a quarantined
    // target this is NOT recovery — its replica was never replaced, so
    // the flag stays up until a newer image lands.
    SetAcked(target, ack.node_version);
    *installed_version = ack.node_version;
    return ack.node_version >= version;
  }
  if (ack.status != rpc::RpcStatus::kOk || ack.snapshot_version != version ||
      ack.next_chunk >= num_chunks) {
    return false;
  }
  counters_.snapshots_sent.Inc();

  // Stream from wherever the target's partial image ends (resume point).
  // The first kMaxChunkSpans chunks get individual spans; a longer
  // transfer's tail collapses into one aggregate span so a huge image
  // cannot bloat the trace.
  constexpr std::uint32_t kMaxChunkSpans = 32;
  const std::uint32_t first_chunk = ack.next_chunk;
  std::optional<obs::ScopedSpan> tail_span;
  for (std::uint32_t c = first_chunk; c < num_chunks; ++c) {
    std::optional<obs::ScopedSpan> chunk_span;
    if (c - first_chunk < kMaxChunkSpans) {
      chunk_span.emplace(trace, "snapshot.chunk" + std::to_string(c) + "." +
                                    label);
    } else if (c - first_chunk == kMaxChunkSpans) {
      tail_span.emplace(trace, "snapshot.chunks" + std::to_string(c) + "-" +
                                   std::to_string(num_chunks - 1) + "." +
                                   label);
    }
    rpc::SnapshotChunk chunk;
    chunk.snapshot_version = version;
    chunk.chunk_index = c;
    const std::size_t offset = std::size_t{c} * chunk_bytes;
    const std::size_t len =
        std::min<std::size_t>(chunk_bytes, image->size() - offset);
    chunk.data.assign(image->begin() + static_cast<std::ptrdiff_t>(offset),
                      image->begin() +
                          static_cast<std::ptrdiff_t>(offset + len));
    if (!node->Call(Encode(chunk), &reply)) return false;
    if (!rpc::Decode(reply, &ack) || ack.status != rpc::RpcStatus::kOk ||
        ack.next_chunk != c + 1) {
      return false;
    }
    counters_.snapshot_chunks_sent.Inc();
  }
  // The final ack reported the post-install replica version; the install
  // replaced the replica wholesale, so any divergence quarantine lifts.
  {
    std::lock_guard<std::mutex> lock(mu_);
    acked_[target] = ack.node_version;
    needs_reimage_[target] = false;
  }
  *installed_version = ack.node_version;
  return ack.node_version >= version;
}

bool ReplicaSyncService::CatchUpTarget(int target, std::uint64_t from,
                                       std::uint64_t to) {
  // Sampled replication trace for catch-ups reached directly (the
  // coordinator's proactive/mismatch query paths); publish-path catch-ups
  // ride the publish trace via CatchUpTraced instead.
  std::unique_ptr<obs::QueryTrace> trace;
  if (sampler_ != nullptr && sampler_->Sample()) {
    trace = std::make_unique<obs::QueryTrace>();
  }
  const auto catchup_start = obs::QueryTrace::Clock::now();
  const bool ok = CatchUpTraced(target, from, to, trace.get());
  if (trace != nullptr) {
    options_.replication_traces->Add(
        *trace,
        "catchup " + TargetLabel(target) + " " + std::to_string(from) +
            "->" + std::to_string(to) + (ok ? "" : " failed"),
        std::chrono::duration<double>(obs::QueryTrace::Clock::now() -
                                      catchup_start)
            .count(),
        to);
  }
  return ok;
}

bool ReplicaSyncService::CatchUpTraced(int target, std::uint64_t from,
                                       std::uint64_t to,
                                       obs::QueryTrace* trace) {
  if (NeedsReimage(target)) {
    // Snapshot-only: the target's state extends past the adopted log, so
    // replaying epochs would interleave two coordinator lineages. Only a
    // wholesale image replacement (version newer than the target's) can
    // bring it back; until one exists the target stays quarantined.
    std::uint64_t installed = 0;
    if (!SendSnapshot(target, &installed, trace)) return false;
    if (NeedsReimage(target)) return false;  // offer refused, no install
    if (installed > to) return false;
    std::uint64_t target_version = 0;
    return SendEpochs(target, installed, to, &target_version, trace) ==
           EpochSendResult::kOk;
  }
  const std::uint64_t start = log_->log_start();
  const std::uint64_t retained = log_->retained_version();
  std::uint64_t ignored;
  const bool has_image = log_->image(&ignored) != nullptr;
  // Can the retained image bridge a target at `at` toward `to`?
  const auto image_bridges = [&](std::uint64_t at) {
    return has_image && retained > at && retained <= to;
  };
  if (from < start) {
    // The epochs the target needs first were compacted away — bootstrap
    // by streaming the retained image, then replay the remaining suffix.
    if (!image_bridges(from)) return false;
    if (!SendSnapshot(target, &from, trace)) return false;
    if (from > to) return false;  // image ahead of this query's snapshot
  }
  std::uint64_t target_version = 0;
  switch (SendEpochs(target, from, to, &target_version, trace)) {
    case EpochSendResult::kOk:
      return true;
    case EpochSendResult::kFailed:
      // Either the transport died (the image attempt below fails the
      // same way, harmlessly) or [from, to) is simply not in THIS
      // process's log — a restarted coordinator starts with an empty
      // log at log_start 0, so only its retained image (recreated by
      // the first CompactLog) can reach targets that predate it.
      break;
    case EpochSendResult::kRefused:
      // The target is not where the tracking said. One that advanced
      // concurrently just needs the shorter suffix; one that regressed
      // (restart) or never had a baseline (bootstrap node) needs the
      // image first.
      if (target_version >= to) return target_version == to;
      if (target_version > from) {
        return SendEpochs(target, target_version, to, &target_version,
                          trace) == EpochSendResult::kOk;
      }
      break;
  }
  if (!image_bridges(from)) return false;
  std::uint64_t installed = 0;
  if (!SendSnapshot(target, &installed, trace)) return false;
  if (installed > to) return false;
  return SendEpochs(target, installed, to, &target_version, trace) ==
         EpochSendResult::kOk;
}

void ReplicaSyncService::RegisterMetrics(obs::MetricRegistry* registry) {
  registrations_.clear();
  registrations_.push_back(registry->RegisterCounter(
      "diverse_sync_catchup_batches_total", &counters_.catchup_batches));
  registrations_.push_back(registry->RegisterCounter(
      "diverse_sync_snapshots_sent_total", &counters_.snapshots_sent));
  registrations_.push_back(
      registry->RegisterCounter("diverse_sync_snapshot_chunks_sent_total",
                                &counters_.snapshot_chunks_sent));
  registrations_.push_back(registry->RegisterCounter(
      "diverse_sync_acked_syncs_sent_total", &counters_.acked_syncs_sent));
  // Per-target replication lag: the last acked replica version and how
  // many published epochs it trails by (floored at 0 — a target probed
  // ahead of the log is a quarantine case, not negative lag).
  for (int i = 0; i < num_targets(); ++i) {
    const std::string label = "{target=\"" + TargetLabel(i) + "\"}";
    registrations_.push_back(registry->RegisterGauge(
        "diverse_replica_acked_version" + label,
        [this, i] { return static_cast<double>(GetAcked(i)); }));
    registrations_.push_back(registry->RegisterGauge(
        "diverse_replication_lag_epochs" + label, [this, i] {
          const std::uint64_t published = log_->published_version();
          const std::uint64_t acked = GetAcked(i);
          return static_cast<double>(published > acked ? published - acked
                                                       : 0);
        }));
  }
}

}  // namespace replication
}  // namespace diverse
