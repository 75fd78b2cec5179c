#include "rpc/shard_node.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include <chrono>

#include "algorithms/distributed.h"
#include "algorithms/result.h"
#include "engine/execution_plan.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/query_trace.h"
#include "snapshot/snapshot_codec.h"

namespace diverse {
namespace rpc {

ShardNode::ShardNode(std::vector<double> weights, DenseMetric metric,
                     double lambda, Options options)
    : replica_(std::move(weights), std::move(metric), lambda),
      options_(std::move(options)) {
  pending_from_ = replica_.version();
  RegisterMetrics();
}

ShardNode::ShardNode(engine::CorpusState state, Options options)
    : replica_(std::move(state)), options_(std::move(options)) {
  pending_from_ = replica_.version();
  RegisterMetrics();
}

ShardNode::ShardNode(Options options)
    : replica_({}, DenseMetric(0), 0.0), options_(std::move(options)) {
  awaiting_bootstrap_.store(true, std::memory_order_release);
  RegisterMetrics();
}

// Shared ctor tail. Every counter the typed Stats struct reports,
// published by name into the node-owned registry so HandleStats (remote
// scrape) and the CLI dump enumerate the same values the in-process
// accessors see — plus the standard build_info/start-time pair.
void ShardNode::RegisterMetrics() {
  if (options_.trace_buffer != nullptr) {
    sampler_ =
        std::make_unique<obs::TraceSampler>(options_.trace_sample_every);
    // The buffer (outliving this node per the Options contract) shows up
    // in the node's own registry like every other node metric.
    options_.trace_buffer->RegisterMetrics(&registry_, &registrations_);
  }
  obs::RegisterStandardMetrics(&registry_, &registrations_);
  registrations_.push_back(
      registry_.RegisterCounter("diverse_node_queries_total", &queries_));
  registrations_.push_back(registry_.RegisterCounter(
      "diverse_node_version_mismatches_total", &version_mismatches_));
  registrations_.push_back(registry_.RegisterCounter(
      "diverse_node_epochs_applied_total", &epochs_applied_));
  registrations_.push_back(
      registry_.RegisterCounter("diverse_node_rejected_total", &rejected_));
  registrations_.push_back(registry_.RegisterCounter(
      "diverse_node_snapshot_chunks_total", &snapshot_chunks_));
  registrations_.push_back(registry_.RegisterCounter(
      "diverse_node_snapshots_installed_total", &snapshots_installed_));
  registrations_.push_back(registry_.RegisterCounter(
      "diverse_node_checkpoints_saved_total", &checkpoints_saved_));
  registrations_.push_back(registry_.RegisterCounter(
      "diverse_node_traced_queries_total", &traced_queries_));
  registrations_.push_back(registry_.RegisterGauge(
      "diverse_node_corpus_version",
      [this] { return static_cast<double>(replica_.version()); }));
  registrations_.push_back(registry_.RegisterHistogram(
      "diverse_node_kernel_latency_seconds", &kernel_latency_hist_));
}

std::vector<std::uint8_t> ShardNode::Handle(
    std::span<const std::uint8_t> request_payload) {
  const auto received = std::chrono::steady_clock::now();
  const std::optional<MessageType> type = PeekType(request_payload);
  if (type == MessageType::kShardQueryRequest) {
    ShardQueryRequest request;
    if (Decode(request_payload, &request)) {
      return HandleQuery(request, received, std::chrono::steady_clock::now());
    }
  } else if (type == MessageType::kCorpusUpdateBatch) {
    CorpusUpdateBatch batch;
    if (Decode(request_payload, &batch)) return HandleUpdates(batch);
  } else if (type == MessageType::kSnapshotOffer) {
    SnapshotOffer offer;
    if (Decode(request_payload, &offer)) return HandleOffer(offer);
  } else if (type == MessageType::kSnapshotChunk) {
    SnapshotChunk chunk;
    if (Decode(request_payload, &chunk)) return HandleChunk(chunk);
  } else if (type == MessageType::kStatsRequest) {
    StatsRequest request;
    if (Decode(request_payload, &request)) return HandleStats(request);
  }
  // Truncated/garbled frame or a type this node does not serve. The ack
  // shape decodes as neither expected response, so callers waiting on a
  // query reply treat it as a node failure — which it is.
  rejected_.Inc();
  UpdateAck nack;
  nack.status = RpcStatus::kError;
  nack.node_version = replica_.version();
  return Encode(nack);
}

std::vector<std::uint8_t> ShardNode::HandleQuery(
    const ShardQueryRequest& request,
    std::chrono::steady_clock::time_point received,
    std::chrono::steady_clock::time_point decoded) {
  queries_.Inc();
  const engine::SnapshotPtr snapshot = replica_.snapshot();
  ShardQueryResponse response;
  response.shard_index = request.shard_index;
  response.node_version = snapshot->version();

  if (request.num_shards < 1 || request.shard_index < 0 ||
      request.shard_index >= request.num_shards || request.p < 0 ||
      request.per_shard < 0 || !std::isfinite(request.lambda)) {
    rejected_.Inc();
    response.status = RpcStatus::kError;
    return Encode(response);
  }
  for (double r : request.relevance) {
    if (r < 0.0 || !std::isfinite(r)) {
      rejected_.Inc();
      response.status = RpcStatus::kError;
      return Encode(response);
    }
  }
  // A bootstrap node has no baseline at all: its "version 0" is an empty
  // corpus, not the coordinator's, so serving would silently desync the
  // merge. Report mismatch until a snapshot installs.
  if (awaiting_bootstrap()) {
    version_mismatches_.Inc();
    response.status = RpcStatus::kVersionMismatch;
    return Encode(response);
  }
  // Replicas ahead of the requested version cannot serve it either: the
  // epoch protocol has no rewind. The coordinator resolves both directions
  // (catch-up or local fallback) from node_version.
  if (snapshot->version() != request.snapshot_version) {
    version_mismatches_.Inc();
    response.status = RpcStatus::kVersionMismatch;
    return Encode(response);
  }

  // This shard's candidate range through AssignShards' own partition
  // loop. Version agreement guarantees the coordinator partitioned the
  // identical candidate list.
  const std::vector<int> shard =
      ShardCandidates(snapshot->candidates(), request.num_shards,
                      request.shard_salt, request.shard_index);
  // The relevance covers this shard alone, in shard order. Scattered back
  // into the snapshot's id space (0 elsewhere), it gives the kernel the
  // coordinator's weights on every id the kernel reads.
  std::vector<double> relevance;
  if (!request.relevance.empty()) {
    if (request.relevance.size() != shard.size()) {
      rejected_.Inc();
      response.status = RpcStatus::kError;
      return Encode(response);
    }
    relevance.assign(snapshot->universe_size(), 0.0);
    for (std::size_t i = 0; i < shard.size(); ++i) {
      relevance[shard[i]] = request.relevance[i];
    }
  }

  // Observation only: the trace id correlates this kernel run with the
  // coordinator-side trace; it never influences the kernel.
  if (request.trace_id != 0) traced_queries_.Inc();
  const bool sample = sampler_ != nullptr && sampler_->Sample();
  const auto kernel_start = std::chrono::steady_clock::now();
  const engine::ProblemView view =
      engine::MakeProblemView(*snapshot, std::move(relevance), request.lambda);
  const AlgorithmResult local =
      GreedyVertexOnCandidates(view.problem, shard, request.per_shard);
  const auto kernel_end = std::chrono::steady_clock::now();
  const double kernel_seconds =
      std::chrono::duration<double>(kernel_end - kernel_start).count();
  kernel_latency_hist_.Record(kernel_seconds);
  if (sample) {
    obs::QueryTrace trace;
    trace.AddSpan("decode", received, decoded);
    trace.AddSpan("wait", decoded, kernel_start);
    trace.AddSpan("kernel", kernel_start, kernel_end);
    options_.trace_buffer->Add(
        trace,
        "kernel shard " + std::to_string(request.shard_index) + "/" +
            std::to_string(request.num_shards) + " per_shard=" +
            std::to_string(request.per_shard),
        kernel_seconds, snapshot->version());
  }
  response.status = RpcStatus::kOk;
  response.elements = local.elements;
  response.objective = local.objective;
  response.steps = local.steps;
  // Node-side stamps for a traced request, on this node's steady clock
  // since `received`. `handled` can only be stamped before Encode runs,
  // so the rendered "encode" span covers response assembly.
  if (request.trace_id != 0) {
    const auto handled = std::chrono::steady_clock::now();
    const auto since = [received](std::chrono::steady_clock::time_point t) {
      return std::chrono::duration<double>(t - received).count();
    };
    response.timing = NodeTiming{since(decoded), since(kernel_start),
                                 since(kernel_end), since(handled)};
  }
  return Encode(response);
}

std::vector<std::uint8_t> ShardNode::HandleUpdates(
    const CorpusUpdateBatch& batch) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  UpdateAck ack;
  const std::uint64_t current = replica_.version();
  // No baseline to replay onto — the coordinator must snapshot us first.
  if (awaiting_bootstrap()) {
    version_mismatches_.Inc();
    ack.status = RpcStatus::kVersionMismatch;
    ack.node_version = current;
    return Encode(ack);
  }
  if (batch.from_version > current) {
    // Gap: accepting would skip epochs and desynchronize the replica for
    // good. Report where we are so the coordinator resends from there.
    version_mismatches_.Inc();
    ack.status = RpcStatus::kVersionMismatch;
    ack.node_version = current;
    return Encode(ack);
  }
  // Epochs at or below the current version were already applied (the
  // coordinator may replay on retry); skip them, then validate the rest
  // before touching the replica so a bad batch is all-or-nothing. Each
  // epoch validates against the state the earlier ones leave behind.
  const std::uint64_t skip = current - batch.from_version;
  engine::UpdateContext ctx = replica_.snapshot()->update_context();
  for (std::uint64_t i = skip; i < batch.epochs.size(); ++i) {
    if (!engine::ValidEpoch(batch.epochs[i], &ctx)) {
      rejected_.Inc();
      ack.status = RpcStatus::kError;
      ack.node_version = current;
      return Encode(ack);
    }
  }
  for (std::uint64_t i = skip; i < batch.epochs.size(); ++i) {
    replica_.Apply(batch.epochs[i]);
    epochs_applied_.Inc();
    ++epochs_since_checkpoint_;
    if (options_.checkpoint != nullptr && options_.checkpoint_every > 0) {
      // Keep the epoch around for the next delta checkpoint. Bounded by
      // checkpoint_every in steady state; a persistently failing disk is
      // cut off at kMaxPendingDeltaEpochs (the next save goes full).
      constexpr std::size_t kMaxPendingDeltaEpochs = 1024;
      pending_epochs_.push_back(batch.epochs[i]);
      if (pending_epochs_.size() > kMaxPendingDeltaEpochs) {
        pending_epochs_.clear();
        pending_from_ = replica_.version();
      }
    }
    if (options_.on_epoch_applied) {
      options_.on_epoch_applied(replica_.version(), batch.epochs[i]);
    }
  }
  if (batch.epochs.size() > skip) MaybeCheckpoint(nullptr);
  ack.status = RpcStatus::kOk;
  ack.node_version = replica_.version();
  return Encode(ack);
}

std::vector<std::uint8_t> ShardNode::HandleOffer(const SnapshotOffer& offer) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  SnapshotAck ack;
  ack.snapshot_version = offer.snapshot_version;
  ack.node_version = replica_.version();
  // A replica already at or past the image has nothing to gain from it;
  // epoch replay (from node_version) is the cheaper path.
  if (!awaiting_bootstrap() && offer.snapshot_version <= ack.node_version) {
    version_mismatches_.Inc();
    ack.status = RpcStatus::kVersionMismatch;
    return Encode(ack);
  }
  const bool shape_ok =
      offer.total_bytes > 0 &&
      offer.total_bytes <= snapshot::kMaxSnapshotBytes &&
      offer.chunk_bytes > 0 && offer.chunk_bytes <= kMaxSnapshotChunkBytes &&
      offer.num_chunks > 0 &&
      (offer.total_bytes + offer.chunk_bytes - 1) / offer.chunk_bytes ==
          offer.num_chunks;
  if (!shape_ok) {
    rejected_.Inc();
    ack.status = RpcStatus::kError;
    return Encode(ack);
  }
  const bool resumes = pending_ &&
                       pending_->version == offer.snapshot_version &&
                       pending_->total_bytes == offer.total_bytes &&
                       pending_->chunk_bytes == offer.chunk_bytes;
  if (!resumes) {
    pending_.emplace();
    pending_->version = offer.snapshot_version;
    pending_->total_bytes = offer.total_bytes;
    pending_->chunk_bytes = offer.chunk_bytes;
    pending_->num_chunks = offer.num_chunks;
    // No upfront reserve of the remote-claimed size: the buffer grows
    // only with bytes that actually arrived, so a forged offer cannot
    // allocate kMaxSnapshotBytes with one cheap frame.
  }
  ack.status = RpcStatus::kOk;
  ack.next_chunk = pending_->next_chunk;
  return Encode(ack);
}

std::vector<std::uint8_t> ShardNode::HandleChunk(const SnapshotChunk& chunk) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  SnapshotAck ack;
  ack.snapshot_version = chunk.snapshot_version;
  ack.node_version = replica_.version();
  if (!pending_ || pending_->version != chunk.snapshot_version) {
    rejected_.Inc();
    ack.status = RpcStatus::kError;
    return Encode(ack);
  }
  ack.next_chunk = pending_->next_chunk;
  // A duplicate of an already-applied chunk (coordinator retry after a
  // lost ack) is acknowledged without re-appending; a gap is a protocol
  // error but keeps the partial image so the transfer can resume.
  if (chunk.chunk_index < pending_->next_chunk) {
    ack.status = RpcStatus::kOk;
    return Encode(ack);
  }
  const std::uint64_t offset =
      std::uint64_t{chunk.chunk_index} * pending_->chunk_bytes;
  const std::uint64_t expected =
      std::min<std::uint64_t>(pending_->chunk_bytes,
                              pending_->total_bytes - offset);
  if (chunk.chunk_index != pending_->next_chunk ||
      chunk.chunk_index >= pending_->num_chunks ||
      chunk.data.size() != expected) {
    rejected_.Inc();
    ack.status = RpcStatus::kError;
    return Encode(ack);
  }
  pending_->bytes.insert(pending_->bytes.end(), chunk.data.begin(),
                         chunk.data.end());
  ++pending_->next_chunk;
  snapshot_chunks_.Inc();
  ack.next_chunk = pending_->next_chunk;
  if (pending_->next_chunk < pending_->num_chunks) {
    ack.status = RpcStatus::kOk;
    return Encode(ack);
  }

  // Final chunk: decode, validate, and install the image. The codec is
  // the trust boundary — only a fully valid image reaches Restore.
  engine::CorpusState state;
  if (!snapshot::DecodeSnapshot(pending_->bytes, &state) ||
      state.version != pending_->version) {
    rejected_.Inc();
    pending_.reset();
    ack.status = RpcStatus::kError;
    return Encode(ack);
  }
  const auto image = std::make_shared<const std::vector<std::uint8_t>>(
      std::move(pending_->bytes));
  pending_.reset();
  ack.node_version = replica_.Restore(std::move(state));
  awaiting_bootstrap_.store(false, std::memory_order_release);
  snapshots_installed_.Inc();
  epochs_since_checkpoint_ = 0;
  pending_epochs_.clear();
  pending_from_ = ack.node_version;
  if (options_.on_snapshot_installed) {
    options_.on_snapshot_installed(ack.node_version, image);
  }
  MaybeCheckpoint(image.get());
  ack.status = RpcStatus::kOk;
  return Encode(ack);
}

// Persists the replica if a store is configured and due. When the caller
// already holds the encoded image (snapshot install) it is written as-is;
// the epoch path saves the pending epoch tail as a delta — O(epoch)
// instead of re-encoding the whole replica — falling back to a full
// image only when the delta chain cannot extend. Caller holds apply_mu_.
void ShardNode::MaybeCheckpoint(const std::vector<std::uint8_t>* image) {
  if (options_.checkpoint == nullptr) return;
  if (image == nullptr && (options_.checkpoint_every <= 0 ||
                           epochs_since_checkpoint_ <
                               options_.checkpoint_every)) {
    return;
  }
  bool saved;
  if (image != nullptr) {
    saved = options_.checkpoint->SaveEncoded(replica_.version(), *image);
  } else {
    saved = !pending_epochs_.empty() &&
            pending_from_ + pending_epochs_.size() == replica_.version() &&
            options_.checkpoint->SaveDelta(pending_from_, replica_.version(),
                                           pending_epochs_);
    if (!saved) saved = options_.checkpoint->Save(*replica_.snapshot());
  }
  if (saved) {
    checkpoints_saved_.Inc();
    epochs_since_checkpoint_ = 0;
    pending_from_ = replica_.version();
    pending_epochs_.clear();
  }
}

std::vector<std::uint8_t> ShardNode::HandleStats(const StatsRequest& request) {
  StatsResponse response;
  response.status = RpcStatus::kOk;
  response.format = request.format;
  response.text = request.format == StatsFormat::kPrometheus
                      ? obs::RenderPrometheusText(registry_)
                      : obs::RenderJson(registry_);
  return Encode(response);
}

ShardNode::Stats ShardNode::stats() const {
  Stats stats;
  stats.queries = queries_.value();
  stats.version_mismatches =
      version_mismatches_.value();
  stats.epochs_applied = epochs_applied_.value();
  stats.rejected = rejected_.value();
  stats.snapshot_chunks = snapshot_chunks_.value();
  stats.snapshots_installed =
      snapshots_installed_.value();
  stats.checkpoints_saved =
      checkpoints_saved_.value();
  stats.traced_queries = traced_queries_.value();
  return stats;
}

}  // namespace rpc
}  // namespace diverse
