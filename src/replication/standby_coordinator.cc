#include "replication/standby_coordinator.h"

#include <utility>

#include "replication/replica_sync.h"
#include "snapshot/snapshot_codec.h"
#include "util/check.h"

namespace diverse {
namespace replication {

rpc::ShardNode::Options StandbyCoordinator::NodeOptions(Options options) {
  rpc::ShardNode::Options node;
  node.checkpoint = options.checkpoint;
  node.checkpoint_every = options.checkpoint_every;
  // The hooks outlive nothing: log_ is constructed before node_ and the
  // node never calls them after destruction begins.
  ReplicationLog* log = log_.get();
  node.on_epoch_applied =
      [log](std::uint64_t version,
            std::span<const engine::CorpusUpdate> updates) {
        log->Append(version, updates);
      };
  node.on_snapshot_installed =
      [log](std::uint64_t version,
            const std::shared_ptr<const std::vector<std::uint8_t>>& image) {
        log->AdoptImage(version, image);
      };
  return node;
}

StandbyCoordinator::StandbyCoordinator(std::vector<double> weights,
                                       DenseMetric metric, double lambda,
                                       Options options)
    : log_(std::make_shared<ReplicationLog>()),
      node_(std::move(weights), std::move(metric), lambda,
            NodeOptions(options)) {}

StandbyCoordinator::StandbyCoordinator(engine::CorpusState state,
                                       Options options)
    : log_(std::make_shared<ReplicationLog>()),
      node_(std::move(state), NodeOptions(options)) {
  // A checkpoint-restored standby must start its mirror log AT the
  // restored version: slots below it can never be filled (the fold
  // already contains those epochs), and left allocated-from-0 they
  // would pin published_version at 0 and make the standby
  // unpromotable. Retaining the restored state as the bootstrap image
  // does exactly that (log_start jumps) and additionally lets a
  // promoted coordinator snapshot-bridge replicas immediately. A
  // restored state always fits the snapshot format — it was decoded
  // from one.
  const std::uint64_t version = node_.version();
  if (version > 0) {
    log_->AdoptImage(
        version, std::make_shared<const std::vector<std::uint8_t>>(
                     snapshot::EncodeSnapshot(*node_.replica().snapshot())));
  }
}

StandbyCoordinator::StandbyCoordinator(Options options)
    : log_(std::make_shared<ReplicationLog>()), node_(NodeOptions(options)) {}

std::vector<std::uint8_t> StandbyCoordinator::Handle(
    std::span<const std::uint8_t> request_payload) {
  // One frame at a time, serialized against Promote: a frame that wins
  // the race past the fence must finish mutating the fold before
  // Promote reads it. (A mirror gets only replication-lane frames, which
  // already arrive one at a time per transport; this only matters at the
  // promotion instant.)
  std::lock_guard<std::mutex> lock(handle_mu_);
  if (promoted()) {
    // Fence: a zombie active that kept publishing past the promotion
    // gets hard errors, never silent acceptance of a forked history.
    rpc::UpdateAck nack;
    nack.status = rpc::RpcStatus::kError;
    nack.node_version = node_.version();
    return Encode(nack);
  }
  if (rpc::PeekType(request_payload) == rpc::MessageType::kAckedTableSync) {
    rpc::AckedTableSync table;
    rpc::UpdateAck ack;
    ack.node_version = node_.version();
    if (!rpc::Decode(request_payload, &table)) {
      ack.status = rpc::RpcStatus::kError;
      return Encode(ack);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      mirrored_acked_ = std::move(table.acked);
    }
    ack.status = rpc::RpcStatus::kOk;
    return Encode(ack);
  }
  return node_.Handle(request_payload);
}

std::vector<std::uint64_t> StandbyCoordinator::mirrored_acked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mirrored_acked_;
}

std::unique_ptr<rpc::Coordinator> StandbyCoordinator::Promote(
    std::vector<rpc::Transport*> nodes, rpc::Coordinator::Options options,
    std::vector<rpc::Transport*> mirrors) {
  // Drain/park the mirror stream: after this lock no frame can be
  // mid-apply, and the fence turns every later one into a kError.
  std::lock_guard<std::mutex> lock(handle_mu_);
  DIVERSE_CHECK_MSG(!promoted_.exchange(true, std::memory_order_acq_rel),
                    "standby promoted twice");
  const std::uint64_t version = node_.version();
  // The fold and the mirror log advance in lockstep (observer hooks), so
  // a mismatch here is a bug, not an operational state.
  DIVERSE_CHECK_MSG(log_->published_version() == version,
                    "mirrored log out of step with the folded replica");
  // The mirrored table is advisory (best-effort, possibly stale); the
  // probe is authoritative when a node answers, and a node ahead of the
  // fold — epochs this standby never mirrored — is quarantined for
  // wholesale re-imaging rather than history-interleaving replay.
  std::vector<ReplicaSeed> seeds =
      BuildPromotionSeeds(nodes, version, mirrored_acked());
  return std::make_unique<rpc::Coordinator>(log_, std::move(seeds),
                                            std::move(nodes),
                                            std::move(mirrors), options);
}

}  // namespace replication
}  // namespace diverse
