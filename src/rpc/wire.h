// Versioned binary wire format for the cross-node sharded serving layer.
//
// Every message is encoded as one self-contained payload
//
//   [u16 wire version][u8 message type][message body]
//
// with all integers little-endian and doubles as IEEE-754 bit patterns.
// Transports add their own framing around the payload (SocketTransport
// length-prefixes it; InProcessTransport passes the byte vector through).
//
// Three messages cross the wire:
//
//   * ShardQueryRequest — "run the per-shard Greedy B kernel for shard
//     `shard_index` of `num_shards` under `shard_salt`, on your replica at
//     `snapshot_version`". The candidate range is intensional: the worker
//     derives its shard by filtering its replica's live candidates through
//     ShardOf (algorithms/distributed.h), so frames stay O(1) in corpus
//     size apart from the optional relevance of the shard's candidates.
//     Replica agreement is enforced by the version check, not by
//     shipping ids.
//   * ShardQueryResponse — the kernel solution (greedy order), its
//     objective and step count, or a version-mismatch/error status. On
//     mismatch `node_version` tells the coordinator which epochs to
//     replay.
//   * CorpusUpdateBatch — consecutive update epochs `from_version ->
//     from_version + epochs.size()`, applied one Corpus::Apply per epoch
//     so replica version numbers stay aligned with the coordinator's.
//     Answered by an UpdateAck.
//   * SnapshotOffer / SnapshotChunk — replica bootstrap for a node whose
//     version predates the coordinator's compacted epoch log: the offer
//     announces one snapshot_codec image (version, size, chunking), each
//     chunk carries one consecutive slice, and both are answered by a
//     SnapshotAck whose `next_chunk` makes interrupted transfers
//     resumable (the node keeps its partial image across reconnects).
//   * AckedTableSync — the active coordinator's per-node acked-version
//     table, mirrored to standby coordinators after every publish so a
//     promoted standby starts with warm replica tracking. Answered by an
//     UpdateAck.
//   * StatsRequest / StatsResponse — remote metrics scrape: any node's
//     MetricRegistry rendered as Prometheus text or JSON and shipped
//     back as an opaque text blob, so an operator (or CI) can observe a
//     running replica over the same transport that serves it.
//
// Decoding is total: truncated buffers, trailing garbage, unknown wire
// versions, unknown message types, and out-of-range enum values are all
// rejected with `false` — a malformed frame can never abort a node. Every
// field is read through util/bytes.h's ByteReader, whose ReadCount bounds
// each decoded array by the bytes actually left, so a corrupt count
// cannot drive an allocation. The codec checks structure; the values of
// an update batch are checked by engine::ValidEpoch where it is applied.
#ifndef DIVERSE_RPC_WIRE_H_
#define DIVERSE_RPC_WIRE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/corpus.h"
#include "obs/query_trace.h"

namespace diverse {
namespace rpc {

// Bumped on any incompatible layout change; decoders reject other values.
// v2: ShardQueryRequest carries a trace id; StatsRequest/StatsResponse
// added.
// v3: ShardQueryResponse carries a bounded node-side span block (zero
// spans — four count bytes — on untraced requests).
// v4: the span block becomes one fixed NodeTiming record: a u8 presence
// flag (0 on untraced requests), then four f64 stamps when it is 1.
//
// Versioning policy: every coordinator, node and standby ships from one
// tree, so there is no mixed-version cluster to serve. Every decoder is
// exact-version: a frame whose version is not kWireVersion is rejected
// with `false` — a node answers it with a kError ack, a coordinator
// counts the call as failed — and never CHECK-aborted. Upgrades restart
// the whole cluster.
inline constexpr std::uint16_t kWireVersion = 4;

// Hard ceiling on one payload (and on any decoded vector), shared with the
// socket framing: a corrupt length prefix must not turn into an OOM.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 26;  // 64 MiB

// Ceiling on one SnapshotChunk's data slice, leaving headroom for the
// frame header + length fields. One definition keeps the coordinator's
// chunk-size clamp and the node's offer shape check agreeing.
inline constexpr std::uint32_t kMaxSnapshotChunkBytes =
    static_cast<std::uint32_t>(kMaxFrameBytes - 64);

enum class MessageType : std::uint8_t {
  kShardQueryRequest = 1,
  kShardQueryResponse = 2,
  kCorpusUpdateBatch = 3,
  kUpdateAck = 4,
  kSnapshotOffer = 5,
  kSnapshotChunk = 6,
  kSnapshotAck = 7,
  kAckedTableSync = 8,
  kStatsRequest = 9,
  kStatsResponse = 10,
};

enum class RpcStatus : std::uint8_t {
  kOk = 0,
  // Query: replica is not at the requested snapshot version (see
  // `node_version`). Update batch: `from_version` is ahead of the replica
  // — the coordinator must resend from `node_version`.
  kVersionMismatch = 1,
  // Malformed or infeasible request; not retryable.
  kError = 2,
};

// Rendering of a scraped MetricRegistry. Out-of-range values are a
// decode error, like RpcStatus.
enum class StatsFormat : std::uint8_t {
  kJson = 0,
  kPrometheus = 1,
};

struct ShardQueryRequest {
  std::uint64_t snapshot_version = 0;
  std::uint64_t shard_salt = 0;
  // Correlates this kernel execution with the coordinator-side
  // obs::QueryTrace; 0 = untraced. Observation-only: never consulted by
  // the kernel.
  std::uint64_t trace_id = 0;
  std::int32_t num_shards = 1;
  std::int32_t shard_index = 0;
  // Resolved by the coordinator: p is already clamped to the candidate
  // count and per_shard defaulted to p, so every replica runs the exact
  // kernel call the in-process ShardedGreedy would.
  std::int32_t p = 0;
  std::int32_t per_shard = 0;
  // Per-query view knobs from engine::Query: lambda < 0 keeps the corpus
  // default. `relevance` holds the query's relevance of this shard's
  // candidates alone, in ShardCandidates order (0 past the end of the
  // query's vector, as engine::MakeProblemView pads); empty keeps corpus
  // weights. A node answers kError when its size is not the shard's.
  double lambda = -1.0;
  std::vector<double> relevance;
};

// The node-side stamps riding back on a traced ShardQueryResponse: the
// recorder's own record type. Stamps are seconds on the *node's* steady
// clock since it received the request; obs::QueryTrace aligns them into
// the coordinator's timeline when the trace is read.
using NodeTiming = obs::NodeTiming;

struct ShardQueryResponse {
  RpcStatus status = RpcStatus::kOk;
  // The replica's current version (== the request's snapshot_version on
  // kOk; the catch-up starting point on kVersionMismatch).
  std::uint64_t node_version = 0;
  std::int32_t shard_index = 0;
  std::vector<int> elements;  // kernel solution, greedy order
  double objective = 0.0;
  std::int64_t steps = 0;
  // Node-side stamps for a traced request (absent when the request's
  // trace_id was 0). Decoded stamps are finite and >= 0.
  std::optional<NodeTiming> timing;
};

struct CorpusUpdateBatch {
  // epochs[i] advances the replica from version from_version + i to
  // from_version + i + 1; the batch as a whole is the half-open version
  // range [from_version, to_version()).
  //
  // Updates of every kind share one frame layout; kInsert carries its
  // per-id distances and kInsertVector its d-dimensional feature vector
  // in the same generic f64 array field. Which kinds a receiver accepts
  // is decided by engine::ValidEpoch against the replica's metric
  // representation, not by the codec.
  std::uint64_t from_version = 0;
  std::vector<std::vector<engine::CorpusUpdate>> epochs;

  std::uint64_t to_version() const { return from_version + epochs.size(); }
};

struct UpdateAck {
  RpcStatus status = RpcStatus::kOk;
  std::uint64_t node_version = 0;  // replica version after the batch
};

// Announces one snapshot_codec image about to be chunked over. The node
// answers with a SnapshotAck: kOk + next_chunk tells the coordinator
// where to (re)start streaming (0 for a fresh transfer, further along
// when a previous transfer of the same image was interrupted);
// kVersionMismatch + node_version means the replica is already at or
// past the image and wants epoch replay instead.
struct SnapshotOffer {
  std::uint64_t snapshot_version = 0;
  std::uint64_t total_bytes = 0;
  // Bytes per chunk (every chunk but the last is exactly this long);
  // num_chunks = ceil(total_bytes / chunk_bytes).
  std::uint32_t chunk_bytes = 0;
  std::uint32_t num_chunks = 0;
};

// One consecutive slice of the offered image. Chunks must arrive in
// order; the ack's next_chunk confirms progress. The final chunk's ack
// reports kOk + the restored replica version, or kError when the
// assembled image fails to decode/validate.
struct SnapshotChunk {
  std::uint64_t snapshot_version = 0;
  std::uint32_t chunk_index = 0;
  std::vector<std::uint8_t> data;
};

struct SnapshotAck {
  RpcStatus status = RpcStatus::kOk;
  std::uint64_t node_version = 0;      // replica version (post-install on
                                       // the final chunk's ack)
  std::uint64_t snapshot_version = 0;  // image the ack refers to
  std::uint32_t next_chunk = 0;        // first chunk index still missing
};

// The active coordinator's replica-tracking table, pushed to standby
// coordinators (never to shard nodes) after every publish: acked[i] is
// the last authoritative version of query node i. Best-effort and
// advisory — a promoted standby re-probes the nodes before trusting it.
// Answered by an UpdateAck carrying the standby's replica version.
struct AckedTableSync {
  std::vector<std::uint64_t> acked;
};

// Asks a node to render its MetricRegistry. Answered by a StatsResponse
// (kOk + text), or — from peers predating the obs layer — rejected like
// any other unknown frame.
struct StatsRequest {
  StatsFormat format = StatsFormat::kJson;
};

// The rendered metrics. `text` is opaque to the wire layer (Prometheus
// exposition text or one JSON object, per `format`); its length is
// bounded by the frame cap like every other decoded vector.
struct StatsResponse {
  RpcStatus status = RpcStatus::kOk;
  StatsFormat format = StatsFormat::kJson;
  std::string text;
};

// Encoders never fail; the result always starts with the version/type
// header and is accepted by the matching decoder.
std::vector<std::uint8_t> Encode(const ShardQueryRequest& message);
std::vector<std::uint8_t> Encode(const ShardQueryResponse& message);
std::vector<std::uint8_t> Encode(const CorpusUpdateBatch& message);
std::vector<std::uint8_t> Encode(const UpdateAck& message);
std::vector<std::uint8_t> Encode(const SnapshotOffer& message);
std::vector<std::uint8_t> Encode(const SnapshotChunk& message);
std::vector<std::uint8_t> Encode(const SnapshotAck& message);
std::vector<std::uint8_t> Encode(const AckedTableSync& message);
std::vector<std::uint8_t> Encode(const StatsRequest& message);
std::vector<std::uint8_t> Encode(const StatsResponse& message);

// Message type of a payload, or nullopt when the header is truncated or
// the wire version does not match kWireVersion.
std::optional<MessageType> PeekType(std::span<const std::uint8_t> payload);

// Each decoder returns false (leaving *message unspecified) unless the
// payload is a complete, well-formed message of the matching type at
// kWireVersion with no trailing bytes.
bool Decode(std::span<const std::uint8_t> payload, ShardQueryRequest* message);
bool Decode(std::span<const std::uint8_t> payload,
            ShardQueryResponse* message);
bool Decode(std::span<const std::uint8_t> payload, CorpusUpdateBatch* message);
bool Decode(std::span<const std::uint8_t> payload, UpdateAck* message);
bool Decode(std::span<const std::uint8_t> payload, SnapshotOffer* message);
bool Decode(std::span<const std::uint8_t> payload, SnapshotChunk* message);
bool Decode(std::span<const std::uint8_t> payload, SnapshotAck* message);
bool Decode(std::span<const std::uint8_t> payload, AckedTableSync* message);
bool Decode(std::span<const std::uint8_t> payload, StatsRequest* message);
bool Decode(std::span<const std::uint8_t> payload, StatsResponse* message);

}  // namespace rpc
}  // namespace diverse

#endif  // DIVERSE_RPC_WIRE_H_
