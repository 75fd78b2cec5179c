#include "rpc/wire.h"

#include <cmath>
#include <initializer_list>

#include "util/bytes.h"

namespace diverse {
namespace rpc {
namespace {

void AppendHeader(std::vector<std::uint8_t>* out, MessageType type) {
  AppendU16(out, kWireVersion);
  AppendU8(out, static_cast<std::uint8_t>(type));
}

bool ReadHeader(ByteReader* reader, MessageType expected) {
  std::uint16_t version;
  std::uint8_t type;
  if (!reader->ReadU16(&version) || !reader->ReadU8(&type)) return false;
  return version == kWireVersion &&
         type == static_cast<std::uint8_t>(expected);
}

// NodeTiming stamps are nonnegative finite seconds by contract; anything
// else a peer sends clamps to 0, so a hostile stamp cannot corrupt the
// rendered timeline.
double SaneOffset(double value) {
  return std::isfinite(value) && value > 0.0 ? value : 0.0;
}

bool ReadStatus(ByteReader* reader, RpcStatus* status) {
  std::uint8_t raw;
  if (!reader->ReadU8(&raw)) return false;
  if (raw > static_cast<std::uint8_t>(RpcStatus::kError)) return false;
  *status = static_cast<RpcStatus>(raw);
  return true;
}

bool ReadFormat(ByteReader* reader, StatsFormat* format) {
  std::uint8_t raw;
  if (!reader->ReadU8(&raw)) return false;
  if (raw > static_cast<std::uint8_t>(StatsFormat::kPrometheus)) return false;
  *format = static_cast<StatsFormat>(raw);
  return true;
}

void AppendUpdate(std::vector<std::uint8_t>* out,
                  const engine::CorpusUpdate& update) {
  AppendU8(out, static_cast<std::uint8_t>(update.kind));
  AppendI32(out, update.u);
  AppendI32(out, update.v);
  AppendF64(out, update.value);
  AppendU32(out, static_cast<std::uint32_t>(update.distances.size()));
  AppendF64s(out, update.distances);
}

bool ReadUpdate(ByteReader* reader, engine::CorpusUpdate* update) {
  std::uint8_t kind;
  if (!reader->ReadU8(&kind)) return false;
  if (kind >
      static_cast<std::uint8_t>(engine::CorpusUpdate::Kind::kInsertVector)) {
    return false;
  }
  update->kind = static_cast<engine::CorpusUpdate::Kind>(kind);
  if (!reader->ReadI32(&update->u) || !reader->ReadI32(&update->v) ||
      !reader->ReadF64(&update->value)) {
    return false;
  }
  std::size_t count;
  if (!reader->ReadCount(8, &count)) return false;
  update->distances.resize(count);
  return reader->ReadF64s(update->distances);
}

}  // namespace

std::vector<std::uint8_t> Encode(const ShardQueryRequest& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 8 * 3 + 4 * 4 + 8 + 4 + 8 * message.relevance.size());
  AppendHeader(&out, MessageType::kShardQueryRequest);
  AppendU64(&out, message.snapshot_version);
  AppendU64(&out, message.shard_salt);
  AppendU64(&out, message.trace_id);
  AppendI32(&out, message.num_shards);
  AppendI32(&out, message.shard_index);
  AppendI32(&out, message.p);
  AppendI32(&out, message.per_shard);
  AppendF64(&out, message.lambda);
  AppendU32(&out, static_cast<std::uint32_t>(message.relevance.size()));
  AppendF64s(&out, message.relevance);
  return out;
}

std::vector<std::uint8_t> Encode(const ShardQueryResponse& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 1 + 8 + 4 + 4 + 4 * message.elements.size() + 8 + 8 + 1 +
              4 * 8);
  AppendHeader(&out, MessageType::kShardQueryResponse);
  AppendU8(&out, static_cast<std::uint8_t>(message.status));
  AppendU64(&out, message.node_version);
  AppendI32(&out, message.shard_index);
  AppendU32(&out, static_cast<std::uint32_t>(message.elements.size()));
  for (int e : message.elements) AppendI32(&out, e);
  AppendF64(&out, message.objective);
  AppendI64(&out, message.steps);
  AppendU8(&out, message.timing.has_value() ? 1 : 0);
  if (message.timing) {
    AppendF64(&out, message.timing->decoded);
    AppendF64(&out, message.timing->kernel_start);
    AppendF64(&out, message.timing->kernel_end);
    AppendF64(&out, message.timing->handled);
  }
  return out;
}

std::vector<std::uint8_t> Encode(const CorpusUpdateBatch& message) {
  std::vector<std::uint8_t> out;
  AppendHeader(&out, MessageType::kCorpusUpdateBatch);
  AppendU64(&out, message.from_version);
  AppendU32(&out, static_cast<std::uint32_t>(message.epochs.size()));
  for (const std::vector<engine::CorpusUpdate>& epoch : message.epochs) {
    AppendU32(&out, static_cast<std::uint32_t>(epoch.size()));
    for (const engine::CorpusUpdate& update : epoch) {
      AppendUpdate(&out, update);
    }
  }
  return out;
}

std::vector<std::uint8_t> Encode(const UpdateAck& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 1 + 8);
  AppendHeader(&out, MessageType::kUpdateAck);
  AppendU8(&out, static_cast<std::uint8_t>(message.status));
  AppendU64(&out, message.node_version);
  return out;
}

std::vector<std::uint8_t> Encode(const SnapshotOffer& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 8 + 8 + 4 + 4);
  AppendHeader(&out, MessageType::kSnapshotOffer);
  AppendU64(&out, message.snapshot_version);
  AppendU64(&out, message.total_bytes);
  AppendU32(&out, message.chunk_bytes);
  AppendU32(&out, message.num_chunks);
  return out;
}

std::vector<std::uint8_t> Encode(const SnapshotChunk& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 8 + 4 + 4 + message.data.size());
  AppendHeader(&out, MessageType::kSnapshotChunk);
  AppendU64(&out, message.snapshot_version);
  AppendU32(&out, message.chunk_index);
  AppendU32(&out, static_cast<std::uint32_t>(message.data.size()));
  out.insert(out.end(), message.data.begin(), message.data.end());
  return out;
}

std::vector<std::uint8_t> Encode(const SnapshotAck& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 1 + 8 + 8 + 4);
  AppendHeader(&out, MessageType::kSnapshotAck);
  AppendU8(&out, static_cast<std::uint8_t>(message.status));
  AppendU64(&out, message.node_version);
  AppendU64(&out, message.snapshot_version);
  AppendU32(&out, message.next_chunk);
  return out;
}

std::vector<std::uint8_t> Encode(const AckedTableSync& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 4 + 8 * message.acked.size());
  AppendHeader(&out, MessageType::kAckedTableSync);
  AppendU32(&out, static_cast<std::uint32_t>(message.acked.size()));
  for (std::uint64_t version : message.acked) AppendU64(&out, version);
  return out;
}

std::vector<std::uint8_t> Encode(const StatsRequest& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 1);
  AppendHeader(&out, MessageType::kStatsRequest);
  AppendU8(&out, static_cast<std::uint8_t>(message.format));
  return out;
}

std::vector<std::uint8_t> Encode(const StatsResponse& message) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + 1 + 1 + 4 + message.text.size());
  AppendHeader(&out, MessageType::kStatsResponse);
  AppendU8(&out, static_cast<std::uint8_t>(message.status));
  AppendU8(&out, static_cast<std::uint8_t>(message.format));
  AppendU32(&out, static_cast<std::uint32_t>(message.text.size()));
  out.insert(out.end(), message.text.begin(), message.text.end());
  return out;
}

std::optional<MessageType> PeekType(std::span<const std::uint8_t> payload) {
  ByteReader reader(payload);
  std::uint16_t version;
  std::uint8_t type;
  if (!reader.ReadU16(&version) || !reader.ReadU8(&type)) return std::nullopt;
  if (version != kWireVersion) return std::nullopt;
  if (type < static_cast<std::uint8_t>(MessageType::kShardQueryRequest) ||
      type > static_cast<std::uint8_t>(MessageType::kStatsResponse)) {
    return std::nullopt;
  }
  return static_cast<MessageType>(type);
}

bool Decode(std::span<const std::uint8_t> payload,
            ShardQueryRequest* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kShardQueryRequest)) return false;
  if (!reader.ReadU64(&message->snapshot_version) ||
      !reader.ReadU64(&message->shard_salt) ||
      !reader.ReadU64(&message->trace_id) ||
      !reader.ReadI32(&message->num_shards) ||
      !reader.ReadI32(&message->shard_index) || !reader.ReadI32(&message->p) ||
      !reader.ReadI32(&message->per_shard) ||
      !reader.ReadF64(&message->lambda)) {
    return false;
  }
  std::size_t count;
  if (!reader.ReadCount(8, &count)) return false;
  message->relevance.resize(count);
  return reader.ReadF64s(message->relevance) && reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload,
            ShardQueryResponse* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kShardQueryResponse)) return false;
  if (!ReadStatus(&reader, &message->status) ||
      !reader.ReadU64(&message->node_version) ||
      !reader.ReadI32(&message->shard_index)) {
    return false;
  }
  std::size_t count;
  if (!reader.ReadCount(4, &count)) return false;
  message->elements.resize(count);
  for (int& e : message->elements) {
    std::int32_t value;
    if (!reader.ReadI32(&value)) return false;
    e = value;
  }
  if (!reader.ReadF64(&message->objective) ||
      !reader.ReadI64(&message->steps)) {
    return false;
  }
  std::uint8_t has_timing = 0;
  if (!reader.ReadU8(&has_timing) || has_timing > 1) return false;
  message->timing.reset();
  if (has_timing == 1) {
    NodeTiming& timing = message->timing.emplace();
    for (double* stamp : {&timing.decoded, &timing.kernel_start,
                          &timing.kernel_end, &timing.handled}) {
      if (!reader.ReadF64(stamp)) return false;
      *stamp = SaneOffset(*stamp);
    }
  }
  return reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload,
            CorpusUpdateBatch* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kCorpusUpdateBatch)) return false;
  if (!reader.ReadU64(&message->from_version)) return false;
  std::size_t epochs;
  // An epoch takes at least 4 bytes (its update count), an update at
  // least 21 (kind + u + v + value + distance count).
  if (!reader.ReadCount(4, &epochs)) return false;
  message->epochs.clear();
  message->epochs.reserve(epochs);
  for (std::size_t i = 0; i < epochs; ++i) {
    std::size_t updates;
    if (!reader.ReadCount(21, &updates)) return false;
    std::vector<engine::CorpusUpdate>& epoch = message->epochs.emplace_back();
    epoch.resize(updates);
    for (engine::CorpusUpdate& update : epoch) {
      if (!ReadUpdate(&reader, &update)) return false;
    }
  }
  return reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload, UpdateAck* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kUpdateAck)) return false;
  if (!ReadStatus(&reader, &message->status) ||
      !reader.ReadU64(&message->node_version)) {
    return false;
  }
  return reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload, SnapshotOffer* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kSnapshotOffer)) return false;
  if (!reader.ReadU64(&message->snapshot_version) ||
      !reader.ReadU64(&message->total_bytes) ||
      !reader.ReadU32(&message->chunk_bytes) ||
      !reader.ReadU32(&message->num_chunks)) {
    return false;
  }
  return reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload, SnapshotChunk* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kSnapshotChunk)) return false;
  if (!reader.ReadU64(&message->snapshot_version) ||
      !reader.ReadU32(&message->chunk_index)) {
    return false;
  }
  std::size_t count;
  if (!reader.ReadCount(1, &count)) return false;
  message->data.resize(count);
  if (!reader.ReadBytes(message->data.data(), count)) return false;
  return reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload, SnapshotAck* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kSnapshotAck)) return false;
  if (!ReadStatus(&reader, &message->status) ||
      !reader.ReadU64(&message->node_version) ||
      !reader.ReadU64(&message->snapshot_version) ||
      !reader.ReadU32(&message->next_chunk)) {
    return false;
  }
  return reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload, AckedTableSync* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kAckedTableSync)) return false;
  std::size_t count;
  if (!reader.ReadCount(8, &count)) return false;
  message->acked.resize(count);
  for (std::uint64_t& version : message->acked) {
    if (!reader.ReadU64(&version)) return false;
  }
  return reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload, StatsRequest* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kStatsRequest)) return false;
  if (!ReadFormat(&reader, &message->format)) return false;
  return reader.Done();
}

bool Decode(std::span<const std::uint8_t> payload, StatsResponse* message) {
  ByteReader reader(payload);
  if (!ReadHeader(&reader, MessageType::kStatsResponse)) return false;
  if (!ReadStatus(&reader, &message->status) ||
      !ReadFormat(&reader, &message->format)) {
    return false;
  }
  std::size_t count;
  if (!reader.ReadCount(1, &count)) return false;
  message->text.resize(count);
  if (!reader.ReadBytes(reinterpret_cast<std::uint8_t*>(message->text.data()),
                        count)) {
    return false;
  }
  return reader.Done();
}

}  // namespace rpc
}  // namespace diverse
