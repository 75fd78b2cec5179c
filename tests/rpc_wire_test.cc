// Wire-format tests (src/rpc/wire.h): randomized round-trip property
// tests for every message, and totality of decoding — truncated buffers,
// trailing garbage, wire-version and message-type mismatches, and corrupt
// enum values must all be rejected, never crash or misparse.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "engine/corpus.h"
#include "rpc/wire.h"
#include "util/random.h"

namespace diverse {
namespace rpc {
namespace {

using engine::CorpusUpdate;

ShardQueryRequest RandomRequest(Rng& rng) {
  ShardQueryRequest request;
  request.snapshot_version = rng.NextSeed();
  request.shard_salt = rng.NextSeed();
  request.trace_id = rng.Bernoulli(0.5) ? rng.NextSeed() : 0;
  request.num_shards = rng.UniformInt(1, 16);
  request.shard_index = rng.UniformInt(0, request.num_shards - 1);
  request.p = rng.UniformInt(0, 40);
  request.per_shard = rng.UniformInt(0, 40);
  request.lambda = rng.Bernoulli(0.5) ? rng.Uniform(0.0, 2.0) : -1.0;
  request.relevance.resize(rng.UniformInt(0, 32));
  for (double& r : request.relevance) r = rng.Uniform(0.0, 1.0);
  return request;
}

ShardQueryResponse RandomResponse(Rng& rng) {
  ShardQueryResponse response;
  response.status = static_cast<RpcStatus>(rng.UniformInt(0, 2));
  response.node_version = rng.NextSeed();
  response.shard_index = rng.UniformInt(0, 15);
  response.elements.resize(rng.UniformInt(0, 24));
  for (int& e : response.elements) e = rng.UniformInt(0, 10000);
  response.objective = rng.Uniform(-5.0, 50.0);
  response.steps = rng.UniformInt(0, 1 << 20);
  // Traced responses carry a NodeTiming record; untraced ones none.
  // Exercise both.
  if (rng.Bernoulli(0.5)) {
    response.timing = NodeTiming{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0),
                                 rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
  }
  return response;
}

CorpusUpdateBatch RandomBatch(Rng& rng) {
  CorpusUpdateBatch batch;
  batch.from_version = rng.UniformInt(0, 1000);
  const int epochs = rng.UniformInt(0, 4);
  for (int i = 0; i < epochs; ++i) {
    std::vector<CorpusUpdate>& epoch = batch.epochs.emplace_back();
    const int updates = rng.UniformInt(0, 3);
    for (int j = 0; j < updates; ++j) {
      switch (rng.UniformInt(0, 4)) {
        case 0:
          epoch.push_back(CorpusUpdate::SetWeight(rng.UniformInt(0, 99),
                                                  rng.Uniform(0.0, 1.0)));
          break;
        case 1:
          epoch.push_back(CorpusUpdate::SetDistance(
              rng.UniformInt(0, 49), rng.UniformInt(50, 99),
              rng.Uniform(1.0, 2.0)));
          break;
        case 2: {
          std::vector<double> distances(rng.UniformInt(0, 8));
          for (double& d : distances) d = rng.Uniform(1.0, 2.0);
          epoch.push_back(CorpusUpdate::Insert(rng.Uniform(0.0, 1.0),
                                               std::move(distances)));
          break;
        }
        case 3: {
          // Feature-vector insert: the embedding rides the same f64 array
          // field as kInsert's distance row.
          std::vector<double> embedding(rng.UniformInt(1, 8));
          for (double& x : embedding) x = rng.Uniform(-1.0, 1.0);
          epoch.push_back(CorpusUpdate::InsertVector(rng.Uniform(0.0, 1.0),
                                                     std::move(embedding)));
          break;
        }
        default:
          epoch.push_back(CorpusUpdate::Erase(rng.UniformInt(0, 99)));
      }
    }
  }
  return batch;
}

// Bit-for-bit stamp comparison: the wire carries IEEE-754 bit patterns.
void ExpectSameStamps(const NodeTiming& a, const NodeTiming& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.decoded),
            std::bit_cast<std::uint64_t>(b.decoded));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.kernel_start),
            std::bit_cast<std::uint64_t>(b.kernel_start));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.kernel_end),
            std::bit_cast<std::uint64_t>(b.kernel_end));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.handled),
            std::bit_cast<std::uint64_t>(b.handled));
}

void ExpectEqual(const CorpusUpdate& a, const CorpusUpdate& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.distances, b.distances);
}

TEST(RpcWireTest, RequestRoundTrip) {
  Rng rng(11);
  for (int iter = 0; iter < 100; ++iter) {
    const ShardQueryRequest original = RandomRequest(rng);
    const std::vector<std::uint8_t> payload = Encode(original);
    EXPECT_EQ(PeekType(payload), MessageType::kShardQueryRequest);
    ShardQueryRequest decoded;
    ASSERT_TRUE(Decode(payload, &decoded));
    EXPECT_EQ(decoded.snapshot_version, original.snapshot_version);
    EXPECT_EQ(decoded.shard_salt, original.shard_salt);
    EXPECT_EQ(decoded.trace_id, original.trace_id);
    EXPECT_EQ(decoded.num_shards, original.num_shards);
    EXPECT_EQ(decoded.shard_index, original.shard_index);
    EXPECT_EQ(decoded.p, original.p);
    EXPECT_EQ(decoded.per_shard, original.per_shard);
    EXPECT_EQ(decoded.lambda, original.lambda);
    EXPECT_EQ(decoded.relevance, original.relevance);
  }
}

TEST(RpcWireTest, ResponseRoundTrip) {
  Rng rng(12);
  for (int iter = 0; iter < 100; ++iter) {
    const ShardQueryResponse original = RandomResponse(rng);
    const std::vector<std::uint8_t> payload = Encode(original);
    EXPECT_EQ(PeekType(payload), MessageType::kShardQueryResponse);
    ShardQueryResponse decoded;
    ASSERT_TRUE(Decode(payload, &decoded));
    EXPECT_EQ(decoded.status, original.status);
    EXPECT_EQ(decoded.node_version, original.node_version);
    EXPECT_EQ(decoded.shard_index, original.shard_index);
    EXPECT_EQ(decoded.elements, original.elements);
    EXPECT_EQ(decoded.objective, original.objective);
    EXPECT_EQ(decoded.steps, original.steps);
    ASSERT_EQ(decoded.timing.has_value(), original.timing.has_value());
    if (original.timing) ExpectSameStamps(*decoded.timing, *original.timing);
  }
}

// Byte layout of a response with no elements: header(3) status(1)
// node_version(8) shard_index(4) elem_count(4) objective(8) steps(8),
// then the timing flag at kTimingFlagAt and its four f64 stamps.
constexpr std::size_t kTimingFlagAt = 36;

ShardQueryResponse TimedResponse() {
  ShardQueryResponse response;
  response.status = RpcStatus::kOk;
  response.node_version = 9;
  response.shard_index = 2;
  response.objective = 1.5;
  response.steps = 17;
  response.timing = NodeTiming{0.125, 0.25, 0.75, 1.0};
  return response;
}

// The timing record survives the same totality regime as the rest of the
// wire: every strict prefix rejected, a flag other than 0 or 1 rejected,
// stamps round-tripped bit for bit.
TEST(RpcWireTest, ResponseTimingRecordTotality) {
  const ShardQueryResponse response = TimedResponse();
  const std::vector<std::uint8_t> payload = Encode(response);
  ASSERT_EQ(payload.size(), kTimingFlagAt + 1 + 4 * 8);
  ASSERT_EQ(payload[kTimingFlagAt], 1);
  ShardQueryResponse decoded;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(Decode(std::span(payload.data(), len), &decoded))
        << "prefix length " << len;
  }
  ASSERT_TRUE(Decode(payload, &decoded));
  ASSERT_TRUE(decoded.timing.has_value());
  ExpectSameStamps(*decoded.timing, *response.timing);

  ShardQueryResponse untimed = response;
  untimed.timing.reset();
  const std::vector<std::uint8_t> bare = Encode(untimed);
  ASSERT_EQ(bare.size(), kTimingFlagAt + 1);
  ASSERT_EQ(bare[kTimingFlagAt], 0);
  decoded.timing = NodeTiming{};
  ASSERT_TRUE(Decode(bare, &decoded));
  EXPECT_FALSE(decoded.timing.has_value());
  for (std::size_t len = 0; len < bare.size(); ++len) {
    EXPECT_FALSE(Decode(std::span(bare.data(), len), &decoded))
        << "prefix length " << len;
  }

  // Flag bytes 2..255 are rejected, with or without stamps behind them.
  for (int flag = 2; flag <= 255; ++flag) {
    std::vector<std::uint8_t> corrupt = payload;
    corrupt[kTimingFlagAt] = static_cast<std::uint8_t>(flag);
    EXPECT_FALSE(Decode(corrupt, &decoded)) << "flag " << flag;
    std::vector<std::uint8_t> corrupt_bare = bare;
    corrupt_bare[kTimingFlagAt] = static_cast<std::uint8_t>(flag);
    EXPECT_FALSE(Decode(corrupt_bare, &decoded)) << "flag " << flag;
  }
  // A present flag without its stamps, and an absent flag with stamps
  // behind it, are truncation and trailing garbage.
  std::vector<std::uint8_t> flag_only = bare;
  flag_only[kTimingFlagAt] = 1;
  EXPECT_FALSE(Decode(flag_only, &decoded));
  std::vector<std::uint8_t> absent_with_stamps = payload;
  absent_with_stamps[kTimingFlagAt] = 0;
  EXPECT_FALSE(Decode(absent_with_stamps, &decoded));
}

// The encoder sends stamps as they are; the decoder clamps NaN, negative
// and infinite stamps to 0, so a hostile peer cannot corrupt the timeline.
TEST(RpcWireTest, ResponseTimingGarbageStampsDecodeAsZero) {
  const double garbage[] = {std::numeric_limits<double>::quiet_NaN(), -1.0,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (int i = 0; i < 4; ++i) {
    for (const double bad : garbage) {
      ShardQueryResponse response = TimedResponse();
      NodeTiming& t = *response.timing;
      double* slot[] = {&t.decoded, &t.kernel_start, &t.kernel_end, &t.handled};
      *slot[i] = bad;
      ShardQueryResponse decoded;
      ASSERT_TRUE(Decode(Encode(response), &decoded));
      ASSERT_TRUE(decoded.timing.has_value());
      *slot[i] = 0.0;
      ExpectSameStamps(*decoded.timing, t);
    }
  }
}

// Versioning is exact: a response in the pre-span v2 layout (same body
// up through `steps`, no timing block) is rejected, not read as untimed —
// every binary ships from one tree, so no peer speaks v2.
TEST(RpcWireTest, ResponseV2HeaderRejected) {
  ShardQueryResponse response;
  response.status = RpcStatus::kOk;
  response.node_version = 4;
  response.shard_index = 1;
  response.elements = {3, 1, 4};
  response.objective = 2.75;
  response.steps = 12;
  // Build the v2 payload from the v4 one: drop the (absent) timing flag
  // and rewrite the version header to 2.
  const std::vector<std::uint8_t> v4 = Encode(response);
  std::vector<std::uint8_t> v2 = v4;
  v2.resize(v2.size() - 1);
  v2[0] = 2;
  v2[1] = 0;
  ShardQueryResponse decoded;
  EXPECT_FALSE(Decode(v2, &decoded));
  // A v2 header on the full v4 body is rejected too: the version alone
  // decides, not whether the body happens to parse.
  std::vector<std::uint8_t> v2_header = v4;
  v2_header[0] = 2;
  EXPECT_FALSE(Decode(v2_header, &decoded));
  // Every strict prefix of the v2 payload is still rejected.
  for (std::size_t len = 0; len < v2.size(); ++len) {
    EXPECT_FALSE(Decode(std::span(v2.data(), len), &decoded))
        << "prefix length " << len;
  }
  // No other version gets grace either: v1 and v5 are both rejected.
  std::vector<std::uint8_t> v1 = v4;
  v1[0] = 1;
  EXPECT_FALSE(Decode(v1, &decoded));
  std::vector<std::uint8_t> v5 = v4;
  v5[0] = 5;
  EXPECT_FALSE(Decode(v5, &decoded));
  // The unmodified v4 payload still decodes.
  ASSERT_TRUE(Decode(v4, &decoded));
  EXPECT_EQ(decoded.elements, response.elements);
}

// A v3 frame (a u32 span count, then named spans) is rejected, whether it
// carries zero spans or one: its version header alone decides.
TEST(RpcWireTest, ResponseV3FrameRejected) {
  ShardQueryResponse response = TimedResponse();
  response.timing.reset();
  const std::vector<std::uint8_t> v4 = Encode(response);
  std::vector<std::uint8_t> v3 = v4;
  v3.resize(kTimingFlagAt);
  v3[0] = 3;
  v3[1] = 0;
  std::vector<std::uint8_t> zero_spans = v3;
  zero_spans.insert(zero_spans.end(), 4, 0);
  ShardQueryResponse decoded;
  EXPECT_FALSE(Decode(zero_spans, &decoded));
  // One span named "x": count 1, name length 1, the name, two f64s.
  std::vector<std::uint8_t> one_span = v3;
  const std::uint8_t span_block[] = {1, 0, 0, 0, 1, 0, 0, 0, 'x'};
  one_span.insert(one_span.end(), std::begin(span_block), std::end(span_block));
  one_span.insert(one_span.end(), 16, 0);
  EXPECT_FALSE(Decode(one_span, &decoded));
  // A v3 header on a well-formed v4 body is rejected as well.
  std::vector<std::uint8_t> v3_header = Encode(TimedResponse());
  v3_header[0] = 3;
  EXPECT_FALSE(Decode(v3_header, &decoded));
  EXPECT_FALSE(PeekType(v3_header).has_value());
}

TEST(RpcWireTest, UpdateBatchRoundTrip) {
  Rng rng(13);
  for (int iter = 0; iter < 100; ++iter) {
    const CorpusUpdateBatch original = RandomBatch(rng);
    const std::vector<std::uint8_t> payload = Encode(original);
    EXPECT_EQ(PeekType(payload), MessageType::kCorpusUpdateBatch);
    CorpusUpdateBatch decoded;
    ASSERT_TRUE(Decode(payload, &decoded));
    EXPECT_EQ(decoded.from_version, original.from_version);
    EXPECT_EQ(decoded.to_version(), original.to_version());
    ASSERT_EQ(decoded.epochs.size(), original.epochs.size());
    for (std::size_t i = 0; i < original.epochs.size(); ++i) {
      ASSERT_EQ(decoded.epochs[i].size(), original.epochs[i].size());
      for (std::size_t j = 0; j < original.epochs[i].size(); ++j) {
        ExpectEqual(decoded.epochs[i][j], original.epochs[i][j]);
      }
    }
  }
}

TEST(RpcWireTest, AckRoundTrip) {
  for (RpcStatus status : {RpcStatus::kOk, RpcStatus::kVersionMismatch,
                           RpcStatus::kError}) {
    UpdateAck original;
    original.status = status;
    original.node_version = 42;
    const std::vector<std::uint8_t> payload = Encode(original);
    EXPECT_EQ(PeekType(payload), MessageType::kUpdateAck);
    UpdateAck decoded;
    ASSERT_TRUE(Decode(payload, &decoded));
    EXPECT_EQ(decoded.status, original.status);
    EXPECT_EQ(decoded.node_version, original.node_version);
  }
}

// Every strict prefix of a valid payload must be rejected — the decoder
// can never read past the buffer or accept a half message.
TEST(RpcWireTest, TruncatedPayloadsRejected) {
  Rng rng(14);
  const std::vector<std::uint8_t> request = Encode(RandomRequest(rng));
  const std::vector<std::uint8_t> response = Encode(RandomResponse(rng));
  const std::vector<std::uint8_t> batch = Encode(RandomBatch(rng));
  for (std::size_t len = 0; len < request.size(); ++len) {
    ShardQueryRequest decoded;
    EXPECT_FALSE(Decode(std::span(request.data(), len), &decoded))
        << "prefix length " << len;
  }
  for (std::size_t len = 0; len < response.size(); ++len) {
    ShardQueryResponse decoded;
    EXPECT_FALSE(Decode(std::span(response.data(), len), &decoded));
  }
  for (std::size_t len = 0; len < batch.size(); ++len) {
    CorpusUpdateBatch decoded;
    EXPECT_FALSE(Decode(std::span(batch.data(), len), &decoded));
  }
}

TEST(RpcWireTest, TrailingGarbageRejected) {
  Rng rng(15);
  std::vector<std::uint8_t> payload = Encode(RandomRequest(rng));
  payload.push_back(0);
  ShardQueryRequest decoded;
  EXPECT_FALSE(Decode(payload, &decoded));
}

TEST(RpcWireTest, WireVersionMismatchRejected) {
  Rng rng(16);
  std::vector<std::uint8_t> payload = Encode(RandomRequest(rng));
  payload[0] ^= 0xff;  // low byte of the u16 wire version
  EXPECT_EQ(PeekType(payload), std::nullopt);
  ShardQueryRequest decoded;
  EXPECT_FALSE(Decode(payload, &decoded));
}

TEST(RpcWireTest, MessageTypeMismatchRejected) {
  Rng rng(17);
  const std::vector<std::uint8_t> request = Encode(RandomRequest(rng));
  ShardQueryResponse response;
  EXPECT_FALSE(Decode(request, &response));
  CorpusUpdateBatch batch;
  EXPECT_FALSE(Decode(request, &batch));
  UpdateAck ack;
  EXPECT_FALSE(Decode(request, &ack));
}

TEST(RpcWireTest, UnknownTypeAndCorruptEnumsRejected) {
  Rng rng(18);
  std::vector<std::uint8_t> payload = Encode(RandomRequest(rng));
  payload[2] = 99;  // message type byte
  EXPECT_EQ(PeekType(payload), std::nullopt);

  std::vector<std::uint8_t> response = Encode(RandomResponse(rng));
  response[3] = 7;  // status byte out of the RpcStatus range
  ShardQueryResponse decoded_response;
  EXPECT_FALSE(Decode(response, &decoded_response));

  CorpusUpdateBatch batch;
  batch.from_version = 0;
  batch.epochs.push_back({engine::CorpusUpdate::Erase(3)});
  std::vector<std::uint8_t> encoded = Encode(batch);
  // The update's kind byte follows header(3) + from_version(8) +
  // epoch count(4) + update count(4).
  encoded[19] = 99;
  CorpusUpdateBatch decoded_batch;
  EXPECT_FALSE(Decode(encoded, &decoded_batch));
}

// kInsertVector (kind 4) is the newest accepted update kind; the decoder
// must take it and reject exactly the first value past it.
TEST(RpcWireTest, InsertVectorKindBoundary) {
  CorpusUpdateBatch batch;
  batch.from_version = 7;
  batch.epochs.push_back(
      {engine::CorpusUpdate::InsertVector(0.5, {0.25, -0.75, 1.0})});
  std::vector<std::uint8_t> encoded = Encode(batch);
  CorpusUpdateBatch decoded;
  ASSERT_TRUE(Decode(encoded, &decoded));
  ASSERT_EQ(decoded.epochs.size(), 1u);
  ASSERT_EQ(decoded.epochs[0].size(), 1u);
  ExpectEqual(decoded.epochs[0][0], batch.epochs[0][0]);

  // Same layout, kind byte bumped one past kInsertVector: rejected.
  std::vector<std::uint8_t> unknown = encoded;
  unknown[19] = 5;
  EXPECT_FALSE(Decode(unknown, &decoded));
}

SnapshotOffer RandomOffer(Rng& rng) {
  SnapshotOffer offer;
  offer.snapshot_version = rng.NextSeed();
  offer.total_bytes = static_cast<std::uint64_t>(rng.UniformInt(1, 1 << 24));
  offer.chunk_bytes = static_cast<std::uint32_t>(rng.UniformInt(1, 1 << 20));
  offer.num_chunks = static_cast<std::uint32_t>(
      (offer.total_bytes + offer.chunk_bytes - 1) / offer.chunk_bytes);
  return offer;
}

SnapshotChunk RandomChunk(Rng& rng) {
  SnapshotChunk chunk;
  chunk.snapshot_version = rng.NextSeed();
  chunk.chunk_index = static_cast<std::uint32_t>(rng.UniformInt(0, 1 << 16));
  chunk.data.resize(rng.UniformInt(0, 64));
  for (std::uint8_t& byte : chunk.data) {
    byte = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  }
  return chunk;
}

SnapshotAck RandomSnapshotAck(Rng& rng) {
  SnapshotAck ack;
  ack.status = static_cast<RpcStatus>(rng.UniformInt(0, 2));
  ack.node_version = rng.NextSeed();
  ack.snapshot_version = rng.NextSeed();
  ack.next_chunk = static_cast<std::uint32_t>(rng.UniformInt(0, 1 << 16));
  return ack;
}

TEST(RpcWireTest, SnapshotMessagesRoundTrip) {
  Rng rng(21);
  for (int iter = 0; iter < 100; ++iter) {
    const SnapshotOffer offer = RandomOffer(rng);
    std::vector<std::uint8_t> payload = Encode(offer);
    EXPECT_EQ(PeekType(payload), MessageType::kSnapshotOffer);
    SnapshotOffer decoded_offer;
    ASSERT_TRUE(Decode(payload, &decoded_offer));
    EXPECT_EQ(decoded_offer.snapshot_version, offer.snapshot_version);
    EXPECT_EQ(decoded_offer.total_bytes, offer.total_bytes);
    EXPECT_EQ(decoded_offer.chunk_bytes, offer.chunk_bytes);
    EXPECT_EQ(decoded_offer.num_chunks, offer.num_chunks);

    const SnapshotChunk chunk = RandomChunk(rng);
    payload = Encode(chunk);
    EXPECT_EQ(PeekType(payload), MessageType::kSnapshotChunk);
    SnapshotChunk decoded_chunk;
    ASSERT_TRUE(Decode(payload, &decoded_chunk));
    EXPECT_EQ(decoded_chunk.snapshot_version, chunk.snapshot_version);
    EXPECT_EQ(decoded_chunk.chunk_index, chunk.chunk_index);
    EXPECT_EQ(decoded_chunk.data, chunk.data);

    const SnapshotAck ack = RandomSnapshotAck(rng);
    payload = Encode(ack);
    EXPECT_EQ(PeekType(payload), MessageType::kSnapshotAck);
    SnapshotAck decoded_ack;
    ASSERT_TRUE(Decode(payload, &decoded_ack));
    EXPECT_EQ(decoded_ack.status, ack.status);
    EXPECT_EQ(decoded_ack.node_version, ack.node_version);
    EXPECT_EQ(decoded_ack.snapshot_version, ack.snapshot_version);
    EXPECT_EQ(decoded_ack.next_chunk, ack.next_chunk);
  }
}

TEST(RpcWireTest, SnapshotMessagesTruncationAndGarbageRejected) {
  Rng rng(22);
  const std::vector<std::uint8_t> offer = Encode(RandomOffer(rng));
  const std::vector<std::uint8_t> chunk = Encode(RandomChunk(rng));
  const std::vector<std::uint8_t> ack = Encode(RandomSnapshotAck(rng));
  for (std::size_t len = 0; len < offer.size(); ++len) {
    SnapshotOffer decoded;
    EXPECT_FALSE(Decode(std::span(offer.data(), len), &decoded));
  }
  for (std::size_t len = 0; len < chunk.size(); ++len) {
    SnapshotChunk decoded;
    EXPECT_FALSE(Decode(std::span(chunk.data(), len), &decoded));
  }
  for (std::size_t len = 0; len < ack.size(); ++len) {
    SnapshotAck decoded;
    EXPECT_FALSE(Decode(std::span(ack.data(), len), &decoded));
  }
  std::vector<std::uint8_t> trailing = chunk;
  trailing.push_back(0);
  SnapshotChunk decoded_chunk;
  EXPECT_FALSE(Decode(trailing, &decoded_chunk));
  // Cross-type confusion and a corrupt ack status byte.
  SnapshotAck decoded_ack;
  EXPECT_FALSE(Decode(offer, &decoded_ack));
  std::vector<std::uint8_t> bad_status = ack;
  bad_status[3] = 9;
  EXPECT_FALSE(Decode(bad_status, &decoded_ack));
}

AckedTableSync RandomAckedTable(Rng& rng) {
  AckedTableSync table;
  table.acked.resize(rng.UniformInt(0, 16));
  for (std::uint64_t& version : table.acked) version = rng.NextSeed();
  return table;
}

TEST(RpcWireTest, AckedTableSyncRoundTrip) {
  Rng rng(23);
  for (int iter = 0; iter < 100; ++iter) {
    const AckedTableSync original = RandomAckedTable(rng);
    const std::vector<std::uint8_t> payload = Encode(original);
    EXPECT_EQ(PeekType(payload), MessageType::kAckedTableSync);
    AckedTableSync decoded;
    ASSERT_TRUE(Decode(payload, &decoded));
    EXPECT_EQ(decoded.acked, original.acked);
  }
}

TEST(RpcWireTest, AckedTableSyncTruncationAndGarbageRejected) {
  Rng rng(24);
  AckedTableSync table = RandomAckedTable(rng);
  table.acked.push_back(7);  // never empty, so truncation bites the body
  const std::vector<std::uint8_t> payload = Encode(table);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    AckedTableSync decoded;
    EXPECT_FALSE(Decode(std::span(payload.data(), len), &decoded))
        << "prefix length " << len;
  }
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  AckedTableSync decoded;
  EXPECT_FALSE(Decode(trailing, &decoded));
  // Cross-type confusion, and an inflated count that exceeds the
  // remaining bytes.
  UpdateAck ack;
  EXPECT_FALSE(Decode(payload, &ack));
  std::vector<std::uint8_t> bad_count = payload;
  bad_count[3] = 0xff;
  bad_count[4] = 0xff;
  bad_count[5] = 0xff;
  bad_count[6] = 0x7f;
  EXPECT_FALSE(Decode(bad_count, &decoded));
}

// A corrupt element/relevance count larger than the remaining bytes must
// fail fast instead of allocating or over-reading.
TEST(RpcWireTest, OversizedCountsRejected) {
  ShardQueryRequest request;
  request.relevance = {0.5, 0.25};
  std::vector<std::uint8_t> payload = Encode(request);
  // Relevance count sits 4 + 8 bytes from the end (count + 2 doubles
  // from the end is count offset: end - 16 - 4).
  const std::size_t count_at = payload.size() - 16 - 4;
  payload[count_at] = 0xff;
  payload[count_at + 1] = 0xff;
  payload[count_at + 2] = 0xff;
  payload[count_at + 3] = 0x7f;
  ShardQueryRequest decoded;
  EXPECT_FALSE(Decode(payload, &decoded));
}

// A request carries the relevance of its shard alone, so the count ranges
// from 0 (corpus weights) to any shard size. Every count round-trips,
// every strict prefix is rejected, and a count one off either way is
// rejected as truncated or as trailing garbage.
TEST(RpcWireTest, ShardRelevanceCountTotality) {
  Rng rng(61);
  for (const int count : {0, 1, 2, 7, 33, 512}) {
    ShardQueryRequest request = RandomRequest(rng);
    request.relevance.resize(count);
    for (double& r : request.relevance) r = rng.Uniform(0.0, 1.0);
    const std::vector<std::uint8_t> payload = Encode(request);
    ShardQueryRequest decoded;
    ASSERT_TRUE(Decode(payload, &decoded)) << count;
    EXPECT_EQ(decoded.relevance, request.relevance);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      EXPECT_FALSE(Decode(std::span(payload.data(), len), &decoded))
          << "count " << count << " prefix length " << len;
    }
    // The little-endian u32 count sits just before the values.
    const std::size_t count_at = payload.size() - 8 * count - 4;
    ASSERT_EQ(payload[count_at], static_cast<std::uint8_t>(count & 0xff));
    std::vector<std::uint8_t> longer = payload;
    longer[count_at] = static_cast<std::uint8_t>((count + 1) & 0xff);
    longer[count_at + 1] = static_cast<std::uint8_t>((count + 1) >> 8);
    EXPECT_FALSE(Decode(longer, &decoded)) << count;
    if (count > 0) {
      std::vector<std::uint8_t> shorter = payload;
      shorter[count_at] = static_cast<std::uint8_t>((count - 1) & 0xff);
      shorter[count_at + 1] = static_cast<std::uint8_t>((count - 1) >> 8);
      EXPECT_FALSE(Decode(shorter, &decoded)) << count;
    }
  }
}

TEST(RpcWireTest, StatsRequestRoundTrip) {
  for (StatsFormat format : {StatsFormat::kJson, StatsFormat::kPrometheus}) {
    StatsRequest original;
    original.format = format;
    const std::vector<std::uint8_t> payload = Encode(original);
    EXPECT_EQ(PeekType(payload), MessageType::kStatsRequest);
    StatsRequest decoded;
    ASSERT_TRUE(Decode(payload, &decoded));
    EXPECT_EQ(decoded.format, original.format);
  }
}

TEST(RpcWireTest, StatsResponseRoundTrip) {
  Rng rng(25);
  for (int iter = 0; iter < 100; ++iter) {
    StatsResponse original;
    original.status =
        static_cast<RpcStatus>(rng.UniformInt(0, 2));
    original.format = rng.Bernoulli(0.5) ? StatsFormat::kPrometheus
                                         : StatsFormat::kJson;
    original.text.resize(rng.UniformInt(0, 64));
    for (char& c : original.text) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    const std::vector<std::uint8_t> payload = Encode(original);
    EXPECT_EQ(PeekType(payload), MessageType::kStatsResponse);
    StatsResponse decoded;
    ASSERT_TRUE(Decode(payload, &decoded));
    EXPECT_EQ(decoded.status, original.status);
    EXPECT_EQ(decoded.format, original.format);
    EXPECT_EQ(decoded.text, original.text);
  }
}

TEST(RpcWireTest, StatsMessagesTruncationAndGarbageRejected) {
  StatsRequest request;
  request.format = StatsFormat::kPrometheus;
  const std::vector<std::uint8_t> encoded_request = Encode(request);
  for (std::size_t len = 0; len < encoded_request.size(); ++len) {
    StatsRequest decoded;
    EXPECT_FALSE(Decode(std::span(encoded_request.data(), len), &decoded))
        << "prefix length " << len;
  }
  StatsResponse response;
  response.status = RpcStatus::kOk;
  response.format = StatsFormat::kJson;
  response.text = "{\"counters\":{}}";
  const std::vector<std::uint8_t> encoded_response = Encode(response);
  for (std::size_t len = 0; len < encoded_response.size(); ++len) {
    StatsResponse decoded;
    EXPECT_FALSE(Decode(std::span(encoded_response.data(), len), &decoded))
        << "prefix length " << len;
  }
  std::vector<std::uint8_t> trailing = encoded_request;
  trailing.push_back(0);
  StatsRequest decoded_request;
  EXPECT_FALSE(Decode(trailing, &decoded_request));
  trailing = encoded_response;
  trailing.push_back(0);
  StatsResponse decoded_response;
  EXPECT_FALSE(Decode(trailing, &decoded_response));
}

TEST(RpcWireTest, StatsMessagesCorruptEnumsRejected) {
  StatsRequest request;
  request.format = StatsFormat::kJson;
  std::vector<std::uint8_t> encoded_request = Encode(request);
  encoded_request[3] = 9;  // format byte out of the StatsFormat range
  StatsRequest decoded_request;
  EXPECT_FALSE(Decode(encoded_request, &decoded_request));

  StatsResponse response;
  response.status = RpcStatus::kOk;
  response.format = StatsFormat::kPrometheus;
  response.text = "x 1\n";
  std::vector<std::uint8_t> corrupt_status = Encode(response);
  corrupt_status[3] = 7;  // status byte out of the RpcStatus range
  StatsResponse decoded_response;
  EXPECT_FALSE(Decode(corrupt_status, &decoded_response));
  std::vector<std::uint8_t> corrupt_format = Encode(response);
  corrupt_format[4] = 9;  // format byte follows the status byte
  EXPECT_FALSE(Decode(corrupt_format, &decoded_response));

  // Cross-type confusion both ways.
  StatsRequest as_request;
  EXPECT_FALSE(Decode(Encode(response), &as_request));
  EXPECT_FALSE(Decode(Encode(request), &decoded_response));
}

// A corrupt text length larger than the remaining bytes must fail fast
// instead of allocating or over-reading.
TEST(RpcWireTest, StatsResponseOversizedTextRejected) {
  StatsResponse response;
  response.status = RpcStatus::kOk;
  response.format = StatsFormat::kPrometheus;
  response.text = "diverse_node_queries_total 3\n";
  std::vector<std::uint8_t> payload = Encode(response);
  // Text length sits right after header(3) + status(1) + format(1).
  payload[5] = 0xff;
  payload[6] = 0xff;
  payload[7] = 0xff;
  payload[8] = 0x7f;
  StatsResponse decoded;
  EXPECT_FALSE(Decode(payload, &decoded));
}

}  // namespace
}  // namespace rpc
}  // namespace diverse
