#include "snapshot/snapshot_codec.h"

#include <algorithm>
#include <array>
#include <optional>

#include "rpc/wire.h"
#include "util/bytes.h"
#include "util/check.h"

namespace diverse {
namespace snapshot {
namespace {

constexpr std::uint32_t kMagic = 0x504E5344;       // "DSNP" little-endian
constexpr std::uint32_t kDeltaMagic = 0x544C4444;  // "DDLT" little-endian

// The largest id space whose image could still fit kMaxSnapshotBytes.
// Anything above is rejected before any size arithmetic that could
// overflow (n <= 2^17 and dim <= 2^12 keep every product well inside
// std::uint64_t).
constexpr std::uint64_t kMaxUniverse = std::uint64_t{1} << 17;

constexpr std::size_t kHeaderBytes = 4 + 2 + 8 + 8 + 4 + 1;
constexpr std::size_t kTrailerBytes = 4;

// The bytes between an image's header and its CRC trailer, once the
// trailer matches and the header carries `magic` and `format`; nullopt
// otherwise. A flipped bit anywhere (header included) fails the CRC.
std::optional<std::span<const std::uint8_t>> ImageBody(
    std::span<const std::uint8_t> payload, std::uint32_t magic,
    std::uint16_t format) {
  if (payload.size() < kTrailerBytes || payload.size() > kMaxSnapshotBytes) {
    return std::nullopt;
  }
  const std::span<const std::uint8_t> body =
      payload.first(payload.size() - kTrailerBytes);
  ByteReader trailer(payload.subspan(body.size()));
  ByteReader header(body);
  std::uint32_t crc = 0, got_magic = 0;
  std::uint16_t got_format = 0;
  if (!trailer.ReadU32(&crc) || crc != Crc32(body) ||
      !header.ReadU32(&got_magic) || got_magic != magic ||
      !header.ReadU16(&got_format) || got_format != format) {
    return std::nullopt;
  }
  return body.subspan(4 + 2);
}

// Shared encoder: exactly one of `metric` / `vectors` is non-null,
// selecting the payload variant.
std::vector<std::uint8_t> EncodeImage(std::uint64_t version, double lambda,
                                      const std::vector<double>& weights,
                                      const std::vector<char>& alive,
                                      const DenseMetric* metric,
                                      const VectorMetric* vectors) {
  const std::uint64_t n = weights.size();
  const bool dense = metric != nullptr;
  DIVERSE_CHECK((metric != nullptr) != (vectors != nullptr));
  if (dense) {
    DIVERSE_CHECK_MSG(FitsSnapshotFormat(static_cast<int>(n)),
                      "corpus too large for the snapshot format — callers "
                      "pre-check with FitsSnapshotFormat");
  } else {
    DIVERSE_CHECK_MSG(
        FitsVectorSnapshotFormat(static_cast<int>(n), vectors->dim()),
        "corpus too large for the snapshot format — callers pre-check "
        "with FitsSnapshotFormat");
  }
  std::vector<std::uint8_t> out;
  out.reserve(dense ? EncodedSnapshotBytes(static_cast<int>(n))
                    : EncodedVectorSnapshotBytes(static_cast<int>(n),
                                                 vectors->dim()));
  AppendU32(&out, kMagic);
  AppendU16(&out, kSnapshotFormatVersion);
  AppendU64(&out, version);
  AppendF64(&out, lambda);
  AppendU32(&out, static_cast<std::uint32_t>(n));
  out.push_back(dense
                    ? static_cast<std::uint8_t>(engine::MetricRepr::kDense)
                    : static_cast<std::uint8_t>(engine::MetricRepr::kVector));
  if (!dense) AppendU32(&out, static_cast<std::uint32_t>(vectors->dim()));
  AppendF64s(&out, weights);
  for (char a : alive) out.push_back(a ? 1 : 0);
  if (dense) {
    // Strict upper triangle in row order; one bulk append per stored row.
    for (int u = 0; u + 1 < static_cast<int>(n); ++u) {
      AppendF64s(&out, std::span(metric->TryRow(u), n).subspan(u + 1));
    }
  } else {
    AppendF64s(&out, vectors->data());
  }
  AppendU32(&out, Crc32(out));
  return out;
}

}  // namespace

std::uint64_t EncodedSnapshotBytes(int universe_size) {
  const std::uint64_t n = static_cast<std::uint64_t>(universe_size);
  const std::uint64_t triangle = n * (n - (n > 0 ? 1 : 0)) / 2;
  return kHeaderBytes + n * 8 + n + triangle * 8 + kTrailerBytes;
}

std::uint64_t EncodedVectorSnapshotBytes(int universe_size, int dim) {
  const std::uint64_t n = static_cast<std::uint64_t>(universe_size);
  const std::uint64_t d = static_cast<std::uint64_t>(dim);
  return kHeaderBytes + 4 + n * 8 + n + n * d * 8 + kTrailerBytes;
}

bool FitsSnapshotFormat(int universe_size) {
  // The kMaxUniverse bound comes first: it keeps the size arithmetic
  // itself overflow-free.
  return universe_size >= 0 &&
         static_cast<std::uint64_t>(universe_size) <= kMaxUniverse &&
         EncodedSnapshotBytes(universe_size) <= kMaxSnapshotBytes;
}

bool FitsVectorSnapshotFormat(int universe_size, int dim) {
  return universe_size >= 0 &&
         static_cast<std::uint64_t>(universe_size) <= kMaxUniverse &&
         dim >= 1 && dim <= engine::kMaxVectorDim &&
         EncodedVectorSnapshotBytes(universe_size, dim) <= kMaxSnapshotBytes;
}

bool FitsSnapshotFormat(const engine::CorpusSnapshot& snapshot) {
  return snapshot.repr() == engine::MetricRepr::kDense
             ? FitsSnapshotFormat(snapshot.universe_size())
             : FitsVectorSnapshotFormat(snapshot.universe_size(),
                                        snapshot.dim());
}

bool FitsSnapshotFormat(const engine::CorpusState& state) {
  return state.repr == engine::MetricRepr::kDense
             ? FitsSnapshotFormat(static_cast<int>(state.weights.size()))
             : FitsVectorSnapshotFormat(
                   static_cast<int>(state.weights.size()),
                   state.vectors.dim());
}

std::vector<std::uint8_t> EncodeSnapshot(
    const engine::CorpusSnapshot& snapshot) {
  std::vector<char> alive(snapshot.universe_size());
  for (int id = 0; id < snapshot.universe_size(); ++id) {
    alive[id] = snapshot.alive(id) ? 1 : 0;
  }
  const bool dense = snapshot.repr() == engine::MetricRepr::kDense;
  return EncodeImage(snapshot.version(), snapshot.lambda(),
                     snapshot.weights().weights(), alive,
                     dense ? &snapshot.metric() : nullptr,
                     dense ? nullptr : &snapshot.vectors());
}

std::vector<std::uint8_t> EncodeState(const engine::CorpusState& state) {
  const bool dense = state.repr == engine::MetricRepr::kDense;
  return EncodeImage(state.version, state.lambda, state.weights, state.alive,
                     dense ? &state.metric : nullptr,
                     dense ? nullptr : &state.vectors);
}

bool DecodeSnapshot(std::span<const std::uint8_t> payload,
                    engine::CorpusState* state) {
  const auto body = ImageBody(payload, kMagic, kSnapshotFormatVersion);
  if (!body) return false;
  ByteReader reader(*body);
  std::uint32_t n = 0, dim = 0;
  std::uint8_t repr_byte = 0;
  if (!reader.ReadU64(&state->version) || !reader.ReadF64(&state->lambda) ||
      !reader.ReadU32(&n) || !reader.ReadU8(&repr_byte) ||
      repr_byte > static_cast<std::uint8_t>(engine::MetricRepr::kVector)) {
    return false;
  }
  state->repr = static_cast<engine::MetricRepr>(repr_byte);
  const bool dense = state->repr == engine::MetricRepr::kDense;
  // n and dim are bounded before they enter any size arithmetic. The
  // exact-size equation then doubles as the truncation/trailing-garbage
  // check: every read below is known to be in bounds.
  if (n > kMaxUniverse) return false;
  if (!dense && (!reader.ReadU32(&dim) || dim < 1 ||
                 dim > static_cast<std::uint32_t>(engine::kMaxVectorDim))) {
    return false;
  }
  if (payload.size() !=
      (dense ? EncodedSnapshotBytes(static_cast<int>(n))
             : EncodedVectorSnapshotBytes(static_cast<int>(n),
                                          static_cast<int>(dim)))) {
    return false;
  }
  state->weights.resize(n);
  state->alive.resize(n);
  if (!reader.ReadF64s(state->weights) ||
      !reader.ReadBytes(reinterpret_cast<std::uint8_t*>(state->alive.data()),
                        n)) {
    return false;
  }
  if (dense) {
    state->vectors = VectorMetric(0, 0);
    // Distances are the one field ValidState does not cover. Each stored
    // row is read in bulk straight into its metric row, then checked.
    const auto fill = [&reader](int, std::span<double> upper) {
      return reader.ReadF64s(upper) &&
             std::all_of(upper.begin(), upper.end(), engine::ValidDistance);
    };
    auto metric = DenseMetric::FromUpperTriangle(static_cast<int>(n), fill);
    if (!metric) return false;
    state->metric = std::move(*metric);
  } else {
    state->metric = DenseMetric(0);
    std::vector<double> data(std::size_t{n} * dim);
    if (!reader.ReadF64s(data)) return false;
    state->vectors =
        VectorMetric::FromRows(static_cast<int>(dim), std::move(data));
  }
  // Lambda, weights, liveness and vector components.
  return engine::ValidState(*state);
}

std::vector<std::uint8_t> EncodeDelta(
    std::uint64_t from_version,
    std::span<const std::vector<engine::CorpusUpdate>> epochs) {
  rpc::CorpusUpdateBatch batch;
  batch.from_version = from_version;
  batch.epochs.assign(epochs.begin(), epochs.end());
  const std::vector<std::uint8_t> body = rpc::Encode(batch);
  std::vector<std::uint8_t> out;
  out.reserve(4 + 2 + body.size() + kTrailerBytes);
  AppendU32(&out, kDeltaMagic);
  AppendU16(&out, kDeltaFormatVersion);
  out.insert(out.end(), body.begin(), body.end());
  AppendU32(&out, Crc32(out));
  return out;
}

bool DecodeDelta(std::span<const std::uint8_t> payload,
                 std::uint64_t* from_version,
                 std::vector<std::vector<engine::CorpusUpdate>>* epochs) {
  const auto body = ImageBody(payload, kDeltaMagic, kDeltaFormatVersion);
  if (!body) return false;
  // The body is one wire-format CorpusUpdateBatch; its decoder is total
  // (truncation, corrupt counts, bad enum values all rejected).
  rpc::CorpusUpdateBatch batch;
  if (!rpc::Decode(*body, &batch)) return false;
  *from_version = batch.from_version;
  *epochs = std::move(batch.epochs);
  return true;
}

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  // Slice-by-8 reflected CRC-32: tables[0] is the bytewise table, and
  // tables[k][b] is the CRC of byte b followed by k zero bytes, so one
  // step folds eight bytes with eight lookups. Built once, on first use.
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  for (; left >= 8; p += 8, left -= 8) {
    const std::uint32_t c = crc;
    crc = tables[7][(c ^ p[0]) & 0xFF] ^ tables[6][((c >> 8) ^ p[1]) & 0xFF];
    crc ^= tables[5][((c >> 16) ^ p[2]) & 0xFF] ^ tables[4][(c >> 24) ^ p[3]];
    crc ^= tables[3][p[4]] ^ tables[2][p[5]];
    crc ^= tables[1][p[6]] ^ tables[0][p[7]];
  }
  for (; left > 0; ++p, --left) {
    crc = (crc >> 8) ^ tables[0][(crc ^ *p) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace snapshot
}  // namespace diverse
