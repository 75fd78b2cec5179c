#include "snapshot/snapshot_codec.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>

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

// Appends `count` doubles starting at `values`. The image is defined as
// little-endian; on little-endian hosts (every supported target) the IEEE
// bit patterns are already in image order, so the bulk path is one memcpy
// — this is what makes checkpoint load/store run at memory bandwidth.
void AppendF64Array(std::vector<std::uint8_t>* out, const double* values,
                    std::size_t count) {
  // An empty array may come with a null `values`, which memcpy must not
  // be handed even for zero bytes.
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t offset = out->size();
    out->resize(offset + count * sizeof(double));
    std::memcpy(out->data() + offset, values, count * sizeof(double));
  } else {
    for (std::size_t i = 0; i < count; ++i) AppendF64(out, values[i]);
  }
}

double ReadF64At(std::span<const std::uint8_t> data, std::size_t pos) {
  if constexpr (std::endian::native == std::endian::little) {
    double value;
    std::memcpy(&value, data.data() + pos, sizeof(value));
    return value;
  } else {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= std::uint64_t{data[pos + i]} << (8 * i);
    }
    double value;
    std::memcpy(&value, &bits, sizeof(bits));
    return value;
  }
}

std::uint32_t ReadU32At(std::span<const std::uint8_t> data, std::size_t pos) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= std::uint32_t{data[pos + i]} << (8 * i);
  }
  return value;
}

std::uint64_t ReadU64At(std::span<const std::uint8_t> data, std::size_t pos) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= std::uint64_t{data[pos + i]} << (8 * i);
  }
  return value;
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
  AppendF64Array(&out, weights.data(), weights.size());
  for (char a : alive) out.push_back(a ? 1 : 0);
  if (dense) {
    // Strict upper triangle in row order; one bulk append per row.
    std::vector<double> row;
    for (std::uint64_t u = 0; u + 1 < n; ++u) {
      row.clear();
      for (std::uint64_t v = u + 1; v < n; ++v) {
        row.push_back(metric->Distance(static_cast<int>(u),
                                       static_cast<int>(v)));
      }
      AppendF64Array(&out, row.data(), row.size());
    }
  } else {
    // Row-major vectors: already contiguous, one bulk append.
    AppendF64Array(&out, vectors->data().data(), vectors->data().size());
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
  if (payload.size() < kHeaderBytes + kTrailerBytes) return false;
  if (payload.size() > kMaxSnapshotBytes) return false;
  // Integrity first: a flipped bit anywhere (header included) fails here.
  const std::size_t body = payload.size() - kTrailerBytes;
  if (Crc32(payload.subspan(0, body)) != ReadU32At(payload, body)) {
    return false;
  }
  std::size_t pos = 0;
  if (ReadU32At(payload, pos) != kMagic) return false;
  pos += 4;
  const std::uint16_t format = static_cast<std::uint16_t>(
      payload[pos] | (std::uint16_t{payload[pos + 1]} << 8));
  if (format != kSnapshotFormatVersion) return false;
  pos += 2;
  state->version = ReadU64At(payload, pos);
  pos += 8;
  state->lambda = ReadF64At(payload, pos);
  pos += 8;
  const std::uint64_t n = ReadU32At(payload, pos);
  pos += 4;
  const std::uint8_t repr_byte = payload[pos];
  pos += 1;
  if (repr_byte > static_cast<std::uint8_t>(engine::MetricRepr::kVector)) {
    return false;
  }
  state->repr = static_cast<engine::MetricRepr>(repr_byte);
  const bool dense = state->repr == engine::MetricRepr::kDense;
  if (n > kMaxUniverse) return false;
  std::uint64_t dim = 0;
  if (dense) {
    // The exact-size equation doubles as the truncation/trailing-garbage
    // check: every field below is then known to be in bounds.
    if (payload.size() != EncodedSnapshotBytes(static_cast<int>(n))) {
      return false;
    }
  } else {
    // Vector images carry a dim field; bound-check before trusting it in
    // any size arithmetic, then apply the same exact-size equation.
    if (payload.size() < pos + 4 + kTrailerBytes) return false;
    dim = ReadU32At(payload, pos);
    pos += 4;
    if (dim < 1 || dim > static_cast<std::uint64_t>(engine::kMaxVectorDim)) {
      return false;
    }
    if (payload.size() !=
        EncodedVectorSnapshotBytes(static_cast<int>(n),
                                   static_cast<int>(dim))) {
      return false;
    }
  }
  if (!(state->lambda >= 0.0) || !std::isfinite(state->lambda)) return false;

  state->weights.resize(n);
  for (std::uint64_t i = 0; i < n; ++i, pos += 8) {
    state->weights[i] = ReadF64At(payload, pos);
    if (!engine::ValidWeight(state->weights[i])) return false;
  }
  state->alive.resize(n);
  for (std::uint64_t i = 0; i < n; ++i, ++pos) {
    const std::uint8_t a = payload[pos];
    if (a > 1) return false;
    state->alive[i] = static_cast<char>(a);
  }
  if (dense) {
    state->vectors = VectorMetric(0, 0);
    state->metric = DenseMetric(static_cast<int>(n));
    for (std::uint64_t u = 0; u + 1 < n; ++u) {
      for (std::uint64_t v = u + 1; v < n; ++v, pos += 8) {
        const double d = ReadF64At(payload, pos);
        if (!engine::ValidDistance(d)) return false;
        state->metric.SetDistance(static_cast<int>(u), static_cast<int>(v),
                                  d);
      }
    }
  } else {
    state->metric = DenseMetric(0);
    std::vector<double> data(n * dim);
    for (std::uint64_t i = 0; i < n * dim; ++i, pos += 8) {
      data[i] = ReadF64At(payload, pos);
      if (!engine::ValidVectorComponent(data[i])) return false;
    }
    state->vectors =
        VectorMetric::FromRows(static_cast<int>(dim), std::move(data));
  }
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
  constexpr std::size_t kDeltaHeaderBytes = 4 + 2;
  if (payload.size() < kDeltaHeaderBytes + kTrailerBytes) return false;
  if (payload.size() > kMaxSnapshotBytes) return false;
  const std::size_t body = payload.size() - kTrailerBytes;
  if (Crc32(payload.subspan(0, body)) != ReadU32At(payload, body)) {
    return false;
  }
  if (ReadU32At(payload, 0) != kDeltaMagic) return false;
  const std::uint16_t format = static_cast<std::uint16_t>(
      payload[4] | (std::uint16_t{payload[5]} << 8));
  if (format != kDeltaFormatVersion) return false;
  // The body is one wire-format CorpusUpdateBatch; its decoder is total
  // (truncation, corrupt counts, bad enum values all rejected).
  rpc::CorpusUpdateBatch batch;
  if (!rpc::Decode(payload.subspan(kDeltaHeaderBytes,
                                   body - kDeltaHeaderBytes),
                   &batch)) {
    return false;
  }
  *from_version = batch.from_version;
  *epochs = std::move(batch.epochs);
  return true;
}

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  // Table-driven reflected CRC-32; the table is built once, on first use.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace snapshot
}  // namespace diverse
