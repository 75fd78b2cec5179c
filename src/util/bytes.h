// Little-endian byte writers and the one bounds-checked reader shared by
// the RPC wire format (rpc/wire.cc), the corpus image codec
// (snapshot/snapshot_codec.cc) and the socket framing
// (rpc/socket_transport.cc). Every byte layout that crosses the wire or
// the disk is defined in terms of these, so they live in one place.
#ifndef DIVERSE_UTIL_BYTES_H_
#define DIVERSE_UTIL_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace diverse {

inline void AppendU8(std::vector<std::uint8_t>* out, std::uint8_t value) {
  out->push_back(value);
}

inline void AppendU16(std::vector<std::uint8_t>* out, std::uint16_t value) {
  out->push_back(static_cast<std::uint8_t>(value));
  out->push_back(static_cast<std::uint8_t>(value >> 8));
}

inline void AppendU32(std::vector<std::uint8_t>* out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

inline void AppendU64(std::vector<std::uint8_t>* out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

// Two's complement, as the unsigned value of the same width.
inline void AppendI32(std::vector<std::uint8_t>* out, std::int32_t value) {
  AppendU32(out, static_cast<std::uint32_t>(value));
}

inline void AppendI64(std::vector<std::uint8_t>* out, std::int64_t value) {
  AppendU64(out, static_cast<std::uint64_t>(value));
}

// The IEEE-754 bit pattern, as a little-endian u64.
inline void AppendF64(std::vector<std::uint8_t>* out, double value) {
  AppendU64(out, std::bit_cast<std::uint64_t>(value));
}

// The same bytes as one AppendF64 per value. On little-endian hosts
// (every supported target) the IEEE bit patterns are already in byte
// order, so this is one memcpy, which keeps image and frame encoding at
// memory bandwidth. An empty span may carry a null data pointer.
inline void AppendF64s(std::vector<std::uint8_t>* out,
                       std::span<const double> values) {
  if (values.empty()) return;
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t offset = out->size();
    out->resize(offset + values.size_bytes());
    std::memcpy(out->data() + offset, values.data(), values.size_bytes());
  } else {
    for (double value : values) AppendF64(out, value);
  }
}

// Bounds-checked cursor over one payload. Every Read* either consumes its
// bytes or returns false, after which the payload is to be rejected.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return remaining() == 0; }

  bool ReadU8(std::uint8_t* value) {
    if (remaining() < 1) return false;
    *value = data_[pos_++];
    return true;
  }

  bool ReadU16(std::uint16_t* value) { return ReadLittle(value); }
  bool ReadU32(std::uint32_t* value) { return ReadLittle(value); }
  bool ReadU64(std::uint64_t* value) { return ReadLittle(value); }

  bool ReadI32(std::int32_t* value) {
    std::uint32_t raw = 0;
    if (!ReadU32(&raw)) return false;
    *value = static_cast<std::int32_t>(raw);
    return true;
  }

  bool ReadI64(std::int64_t* value) {
    std::uint64_t raw = 0;
    if (!ReadU64(&raw)) return false;
    *value = static_cast<std::int64_t>(raw);
    return true;
  }

  bool ReadF64(double* value) {
    std::uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *value = std::bit_cast<double>(bits);
    return true;
  }

  // Fills `values` with the next values.size() doubles: the inverse of
  // AppendF64s, with its memcpy fast path.
  bool ReadF64s(std::span<double> values) {
    if (remaining() / sizeof(double) < values.size()) return false;
    if (values.empty()) return true;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(values.data(), data_.data() + pos_, values.size_bytes());
      pos_ += values.size_bytes();
    } else {
      for (double& value : values) ReadF64(&value);
    }
    return true;
  }

  bool ReadBytes(std::uint8_t* out, std::size_t count) {
    if (remaining() < count) return false;
    if (count > 0) std::memcpy(out, data_.data() + pos_, count);
    pos_ += count;
    return true;
  }

  // Element count (a u32) for a vector whose entries take `stride` bytes
  // each. Bounding by the bytes actually remaining means a corrupt count
  // can never drive a huge allocation: the subsequent reads fail first.
  bool ReadCount(std::size_t stride, std::size_t* count) {
    std::uint32_t raw = 0;
    if (!ReadU32(&raw)) return false;
    if (std::size_t{raw} * stride > remaining()) return false;
    *count = raw;
    return true;
  }

 private:
  // One load on little-endian hosts; GCC does not fuse the byte loop.
  template <typename T>
  bool ReadLittle(T* value) {
    if (remaining() < sizeof(T)) return false;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(value, data_.data() + pos_, sizeof(T));
    } else {
      T v = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(T{data_[pos_ + i]} << (8 * i));
      }
      *value = v;
    }
    pos_ += sizeof(T);
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace diverse

#endif  // DIVERSE_UTIL_BYTES_H_
