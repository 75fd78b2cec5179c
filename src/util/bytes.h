// Little-endian byte writers shared by the RPC wire format (rpc/wire.cc)
// and the corpus image codec (snapshot/snapshot_codec.cc). Both byte
// layouts are defined in terms of these, so they live in one place.
#ifndef DIVERSE_UTIL_BYTES_H_
#define DIVERSE_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
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

// The IEEE-754 bit pattern, as a little-endian u64.
inline void AppendF64(std::vector<std::uint8_t>* out, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(out, bits);
}

}  // namespace diverse

#endif  // DIVERSE_UTIL_BYTES_H_
