// Versioned binary codec for full corpus snapshots — the durability format
// shared by on-disk checkpoints (snapshot/checkpoint_store.h) and the RPC
// snapshot-transfer messages (rpc/wire.h SnapshotOffer/SnapshotChunk).
//
// One snapshot image is a self-contained little-endian payload
//
//   [u32 magic "DSNP"][u16 format version]
//   [u64 corpus version][f64 lambda][u32 n][u8 repr]
//   dense  (repr = 0):  [n x f64 weights][n x u8 liveness]
//                       [n(n-1)/2 x f64 upper-triangle distances
//                        (u < v, row order)]
//   vector (repr = 1):  [u32 dim][n x f64 weights][n x u8 liveness]
//                       [n*dim x f64 row-major feature vectors]
//   [u32 CRC-32 of everything above]
//
// Dense images store only the strict upper triangle: the matrix is
// reconstructed symmetric with a zero diagonal by construction, halving
// the image size (the n x n matrix dominates — ~64 MB at n = 4000).
// Vector images are the O(n * d) representation: ~32 KB/element at
// d = 4096 and independent of n, which is what makes checkpointing a
// large feature-vector corpus scale.
//
// Decoding is total, to the same hardening bar as rpc/wire and through the
// same util/bytes.h ByteReader: a truncated, oversized, garbled,
// version-skewed, or checksum-mismatched image — and any image whose
// values an epoch replay would have rejected (negative or non-finite
// weights/distances, invalid vector components, non-0/1 liveness) — is
// rejected with `false`, never an abort or an unbounded allocation.
// DecodeSnapshot bounds n and dim and checks the exact image length
// before any allocation, checks each dense distance with
// engine::ValidDistance as it fills the matrix, and leaves every other
// value to one engine::ValidState call on the decoded image: the same
// predicates rpc::ShardNode applies to epoch batches, so a checkpoint
// cannot round-trip into a state a replay would have refused.
#ifndef DIVERSE_SNAPSHOT_SNAPSHOT_CODEC_H_
#define DIVERSE_SNAPSHOT_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/corpus.h"

namespace diverse {
namespace snapshot {

// Bumped on any incompatible layout change; decoders reject other values.
// v2 added the repr byte and the feature-vector payload variant.
inline constexpr std::uint16_t kSnapshotFormatVersion = 2;

// Ceiling on one decoded image (and on the id-space size implied by its
// header): a corrupt element count must not drive an OOM. 1 GiB covers
// n ~ 16000 with the dense triangle; raise alongside kSnapshotFormatVersion
// if corpora outgrow it.
inline constexpr std::uint64_t kMaxSnapshotBytes = std::uint64_t{1} << 30;

// Exact encoded size of a dense snapshot of `universe_size` ids.
std::uint64_t EncodedSnapshotBytes(int universe_size);
// Exact encoded size of a feature-vector snapshot: O(n * dim), not O(n^2).
std::uint64_t EncodedVectorSnapshotBytes(int universe_size, int dim);

// Whether a corpus of `universe_size` ids fits the format's size
// ceiling (dense / feature-vector payload respectively).
// EncodeSnapshot/EncodeState CHECK-abort outside this bound, so
// durability call sites (checkpoint save, log compaction) pre-check and
// degrade gracefully instead of killing a serving process.
bool FitsSnapshotFormat(int universe_size);
bool FitsVectorSnapshotFormat(int universe_size, int dim);
// Representation-aware pre-checks for live objects.
bool FitsSnapshotFormat(const engine::CorpusSnapshot& snapshot);
bool FitsSnapshotFormat(const engine::CorpusState& state);

// Serializes one immutable corpus version (either representation). Never
// fails; the result is accepted by DecodeSnapshot and is deterministic
// for a given snapshot.
std::vector<std::uint8_t> EncodeSnapshot(
    const engine::CorpusSnapshot& snapshot);
// Same image from a plain state (used by tests and tools that hold a
// decoded state rather than a live corpus).
std::vector<std::uint8_t> EncodeState(const engine::CorpusState& state);

// Decodes and fully validates one image. On success fills *state with a
// corpus image that Corpus::Restore accepts; on any malformation returns
// false and leaves *state unspecified.
bool DecodeSnapshot(std::span<const std::uint8_t> payload,
                    engine::CorpusState* state);

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `data` — exposed for the
// checkpoint store's trailer verification and for tests.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

// ---- Delta images ---------------------------------------------------------
//
// A delta image persists the update epochs that advanced a corpus from
// `from_version` to `from_version + epochs.size()` — O(epoch bytes)
// instead of the O(n^2) full image, which is what makes frequent replica
// checkpoints (--checkpoint_every=1) viable for large corpora. The
// payload is
//
//   [u32 magic "DDLT"][u16 delta format version]
//   [rpc/wire CorpusUpdateBatch payload]
//   [u32 CRC-32 of everything above]
//
// reusing the wire codec's total, fuzz-hardened batch decoding. A delta
// is only meaningful relative to the exact state it chained from;
// CheckpointStore owns that chaining (SaveDelta/LoadLatest) and re-folds
// deltas through the same engine::ValidEpoch epoch replay uses.

// Bumped on any incompatible layout change; decoders reject other values.
inline constexpr std::uint16_t kDeltaFormatVersion = 1;

// Serializes the epochs [from_version, from_version + epochs.size()).
// Never fails; the result is accepted by DecodeDelta.
std::vector<std::uint8_t> EncodeDelta(
    std::uint64_t from_version,
    std::span<const std::vector<engine::CorpusUpdate>> epochs);

// Decodes and structurally validates one delta image (magic, format,
// checksum, total batch decode). Value-level validation happens at fold
// time against the base state's universe. Returns false on any
// malformation, leaving the outputs unspecified.
bool DecodeDelta(std::span<const std::uint8_t> payload,
                 std::uint64_t* from_version,
                 std::vector<std::vector<engine::CorpusUpdate>>* epochs);

}  // namespace snapshot
}  // namespace diverse

#endif  // DIVERSE_SNAPSHOT_SNAPSHOT_CODEC_H_
