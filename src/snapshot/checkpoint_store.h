// Atomic on-disk persistence of corpus snapshots — the cold-start story
// for both shard_node_cli and engine_server_cli.
//
// One store manages one directory of checkpoint files named
//
//   checkpoint-<version, 20 zero-padded digits>.snap
//
// each holding exactly one snapshot_codec image. Writes are crash-safe by
// construction: the image is written to a `.tmp` sibling, flushed to
// stable storage (fsync, then a directory fsync so the rename itself is
// durable), and renamed into place — a reader can never observe a torn
// checkpoint under its final name, and LoadLatest skips `.tmp` leftovers
// from a crashed writer entirely. After each successful save the store
// prunes all but the newest `retain` checkpoints, bounding disk use.
//
// Loading is as defensive as the codec: LoadLatest walks checkpoints from
// newest to oldest and returns the first one that fully decodes and
// validates, so a corrupt or truncated latest file degrades to the
// previous good checkpoint instead of failing the cold start.
//
// Delta checkpoints (`delta-<from>-<to>.delta`) persist only the update
// epochs since the previous save — O(epoch) instead of the O(n^2) full
// image — chained file-by-file onto the last saved version. SaveDelta
// refuses (and the caller writes a full image instead) when it cannot
// chain: nothing saved yet this process, a version gap, or the chain at
// max_delta_chain (bounding cold-start replay). LoadLatest folds the
// contiguous, validating delta chain on top of the newest good full
// image, stopping at the first corrupt, gapped or invalid file — epochs
// are re-validated through the same engine::ValidEpoch replica replay
// uses, so no delta can fold into a replay-rejected state.
#ifndef DIVERSE_SNAPSHOT_CHECKPOINT_STORE_H_
#define DIVERSE_SNAPSHOT_CHECKPOINT_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/corpus.h"

namespace diverse {
namespace snapshot {

class CheckpointStore {
 public:
  struct Options {
    // Checkpoints kept after a successful save (>= 1). Older ones are
    // deleted; keeping a few shields cold start from one corrupt file.
    int retain = 3;
    // Consecutive delta checkpoints allowed before SaveDelta refuses and
    // the caller must write a full image (bounds cold-start replay and
    // the blast radius of one corrupt delta). 0 disables deltas.
    int max_delta_chain = 16;
  };

  // `dir` is created (recursively) on the first save if missing. The
  // store holds no file handles between calls; several stores may point
  // at distinct directories, but two writers on one directory race their
  // retention scans and must be avoided by the caller.
  CheckpointStore(std::string dir, Options options);
  explicit CheckpointStore(std::string dir)
      : CheckpointStore(std::move(dir), Options()) {}

  // Encodes `snapshot` and atomically publishes it as the checkpoint for
  // its version. Returns false (with a diagnostic on *error when
  // non-null) if the directory or file cannot be written; an existing
  // checkpoint of the same version is replaced atomically.
  bool Save(const engine::CorpusSnapshot& snapshot,
            std::string* error = nullptr);
  // Same, from pre-encoded image bytes at `version` (the replica path:
  // a transferred snapshot is persisted without re-encoding).
  bool SaveEncoded(std::uint64_t version,
                   const std::vector<std::uint8_t>& image,
                   std::string* error = nullptr);
  // Persists the epochs that advanced the corpus from `from_version` to
  // `to_version` (== from_version + epochs.size()) as a delta chained
  // onto the last save. Returns false when it cannot chain (see class
  // comment) or the write fails; the caller then saves a full image.
  bool SaveDelta(std::uint64_t from_version, std::uint64_t to_version,
                 std::span<const std::vector<engine::CorpusUpdate>> epochs,
                 std::string* error = nullptr);

  // Decodes the newest full checkpoint that validates (skipping torn
  // temp files and corrupt images) and folds the contiguous delta chain
  // on top of it. nullopt when no loadable checkpoint exists.
  std::optional<engine::CorpusState> LoadLatest(
      std::string* error = nullptr) const;

  // Versions with a (final-named) full checkpoint file, ascending.
  // Unreadable directories yield an empty list.
  std::vector<std::uint64_t> ListVersions() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string PathFor(std::uint64_t version) const;
  std::string DeltaPathFor(std::uint64_t from_version,
                           std::uint64_t to_version) const;
  bool Publish(const std::string& final_path,
               const std::vector<std::uint8_t>& bytes, std::string* error);

  const std::string dir_;
  const Options options_;
  // Chain bookkeeping for SaveDelta — which version the next delta may
  // extend, and how long the current chain is. Reset by every full save;
  // a fresh process starts with no base (first save is always full).
  std::optional<std::uint64_t> last_saved_version_;
  int delta_chain_length_ = 0;
};

}  // namespace snapshot
}  // namespace diverse

#endif  // DIVERSE_SNAPSHOT_CHECKPOINT_STORE_H_
