#include "snapshot/checkpoint_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "snapshot/snapshot_codec.h"
#include "util/check.h"

namespace diverse {
namespace snapshot {
namespace {

namespace fs = std::filesystem;

constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".snap";
constexpr char kDeltaPrefix[] = "delta-";
constexpr char kDeltaSuffix[] = ".delta";
constexpr int kVersionDigits = 20;

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

std::optional<std::uint64_t> ParseDigits(const std::string& text,
                                         std::size_t pos) {
  std::uint64_t value = 0;
  for (int i = 0; i < kVersionDigits; ++i) {
    const char c = text[pos + static_cast<std::size_t>(i)];
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

// checkpoint-<20 digits>.snap -> version; nullopt for anything else
// (including the .tmp leftovers of a crashed writer).
std::optional<std::uint64_t> ParseVersion(const std::string& filename) {
  const std::size_t prefix = sizeof(kPrefix) - 1;
  const std::size_t suffix = sizeof(kSuffix) - 1;
  if (filename.size() != prefix + kVersionDigits + suffix) return std::nullopt;
  if (filename.compare(0, prefix, kPrefix) != 0) return std::nullopt;
  if (filename.compare(prefix + kVersionDigits, suffix, kSuffix) != 0) {
    return std::nullopt;
  }
  return ParseDigits(filename, prefix);
}

// delta-<20 digits>-<20 digits>.delta -> (from, to); nullopt otherwise.
std::optional<std::pair<std::uint64_t, std::uint64_t>> ParseDeltaRange(
    const std::string& filename) {
  const std::size_t prefix = sizeof(kDeltaPrefix) - 1;
  const std::size_t suffix = sizeof(kDeltaSuffix) - 1;
  if (filename.size() != prefix + 2 * kVersionDigits + 1 + suffix) {
    return std::nullopt;
  }
  if (filename.compare(0, prefix, kDeltaPrefix) != 0) return std::nullopt;
  if (filename[prefix + kVersionDigits] != '-') return std::nullopt;
  if (filename.compare(prefix + 2 * kVersionDigits + 1, suffix,
                       kDeltaSuffix) != 0) {
    return std::nullopt;
  }
  const std::optional<std::uint64_t> from = ParseDigits(filename, prefix);
  const std::optional<std::uint64_t> to =
      ParseDigits(filename, prefix + kVersionDigits + 1);
  if (!from || !to || *to <= *from) return std::nullopt;
  return std::make_pair(*from, *to);
}

// Writes `bytes` to `path` and flushes them to stable storage. POSIX fds
// rather than iostreams: durability needs fsync.
bool WriteDurable(const std::string& path,
                  const std::vector<std::uint8_t>& bytes,
                  std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    SetError(error, "cannot create " + path + ": " + std::strerror(errno));
    return false;
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      SetError(error, "cannot write " + path + ": " + std::strerror(errno));
      ::close(fd);
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    SetError(error, "cannot fsync " + path + ": " + std::strerror(errno));
    return false;
  }
  return true;
}

// Makes a completed rename in `dir` durable (fsync on the directory fd).
// Best-effort: some filesystems refuse directory fsync; the rename itself
// is still atomic.
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// Reads a whole checkpoint or delta file with one bulk read into a
// presized buffer. A file larger than kMaxSnapshotBytes, which no decoder
// accepts, fails here unread, so a stray huge file is never allocated.
bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec || size > kMaxSnapshotBytes) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(size));
  return in.gcount() == static_cast<std::streamsize>(size);
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  DIVERSE_CHECK_MSG(!dir_.empty(), "checkpoint directory must be named");
  DIVERSE_CHECK(options_.retain >= 1);
  DIVERSE_CHECK(options_.max_delta_chain >= 0);
}

std::string CheckpointStore::PathFor(std::uint64_t version) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%0*llu%s", kPrefix, kVersionDigits,
                static_cast<unsigned long long>(version), kSuffix);
  return (fs::path(dir_) / name).string();
}

std::string CheckpointStore::DeltaPathFor(std::uint64_t from_version,
                                          std::uint64_t to_version) const {
  char name[80];
  std::snprintf(name, sizeof(name), "%s%0*llu-%0*llu%s", kDeltaPrefix,
                kVersionDigits, static_cast<unsigned long long>(from_version),
                kVersionDigits, static_cast<unsigned long long>(to_version),
                kDeltaSuffix);
  return (fs::path(dir_) / name).string();
}

// tmp + fsync + rename + dir fsync — the shared atomic-publish path for
// full images and deltas alike.
bool CheckpointStore::Publish(const std::string& final_path,
                              const std::vector<std::uint8_t>& bytes,
                              std::string* error) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    SetError(error, "cannot create " + dir_ + ": " + ec.message());
    return false;
  }
  const std::string temp_path = final_path + ".tmp";
  if (!WriteDurable(temp_path, bytes, error)) return false;
  if (std::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    SetError(error, "cannot rename " + temp_path + ": " +
                        std::strerror(errno));
    std::remove(temp_path.c_str());
    return false;
  }
  SyncDir(dir_);
  return true;
}

bool CheckpointStore::Save(const engine::CorpusSnapshot& snapshot,
                           std::string* error) {
  if (!FitsSnapshotFormat(snapshot)) {
    SetError(error, "corpus too large for the snapshot format (n=" +
                        std::to_string(snapshot.universe_size()) + ")");
    return false;
  }
  return SaveEncoded(snapshot.version(), EncodeSnapshot(snapshot), error);
}

bool CheckpointStore::SaveEncoded(std::uint64_t version,
                                  const std::vector<std::uint8_t>& image,
                                  std::string* error) {
  if (!Publish(PathFor(version), image, error)) return false;
  last_saved_version_ = version;
  delta_chain_length_ = 0;

  // Retention: newest `retain` full images survive, and every delta at or
  // below this image is now subsumed by it. Only run after a successful
  // save so a failing disk never deletes the one checkpoint that still
  // loads.
  std::error_code ec;
  std::vector<std::uint64_t> versions = ListVersions();
  if (static_cast<int>(versions.size()) > options_.retain) {
    for (std::size_t i = 0;
         i + static_cast<std::size_t>(options_.retain) < versions.size();
         ++i) {
      fs::remove(PathFor(versions[i]), ec);
    }
  }
  fs::directory_iterator it(dir_, ec);
  if (!ec) {
    for (const fs::directory_entry& entry : it) {
      const auto range = ParseDeltaRange(entry.path().filename().string());
      if (range && range->second <= version) fs::remove(entry.path(), ec);
    }
  }
  return true;
}

bool CheckpointStore::SaveDelta(
    std::uint64_t from_version, std::uint64_t to_version,
    std::span<const std::vector<engine::CorpusUpdate>> epochs,
    std::string* error) {
  DIVERSE_CHECK(to_version == from_version + epochs.size());
  if (options_.max_delta_chain <= 0 || epochs.empty() ||
      !last_saved_version_ || *last_saved_version_ != from_version ||
      delta_chain_length_ >= options_.max_delta_chain) {
    SetError(error, "delta cannot chain; save a full image");
    return false;
  }
  if (!Publish(DeltaPathFor(from_version, to_version),
               EncodeDelta(from_version, epochs), error)) {
    return false;
  }
  last_saved_version_ = to_version;
  ++delta_chain_length_;
  return true;
}

std::vector<std::uint64_t> CheckpointStore::ListVersions() const {
  std::vector<std::uint64_t> versions;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return versions;
  for (const fs::directory_entry& entry : it) {
    const std::optional<std::uint64_t> version =
        ParseVersion(entry.path().filename().string());
    if (version) versions.push_back(*version);
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

std::optional<engine::CorpusState> CheckpointStore::LoadLatest(
    std::string* error) const {
  const std::vector<std::uint64_t> versions = ListVersions();
  std::string last_error = "no checkpoint under " + dir_;
  for (std::size_t i = versions.size(); i-- > 0;) {
    const std::string path = PathFor(versions[i]);
    std::vector<std::uint8_t> bytes;
    if (!ReadFileBytes(path, &bytes)) {
      last_error = "unreadable or oversized checkpoint " + path;
      continue;
    }
    engine::CorpusState state;
    if (!DecodeSnapshot(bytes, &state)) {
      // Corrupt or truncated: fall back to the previous checkpoint.
      last_error = "corrupt checkpoint " + path;
      continue;
    }

    // Fold the contiguous delta chain on top. Deltas crossed a trust
    // boundary (disk): every epoch re-validates through ValidEpoch before
    // it touches the corpus, and the first corrupt, gapped, or invalid
    // file ends the chain — the fold so far is still a good (just older)
    // state.
    std::map<std::uint64_t, std::vector<std::uint64_t>> chain;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (!ec) {
      for (const fs::directory_entry& entry : it) {
        const auto range = ParseDeltaRange(entry.path().filename().string());
        if (range) chain[range->first].push_back(range->second);
      }
    }
    std::optional<engine::Corpus> corpus;
    std::uint64_t at = state.version;
    while (chain.count(at)) {
      if (!corpus) corpus.emplace(std::move(state));
      // Prefer the longest extension from `at`; fall through shorter
      // ones when it fails to decode or validate.
      std::vector<std::uint64_t>& tos = chain[at];
      std::sort(tos.begin(), tos.end());
      bool advanced = false;
      for (std::size_t t = tos.size(); t-- > 0 && !advanced;) {
        const std::uint64_t to = tos[t];
        std::vector<std::uint8_t> delta_bytes;
        std::uint64_t from;
        std::vector<std::vector<engine::CorpusUpdate>> epochs;
        if (!ReadFileBytes(DeltaPathFor(at, to), &delta_bytes) ||
            !DecodeDelta(delta_bytes, &from, &epochs) || from != at ||
            epochs.size() != to - at) {
          continue;
        }
        engine::UpdateContext ctx = corpus->snapshot()->update_context();
        const auto valid = [&ctx](const std::vector<engine::CorpusUpdate>& e) {
          return engine::ValidEpoch(e, &ctx);
        };
        if (!std::all_of(epochs.begin(), epochs.end(), valid)) continue;
        for (const auto& epoch : epochs) corpus->Apply(epoch);
        at = to;
        advanced = true;
      }
      if (!advanced) break;
    }
    if (corpus) state = corpus->snapshot()->State();
    return state;
  }
  SetError(error, last_error);
  return std::nullopt;
}

}  // namespace snapshot
}  // namespace diverse
