// Tests for the snapshot & durability subsystem (src/snapshot/): codec
// round-trips over randomized corpora (churned, weight-only-epoch, and
// lazy-metric ones), totality of decoding under truncation and
// corruption, Corpus::Restore semantics, and the checkpoint store's
// atomicity/retention/torn-file behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "engine/corpus.h"
#include "engine/workload.h"
#include "metric/vector_metric.h"
#include "snapshot/checkpoint_store.h"
#include "snapshot/snapshot_codec.h"
#include "util/random.h"

namespace diverse {
namespace snapshot {
namespace {

namespace fs = std::filesystem;
using engine::Corpus;
using engine::CorpusSnapshot;
using engine::CorpusState;
using engine::CorpusUpdate;
using engine::SnapshotPtr;

Corpus MakeCorpus(int n, std::uint64_t seed, double lambda = 0.3) {
  Rng rng(seed);
  Dataset data = MakeUniformSynthetic(n, rng);
  return Corpus(data.weights, std::move(data.metric), lambda);
}

// Every field bit-equal between a live snapshot and a decoded state.
void ExpectStateMatches(const CorpusSnapshot& snapshot,
                        const CorpusState& state) {
  EXPECT_EQ(state.version, snapshot.version());
  EXPECT_EQ(state.lambda, snapshot.lambda());
  const int n = snapshot.universe_size();
  ASSERT_EQ(static_cast<int>(state.weights.size()), n);
  ASSERT_EQ(static_cast<int>(state.alive.size()), n);
  ASSERT_EQ(state.metric.size(), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(state.weights[i], snapshot.weights().weight(i));
    EXPECT_EQ(state.alive[i] != 0, snapshot.alive(i));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      EXPECT_EQ(state.metric.Distance(u, v), snapshot.metric().Distance(u, v))
          << "d(" << u << "," << v << ")";
    }
  }
}

// CRC-32 one bit at a time (reflected polynomial 0xEDB88320): Crc32's
// slice-by-8 loop must match it at every length and alignment.
std::uint32_t BitwiseCrc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValueAndEveryShortLengthAndOffset) {
  const std::string check = "123456789";
  const std::vector<std::uint8_t> check_bytes(check.begin(), check.end());
  EXPECT_EQ(Crc32(check_bytes), 0xCBF43926u);
  Rng rng(17);
  std::vector<std::uint8_t> bytes(64 + 8);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  }
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::span<const std::uint8_t> data = all.subspan(offset, length);
      ASSERT_EQ(Crc32(data), BitwiseCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(SnapshotCodecTest, EncodedSizeMatchesFormula) {
  for (int n : {0, 1, 2, 7, 40}) {
    Corpus corpus = MakeCorpus(n, 5);
    const std::vector<std::uint8_t> image =
        EncodeSnapshot(*corpus.snapshot());
    EXPECT_EQ(image.size(), EncodedSnapshotBytes(n)) << "n=" << n;
  }
}

TEST(SnapshotCodecTest, RoundTripRandomizedChurnedCorpora) {
  Rng rng(17);
  for (int iter = 0; iter < 8; ++iter) {
    const int n = rng.UniformInt(1, 60);
    Corpus corpus = MakeCorpus(n, rng.NextSeed());
    // A deep epoch history with churn: inserts, erases, weight and
    // distance perturbations, so the snapshot carries retired ids and a
    // grown universe.
    const int epochs = rng.UniformInt(0, 12);
    for (int e = 0; e < epochs; ++e) {
      const int universe = corpus.snapshot()->universe_size();
      corpus.Apply(engine::MakeSyntheticEpoch(universe, /*churn=*/true, e,
                                              rng));
    }
    const SnapshotPtr snapshot = corpus.snapshot();
    const std::vector<std::uint8_t> image = EncodeSnapshot(*snapshot);
    CorpusState state;
    ASSERT_TRUE(DecodeSnapshot(image, &state));
    ExpectStateMatches(*snapshot, state);
    // Deterministic encode: same snapshot, same bytes.
    EXPECT_EQ(EncodeSnapshot(*snapshot), image);
    // EncodeState of the decoded state reproduces the image exactly.
    EXPECT_EQ(EncodeState(state), image);
  }
}

// Weight-only epochs share the predecessor's distance matrix; the image
// must capture that state like any other.
TEST(SnapshotCodecTest, RoundTripWeightOnlyEpochSnapshot) {
  Corpus corpus = MakeCorpus(24, 7);
  corpus.Apply(CorpusUpdate::SetWeight(3, 0.125));
  corpus.Apply(CorpusUpdate::SetWeight(9, 2.5));
  const SnapshotPtr snapshot = corpus.snapshot();
  EXPECT_EQ(snapshot->version(), 2u);
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(*snapshot), &state));
  ExpectStateMatches(*snapshot, state);
}

// Corpora materialized from a lazy base metric (Corpus::FromBaseMetric's
// DenseMetric::Materialize path) snapshot like dense-native ones.
TEST(SnapshotCodecTest, RoundTripLazyMetricCorpus) {
  Rng rng(23);
  ClusteredConfig config;
  config.n = 30;
  Dataset data = MakeClusteredEuclidean(config, rng);
  Corpus corpus = Corpus::FromBaseMetric(data.metric, data.weights, 0.4);
  const SnapshotPtr snapshot = corpus.snapshot();
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(*snapshot), &state));
  ExpectStateMatches(*snapshot, state);
}

TEST(SnapshotCodecTest, RestoreRebuildsTheExactVersion) {
  Rng rng(29);
  Corpus corpus = MakeCorpus(20, 31);
  for (int e = 0; e < 5; ++e) {
    corpus.Apply(engine::MakeSyntheticEpoch(
        corpus.snapshot()->universe_size(), /*churn=*/true, e, rng));
  }
  const SnapshotPtr original = corpus.snapshot();
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(*original), &state));

  // Restore into a fresh, unrelated corpus.
  Corpus restored = MakeCorpus(3, 99);
  EXPECT_EQ(restored.Restore(std::move(state)), original->version());
  const SnapshotPtr snapshot = restored.snapshot();
  EXPECT_EQ(snapshot->version(), original->version());
  EXPECT_EQ(snapshot->candidates(), original->candidates());
  EXPECT_EQ(snapshot->lambda(), original->lambda());
  // Applying the same epoch to both yields the same next version.
  const std::vector<CorpusUpdate> epoch{CorpusUpdate::SetWeight(0, 0.5)};
  EXPECT_EQ(corpus.Apply(epoch), restored.Apply(epoch));
}

TEST(SnapshotCodecTest, EveryPrefixTruncationRejected) {
  Corpus corpus = MakeCorpus(8, 3);
  const std::vector<std::uint8_t> image = EncodeSnapshot(*corpus.snapshot());
  CorpusState state;
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_FALSE(DecodeSnapshot(std::span(image.data(), len), &state))
        << "prefix length " << len;
  }
  std::vector<std::uint8_t> trailing = image;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeSnapshot(trailing, &state));
}

TEST(SnapshotCodecTest, EveryByteCorruptionRejected) {
  Corpus corpus = MakeCorpus(6, 9);
  const std::vector<std::uint8_t> image = EncodeSnapshot(*corpus.snapshot());
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(image, &state));
  // Single-bit flips anywhere — header, payload, or the CRC trailer —
  // must be caught (n=6 keeps this exhaustive loop cheap).
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = image;
    corrupt[pos] ^= 0x20;
    EXPECT_FALSE(DecodeSnapshot(corrupt, &state)) << "byte " << pos;
  }
}

// Re-checksummed tampering: the CRC passes, so the semantic validation
// has to reject it (format version skew, non-finite values, bad liveness).
std::vector<std::uint8_t> Rechecksum(std::vector<std::uint8_t> image) {
  const std::uint32_t crc =
      Crc32(std::span(image.data(), image.size() - 4));
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return image;
}

TEST(SnapshotCodecTest, RechecksummedTamperingStillRejected) {
  Corpus corpus = MakeCorpus(5, 13);
  const std::vector<std::uint8_t> image = EncodeSnapshot(*corpus.snapshot());
  CorpusState state;

  std::vector<std::uint8_t> bad_magic = image;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(bad_magic), &state));

  std::vector<std::uint8_t> bad_format = image;
  bad_format[4] = 0xfe;  // format version low byte
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(bad_format), &state));

  std::vector<std::uint8_t> bad_count = image;
  bad_count[22] ^= 0x01;  // universe size: image length no longer matches
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(bad_count), &state));

  // Unknown metric representation byte (follows the u32 universe size).
  std::vector<std::uint8_t> bad_repr = image;
  bad_repr[26] = 2;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(bad_repr), &state));

  // First weight -> NaN (exponent bits all-ones + mantissa bit).
  std::vector<std::uint8_t> nan_weight = image;
  for (int i = 0; i < 8; ++i) nan_weight[27 + i] = 0xff;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(nan_weight), &state));

  // First liveness byte out of {0, 1}.
  const int n = corpus.snapshot()->universe_size();
  std::vector<std::uint8_t> bad_alive = image;
  bad_alive[27 + 8 * n] = 2;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(bad_alive), &state));

  // First distance -> negative (sign bit of the first triangle double).
  std::vector<std::uint8_t> bad_distance = image;
  bad_distance[27 + 9 * n + 7] |= 0x80;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(bad_distance), &state));

  // NaN lambda.
  std::vector<std::uint8_t> bad_lambda = image;
  for (int i = 0; i < 8; ++i) bad_lambda[14 + i] = 0xff;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(bad_lambda), &state));
}

// ---- Feature-vector images -------------------------------------------------
//
// Vector-repr corpora snapshot through the same codec with an O(n * d)
// payload: [u32 dim] follows the repr byte, weights start at 31, alive
// at 31 + 8n, and the row-major vector data at 31 + 9n. These tests hold
// the vector branch to the same bar as the dense one: exact size
// formula, bitwise round-trip, every-prefix truncation, every-byte
// corruption, and rechecksummed semantic tampering.

Corpus MakeVectorCorpus(int n, int dim, std::uint64_t seed,
                        double lambda = 0.3) {
  Rng rng(seed);
  std::vector<double> data;
  data.reserve(static_cast<std::size_t>(n) * dim);
  for (int i = 0; i < n * dim; ++i) data.push_back(rng.Uniform(-1.0, 1.0));
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);
  return Corpus(std::move(weights),
                VectorMetric::FromRows(dim, std::move(data)), lambda);
}

void ExpectVectorStateMatches(const CorpusSnapshot& snapshot,
                              const CorpusState& state) {
  ASSERT_EQ(state.repr, engine::MetricRepr::kVector);
  EXPECT_EQ(state.version, snapshot.version());
  EXPECT_EQ(state.lambda, snapshot.lambda());
  const int n = snapshot.universe_size();
  ASSERT_EQ(static_cast<int>(state.weights.size()), n);
  ASSERT_EQ(static_cast<int>(state.alive.size()), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(state.weights[i], snapshot.weights().weight(i));
    EXPECT_EQ(state.alive[i] != 0, snapshot.alive(i));
  }
  ASSERT_EQ(state.vectors.size(), n);
  ASSERT_EQ(state.vectors.dim(), snapshot.vectors().dim());
  // Row-major payload bit-equal => every derived distance bit-equal.
  EXPECT_EQ(state.vectors.data(), snapshot.vectors().data());
}

TEST(SnapshotCodecTest, VectorImageSizeMatchesFormula) {
  for (int n : {1, 2, 7, 40}) {
    for (int dim : {1, 3, 16}) {
      Corpus corpus = MakeVectorCorpus(n, dim, 100 + n + dim);
      const std::vector<std::uint8_t> image =
          EncodeSnapshot(*corpus.snapshot());
      EXPECT_EQ(image.size(), EncodedVectorSnapshotBytes(n, dim))
          << "n=" << n << " dim=" << dim;
    }
  }
}

TEST(SnapshotCodecTest, VectorImageRoundTripWithChurn) {
  Rng rng(103);
  for (int iter = 0; iter < 6; ++iter) {
    const int n = rng.UniformInt(1, 40);
    const int dim = rng.UniformInt(1, 12);
    Corpus corpus = MakeVectorCorpus(n, dim, rng.NextSeed());
    // Vector-repr churn: fresh embeddings in, old ids retired, weights
    // perturbed — the image must carry the grown universe.
    const int epochs = rng.UniformInt(0, 6);
    for (int e = 0; e < epochs; ++e) {
      const int universe = corpus.snapshot()->universe_size();
      std::vector<CorpusUpdate> epoch;
      std::vector<double> fresh(dim);
      for (double& x : fresh) x = rng.Uniform(-1.0, 1.0);
      epoch.push_back(CorpusUpdate::InsertVector(rng.Uniform(0.0, 1.0),
                                                 fresh));
      epoch.push_back(CorpusUpdate::SetWeight(rng.UniformInt(0, universe - 1),
                                              rng.Uniform(0.0, 2.0)));
      if (universe > 1 && rng.UniformInt(0, 1) == 1) {
        epoch.push_back(CorpusUpdate::Erase(rng.UniformInt(0, universe - 1)));
      }
      corpus.Apply(epoch);
    }
    const SnapshotPtr snapshot = corpus.snapshot();
    const std::vector<std::uint8_t> image = EncodeSnapshot(*snapshot);
    CorpusState state;
    ASSERT_TRUE(DecodeSnapshot(image, &state));
    ExpectVectorStateMatches(*snapshot, state);
    EXPECT_EQ(EncodeSnapshot(*snapshot), image);
    EXPECT_EQ(EncodeState(state), image);
  }
}

TEST(SnapshotCodecTest, VectorRestoreRebuildsTheExactVersion) {
  Corpus corpus = MakeVectorCorpus(14, 5, 107);
  corpus.Apply(CorpusUpdate::SetWeight(3, 0.625));
  corpus.Apply(CorpusUpdate::Erase(7));
  const SnapshotPtr original = corpus.snapshot();
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(*original), &state));

  // Restore into a fresh corpus of the *other* representation: the repr
  // must switch with the image.
  Corpus restored = MakeCorpus(3, 99);
  EXPECT_EQ(restored.Restore(std::move(state)), original->version());
  const SnapshotPtr snapshot = restored.snapshot();
  EXPECT_EQ(snapshot->repr(), engine::MetricRepr::kVector);
  EXPECT_EQ(snapshot->version(), original->version());
  EXPECT_EQ(snapshot->candidates(), original->candidates());
  EXPECT_EQ(snapshot->lambda(), original->lambda());
  const std::vector<CorpusUpdate> epoch{CorpusUpdate::SetWeight(0, 0.5)};
  EXPECT_EQ(corpus.Apply(epoch), restored.Apply(epoch));
}

TEST(SnapshotCodecTest, VectorImageEveryPrefixTruncationRejected) {
  Corpus corpus = MakeVectorCorpus(6, 3, 109);
  const std::vector<std::uint8_t> image = EncodeSnapshot(*corpus.snapshot());
  CorpusState state;
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_FALSE(DecodeSnapshot(std::span(image.data(), len), &state))
        << "prefix length " << len;
  }
  std::vector<std::uint8_t> trailing = image;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeSnapshot(trailing, &state));
}

TEST(SnapshotCodecTest, VectorImageEveryByteCorruptionRejected) {
  Corpus corpus = MakeVectorCorpus(4, 3, 113);
  const std::vector<std::uint8_t> image = EncodeSnapshot(*corpus.snapshot());
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(image, &state));
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = image;
    corrupt[pos] ^= 0x20;
    EXPECT_FALSE(DecodeSnapshot(corrupt, &state)) << "byte " << pos;
  }
}

TEST(SnapshotCodecTest, VectorImageRechecksummedTamperingRejected) {
  Corpus corpus = MakeVectorCorpus(5, 4, 127);
  const std::vector<std::uint8_t> image = EncodeSnapshot(*corpus.snapshot());
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(image, &state));
  const int n = corpus.snapshot()->universe_size();

  // Dimension zero: the payload equation would hold with no vector data,
  // so the bound check has to fire first.
  std::vector<std::uint8_t> zero_dim = image;
  for (int i = 0; i < 4; ++i) zero_dim[27 + i] = 0;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(zero_dim), &state));

  // Dimension above kMaxVectorDim: rejected before any size arithmetic
  // could overflow.
  std::vector<std::uint8_t> huge_dim = image;
  for (int i = 0; i < 4; ++i) huge_dim[27 + i] = 0xff;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(huge_dim), &state));

  // Dimension off by one: image length no longer matches the equation.
  std::vector<std::uint8_t> skew_dim = image;
  skew_dim[27] ^= 0x01;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(skew_dim), &state));

  // First weight -> NaN (weights start after the u32 dim, at byte 31).
  std::vector<std::uint8_t> nan_weight = image;
  for (int i = 0; i < 8; ++i) nan_weight[31 + i] = 0xff;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(nan_weight), &state));

  // First liveness byte out of {0, 1}.
  std::vector<std::uint8_t> bad_alive = image;
  bad_alive[31 + 8 * n] = 2;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(bad_alive), &state));

  // First vector component -> NaN: kernels would propagate it into every
  // distance, so the image is rejected at the trust boundary.
  std::vector<std::uint8_t> nan_component = image;
  for (int i = 0; i < 8; ++i) nan_component[31 + 9 * n + i] = 0xff;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(nan_component), &state));

  // Component magnitude above kMaxVectorComponent (2e307 > 1e100): the
  // squared-distance kernel could overflow to inf.
  std::vector<std::uint8_t> huge_component = image;
  huge_component[31 + 9 * n + 7] = 0x7f;
  huge_component[31 + 9 * n + 6] = 0xc0;
  EXPECT_FALSE(DecodeSnapshot(Rechecksum(huge_component), &state));
}

// A vector image decoded into state must refuse components the update
// path would have refused, even when hand-assembled via EncodeState.
TEST(SnapshotCodecTest, VectorInvalidValuesInWellFormedImageRejected) {
  Corpus corpus = MakeVectorCorpus(4, 3, 131);
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(*corpus.snapshot()), &state));
  CorpusState tampered = state;
  std::vector<double> rows = tampered.vectors.data();
  rows[0] = -1e200;  // above kMaxVectorComponent in magnitude
  tampered.vectors = VectorMetric::FromRows(3, std::move(rows));
  CorpusState decoded;
  EXPECT_FALSE(DecodeSnapshot(EncodeState(tampered), &decoded));
}

// EncodeState is not a validator; DecodeSnapshot is the trust boundary
// and must reject values an epoch replay would have refused even when
// the checksum is intact.
TEST(SnapshotCodecTest, InvalidValuesInWellFormedImageRejected) {
  Corpus corpus = MakeCorpus(4, 41);
  CorpusState state;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(*corpus.snapshot()), &state));
  state.weights[1] = -0.25;
  CorpusState decoded;
  EXPECT_FALSE(DecodeSnapshot(EncodeState(state), &decoded));
}

std::string TestDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(CheckpointStoreTest, SaveLoadRoundTrip) {
  const std::string dir = TestDir("ckpt_roundtrip");
  CheckpointStore store(dir);
  Rng rng(51);
  Corpus corpus = MakeCorpus(15, 53);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));
  for (int e = 0; e < 3; ++e) {
    corpus.Apply(engine::MakeSyntheticEpoch(
        corpus.snapshot()->universe_size(), /*churn=*/true, e, rng));
    ASSERT_TRUE(store.Save(*corpus.snapshot()));
  }
  EXPECT_EQ(store.ListVersions(), (std::vector<std::uint64_t>{1, 2, 3}));

  std::string error;
  std::optional<CorpusState> loaded = store.LoadLatest(&error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectStateMatches(*corpus.snapshot(), *loaded);
}

TEST(CheckpointStoreTest, RetentionKeepsNewestK) {
  const std::string dir = TestDir("ckpt_retain");
  CheckpointStore::Options options;
  options.retain = 2;
  CheckpointStore store(dir, options);
  Corpus corpus = MakeCorpus(6, 57);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));
  for (int e = 0; e < 4; ++e) {
    corpus.Apply(CorpusUpdate::SetWeight(e, 0.25 * (e + 1)));
    ASSERT_TRUE(store.Save(*corpus.snapshot()));
  }
  EXPECT_EQ(store.ListVersions(), (std::vector<std::uint64_t>{3, 4}));
  std::optional<CorpusState> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 4u);
}

TEST(CheckpointStoreTest, EmptyDirHasNothingToLoad) {
  CheckpointStore store(TestDir("ckpt_empty"));
  std::string error;
  EXPECT_FALSE(store.LoadLatest(&error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(store.ListVersions().empty());
}

// A crashed writer leaves a .tmp file (possibly garbage); load must not
// even consider it.
TEST(CheckpointStoreTest, TornTempFilesIgnored) {
  const std::string dir = TestDir("ckpt_torn");
  CheckpointStore store(dir);
  Corpus corpus = MakeCorpus(10, 61);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));
  {
    std::ofstream torn(
        fs::path(dir) / "checkpoint-00000000000000000009.snap.tmp",
        std::ios::binary);
    torn << "half-written garbage";
  }
  EXPECT_EQ(store.ListVersions(), (std::vector<std::uint64_t>{0}));
  std::optional<CorpusState> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 0u);
}

// A corrupt newest checkpoint degrades to the previous good one instead
// of failing the cold start.
TEST(CheckpointStoreTest, CorruptLatestFallsBackToOlder) {
  const std::string dir = TestDir("ckpt_corrupt");
  CheckpointStore store(dir);
  Corpus corpus = MakeCorpus(12, 67);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));  // version 0, good
  corpus.Apply(CorpusUpdate::SetWeight(1, 0.75));
  ASSERT_TRUE(store.Save(*corpus.snapshot()));  // version 1: truncate it
  const fs::path newest =
      fs::path(dir) / "checkpoint-00000000000000000001.snap";
  ASSERT_TRUE(fs::exists(newest));
  fs::resize_file(newest, fs::file_size(newest) / 2);

  std::optional<CorpusState> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 0u);

  // Zero-length (just-created-then-crashed) newest behaves the same.
  fs::resize_file(newest, 0);
  loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 0u);
}

// A stray newest checkpoint larger than any decodable image is skipped
// unread, like a corrupt one (the file is sparse: it takes no disk space).
TEST(CheckpointStoreTest, OversizedLatestSkippedUnread) {
  const std::string dir = TestDir("ckpt_oversized");
  CheckpointStore store(dir);
  Corpus corpus = MakeCorpus(12, 69);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));  // version 0, good
  const fs::path newest =
      fs::path(dir) / "checkpoint-00000000000000000001.snap";
  { std::ofstream create(newest, std::ios::binary); }
  fs::resize_file(newest, kMaxSnapshotBytes + 1);
  EXPECT_EQ(store.ListVersions(), (std::vector<std::uint64_t>{0, 1}));

  std::optional<CorpusState> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 0u);
  ExpectStateMatches(*corpus.snapshot(), *loaded);
  fs::remove_all(dir);
}

// ---- Delta checkpoints -----------------------------------------------------

TEST(SnapshotCodecTest, DeltaRoundTripAndTotality) {
  Rng rng(71);
  Corpus corpus = MakeCorpus(20, 73);
  std::vector<std::vector<CorpusUpdate>> epochs;
  for (int e = 0; e < 4; ++e) {
    epochs.push_back(engine::MakeSyntheticEpoch(
        corpus.snapshot()->universe_size(), /*churn=*/true, e, rng));
    corpus.Apply(epochs.back());
  }
  const std::vector<std::uint8_t> delta = EncodeDelta(0, epochs);
  std::uint64_t from = 99;
  std::vector<std::vector<CorpusUpdate>> decoded;
  ASSERT_TRUE(DecodeDelta(delta, &from, &decoded));
  EXPECT_EQ(from, 0u);
  ASSERT_EQ(decoded.size(), epochs.size());
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    ASSERT_EQ(decoded[i].size(), epochs[i].size());
    for (std::size_t j = 0; j < epochs[i].size(); ++j) {
      EXPECT_EQ(decoded[i][j].kind, epochs[i][j].kind);
      EXPECT_EQ(decoded[i][j].u, epochs[i][j].u);
      EXPECT_EQ(decoded[i][j].value, epochs[i][j].value);
      EXPECT_EQ(decoded[i][j].distances, epochs[i][j].distances);
    }
  }
  // Totality: every strict prefix and every single-byte corruption is
  // rejected (the CRC trailer covers header and body alike).
  for (std::size_t len = 0; len < delta.size(); ++len) {
    EXPECT_FALSE(DecodeDelta(std::span(delta.data(), len), &from, &decoded));
  }
  for (std::size_t i = 0; i < delta.size(); ++i) {
    std::vector<std::uint8_t> corrupt = delta;
    corrupt[i] ^= 0x01;
    EXPECT_FALSE(DecodeDelta(corrupt, &from, &decoded)) << "byte " << i;
  }
}

// The double-encode fix: epoch checkpoints chain O(epoch) delta files
// onto the last full image, and LoadLatest folds them back into exactly
// the state a full checkpoint would have held.
TEST(CheckpointStoreTest, DeltaChainFoldsToLiveState) {
  const std::string dir = TestDir("ckpt_delta");
  CheckpointStore store(dir);
  Rng rng(77);
  Corpus corpus = MakeCorpus(12, 79);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));  // full image at version 0
  for (int e = 0; e < 5; ++e) {
    const std::uint64_t from = corpus.snapshot()->version();
    std::vector<std::vector<CorpusUpdate>> epochs;
    epochs.push_back(engine::MakeSyntheticEpoch(
        corpus.snapshot()->universe_size(), /*churn=*/true, e, rng));
    corpus.Apply(epochs.back());
    ASSERT_TRUE(store.SaveDelta(from, from + 1, epochs));
  }
  // Only the version-0 full image exists; everything since is deltas.
  EXPECT_EQ(store.ListVersions(), (std::vector<std::uint64_t>{0}));
  std::optional<CorpusState> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 5u);
  ExpectStateMatches(*corpus.snapshot(), *loaded);

  // A later full save subsumes the chain and prunes the delta files.
  ASSERT_TRUE(store.Save(*corpus.snapshot()));
  int deltas = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".delta") ++deltas;
  }
  EXPECT_EQ(deltas, 0);
}

TEST(CheckpointStoreTest, DeltaRefusesWhenItCannotChain) {
  const std::string dir = TestDir("ckpt_delta_chain");
  Corpus corpus = MakeCorpus(8, 83);
  std::vector<std::vector<CorpusUpdate>> epoch{
      {CorpusUpdate::SetWeight(0, 0.5)}};
  {
    CheckpointStore store(dir);
    // Nothing saved yet this process: no base to chain from.
    EXPECT_FALSE(store.SaveDelta(0, 1, epoch));
    ASSERT_TRUE(store.Save(*corpus.snapshot()));
    // Gap: the chain extends version 0, not 3.
    EXPECT_FALSE(store.SaveDelta(3, 4, epoch));
    EXPECT_TRUE(store.SaveDelta(0, 1, epoch));
  }
  {
    // A fresh process must not chain onto files it has not verified
    // writing — the first save is always a full image.
    CheckpointStore restarted(dir);
    EXPECT_FALSE(restarted.SaveDelta(1, 2, epoch));
  }
  {
    // max_delta_chain bounds the replay a cold start can be asked to do.
    CheckpointStore::Options options;
    options.max_delta_chain = 2;
    CheckpointStore bounded(TestDir("ckpt_delta_cap"), options);
    ASSERT_TRUE(bounded.Save(*corpus.snapshot()));
    EXPECT_TRUE(bounded.SaveDelta(0, 1, epoch));
    EXPECT_TRUE(bounded.SaveDelta(1, 2, epoch));
    EXPECT_FALSE(bounded.SaveDelta(2, 3, epoch));
  }
}

// A corrupt delta ends the fold at the last good link — an older but
// valid state — instead of failing the cold start or folding garbage.
TEST(CheckpointStoreTest, CorruptDeltaEndsFoldAtLastGoodLink) {
  const std::string dir = TestDir("ckpt_delta_corrupt");
  CheckpointStore store(dir);
  Rng rng(89);
  Corpus corpus = MakeCorpus(10, 97);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));
  std::vector<CorpusState> states;
  for (int e = 0; e < 3; ++e) {
    const std::uint64_t from = corpus.snapshot()->version();
    std::vector<std::vector<CorpusUpdate>> epochs;
    epochs.push_back(engine::MakeSyntheticEpoch(
        corpus.snapshot()->universe_size(), /*churn=*/false, e, rng));
    corpus.Apply(epochs.back());
    states.push_back(corpus.snapshot()->State());
    ASSERT_TRUE(store.SaveDelta(from, from + 1, epochs));
  }
  // Truncate the middle link (0->1 stays good, 1->2 dies, 2->3 orphaned).
  const fs::path middle =
      fs::path(dir) / ("delta-00000000000000000001-"
                       "00000000000000000002.delta");
  ASSERT_TRUE(fs::exists(middle));
  fs::resize_file(middle, fs::file_size(middle) / 2);

  std::optional<CorpusState> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 1u);
  EXPECT_EQ(EncodeState(*loaded), EncodeState(states[0]));
}

// A delta whose checksum is good but whose updates are not (here its
// second epoch names an id past the universe) ends the fold at the last
// good link, like a corrupt file does; its valid first epoch is not
// applied either.
TEST(CheckpointStoreTest, InvalidUpdateInDeltaEndsFoldAtLastGoodLink) {
  const std::string dir = TestDir("ckpt_delta_invalid");
  CheckpointStore store(dir);
  Corpus corpus = MakeCorpus(10, 101);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));
  const std::vector<std::vector<CorpusUpdate>> good = {
      {CorpusUpdate::SetWeight(1, 0.75)}};
  corpus.Apply(good[0]);
  const CorpusState at_one = corpus.snapshot()->State();
  ASSERT_TRUE(store.SaveDelta(0, 1, good));
  const std::vector<std::vector<CorpusUpdate>> bad = {
      {CorpusUpdate::SetWeight(2, 0.5)}, {CorpusUpdate::SetWeight(10, 0.5)}};
  ASSERT_TRUE(store.SaveDelta(1, 3, bad));
  ASSERT_TRUE(store.SaveDelta(3, 4, good));  // orphaned behind the bad link

  // The bad delta is well-formed on disk: only its values are invalid.
  std::ifstream in(fs::path(dir) / ("delta-00000000000000000001-"
                                    "00000000000000000003.delta"),
                   std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::uint64_t from = 0;
  std::vector<std::vector<CorpusUpdate>> epochs;
  ASSERT_TRUE(DecodeDelta(bytes, &from, &epochs));
  EXPECT_EQ(from, 1u);
  EXPECT_EQ(epochs.size(), 2u);

  std::optional<CorpusState> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 1u);
  EXPECT_EQ(EncodeState(*loaded), EncodeState(at_one));
}

// Checkpoint store round-trips vector corpora through the same save/load
// path, including the delta-fold (InsertVector epochs chained onto a
// full vector image).
TEST(CheckpointStoreTest, VectorSaveLoadAndDeltaFold) {
  const std::string dir = TestDir("ckpt_vector");
  CheckpointStore store(dir);
  Rng rng(137);
  Corpus corpus = MakeVectorCorpus(10, 4, 139);
  ASSERT_TRUE(store.Save(*corpus.snapshot()));
  for (int e = 0; e < 3; ++e) {
    const std::uint64_t from = corpus.snapshot()->version();
    std::vector<double> fresh(4);
    for (double& x : fresh) x = rng.Uniform(-1.0, 1.0);
    std::vector<std::vector<CorpusUpdate>> epochs;
    epochs.push_back({CorpusUpdate::InsertVector(0.5 + 0.1 * e, fresh),
                      CorpusUpdate::SetWeight(e, 0.25 * (e + 1))});
    corpus.Apply(epochs.back());
    ASSERT_TRUE(store.SaveDelta(from, from + 1, epochs));
  }
  std::optional<CorpusState> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 3u);
  ExpectVectorStateMatches(*corpus.snapshot(), *loaded);
}

}  // namespace
}  // namespace snapshot
}  // namespace diverse
