// PruningIndex unit tests: deterministic seed-stable pivot selection, the
// bound sandwich Lower <= d <= Upper, WithAppended coverage growth, and
// degenerate shapes (empty corpus, single element, duplicate points).
#include "metric/pruning_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "metric/vector_metric.h"
#include "util/random.h"

namespace diverse {
namespace {

VectorMetric MakeVectors(int n, int dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data;
  data.reserve(static_cast<std::size_t>(n) * dim);
  for (int i = 0; i < n * dim; ++i) data.push_back(rng.Uniform(-2.0, 2.0));
  return VectorMetric::FromRows(dim, std::move(data));
}

std::vector<int> AllIds(int n) {
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(PruningIndexTest, BuildIsDeterministicAndSeedStable) {
  const VectorMetric vectors = MakeVectors(50, 6, 3);
  const std::vector<int> ids = AllIds(50);
  PruningIndex::Options options;
  options.num_pivots = 6;
  const auto a = PruningIndex::Build(vectors, ids, options);
  const auto b = PruningIndex::Build(vectors, ids, options);
  ASSERT_TRUE(a->usable());
  EXPECT_EQ(a->pivots(), b->pivots());
  EXPECT_EQ(a->num_pivots(), 6);
  EXPECT_EQ(a->universe_size(), 50);

  // A different seed may pick a different start, but stays deterministic.
  options.seed = 99;
  const auto c = PruningIndex::Build(vectors, ids, options);
  const auto d = PruningIndex::Build(vectors, ids, options);
  EXPECT_EQ(c->pivots(), d->pivots());
}

TEST(PruningIndexTest, PivotsAreDistinctAliveIds) {
  const VectorMetric vectors = MakeVectors(40, 5, 7);
  // Restrict to even ids only — pivots must come from the given pool.
  std::vector<int> ids;
  for (int i = 0; i < 40; i += 2) ids.push_back(i);
  PruningIndex::Options options;
  options.num_pivots = 8;
  const auto index = PruningIndex::Build(vectors, ids, options);
  ASSERT_TRUE(index->usable());
  std::vector<int> seen;
  for (int pivot : index->pivots()) {
    EXPECT_EQ(pivot % 2, 0) << "pivot outside the id pool";
    for (int prior : seen) EXPECT_NE(pivot, prior);
    seen.push_back(pivot);
  }
}

TEST(PruningIndexTest, SandwichHoldsOnVectorBackend) {
  const VectorMetric vectors = MakeVectors(45, 7, 11);
  PruningIndex::Options options;
  options.num_pivots = 5;
  const auto index = PruningIndex::Build(vectors, AllIds(45), options);
  ASSERT_TRUE(index->usable());
  std::vector<double> profile(index->num_pivots());
  for (int u = 0; u < 45; ++u) {
    ASSERT_TRUE(index->Profile(u, profile));
    for (int v = 0; v < 45; ++v) {
      const double d = vectors.Distance(u, v);
      EXPECT_LE(index->Lower(profile, v), d) << u << "," << v;
      EXPECT_GE(index->Upper(profile, v), d) << u << "," << v;
      EXPECT_TRUE(index->Consistent(profile, v, d));
    }
  }
}

TEST(PruningIndexTest, WithAppendedExtendsCoverage) {
  VectorMetric vectors = MakeVectors(25, 6, 19);
  PruningIndex::Options options;
  options.num_pivots = 5;
  const auto index = PruningIndex::Build(vectors, AllIds(25), options);
  ASSERT_TRUE(index->usable());

  // Grow the corpus; the original index does not cover the new ids...
  Rng rng(23);
  for (int e = 0; e < 6; ++e) {
    std::vector<double> fresh(6);
    for (double& x : fresh) x = rng.Uniform(-2.0, 2.0);
    vectors.AppendRow(fresh);
  }
  {
    std::vector<double> profile(index->num_pivots());
    EXPECT_TRUE(index->Profile(10, profile));
    EXPECT_FALSE(index->Profile(27, profile));  // appended, uncovered
    // Uncovered target: bounds must degenerate to the sound no-prune pair.
    ASSERT_TRUE(index->Profile(10, profile));
    EXPECT_EQ(index->Lower(profile, 27), 0.0);
    EXPECT_GT(index->Upper(profile, 27), 1e300);
  }

  // ...until WithAppended materializes exact columns for them.
  const auto grown = index->WithAppended(vectors);
  EXPECT_EQ(grown->pivots(), index->pivots());
  EXPECT_EQ(grown->universe_size(), 31);
  std::vector<double> profile(grown->num_pivots());
  for (int u = 0; u < 31; ++u) {
    ASSERT_TRUE(grown->Profile(u, profile));
    for (int v = 0; v < 31; ++v) {
      const double d = vectors.Distance(u, v);
      EXPECT_LE(grown->Lower(profile, v), d);
      EXPECT_GE(grown->Upper(profile, v), d);
    }
  }
}

TEST(PruningIndexTest, DegenerateShapes) {
  // Empty id pool: unusable, bounds degenerate, nothing crashes.
  const VectorMetric vectors = MakeVectors(10, 3, 29);
  const auto empty =
      PruningIndex::Build(vectors, std::vector<int>{}, PruningIndex::Options());
  EXPECT_FALSE(empty->usable());
  EXPECT_FALSE(empty->Profile(3, std::span<double>()));
  EXPECT_EQ(empty->Lower(std::span<const double>(), 3), 0.0);
  EXPECT_GT(empty->Upper(std::span<const double>(), 3), 1e300);

  // Single id: one pivot, bounds still sound.
  const auto single = PruningIndex::Build(vectors, std::vector<int>{4},
                                          PruningIndex::Options());
  ASSERT_TRUE(single->usable());
  EXPECT_EQ(single->num_pivots(), 1);

  // All-duplicate points: the farthest-point sweep stops early instead of
  // stacking duplicate pivots.
  const VectorMetric dupes(8, 3);  // every row at the origin
  PruningIndex::Options many;
  many.num_pivots = 6;
  const auto collapsed = PruningIndex::Build(dupes, AllIds(8), many);
  ASSERT_TRUE(collapsed->usable());
  EXPECT_EQ(collapsed->num_pivots(), 1);
}

TEST(PruningIndexTest, PivotCountCappedByPool) {
  const VectorMetric vectors = MakeVectors(5, 4, 31);
  PruningIndex::Options options;
  options.num_pivots = 64;
  const auto index = PruningIndex::Build(vectors, AllIds(5), options);
  ASSERT_TRUE(index->usable());
  EXPECT_LE(index->num_pivots(), 5);
}

}  // namespace
}  // namespace diverse
