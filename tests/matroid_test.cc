#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "matroid/graphic_matroid.h"
#include "matroid/laminar_matroid.h"
#include "matroid/matroid.h"
#include "matroid/matroid_validation.h"
#include "matroid/partition_matroid.h"
#include "matroid/transversal_matroid.h"
#include "matroid/truncated_matroid.h"
#include "matroid/uniform_matroid.h"
#include "util/random.h"

namespace diverse {
namespace {

TEST(UniformMatroidTest, IndependenceBySize) {
  const UniformMatroid m(6, 3);
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{}));
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(m.rank(), 3);
}

TEST(UniformMatroidTest, CanAddAndExchange) {
  const UniformMatroid m(6, 2);
  const std::vector<int> s = {0, 1};
  EXPECT_FALSE(m.CanAdd(s, 2));
  EXPECT_TRUE(m.CanExchange(s, 0, 5));
  EXPECT_TRUE(m.CanAdd(std::vector<int>{0}, 2));
}

TEST(UniformMatroidTest, SatisfiesAxioms) {
  EXPECT_TRUE(ValidateMatroid(UniformMatroid(7, 3)).IsMatroid());
  EXPECT_TRUE(ValidateMatroid(UniformMatroid(5, 0)).IsMatroid());
  EXPECT_TRUE(ValidateMatroid(UniformMatroid(5, 5)).IsMatroid());
}

TEST(PartitionMatroidTest, RespectsBlockCapacities) {
  // Blocks: {0,1,2} cap 1, {3,4} cap 2.
  const PartitionMatroid m({0, 0, 0, 1, 1}, {1, 2});
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0, 3, 4}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0, 1}));
  EXPECT_EQ(m.rank(), 3);
}

TEST(PartitionMatroidTest, RankCapsAtBlockSizes) {
  // Capacity larger than the block: rank contribution is the block size.
  const PartitionMatroid m({0, 0, 1}, {5, 1});
  EXPECT_EQ(m.rank(), 3);
}

TEST(PartitionMatroidTest, CanAddMatchesIsIndependent) {
  const PartitionMatroid m({0, 0, 1, 1, 2}, {1, 1, 1});
  const std::vector<int> s = {0, 2};
  EXPECT_FALSE(m.CanAdd(s, 1));
  EXPECT_FALSE(m.CanAdd(s, 3));
  EXPECT_TRUE(m.CanAdd(s, 4));
}

// IsIndependent counts blocks in place; these sets probe its edges.
TEST(PartitionMatroidTest, IndependenceAtCapacityEdges) {
  // Blocks: {0, 1} cap 0, {2, 3, 4} cap 1, {5, 6, 7} cap 2.
  const PartitionMatroid m({0, 0, 1, 1, 1, 2, 2, 2}, {0, 1, 2});
  EXPECT_EQ(m.rank(), 3);
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{}));
  // A capacity-0 block admits nothing, first or later in the set.
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{2, 5, 1}));
  // Over capacity, with the offending element first, between or last.
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{2, 3}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{4, 5, 2}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{5, 6, 2, 7}));
  // Rank-size sets: every block at its capacity, in any order.
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{2, 5, 6}));
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{7, 3, 5}));
  for (const std::vector<int>& basis : EnumerateBases(m)) {
    EXPECT_EQ(static_cast<int>(basis.size()), m.rank());
    EXPECT_TRUE(m.IsIndependent(basis));
  }
}

TEST(PartitionMatroidTest, SatisfiesAxioms) {
  EXPECT_TRUE(
      ValidateMatroid(PartitionMatroid({0, 0, 1, 1, 2, 2}, {1, 2, 1}))
          .IsMatroid());
}

TEST(TransversalMatroidTest, RequiresDistinctRepresentatives) {
  // C1 = {0,1}, C2 = {1,2}. {0,2} independent, {0,1} independent,
  // {0,1,2} dependent (only two sets).
  const TransversalMatroid m(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0, 2}));
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0, 1}));
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{1, 2}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0, 1, 2}));
  EXPECT_EQ(m.rank(), 2);
}

TEST(TransversalMatroidTest, ElementOutsideAllSetsIsDependent) {
  const TransversalMatroid m(3, {{0}});
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{1}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{2}));
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0}));
  EXPECT_EQ(m.rank(), 1);
}

TEST(TransversalMatroidTest, MatchingNeedsAugmentingPaths) {
  // C1 = {0,1}, C2 = {0}. {0,1}: match 0->C2, 1->C1 (needs augmentation if
  // 0 grabbed C1 first).
  const TransversalMatroid m(2, {{0, 1}, {0}});
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0, 1}));
}

TEST(TransversalMatroidTest, SatisfiesAxioms) {
  const TransversalMatroid m(6, {{0, 1, 2}, {2, 3}, {3, 4, 5}, {5, 0}});
  EXPECT_TRUE(ValidateMatroid(m).IsMatroid());
}

TEST(GraphicMatroidTest, ForestsAreIndependent) {
  // Triangle on vertices {0,1,2}: edges 0=(0,1), 1=(1,2), 2=(0,2).
  const GraphicMatroid m(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0, 1}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0, 1, 2}));  // cycle
  EXPECT_EQ(m.rank(), 2);
}

TEST(GraphicMatroidTest, SelfLoopIsDependent) {
  const GraphicMatroid m(2, {{0, 0}, {0, 1}});
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0}));
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{1}));
  EXPECT_EQ(m.rank(), 1);
}

TEST(GraphicMatroidTest, ParallelEdgesFormCycle) {
  const GraphicMatroid m(2, {{0, 1}, {0, 1}});
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0, 1}));
}

TEST(GraphicMatroidTest, SatisfiesAxioms) {
  // K4: 6 edges, rank 3.
  const GraphicMatroid m(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(m.rank(), 3);
  EXPECT_TRUE(ValidateMatroid(m).IsMatroid());
}

TEST(LaminarMatroidTest, NestedCapacities) {
  // Family: {0,1,2,3} cap 3; {0,1} cap 1.
  const LaminarMatroid m(4, {{0, 1, 2, 3}, {0, 1}}, {3, 1});
  EXPECT_TRUE(m.IsIndependent(std::vector<int>{0, 2, 3}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0, 1}));
  EXPECT_FALSE(m.IsIndependent(std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(m.rank(), 3);
}

TEST(LaminarMatroidTest, RejectsNonLaminarFamily) {
  EXPECT_DEATH(LaminarMatroid(4, {{0, 1}, {1, 2}}, {1, 1}), "laminar");
}

TEST(LaminarMatroidTest, GeneralizesPartition) {
  const LaminarMatroid laminar(5, {{0, 1}, {2, 3, 4}}, {1, 2});
  const PartitionMatroid partition({0, 0, 1, 1, 1}, {1, 2});
  // Same independent sets on a few probes.
  for (const auto& probe :
       std::vector<std::vector<int>>{{0}, {0, 1}, {0, 2, 3}, {2, 3, 4},
                                     {0, 2, 3, 4}, {1, 3}}) {
    EXPECT_EQ(laminar.IsIndependent(probe), partition.IsIndependent(probe));
  }
  EXPECT_EQ(laminar.rank(), partition.rank());
}

TEST(LaminarMatroidTest, SatisfiesAxioms) {
  const LaminarMatroid m(6, {{0, 1, 2, 3, 4, 5}, {0, 1, 2}, {0, 1}, {4, 5}},
                         {4, 2, 1, 1});
  EXPECT_TRUE(ValidateMatroid(m).IsMatroid());
}

TEST(ExtendToBasisTest, ReachesRank) {
  const PartitionMatroid m({0, 0, 1, 1, 2}, {1, 1, 1});
  const std::vector<int> basis = ExtendToBasis(m, {1});
  EXPECT_EQ(static_cast<int>(basis.size()), m.rank());
  EXPECT_TRUE(m.IsIndependent(basis));
}

TEST(ExtendToBasisTest, KeepsSeedElements) {
  const UniformMatroid m(6, 3);
  const std::vector<int> basis = ExtendToBasis(m, {4, 5});
  EXPECT_EQ(basis.size(), 3u);
  EXPECT_EQ(basis[0], 4);
  EXPECT_EQ(basis[1], 5);
}

TEST(EnumerateBasesTest, CountsUniformBases) {
  const UniformMatroid m(5, 2);
  EXPECT_EQ(EnumerateBases(m).size(), 10u);  // C(5,2)
}

TEST(EnumerateBasesTest, AllBasesIndependentAndMaximal) {
  const TransversalMatroid m(5, {{0, 1, 2}, {2, 3}, {3, 4}});
  const auto bases = EnumerateBases(m);
  ASSERT_FALSE(bases.empty());
  for (const auto& b : bases) {
    EXPECT_EQ(static_cast<int>(b.size()), m.rank());
    EXPECT_TRUE(m.IsIndependent(b));
  }
}

TEST(MatroidValidationTest, DetectsNonMatroid) {
  // "Independent iff size != 2" violates hereditary.
  class Broken : public Matroid {
   public:
    int ground_size() const override { return 4; }
    bool IsIndependent(std::span<const int> set) const override {
      return set.size() != 2;
    }
    int rank() const override { return 4; }
  };
  const Broken m;
  const MatroidReport report = ValidateMatroid(m);
  EXPECT_FALSE(report.hereditary);
  EXPECT_FALSE(report.IsMatroid());
}

// On random independent sets S, CanAdd(S, e) and CanExchange(S, out, in)
// answer exactly as IsIndependent of S + e and S - out + in.
void ExpectOraclesAgree(const Matroid& matroid, Rng& rng) {
  const int n = matroid.ground_size();
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    const int target = rng.UniformInt(0, matroid.rank());
    std::vector<int> set;
    std::vector<bool> in_set(n, false);
    for (int e : order) {
      if (static_cast<int>(set.size()) >= target) break;
      set.push_back(e);
      if (matroid.IsIndependent(set)) {
        in_set[e] = true;
      } else {
        set.pop_back();
      }
    }
    ASSERT_TRUE(matroid.IsIndependent(set));
    for (int e = 0; e < n; ++e) {
      if (in_set[e]) continue;
      std::vector<int> added = set;
      added.push_back(e);
      EXPECT_EQ(matroid.CanAdd(set, e), matroid.IsIndependent(added));
      for (int out : set) {
        std::vector<int> swapped;
        for (int x : set) {
          if (x != out) swapped.push_back(x);
        }
        swapped.push_back(e);
        EXPECT_EQ(matroid.CanExchange(set, out, e),
                  matroid.IsIndependent(swapped));
      }
    }
  }
}

TEST(MatroidOracleTest, CanAddAndCanExchangeAgreeWithIsIndependent) {
  Rng rng(5);
  // Block 2 has capacity 0.
  const PartitionMatroid partition({0, 0, 0, 1, 1, 2, 2, 3, 3, 3},
                                   {2, 1, 0, 3});
  const UniformMatroid uniform(10, 4);
  const LaminarMatroid laminar(
      10, {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0, 1, 2, 3}, {0, 1}, {6, 7, 8}},
      {5, 2, 1, 2});
  // A self-loop (edge 2) and parallel edges (0 and 5).
  const GraphicMatroid graphic(6, {{0, 1}, {1, 2}, {3, 3}, {2, 3}, {3, 4},
                                   {0, 1}, {4, 5}, {5, 0}, {1, 4}, {2, 5}});
  const TransversalMatroid transversal(
      10, {{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8, 9}, {0, 9}});
  const TruncatedMatroid truncated(&partition, 3);
  for (const Matroid* matroid :
       std::initializer_list<const Matroid*>{&partition, &uniform, &laminar,
                                             &graphic, &transversal,
                                             &truncated}) {
    ExpectOraclesAgree(*matroid, rng);
  }
}

class RandomTransversalSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomTransversalSweep, RandomCollectionsAreMatroids) {
  Rng rng(GetParam());
  const int n = 7;
  const int m = rng.UniformInt(1, 4);
  std::vector<std::vector<int>> collections(m);
  for (auto& c : collections) {
    c = rng.SampleWithoutReplacement(n, rng.UniformInt(1, n));
  }
  const TransversalMatroid matroid(n, collections);
  EXPECT_TRUE(ValidateMatroid(matroid).IsMatroid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTransversalSweep,
                         ::testing::Range(1, 13));

class RandomGraphicSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphicSweep, RandomGraphsAreMatroids) {
  Rng rng(GetParam());
  const int vertices = rng.UniformInt(3, 5);
  const int edges = rng.UniformInt(3, 8);
  std::vector<std::pair<int, int>> edge_list;
  for (int e = 0; e < edges; ++e) {
    edge_list.emplace_back(rng.UniformInt(0, vertices - 1),
                           rng.UniformInt(0, vertices - 1));
  }
  const GraphicMatroid matroid(vertices, edge_list);
  EXPECT_TRUE(ValidateMatroid(matroid).IsMatroid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphicSweep, ::testing::Range(20, 32));

}  // namespace
}  // namespace diverse
