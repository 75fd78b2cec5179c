#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "data/synthetic.h"
#include "metric/cosine_metric.h"
#include "metric/dense_metric.h"
#include "metric/euclidean_metric.h"
#include "metric/jaccard_metric.h"
#include "metric/metric_utils.h"
#include "metric/metric_validation.h"
#include "metric/relaxed_metric.h"
#include "metric/vector_kernel.h"
#include "metric/vector_metric.h"
#include "util/random.h"

namespace diverse {
namespace {

TEST(DenseMetricTest, StartsAtZero) {
  DenseMetric m(4);
  EXPECT_EQ(m.size(), 4);
  for (int u = 0; u < 4; ++u) {
    for (int v = 0; v < 4; ++v) {
      EXPECT_DOUBLE_EQ(m.Distance(u, v), 0.0);
    }
  }
}

TEST(DenseMetricTest, SetDistanceIsSymmetric) {
  DenseMetric m(3);
  m.SetDistance(0, 2, 1.5);
  EXPECT_DOUBLE_EQ(m.Distance(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(m.Distance(2, 0), 1.5);
  EXPECT_DOUBLE_EQ(m.Distance(0, 1), 0.0);
}

TEST(DenseMetricTest, FromMatrixRoundTrips) {
  const std::vector<double> matrix = {0, 1, 2,  //
                                      1, 0, 3,  //
                                      2, 3, 0};
  const DenseMetric m = DenseMetric::FromMatrix(3, matrix);
  EXPECT_DOUBLE_EQ(m.Distance(1, 2), 3.0);
}

TEST(DenseMetricTest, FromMatrixRejectsAsymmetry) {
  const std::vector<double> matrix = {0, 1, 2, 0};
  EXPECT_DEATH(DenseMetric::FromMatrix(2, matrix), "symmetric");
}

TEST(DenseMetricTest, MaterializeCopiesAnyMetric) {
  const EuclideanMetric base({{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}});
  const DenseMetric dense = DenseMetric::Materialize(base);
  EXPECT_DOUBLE_EQ(dense.Distance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(dense.Distance(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(dense.Distance(1, 2), 5.0);
}

TEST(DenseMetricTest, MaterializeCarriesTriangleDeclaration) {
  const EuclideanMetric base({{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}});
  DenseMetric dense = DenseMetric::Materialize(base);
  EXPECT_TRUE(dense.ObeysTriangleInequality());
  const DenseMetric copy = dense;
  EXPECT_TRUE(copy.ObeysTriangleInequality());
  EXPECT_FALSE(DenseMetric::Materialize(DenseMetric(3))
                   .ObeysTriangleInequality());
  // A write may break the inequality, so it drops the declaration.
  dense.SetDistance(0, 2, 100.0);
  EXPECT_FALSE(dense.ObeysTriangleInequality());
  EXPECT_TRUE(copy.ObeysTriangleInequality());
}

// A random symmetric n x n matrix with a zero diagonal, row-major.
std::vector<double> RandomMatrix(int n, Rng& rng) {
  std::vector<double> matrix(static_cast<std::size_t>(n) * n, 0.0);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double d = rng.Uniform(1.0, 2.0);
      matrix[static_cast<std::size_t>(u) * n + v] = d;
      matrix[static_cast<std::size_t>(v) * n + u] = d;
    }
  }
  return matrix;
}

std::vector<const double*> RowPointers(const DenseMetric& m) {
  std::vector<const double*> rows(m.size());
  for (int u = 0; u < m.size(); ++u) rows[u] = m.TryRow(u);
  return rows;
}

// Every value's bits, row-major.
std::vector<std::uint64_t> MatrixBits(const std::vector<double>& matrix) {
  std::vector<std::uint64_t> bits;
  for (double d : matrix) bits.push_back(std::bit_cast<std::uint64_t>(d));
  return bits;
}

std::vector<std::uint64_t> MatrixBits(const DenseMetric& m) {
  std::vector<double> matrix;
  for (int u = 0; u < m.size(); ++u) {
    for (int v = 0; v < m.size(); ++v) matrix.push_back(m.Distance(u, v));
  }
  return MatrixBits(matrix);
}

TEST(DenseMetricTest, CopySharesEveryRow) {
  Rng rng(3);
  const DenseMetric source = DenseMetric::FromMatrix(7, RandomMatrix(7, rng));
  const DenseMetric copy = source;
  EXPECT_EQ(RowPointers(copy), RowPointers(source));
}

TEST(DenseMetricTest, WriteOnCopyClonesOnlyItsTwoRows) {
  Rng rng(4);
  const int n = 7;
  const std::vector<double> matrix = RandomMatrix(n, rng);
  const DenseMetric source = DenseMetric::FromMatrix(n, matrix);
  const std::vector<const double*> source_rows = RowPointers(source);
  DenseMetric copy = source;
  copy.SetDistance(2, 5, 9.5);
  EXPECT_EQ(copy.Distance(2, 5), 9.5);
  EXPECT_EQ(copy.Distance(5, 2), 9.5);
  EXPECT_EQ(RowPointers(source), source_rows);
  EXPECT_EQ(MatrixBits(source), MatrixBits(matrix));
  for (int u = 0; u < n; ++u) {
    if (u == 2 || u == 5) {
      EXPECT_NE(copy.TryRow(u), source.TryRow(u)) << "row " << u;
    } else {
      EXPECT_EQ(copy.TryRow(u), source.TryRow(u)) << "row " << u;
    }
  }
}

// A copy also takes ownership away from its source: the source's next
// write clones too, so the copy keeps its values.
TEST(DenseMetricTest, WriteOnSourceAfterCopyLeavesCopyAlone) {
  Rng rng(5);
  const int n = 6;
  const std::vector<double> matrix = RandomMatrix(n, rng);
  DenseMetric source = DenseMetric::FromMatrix(n, matrix);
  const DenseMetric copy = source;
  source.SetDistance(0, 3, 7.25);
  source.SetDistance(1, 4, 6.5);
  EXPECT_EQ(source.Distance(3, 0), 7.25);
  EXPECT_EQ(source.Distance(4, 1), 6.5);
  EXPECT_EQ(MatrixBits(copy), MatrixBits(matrix));
}

TEST(DenseMetricTest, RepeatedWritesToAnOwnedRowDoNotCloneIt) {
  Rng rng(6);
  const int n = 6;
  DenseMetric fresh(n);
  const std::vector<const double*> fresh_rows = RowPointers(fresh);
  fresh.SetDistance(0, 1, 1.5);
  fresh.SetDistance(0, 2, 2.5);
  EXPECT_EQ(RowPointers(fresh), fresh_rows);

  const DenseMetric source = DenseMetric::FromMatrix(n, RandomMatrix(n, rng));
  DenseMetric copy = source;
  copy.SetDistance(1, 3, 4.0);
  const std::vector<const double*> cloned = RowPointers(copy);
  copy.SetDistance(1, 4, 5.0);
  copy.SetDistance(3, 1, 6.0);
  copy.SetDistance(4, 3, 7.0);
  const std::vector<const double*> after = RowPointers(copy);
  EXPECT_EQ(after[1], cloned[1]);
  EXPECT_EQ(after[3], cloned[3]);
  EXPECT_NE(after[4], source.TryRow(4));  // first write to row 4 clones it
  EXPECT_EQ(copy.Distance(1, 3), 6.0);
}

TEST(DenseMetricTest, AppendEqualsTheGrownMatrix) {
  Rng rng(7);
  const int n = 5;
  const int k = 3;
  const std::vector<double> full = RandomMatrix(n + k, rng);
  std::vector<double> base;
  for (int u = 0; u < n; ++u) {
    const auto row = full.begin() + static_cast<std::ptrdiff_t>(u) * (n + k);
    base.insert(base.end(), row, row + n);
  }
  std::vector<std::span<const double>> inserted;
  for (int i = 0; i < k; ++i) {
    const std::size_t offset = static_cast<std::size_t>(n + i) * (n + k);
    inserted.push_back(std::span(full).subspan(offset, n + i));
  }
  const DenseMetric source = DenseMetric::FromMatrix(n, base);
  const DenseMetric grown = source.Append(inserted);
  ASSERT_EQ(grown.size(), n + k);
  EXPECT_EQ(MatrixBits(grown), MatrixBits(full));
  EXPECT_EQ(MatrixBits(source), MatrixBits(base));
}

// Rows longer than one mirroring tile, with a size that is not a multiple
// of it, and a fill that fails part-way.
TEST(DenseMetricTest, FromUpperTriangleMirrorsEveryPair) {
  const int n = 150;
  const auto fill = [](int u, std::span<double> upper) {
    for (std::size_t i = 0; i < upper.size(); ++i) {
      upper[i] = u * 1000.0 + (u + 1 + static_cast<double>(i));
    }
    return true;
  };
  const std::optional<DenseMetric> m = DenseMetric::FromUpperTriangle(n, fill);
  ASSERT_TRUE(m.has_value());
  for (int u = 0; u < n; ++u) {
    EXPECT_EQ(m->Distance(u, u), 0.0);
    for (int v = u + 1; v < n; ++v) {
      ASSERT_EQ(m->Distance(u, v), u * 1000.0 + v);
      ASSERT_EQ(m->Distance(v, u), u * 1000.0 + v);
    }
  }
  const auto fail_late = [](int u, std::span<double>) { return u < 90; };
  EXPECT_FALSE(DenseMetric::FromUpperTriangle(n, fail_late).has_value());
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// One coordinate from a pool that stresses the kernels' rounding: signed
// zeros, values a few ulps apart, subnormals, values whose squares
// underflow, and (with `huge`) magnitudes whose squares overflow to +inf.
double StressValue(Rng& rng, bool huge) {
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  switch (rng.UniformInt(0, huge ? 6 : 5)) {
    case 0:
      return rng.Bernoulli(0.5) ? 0.0 : -0.0;
    case 1:
      return rng.Uniform(-1.0, 1.0) * kMin;
    case 2:
      return kDenorm * rng.UniformInt(-8, 8);
    case 3:
      return 1.0 + kEps * rng.UniformInt(-3, 3);
    case 4:
      return rng.Uniform(-3.0, 3.0);
    case 5:
      return rng.Uniform(-1.0, 1.0) * 1e-160;
    default:
      return (rng.Bernoulli(0.5) ? 1.0 : -1.0) * rng.Uniform(1e155, 1e300);
  }
}

// b[i] is a fresh value, a[i]'s ulp neighbour on either side, -a[i], or
// a[i] itself.
void FillStressPair(Rng& rng, bool huge, std::vector<double>& a,
                    std::vector<double>& b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = StressValue(rng, huge);
    switch (rng.UniformInt(0, 4)) {
      case 0:
        b[i] = StressValue(rng, huge);
        break;
      case 1:
        b[i] = std::nextafter(a[i], kInf);
        break;
      case 2:
        b[i] = std::nextafter(a[i], -kInf);
        break;
      case 3:
        b[i] = -a[i];
        break;
      default:
        b[i] = a[i];
    }
  }
}

double Portable(const std::vector<double>& a, const std::vector<double>& b) {
  return vector_kernel::SquaredDistancePortable(a.data(), b.data(),
                                                static_cast<int>(a.size()));
}

#if defined(__x86_64__)
double Avx2(const std::vector<double>& a, const std::vector<double>& b) {
  return vector_kernel::SquaredDistanceAvx2(a.data(), b.data(),
                                            static_cast<int>(a.size()));
}
#endif

// The AVX2 kernel holds the portable kernel's four lanes in one register
// and combines them in the same tree, so the two agree bit for bit on
// every tail length (dim from 1 to 67) and every kind of value.
TEST(VectorKernelTest, Avx2MatchesPortableBitForBit) {
#if defined(__x86_64__)
  if (!vector_kernel::Avx2Supported()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(91);
  int infinite = 0;
  int subnormal = 0;
  for (int dim = 1; dim <= 67; ++dim) {
    std::vector<double> a(dim);
    std::vector<double> b(dim);
    for (int trial = 0; trial < 60; ++trial) {
      FillStressPair(rng, /*huge=*/trial % 3 == 0, a, b);
      const double want = Portable(a, b);
      EXPECT_EQ(Bits(Avx2(a, b)), Bits(want)) << dim << "/" << trial;
      EXPECT_EQ(Bits(Avx2(b, a)), Bits(Portable(b, a))) << dim;
      if (std::isinf(want)) ++infinite;
      if (std::fpclassify(want) == FP_SUBNORMAL) ++subnormal;
    }
  }
  // The pool reached both ends of the exponent range.
  EXPECT_GT(infinite, 0);
  EXPECT_GT(subnormal, 0);
#else
  GTEST_SKIP() << "the AVX2 kernel exists on x86-64 only";
#endif
}

// Distance, DistanceRow and DistancesTo run the dispatched kernel, so
// they agree with each other and with the portable kernel, and
// DenseMetric::Materialize stores the same bits. Finite distances only:
// the dense matrix rejects +inf.
TEST(VectorKernelTest, MetricCallsAgreeWithPortableKernel) {
  Rng rng(92);
  const int n = 8;
  const std::vector<int> ids = {7, 0, 3, 3, 6, 1, 5, 2, 4};
  for (int dim = 1; dim <= 67; ++dim) {
    std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
    std::vector<double> data;
    for (int u = 0; u < n; u += 2) {
      FillStressPair(rng, /*huge=*/false, rows[u], rows[u + 1]);
    }
    for (const std::vector<double>& row : rows) {
      data.insert(data.end(), row.begin(), row.end());
    }
    const VectorMetric vectors = VectorMetric::FromRows(dim, data);
    const DenseMetric dense = DenseMetric::Materialize(vectors);
    std::vector<double> row(n);
    std::vector<double> to(ids.size());
    for (int u = 0; u < n; ++u) {
      vectors.DistanceRow(u, row);
      vectors.DistancesTo(u, ids, to);
      for (int v = 0; v < n; ++v) {
        const std::uint64_t want = Bits(std::sqrt(Portable(rows[u], rows[v])));
        EXPECT_EQ(Bits(row[v]), want) << dim << ": " << u << "," << v;
        EXPECT_EQ(Bits(vectors.Distance(u, v)), want);
        EXPECT_EQ(Bits(dense.Distance(u, v)), want);
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(Bits(to[i]), Bits(row[ids[i]])) << dim;
      }
    }
  }
}

// The AVX2 rows run four pairs per pass and take the count % 4 leftover
// pairs one at a time. Rows of n = 1..9 points and id lists of 0..9 ids
// reach every remainder mod 4, alone and behind one or two full passes,
// over every tail length and both value pools (the huge one overflows to
// +inf); every distance matches the portable kernel bit for bit.
TEST(VectorKernelTest, RowsOfEveryRemainderMatchPortableKernel) {
  Rng rng(93);
  int infinite = 0;
  for (int dim = 1; dim <= 67; ++dim) {
    for (const bool huge : {false, true}) {
      for (int n = 1; n <= 9; ++n) {
        std::vector<std::vector<double>> rows(n + 1,
                                              std::vector<double>(dim));
        for (int u = 0; u < n; u += 2) {
          FillStressPair(rng, huge, rows[u], rows[u + 1]);
        }
        rows.resize(n);
        std::vector<double> data;
        for (const std::vector<double>& row : rows) {
          data.insert(data.end(), row.begin(), row.end());
        }
        const VectorMetric vectors = VectorMetric::FromRows(dim, data);
        std::vector<double> row(n);
        for (int u = 0; u < n; ++u) {
          vectors.DistanceRow(u, row);
          for (int v = 0; v < n; ++v) {
            const double want = std::sqrt(Portable(rows[u], rows[v]));
            EXPECT_EQ(Bits(row[v]), Bits(want))
                << dim << "/" << n << ": " << u << "," << v;
            if (std::isinf(want)) ++infinite;
          }
          const int count = (dim + n + u) % 10;  // 0..9 ids
          std::vector<int> ids(count);
          for (int& id : ids) id = rng.UniformInt(0, n - 1);
          std::vector<double> to(count);
          vectors.DistancesTo(u, ids, to);
          for (int i = 0; i < count; ++i) {
            EXPECT_EQ(Bits(to[i]),
                      Bits(std::sqrt(Portable(rows[u], rows[ids[i]]))))
                << dim << "/" << n << ": " << u << " to " << ids[i];
          }
        }
      }
    }
  }
  EXPECT_GT(infinite, 0);
}

TEST(EuclideanMetricTest, L1L2LInfDiffer) {
  const std::vector<std::vector<double>> pts = {{0.0, 0.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(EuclideanMetric(pts, Norm::kL1).Distance(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(EuclideanMetric(pts, Norm::kL2).Distance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanMetric(pts, Norm::kLInf).Distance(0, 1), 4.0);
}

TEST(EuclideanMetricTest, AllNormsAreMetrics) {
  Rng rng(3);
  std::vector<std::vector<double>> pts(12, std::vector<double>(3));
  for (auto& p : pts) {
    for (double& x : p) x = rng.Uniform(-5.0, 5.0);
  }
  for (Norm norm : {Norm::kL1, Norm::kL2, Norm::kLInf}) {
    const EuclideanMetric m(pts, norm);
    EXPECT_TRUE(ValidateMetric(m).IsMetric());
  }
}

// Ptolemy's excess d(0, 2) d(1, 3) - d(0, 1) d(2, 3) - d(0, 3) d(1, 2) of
// the quadrilateral 0, 1, 2, 3: positive when the inequality fails.
double PtolemyExcess(const MetricSpace& m) {
  return m.Distance(0, 2) * m.Distance(1, 3) -
         (m.Distance(0, 1) * m.Distance(2, 3) +
          m.Distance(0, 3) * m.Distance(1, 2));
}

// Only Euclidean distances declare Ptolemy's inequality. The unit square's
// corners are concyclic, so under L2 it holds with equality (2 = 1 + 1, up
// to the rounding of sqrt(2) squared). Under L1 the square breaks it
// (4 > 2), and under L-infinity the square turned by 45 degrees does.
// Every norm keeps the triangle declaration.
TEST(PtolemyDeclarationTest, OnlyTheL2NormDeclaresIt) {
  const std::vector<std::vector<double>> square = {
      {0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  const std::vector<std::vector<double>> diamond = {
      {0.0, 0.0}, {1.0, 1.0}, {0.0, 2.0}, {-1.0, 1.0}};
  const EuclideanMetric l2(square, Norm::kL2);
  const VectorMetric vectors =
      VectorMetric::FromRows(2, {0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0});
  EXPECT_TRUE(l2.ObeysPtolemyInequality());
  EXPECT_TRUE(vectors.ObeysPtolemyInequality());
  EXPECT_NEAR(PtolemyExcess(l2), 0.0, 1e-15);
  EXPECT_NEAR(PtolemyExcess(vectors), 0.0, 1e-15);

  const EuclideanMetric l1(square, Norm::kL1);
  const EuclideanMetric linf(diamond, Norm::kLInf);
  EXPECT_FALSE(l1.ObeysPtolemyInequality());
  EXPECT_FALSE(linf.ObeysPtolemyInequality());
  EXPECT_EQ(PtolemyExcess(l1), 2.0);
  EXPECT_EQ(PtolemyExcess(linf), 2.0);
  // The axis-aligned square happens to satisfy it under L-infinity; the
  // declaration belongs to the norm, not to the points.
  const EuclideanMetric linf_square(square, Norm::kLInf);
  EXPECT_LT(PtolemyExcess(linf_square), 0.0);
  EXPECT_FALSE(linf_square.ObeysPtolemyInequality());
  for (const MetricSpace* m : std::initializer_list<const MetricSpace*>{
           &l2, &vectors, &l1, &linf}) {
    EXPECT_TRUE(m->ObeysTriangleInequality());
  }
}

// Every other metric answers false: a dense matrix, even one materialized
// from vectors (it carries only the triangle declaration), Jaccard, both
// cosine forms and a power of a Euclidean distance.
TEST(PtolemyDeclarationTest, OtherMetricsDoNotDeclareIt) {
  Rng rng(11);
  std::vector<double> rows(6 * 3);
  for (double& x : rows) x = rng.Uniform(-1.0, 1.0);
  const VectorMetric vectors = VectorMetric::FromRows(3, rows);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < vectors.size(); ++i) {
    points.emplace_back(vectors.row(i).begin(), vectors.row(i).end());
  }
  const DenseMetric dense = DenseMetric::Materialize(vectors);
  EXPECT_TRUE(dense.ObeysTriangleInequality());
  EXPECT_FALSE(dense.ObeysPtolemyInequality());
  EXPECT_FALSE(DenseMetric(4).ObeysPtolemyInequality());
  EXPECT_FALSE(JaccardMetric({{0, 1}, {1, 2}, {2}}).ObeysPtolemyInequality());
  EXPECT_FALSE(CosineMetric(points).ObeysPtolemyInequality());
  EXPECT_FALSE(CosineMetric(points, CosineMetric::Form::kAngular)
                   .ObeysPtolemyInequality());
  EXPECT_FALSE(PowerRelaxedMetric(&vectors, 2.0).ObeysPtolemyInequality());
}

TEST(CosineMetricTest, IdenticalDirectionsHaveZeroDistance) {
  const CosineMetric m({{1.0, 0.0}, {2.0, 0.0}, {0.0, 1.0}});
  EXPECT_NEAR(m.Distance(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(m.Distance(0, 2), 1.0, 1e-12);  // orthogonal: 1 - cos = 1
}

TEST(CosineMetricTest, AngularFormIsMetric) {
  Rng rng(5);
  std::vector<std::vector<double>> vecs(10, std::vector<double>(4));
  for (auto& v : vecs) {
    for (double& x : v) x = std::abs(rng.Gaussian()) + 0.01;
  }
  const CosineMetric m(vecs, CosineMetric::Form::kAngular);
  EXPECT_TRUE(ValidateMetric(m, 1e-9).IsMetric());
}

TEST(CosineMetricTest, SelfDistanceIsZero) {
  const CosineMetric m({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_DOUBLE_EQ(m.Distance(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.Distance(1, 1), 0.0);
}

TEST(RelaxedMetricTest, BetaOneIsIdentity) {
  Rng rng(1);
  Dataset data = MakeUniformSynthetic(8, rng);
  const PowerRelaxedMetric relaxed(&data.metric, 1.0);
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      EXPECT_DOUBLE_EQ(relaxed.Distance(u, v), data.metric.Distance(u, v));
    }
  }
}

TEST(RelaxedMetricTest, LargerBetaRelaxesAlpha) {
  Rng rng(2);
  Dataset data = MakeUniformSynthetic(10, rng);
  const double alpha1 = ValidateMetric(data.metric).alpha;
  const PowerRelaxedMetric relaxed2(&data.metric, 2.0);
  const PowerRelaxedMetric relaxed3(&data.metric, 3.0);
  const double alpha2 = ValidateMetric(relaxed2).alpha;
  const double alpha3 = ValidateMetric(relaxed3).alpha;
  EXPECT_GE(alpha1, 1.0);  // base is a metric
  EXPECT_LT(alpha2, alpha1);
  EXPECT_LT(alpha3, alpha2);
  EXPECT_GT(alpha3, 0.0);
}

TEST(MetricUtilsTest, SumPairwiseSmallCases) {
  DenseMetric m(3);
  m.SetDistance(0, 1, 1.0);
  m.SetDistance(0, 2, 2.0);
  m.SetDistance(1, 2, 4.0);
  const std::vector<int> all = {0, 1, 2};
  const std::vector<int> pair = {0, 2};
  const std::vector<int> single = {1};
  EXPECT_DOUBLE_EQ(SumPairwise(m, all), 7.0);
  EXPECT_DOUBLE_EQ(SumPairwise(m, pair), 2.0);
  EXPECT_DOUBLE_EQ(SumPairwise(m, single), 0.0);
  EXPECT_DOUBLE_EQ(SumPairwise(m, std::vector<int>{}), 0.0);
}

TEST(MetricUtilsTest, SumBetweenAndSumTo) {
  DenseMetric m(4);
  m.SetDistance(0, 2, 1.0);
  m.SetDistance(0, 3, 2.0);
  m.SetDistance(1, 2, 3.0);
  m.SetDistance(1, 3, 4.0);
  const std::vector<int> a = {0, 1};
  const std::vector<int> b = {2, 3};
  EXPECT_DOUBLE_EQ(SumBetween(m, a, b), 10.0);
  EXPECT_DOUBLE_EQ(SumTo(m, 0, b), 3.0);
}

TEST(MetricUtilsTest, PartitionIdentity) {
  // d(A ∪ C) = d(A) + d(C) + d(A, C) — used implicitly throughout the
  // paper's proofs (equation (4)).
  Rng rng(17);
  Dataset data = MakeUniformSynthetic(12, rng);
  const std::vector<int> a = {0, 2, 4};
  const std::vector<int> c = {1, 3, 5, 7};
  std::vector<int> both = a;
  both.insert(both.end(), c.begin(), c.end());
  EXPECT_NEAR(SumPairwise(data.metric, both),
              SumPairwise(data.metric, a) + SumPairwise(data.metric, c) +
                  SumBetween(data.metric, a, c),
              1e-9);
}

TEST(MetricUtilsTest, DiameterAndAverage) {
  DenseMetric m(3);
  m.SetDistance(0, 1, 1.0);
  m.SetDistance(0, 2, 5.0);
  m.SetDistance(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(Diameter(m), 5.0);
  EXPECT_DOUBLE_EQ(AverageDistance(m), 3.0);
}

TEST(MetricUtilsTest, AverageDistanceDegenerate) {
  DenseMetric m(1);
  EXPECT_DOUBLE_EQ(AverageDistance(m), 0.0);
  EXPECT_DOUBLE_EQ(Diameter(m), 0.0);
}

TEST(MetricValidationTest, AcceptsOneTwoMetric) {
  Rng rng(4);
  Dataset data = MakeUniformSynthetic(15, rng, 0.0, 1.0, 1.0, 2.0);
  const MetricReport report = ValidateMetric(data.metric);
  EXPECT_TRUE(report.IsMetric());
  EXPECT_GE(report.alpha, 1.0);
}

TEST(MetricValidationTest, DetectsTriangleViolation) {
  DenseMetric m(3);
  m.SetDistance(0, 1, 1.0);
  m.SetDistance(1, 2, 1.0);
  m.SetDistance(0, 2, 5.0);  // violates 5 <= 1 + 1
  const MetricReport report = ValidateMetric(m);
  EXPECT_FALSE(report.triangle_inequality);
  EXPECT_FALSE(report.IsMetric());
  EXPECT_NEAR(report.alpha, 2.0 / 5.0, 1e-12);
}

TEST(MetricValidationTest, SampledAgreesOnValidMetric) {
  Rng rng(6);
  Dataset data = MakeUniformSynthetic(30, rng);
  Rng check_rng(7);
  const MetricReport report =
      ValidateMetricSampled(data.metric, check_rng, 2000);
  EXPECT_TRUE(report.IsMetric());
}

// Lemma 1 of the paper (Ravi et al.): for a metric and disjoint X, Y,
// (|X| - 1) * d(X, Y) >= |Y| * d(X). Property-checked on random instances.
TEST(MetricValidationTest, Lemma1HoldsOnRandomInstances) {
  for (int trial = 0; trial < 30; ++trial) {
    Rng rng(100 + trial);
    Dataset data = MakeUniformSynthetic(14, rng);
    const int x_size = rng.UniformInt(2, 6);
    const int y_size = rng.UniformInt(1, 6);
    const auto sample =
        rng.SampleWithoutReplacement(data.size(), x_size + y_size);
    const std::vector<int> x(sample.begin(), sample.begin() + x_size);
    const std::vector<int> y(sample.begin() + x_size, sample.end());
    const double lhs = (x_size - 1) * SumBetween(data.metric, x, y);
    const double rhs = y_size * SumPairwise(data.metric, x);
    EXPECT_GE(lhs, rhs - 1e-9) << "trial " << trial;
  }
}

class OneTwoMetricSweep : public ::testing::TestWithParam<int> {};

TEST_P(OneTwoMetricSweep, GeneratedSpacesAreAlwaysMetric) {
  Rng rng(GetParam());
  Dataset data = MakeUniformSynthetic(12, rng);
  EXPECT_TRUE(ValidateMetric(data.metric).IsMetric());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneTwoMetricSweep,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace diverse
