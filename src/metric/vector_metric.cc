#include "metric/vector_metric.h"

#include <algorithm>
#include <cmath>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "metric/vector_kernel.h"
#include "util/check.h"

namespace diverse {
namespace vector_kernel {

double SquaredDistancePortable(const double* a, const double* b, int dim) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int i = 0;
  for (; i + 4 <= dim; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  for (; i < dim; ++i) {
    const double d = a[i] - b[i];
    l0 += d * d;
  }
  return (l0 + l1) + (l2 + l3);
}

#if defined(__x86_64__)
// target("avx2") enables AVX2 for this function alone and leaves FMA off,
// so the multiply and the add below stay two roundings.
__attribute__((target("avx2"))) double SquaredDistanceAvx2(const double* a,
                                                           const double* b,
                                                           int dim) {
  __m256d lanes = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= dim; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    lanes = _mm256_add_pd(lanes, _mm256_mul_pd(d, d));
  }
  double l[4];
  _mm256_storeu_pd(l, lanes);
  for (; i < dim; ++i) {
    const double d = a[i] - b[i];
    l[0] += d * d;
  }
  return (l[0] + l[1]) + (l[2] + l[3]);
}
#endif

bool Avx2Supported() {
#if defined(__x86_64__)
  // Function-local, not namespace-scope: a static initializer elsewhere
  // could run before libgcc has filled in the CPU model.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

}  // namespace vector_kernel

namespace {

// out[i] = d(a, row i) for i < count, where row i starts at
// data + ids[i] * dim, or at data + i * dim when ids is null. One loop per
// kernel; flatten inlines the kernel into each.
[[gnu::flatten]] void DistancesPortable(const double* a, const double* data,
                                        int dim, const int* ids, int count,
                                        double* out) {
  for (int i = 0; i < count; ++i) {
    const double* b =
        data + static_cast<std::size_t>(ids != nullptr ? ids[i] : i) * dim;
    out[i] = std::sqrt(vector_kernel::SquaredDistancePortable(a, b, dim));
  }
}

#if defined(__x86_64__)
// Four rows per pass, row r in its own register s_r of four lanes: lane k
// sums (a[i] - b_r[i])^2 over i = k (mod 4), and the dim % 4 tail goes
// into lane 0 (adding +0.0 leaves the other lanes' bits alone; a lane
// never holds -0.0). hadd then permute2f128 form (l0 + l1) + (l2 + l3) for
// all four rows at once, and one packed sqrt finishes them: the same
// operations in the same order as the portable kernel, so the same bits.
// The count % 4 leftover rows take one row at a time.
[[gnu::flatten]] __attribute__((target("avx2"))) void DistancesAvx2(
    const double* a, const double* data, int dim, const int* ids, int count,
    double* out) {
  const auto row = [&](int i) {
    return data + static_cast<std::size_t>(ids != nullptr ? ids[i] : i) * dim;
  };
  int r = 0;
  for (; r + 4 <= count; r += 4) {
    const double* b0 = row(r);
    const double* b1 = row(r + 1);
    const double* b2 = row(r + 2);
    const double* b3 = row(r + 3);
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd();
    int i = 0;
    for (; i + 4 <= dim; i += 4) {
      const __m256d x = _mm256_loadu_pd(a + i);
      const __m256d d0 = _mm256_sub_pd(x, _mm256_loadu_pd(b0 + i));
      const __m256d d1 = _mm256_sub_pd(x, _mm256_loadu_pd(b1 + i));
      const __m256d d2 = _mm256_sub_pd(x, _mm256_loadu_pd(b2 + i));
      const __m256d d3 = _mm256_sub_pd(x, _mm256_loadu_pd(b3 + i));
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(d0, d0));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(d1, d1));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(d2, d2));
      s3 = _mm256_add_pd(s3, _mm256_mul_pd(d3, d3));
    }
    for (; i < dim; ++i) {
      const double e0 = a[i] - b0[i];
      const double e1 = a[i] - b1[i];
      const double e2 = a[i] - b2[i];
      const double e3 = a[i] - b3[i];
      s0 = _mm256_add_pd(s0, _mm256_set_pd(0.0, 0.0, 0.0, e0 * e0));
      s1 = _mm256_add_pd(s1, _mm256_set_pd(0.0, 0.0, 0.0, e1 * e1));
      s2 = _mm256_add_pd(s2, _mm256_set_pd(0.0, 0.0, 0.0, e2 * e2));
      s3 = _mm256_add_pd(s3, _mm256_set_pd(0.0, 0.0, 0.0, e3 * e3));
    }
    // h01 = {row 0: l0 + l1, row 1: l0 + l1, row 0: l2 + l3, row 1: l2 + l3}
    // and h23 likewise for rows 2 and 3.
    const __m256d h01 = _mm256_hadd_pd(s0, s1);
    const __m256d h23 = _mm256_hadd_pd(s2, s3);
    const __m256d sums =
        _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20),
                      _mm256_permute2f128_pd(h01, h23, 0x31));
    _mm256_storeu_pd(out + r, _mm256_sqrt_pd(sums));
  }
  for (; r < count; ++r) {
    out[r] = std::sqrt(vector_kernel::SquaredDistanceAvx2(a, row(r), dim));
  }
}
#endif

void Distances(const double* a, const double* data, int dim, const int* ids,
               int count, double* out) {
#if defined(__x86_64__)
  if (vector_kernel::Avx2Supported()) {
    DistancesAvx2(a, data, dim, ids, count, out);
    return;
  }
#endif
  DistancesPortable(a, data, dim, ids, count, out);
}

}  // namespace

VectorMetric::VectorMetric(int n, int dim)
    : n_(n), dim_(dim),
      data_(static_cast<std::size_t>(n) * dim, 0.0) {
  DIVERSE_CHECK(n >= 0);
  DIVERSE_CHECK(dim >= 0);
}

VectorMetric VectorMetric::FromRows(int dim, std::vector<double> data) {
  DIVERSE_CHECK(dim > 0);
  DIVERSE_CHECK_MSG(data.size() % static_cast<std::size_t>(dim) == 0,
                    "row-major data must be a whole number of rows");
  VectorMetric metric(0, dim);
  metric.n_ = static_cast<int>(data.size() / dim);
  metric.data_ = std::move(data);
  return metric;
}

double VectorMetric::Distance(int u, int v) const {
  DIVERSE_DCHECK(0 <= u && u < n_);
  DIVERSE_DCHECK(0 <= v && v < n_);
  // u == v needs no special case: every difference is exactly 0.0.
  double distance;
  Distances(data_.data() + static_cast<std::size_t>(u) * dim_,
            data_.data() + static_cast<std::size_t>(v) * dim_, dim_, nullptr,
            1, &distance);
  return distance;
}

void VectorMetric::DistanceRow(int u, std::span<double> row) const {
  DIVERSE_DCHECK(0 <= u && u < n_);
  DIVERSE_DCHECK(static_cast<int>(row.size()) == n_);
  Distances(data_.data() + static_cast<std::size_t>(u) * dim_, data_.data(),
            dim_, nullptr, n_, row.data());
}

void VectorMetric::DistancesTo(int u, std::span<const int> ids,
                               std::span<double> out) const {
  DIVERSE_DCHECK(0 <= u && u < n_);
  DIVERSE_DCHECK(out.size() == ids.size());
  for ([[maybe_unused]] const int id : ids) {
    DIVERSE_DCHECK(0 <= id && id < n_);
  }
  Distances(data_.data() + static_cast<std::size_t>(u) * dim_, data_.data(),
            dim_, ids.data(), static_cast<int>(ids.size()), out.data());
}

std::span<const double> VectorMetric::row(int u) const {
  DIVERSE_CHECK(0 <= u && u < n_);
  return {data_.data() + static_cast<std::size_t>(u) * dim_,
          static_cast<std::size_t>(dim_)};
}

void VectorMetric::SetRow(int u, std::span<const double> values) {
  DIVERSE_CHECK(0 <= u && u < n_);
  DIVERSE_CHECK(static_cast<int>(values.size()) == dim_);
  std::copy(values.begin(), values.end(),
            data_.begin() + static_cast<std::size_t>(u) * dim_);
}

int VectorMetric::AppendRow(std::span<const double> values) {
  DIVERSE_CHECK(static_cast<int>(values.size()) == dim_);
  data_.insert(data_.end(), values.begin(), values.end());
  return n_++;
}

}  // namespace diverse
