#include "metric/dense_metric.h"

#include <cmath>
#include <cstring>

#include "util/check.h"

namespace diverse {

DenseMetric::DenseMetric(int n) : n_(n) {
  DIVERSE_CHECK(n >= 0);
  matrix_.assign(static_cast<std::size_t>(n) * n, 0.0);
}

DenseMetric DenseMetric::FromMatrix(int n, std::vector<double> matrix) {
  DIVERSE_CHECK(matrix.size() == static_cast<std::size_t>(n) * n);
  DenseMetric m(n);
  m.matrix_ = std::move(matrix);
  for (int u = 0; u < n; ++u) {
    DIVERSE_CHECK_MSG(m.Distance(u, u) == 0.0, "non-zero diagonal");
    for (int v = u + 1; v < n; ++v) {
      DIVERSE_CHECK_MSG(m.Distance(u, v) == m.Distance(v, u),
                        "matrix not symmetric");
      DIVERSE_CHECK_MSG(m.Distance(u, v) >= 0.0, "negative distance");
    }
  }
  return m;
}

DenseMetric DenseMetric::Materialize(const MetricSpace& metric) {
  const int n = metric.size();
  DenseMetric m(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      m.SetDistance(u, v, metric.Distance(u, v));
    }
  }
  m.triangle_ = metric.ObeysTriangleInequality();
  return m;
}

void DenseMetric::DistanceRow(int u, std::span<double> row) const {
  DIVERSE_DCHECK(0 <= u && u < n_);
  DIVERSE_DCHECK(static_cast<int>(row.size()) == n_);
  std::memcpy(row.data(), matrix_.data() + static_cast<std::size_t>(u) * n_,
              static_cast<std::size_t>(n_) * sizeof(double));
}

void DenseMetric::DistancesTo(int u, std::span<const int> ids,
                              std::span<double> out) const {
  DIVERSE_DCHECK(0 <= u && u < n_);
  DIVERSE_DCHECK(out.size() == ids.size());
  const double* row = matrix_.data() + static_cast<std::size_t>(u) * n_;
  for (std::size_t i = 0; i < ids.size(); ++i) out[i] = row[ids[i]];
}

void DenseMetric::SetDistance(int u, int v, double value) {
  DIVERSE_CHECK(0 <= u && u < n_ && 0 <= v && v < n_);
  DIVERSE_CHECK(u != v);
  DIVERSE_CHECK(value >= 0.0 && std::isfinite(value));
  matrix_[static_cast<std::size_t>(u) * n_ + v] = value;
  matrix_[static_cast<std::size_t>(v) * n_ + u] = value;
  triangle_ = false;
}

}  // namespace diverse
