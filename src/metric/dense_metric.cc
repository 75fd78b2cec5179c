#include "metric/dense_metric.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace diverse {
namespace {

// Side of the square tiles MirrorUpperTriangle copies: a 64 x 64 block of
// doubles is 32 KB, so the rows a tile reads and the rows it writes stay
// in L1/L2 while it runs.
constexpr int kMirrorTile = 64;

}  // namespace

DenseMetric::DenseMetric(int n) : DenseMetric(Uninitialized(n)) {
  for (const Row& row : rows_) std::fill_n(row.get(), n_, 0.0);
}

DenseMetric::DenseMetric(int n, std::vector<Row> rows)
    : n_(n), rows_(std::move(rows)), owned_(rows_.size()) {}

DenseMetric DenseMetric::Uninitialized(int n) {
  DIVERSE_CHECK(n >= 0);
  std::vector<Row> rows(n);
  for (Row& row : rows) row = std::make_shared_for_overwrite<double[]>(n);
  DenseMetric m(n, std::move(rows));
  for (std::atomic<bool>& owned : m.owned_) {
    owned.store(true, std::memory_order_relaxed);
  }
  return m;
}

DenseMetric::DenseMetric(const DenseMetric& other)
    : MetricSpace(other),
      n_(other.n_),
      rows_(other.rows_),
      owned_(other.rows_.size()),
      triangle_(other.triangle_) {
  // The source no longer owns what it shares with this copy.
  for (std::atomic<bool>& owned : other.owned_) {
    if (owned.load(std::memory_order_relaxed)) {
      owned.store(false, std::memory_order_relaxed);
    }
  }
}

DenseMetric& DenseMetric::operator=(const DenseMetric& other) {
  if (this != &other) *this = DenseMetric(other);
  return *this;
}

DenseMetric DenseMetric::FromMatrix(int n, std::span<const double> matrix) {
  DIVERSE_CHECK(matrix.size() == static_cast<std::size_t>(n) * n);
  DenseMetric m = Uninitialized(n);
  for (int u = 0; u < n; ++u) {
    const auto row = matrix.subspan(static_cast<std::size_t>(u) * n, n);
    std::copy(row.begin(), row.end(), m.rows_[u].get());
  }
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
  const auto fill = [&metric](int u, std::span<double> upper) {
    for (std::size_t i = 0; i < upper.size(); ++i) {
      const double d = metric.Distance(u, u + 1 + static_cast<int>(i));
      DIVERSE_CHECK(d >= 0.0 && std::isfinite(d));
      upper[i] = d;
    }
    return true;
  };
  std::optional<DenseMetric> m = FromUpperTriangle(metric.size(), fill);
  m->triangle_ = metric.ObeysTriangleInequality();
  return std::move(*m);
}

void DenseMetric::DistanceRow(int u, std::span<double> row) const {
  DIVERSE_DCHECK(0 <= u && u < n_);
  DIVERSE_DCHECK(static_cast<int>(row.size()) == n_);
  std::copy_n(rows_[u].get(), n_, row.data());
}

void DenseMetric::DistancesTo(int u, std::span<const int> ids,
                              std::span<double> out) const {
  DIVERSE_DCHECK(0 <= u && u < n_);
  DIVERSE_DCHECK(out.size() == ids.size());
  const double* row = rows_[u].get();
  for (std::size_t i = 0; i < ids.size(); ++i) out[i] = row[ids[i]];
}

double* DenseMetric::OwnedRow(int u) {
  if (!owned_[u].load(std::memory_order_relaxed)) {
    Row row = std::make_shared_for_overwrite<double[]>(n_);
    std::copy_n(rows_[u].get(), n_, row.get());
    rows_[u] = std::move(row);
    owned_[u].store(true, std::memory_order_relaxed);
  }
  return rows_[u].get();
}

void DenseMetric::SetDistance(int u, int v, double value) {
  DIVERSE_CHECK(0 <= u && u < n_ && 0 <= v && v < n_);
  DIVERSE_CHECK(u != v);
  DIVERSE_CHECK(value >= 0.0 && std::isfinite(value));
  OwnedRow(u)[v] = value;
  OwnedRow(v)[u] = value;
  triangle_ = false;
}

DenseMetric DenseMetric::Append(
    std::span<const std::span<const double>> inserted) const {
  const int k = static_cast<int>(inserted.size());
  for (int i = 0; i < k; ++i) {
    DIVERSE_CHECK(static_cast<int>(inserted[i].size()) == n_ + i);
  }
  DenseMetric m = Uninitialized(n_ + k);
  for (int u = 0; u < n_ + k; ++u) {
    double* row = m.rows_[u].get();
    if (u < n_) {
      std::copy_n(rows_[u].get(), n_, row);
    } else {
      const std::span<const double> own = inserted[u - n_];
      std::copy(own.begin(), own.end(), row);
      row[u] = 0.0;
    }
    for (int i = std::max(0, u - n_ + 1); i < k; ++i) {
      row[n_ + i] = inserted[i][u];
    }
  }
  return m;
}

void DenseMetric::MirrorUpperTriangle() {
  for (int u0 = 0; u0 < n_; u0 += kMirrorTile) {
    const int u1 = std::min(n_, u0 + kMirrorTile);
    for (int v0 = u0; v0 < n_; v0 += kMirrorTile) {
      const int v1 = std::min(n_, v0 + kMirrorTile);
      for (int u = u0; u < u1; ++u) {
        const double* from = rows_[u].get();
        for (int v = std::max(v0, u + 1); v < v1; ++v) {
          rows_[v][u] = from[v];
        }
      }
    }
  }
}

}  // namespace diverse
