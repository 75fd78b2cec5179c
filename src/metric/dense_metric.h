// Mutable dense (n x n) distance matrix. This is the workhorse metric for
// the synthetic experiments, the only metric supporting dynamic distance
// perturbations (paper §6, types III/IV), and — serving MetricSpace's
// batched queries as zero-copy row pointers — the bit-equality oracle any
// other metric is checked against.
//
// Storage: each row is its own heap block of n doubles, held by a table of
// shared pointers. Copying a DenseMetric copies the table, so the copy and
// its source share every row. A row is written in place only while this
// metric owns it privately: it allocated the row itself and has not been
// copied since. SetDistance clones a shared row before writing it, so a row
// that two metrics share never changes again, and readers of an older copy
// (a published corpus snapshot, say) see the same bits for as long as they
// hold it. A row's block is freed when the last metric holding it drops it.
#ifndef DIVERSE_METRIC_DENSE_METRIC_H_
#define DIVERSE_METRIC_DENSE_METRIC_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "metric/metric_space.h"

namespace diverse {

class DenseMetric : public MetricSpace {
 public:
  // All distances zero.
  explicit DenseMetric(int n);

  // Shares every row of `other`. Neither side owns a row afterwards, so
  // the next write on either side clones the row it touches.
  DenseMetric(const DenseMetric& other);
  DenseMetric& operator=(const DenseMetric& other);
  DenseMetric(DenseMetric&& other) noexcept = default;
  DenseMetric& operator=(DenseMetric&& other) noexcept = default;

  // From a full row-major matrix; must be symmetric with a zero diagonal
  // (checked).
  static DenseMetric FromMatrix(int n, std::span<const double> matrix);

  // Materializes any metric into a dense matrix: one Distance(u, v) per
  // unordered pair u < v, mirrored into d(v, u). The copy declares
  // ObeysTriangleInequality() exactly as `metric` does.
  static DenseMetric Materialize(const MetricSpace& metric);

  // Builds an n-element metric one upper-triangle row at a time:
  // fill(u, upper) writes d(u, v) into upper[v - u - 1] for every v > u
  // and returns whether it succeeded. The lower triangle is then mirrored.
  // nullopt as soon as one fill fails. Values are not checked here.
  template <typename Fill>
  static std::optional<DenseMetric> FromUpperTriangle(int n, Fill fill);

  int size() const override { return n_; }
  double Distance(int u, int v) const override { return rows_[u][v]; }

  void DistanceRow(int u, std::span<double> row) const override;
  void DistancesTo(int u, std::span<const int> ids,
                   std::span<double> out) const override;
  const double* TryRow(int u) const override { return rows_[u].get(); }

  bool ObeysTriangleInequality() const override { return triangle_; }

  // Sets d(u,v) = d(v,u) = value. `value` must be non-negative; u != v.
  // Clones row u and row v first unless this metric owns them. An
  // arbitrary write can break the triangle inequality, so this clears a
  // declaration carried over by Materialize.
  void SetDistance(int u, int v, double value);

  // The metric over size() + inserted.size() ids: this metric's distances,
  // then id size() + i at distances inserted[i][j] from every id
  // j < size() + i (the distances of one corpus insert each). Every row is
  // new: one copy of this metric's row plus the appended values.
  DenseMetric Append(std::span<const std::span<const double>> inserted) const;

 private:
  using Row = std::shared_ptr<double[]>;

  // n rows of n uninitialized doubles, all owned.
  static DenseMetric Uninitialized(int n);
  DenseMetric(int n, std::vector<Row> rows);

  // Row u, cloned first if another metric may share it.
  double* OwnedRow(int u);
  // d(v, u) = d(u, v) for every u < v, in cache-sized tiles.
  void MirrorUpperTriangle();

  int n_ = 0;
  std::vector<Row> rows_;
  // owned_[u]: this metric allocated row u and has not been copied since,
  // so no other metric can read it. A copy clears the flags of its source
  // too, which may be a const metric other threads copy at the same time;
  // hence atomics (relaxed: a write in place that raced a copy of the same
  // metric would be a data race on the row anyway).
  mutable std::vector<std::atomic<bool>> owned_;
  bool triangle_ = false;
};

template <typename Fill>
std::optional<DenseMetric> DenseMetric::FromUpperTriangle(int n, Fill fill) {
  DenseMetric m = Uninitialized(n);
  for (int u = 0; u < n; ++u) {
    double* row = m.rows_[u].get();
    row[u] = 0.0;
    if (!fill(u, std::span<double>(row + u + 1, row + n))) return std::nullopt;
  }
  m.MirrorUpperTriangle();
  return m;
}

}  // namespace diverse

#endif  // DIVERSE_METRIC_DENSE_METRIC_H_
