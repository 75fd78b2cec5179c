// Mutable dense (n x n) distance matrix. This is the workhorse metric for
// the synthetic experiments, the only metric supporting dynamic distance
// perturbations (paper §6, types III/IV), and — serving MetricSpace's
// batched queries as zero-copy row pointers — the bit-equality oracle any
// other metric is checked against.
#ifndef DIVERSE_METRIC_DENSE_METRIC_H_
#define DIVERSE_METRIC_DENSE_METRIC_H_

#include <span>
#include <vector>

#include "metric/metric_space.h"

namespace diverse {

class DenseMetric : public MetricSpace {
 public:
  // All distances zero.
  explicit DenseMetric(int n);

  // From a full row-major matrix; must be symmetric with a zero diagonal
  // (checked).
  static DenseMetric FromMatrix(int n, std::vector<double> matrix);

  // Materializes any metric into a dense matrix: one Distance(u, v) per
  // unordered pair u < v, mirrored into d(v, u). The copy declares
  // ObeysTriangleInequality() exactly as `metric` does.
  static DenseMetric Materialize(const MetricSpace& metric);

  int size() const override { return n_; }
  double Distance(int u, int v) const override {
    return matrix_[static_cast<std::size_t>(u) * n_ + v];
  }

  void DistanceRow(int u, std::span<double> row) const override;
  void DistancesTo(int u, std::span<const int> ids,
                   std::span<double> out) const override;
  const double* TryRow(int u) const override {
    return matrix_.data() + static_cast<std::size_t>(u) * n_;
  }

  bool ObeysTriangleInequality() const override { return triangle_; }

  // Sets d(u,v) = d(v,u) = value. `value` must be non-negative; u != v.
  // An arbitrary write can break the triangle inequality, so this clears
  // a declaration carried over by Materialize.
  void SetDistance(int u, int v, double value);

 private:
  int n_;
  std::vector<double> matrix_;
  bool triangle_ = false;
};

}  // namespace diverse

#endif  // DIVERSE_METRIC_DENSE_METRIC_H_
