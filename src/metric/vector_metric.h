// Feature-vector metric: stores one d-dimensional embedding per element
// (row-major n x d) and computes Euclidean distances on demand through
// batched row kernels.
//
// This is the O(n * d) representation that replaces the O(n^2) dense
// matrix end-to-end (engine snapshots, checkpoint images, replica wire
// traffic) while serving the same hot-loop queries through MetricSpace's
// batched calls. Every distance is the square root of one fixed-order sum
// (four lanes combined in a fixed tree; metric/vector_kernel.h). Distance,
// DistanceRow and DistancesTo run that sum in one 256-bit AVX2 register
// when the CPU has AVX2 (detected once at run time) and as four scalar
// lanes otherwise; both return the same bits, so
//
//   * results are bit-reproducible across calls and across x86-64 hosts
//     with and without AVX2, and in both orientations (d(u,v) and d(v,u)
//     square the exact IEEE negations of the same differences), and
//   * a DenseMetric materialized from the same vectors stores bit-identical
//     distances — the dense matrix stays the bit-equality oracle for every
//     answer computed over this metric.
//
// Euclidean distance is a genuine metric, so the paper's approximation
// guarantees carry over unchanged. Mutators (SetRow/AppendRow) exist for
// the corpus writer path; concurrent readers require external snapshotting
// exactly as with DenseMetric (the engine's copy-on-write epochs).
#ifndef DIVERSE_METRIC_VECTOR_METRIC_H_
#define DIVERSE_METRIC_VECTOR_METRIC_H_

#include <span>
#include <vector>

#include "metric/metric_space.h"

namespace diverse {

class VectorMetric : public MetricSpace {
 public:
  // n elements, all at the origin.
  VectorMetric(int n, int dim);

  // From row-major data (data.size() must be n * dim for some n). Keeps
  // `data`'s spare capacity, so rows reserved there append without a copy.
  static VectorMetric FromRows(int dim, std::vector<double> data);

  int size() const override { return n_; }
  int dim() const { return dim_; }

  double Distance(int u, int v) const override;
  void DistanceRow(int u, std::span<double> row) const override;
  void DistancesTo(int u, std::span<const int> ids,
                   std::span<double> out) const override;
  // Euclidean distance is a norm; the kernel's rounding stays within ulps.
  bool ObeysTriangleInequality() const override { return true; }
  // The Euclidean norm comes from an inner product.
  bool ObeysPtolemyInequality() const override { return true; }

  std::span<const double> row(int u) const;
  const std::vector<double>& data() const { return data_; }

  // Replaces element u's embedding; values.size() must be dim().
  void SetRow(int u, std::span<const double> values);
  // Appends one element; values.size() must be dim(). Returns the new id.
  int AppendRow(std::span<const double> values);

 private:
  int n_;
  int dim_;
  std::vector<double> data_;  // row-major n x dim
};

}  // namespace diverse

#endif  // DIVERSE_METRIC_VECTOR_METRIC_H_
