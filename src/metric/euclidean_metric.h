// Point-set metric under an Lp norm (L1, L2 or L-infinity). Distances are
// computed on demand from stored points, and rows by MetricSpace's default
// loops over Distance(); use DenseMetric::Materialize when a matrix is
// preferable.
#ifndef DIVERSE_METRIC_EUCLIDEAN_METRIC_H_
#define DIVERSE_METRIC_EUCLIDEAN_METRIC_H_

#include <vector>

#include "metric/metric_space.h"

namespace diverse {

enum class Norm { kL1, kL2, kLInf };

class EuclideanMetric : public MetricSpace {
 public:
  // `points[i]` is the coordinate vector of element i; all points must have
  // equal dimension >= 1.
  EuclideanMetric(std::vector<std::vector<double>> points,
                  Norm norm = Norm::kL2);

  int size() const override { return static_cast<int>(points_.size()); }
  double Distance(int u, int v) const override;
  // L1, L2 and L-infinity are norms; rounding stays within ulps.
  bool ObeysTriangleInequality() const override { return true; }
  // Only L2 comes from an inner product.
  bool ObeysPtolemyInequality() const override { return norm_ == Norm::kL2; }

  int dimension() const { return dim_; }
  const std::vector<double>& point(int i) const { return points_[i]; }

 private:
  std::vector<std::vector<double>> points_;
  int dim_;
  Norm norm_;
};

}  // namespace diverse

#endif  // DIVERSE_METRIC_EUCLIDEAN_METRIC_H_
