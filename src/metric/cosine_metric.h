// Cosine-distance "metric" over feature vectors: d(u,v) = 1 - cos(u,v).
//
// This matches the LETOR experiments in paper §7.2, which define the
// distance between two documents as the cosine similarity-derived distance
// of their feature vectors. Cosine distance satisfies symmetry and
// non-negativity; the triangle inequality holds for the angular form and
// approximately for 1 - cos on the non-negative orthant (LETOR features are
// non-negative). Use `kAngular` for a provable metric.
#ifndef DIVERSE_METRIC_COSINE_METRIC_H_
#define DIVERSE_METRIC_COSINE_METRIC_H_

#include <vector>

#include "metric/metric_space.h"

namespace diverse {

class CosineMetric : public MetricSpace {
 public:
  enum class Form {
    // d(u,v) = 1 - cos(u,v); the paper's choice.
    kOneMinusCosine,
    // d(u,v) = arccos(cos(u,v)) / pi in [0,1]; a true metric.
    kAngular,
  };

  explicit CosineMetric(std::vector<std::vector<double>> vectors,
                        Form form = Form::kOneMinusCosine);

  int size() const override { return static_cast<int>(vectors_.size()); }
  double Distance(int u, int v) const override;
  // The angular form only. arccos amplifies the cosine's rounding for
  // nearly parallel or opposite vectors (to ~1e-8 at worst), which the
  // pruned pair scan's relative slack covers unless such a pair's value
  // ties the best one within that margin. 1 - cos is not a metric.
  bool ObeysTriangleInequality() const override {
    return form_ == Form::kAngular;
  }

  int dimension() const { return dim_; }

 private:
  double Cosine(int u, int v) const;

  std::vector<std::vector<double>> vectors_;
  std::vector<double> norms_;
  int dim_;
  Form form_;
};

}  // namespace diverse

#endif  // DIVERSE_METRIC_COSINE_METRIC_H_
