// Jaccard distance over attribute sets: d(A, B) = 1 - |A∩B| / |A∪B| (and
// 0 when both sets are empty). A true metric (Steinhaus transform), the
// natural distance for categorical/tag data — e.g. diversifying database
// tuples by the sets of fields or tags they carry (paper §1's keyword
// search setting).
#ifndef DIVERSE_METRIC_JACCARD_METRIC_H_
#define DIVERSE_METRIC_JACCARD_METRIC_H_

#include <vector>

#include "metric/metric_space.h"

namespace diverse {

class JaccardMetric : public MetricSpace {
 public:
  // `attributes[i]` lists the attribute ids of element i (any order,
  // duplicates removed internally).
  explicit JaccardMetric(std::vector<std::vector<int>> attributes);

  int size() const override {
    return static_cast<int>(attributes_.size());
  }
  double Distance(int u, int v) const override;
  // 1 - |A∩B| / |A∪B| is one rounded division and one subtraction, so
  // computed values stay within ulps of the exact metric.
  bool ObeysTriangleInequality() const override { return true; }

  const std::vector<int>& attributes(int i) const { return attributes_[i]; }

 private:
  std::vector<std::vector<int>> attributes_;  // sorted, deduplicated
};

}  // namespace diverse

#endif  // DIVERSE_METRIC_JACCARD_METRIC_H_
