// Abstract metric space over a ground set {0, ..., size()-1}.
//
// The paper's diversification objective uses a metric distance d(.,.); all
// algorithms in src/algorithms consume this interface. Implementations must
// guarantee symmetry and d(u,u) == 0; the triangle inequality is a semantic
// requirement of the approximation guarantees (it can be checked with
// metric_validation.h) but is not enforced on every call for performance.
#ifndef DIVERSE_METRIC_METRIC_SPACE_H_
#define DIVERSE_METRIC_METRIC_SPACE_H_

namespace diverse {

class MetricSpace {
 public:
  virtual ~MetricSpace() = default;

  // Number of elements in the ground set.
  virtual int size() const = 0;

  // Distance between elements u and v; symmetric, non-negative, zero iff
  // conceptually identical. Both indices must be in [0, size()).
  // Must be safe for concurrent calls while the metric is not being
  // mutated (queries running side by side on the engine's worker pool
  // read distances concurrently); DenseMetric::Materialize turns an
  // expensive implementation into contiguous storage once.
  virtual double Distance(int u, int v) const = 0;
};

}  // namespace diverse

#endif  // DIVERSE_METRIC_METRIC_SPACE_H_
