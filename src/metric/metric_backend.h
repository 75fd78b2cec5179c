// Batched-kernel extension of MetricSpace — the seam the serving stack's
// hot loops run on.
//
// MetricSpace answers one d(u, v) per virtual call; the hot loops
// (SolutionState's Birnbaum–Goldman row updates and its swap scans)
// consume whole rows d(u, .) at a time. MetricBackend adds
// those batched queries so implementations can serve them from contiguous
// storage (DenseMetric) or compute them with SIMD-friendly
// kernels over feature vectors (VectorMetric) — without the per-element
// virtual dispatch the scalar interface forces.
//
// Contract: every batched query returns exactly the values the scalar
// Distance() would, bit for bit. That is what keeps the dense matrix
// usable as a bit-equality oracle for any other backend materialized from
// the same source (see VectorMetric).
#ifndef DIVERSE_METRIC_METRIC_BACKEND_H_
#define DIVERSE_METRIC_METRIC_BACKEND_H_

#include <span>

#include "metric/metric_space.h"

namespace diverse {

class MetricBackend : public MetricSpace {
 public:
  // Fills row[v] = Distance(u, v) for every v; row.size() must be size().
  // Default: one scalar Distance() per element.
  virtual void DistanceRow(int u, std::span<double> row) const;

  // Fills out[i] = Distance(u, ids[i]); out.size() must equal ids.size().
  // Default: one scalar Distance() per id.
  virtual void DistancesTo(int u, std::span<const int> ids,
                           std::span<double> out) const;

  // Contiguous stored row d(u, .) of length size() when the backend
  // stores one (dense matrix, materialized cache row); nullptr when rows
  // are computed on demand. Callers that get a pointer skip the copy.
  virtual const double* TryRow(int /*u*/) const { return nullptr; }
};

// The backend behind a metric, or nullptr when it only speaks the scalar
// interface. Hot loops dispatch through this once (at state construction),
// keeping plain MetricSpace implementations on the legacy scalar path.
inline const MetricBackend* AsBackend(const MetricSpace* metric) {
  return dynamic_cast<const MetricBackend*>(metric);
}

}  // namespace diverse

#endif  // DIVERSE_METRIC_METRIC_BACKEND_H_
