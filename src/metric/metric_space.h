// Abstract metric space over a ground set {0, ..., size()-1}.
//
// The paper's diversification objective uses a metric distance d(.,.); all
// algorithms in src/algorithms consume this interface. Implementations must
// guarantee symmetry and d(u,u) == 0; the triangle inequality is a semantic
// requirement of the approximation guarantees (it can be checked with
// metric_validation.h) but is not enforced on every call for performance.
//
// Besides the scalar Distance(), every metric answers the batched queries
// the hot loops consume (SolutionState's row updates and swap scans):
// DistanceRow, DistancesTo and TryRow. The defaults loop Distance();
// DenseMetric serves stored rows and VectorMetric runs a fixed-order
// kernel over feature vectors.
//
// Contract: every batched query returns exactly the values the scalar
// Distance() would, bit for bit, and Distance() is bitwise symmetric.
// DenseMetric::Materialize stores Distance(u, v), u < v, in both
// orientations, so together these keep a materialized matrix usable as
// the bit-equality oracle of the metric it came from.
//
// ObeysTriangleInequality() is a declared property, not a check: true
// promises d(x, y) <= d(x, z) + d(z, y) for every x, y, z up to a few ulps
// of rounding, so bounds built from it may prune a search without changing
// its answer (local search's best-pair scan, algorithms/local_search.cc).
// VectorMetric and EuclideanMetric (every norm) declare it: each computes
// a norm of the difference. So do JaccardMetric, CosineMetric's angular
// form, and a DenseMetric materialized from a declaring metric until its
// first SetDistance. Restricted views (core/restricted_problem.h) forward
// their base's answer. Everything else answers false, including
// DenseMetric built any other way (it stores arbitrary matrices),
// CosineMetric's 1 - cos form and PowerRelaxedMetric with beta > 1, which
// all may violate the inequality outright.
//
// ObeysPtolemyInequality() is a second declared property: true promises
//
//   d(x, y) * d(p, q) <= d(x, p) * d(y, q) + d(x, q) * d(y, p)
//
// for every x, y, p, q, each distance within a small relative error of
// the exact one. A normed space obeys it exactly when its norm comes from
// an inner product (Schoenberg, 1940), so only Euclidean distances
// declare it: VectorMetric and EuclideanMetric with Norm::kL2, and
// restricted views of them. L1, L-infinity, angular, Jaccard and every
// DenseMetric answer false; the unit square under L1 already breaks it
// (4 > 2).
#ifndef DIVERSE_METRIC_METRIC_SPACE_H_
#define DIVERSE_METRIC_METRIC_SPACE_H_

#include <span>

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

  // Fills row[v] = Distance(u, v) for every v; row.size() must be size().
  // Default: one scalar Distance() per element.
  virtual void DistanceRow(int u, std::span<double> row) const;

  // Fills out[i] = Distance(u, ids[i]); out.size() must equal ids.size().
  // Default: one scalar Distance() per id.
  virtual void DistancesTo(int u, std::span<const int> ids,
                           std::span<double> out) const;

  // Contiguous stored row d(u, .) of length size() when the metric
  // stores one (dense matrix); nullptr when rows are computed on demand.
  // Callers that get a pointer skip the copy.
  virtual const double* TryRow(int /*u*/) const { return nullptr; }

  // True when the metric guarantees the triangle inequality (see the
  // file comment). Default false: callers then take their exhaustive path.
  virtual bool ObeysTriangleInequality() const { return false; }

  // True when the metric guarantees Ptolemy's inequality (see the file
  // comment). Default false.
  virtual bool ObeysPtolemyInequality() const { return false; }
};

}  // namespace diverse

#endif  // DIVERSE_METRIC_METRIC_SPACE_H_
