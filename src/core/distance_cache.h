// Materialized distance cache behind the MetricBackend interface.
//
// Metric implementations like EuclideanMetric or GraphMetric recompute
// d(u, v) on every call; the greedy / local-search / dynamic hot loops ask
// for the same distances thousands of times. DistanceCache wraps any base
// metric and serves lookups — scalar and batched (MetricBackend rows) —
// from contiguous storage:
//
//   * dense mode (n <= options.dense_threshold): the full row-major n x n
//     matrix is materialized eagerly at construction (each unordered pair
//     queried once, then mirrored);
//   * lazy mode (larger n): rows are materialized on first touch, so a
//     scan that only ever visits a working set pays only for the rows it
//     uses. Row materialization is guarded for concurrent readers, so
//     queries running side by side may share one cache.
//   * delegate mode (options.delegate = true; base must itself be a
//     MetricBackend): nothing is materialized — every scalar and batched
//     query forwards to the base backend's own kernels. This is the
//     MetricBackend seam for O(n * d) representations like VectorMetric,
//     whose rows are cheap to compute and whose whole point is NOT paying
//     O(n^2) memory.
//
// The cache is a snapshot: if the base metric changes (paper §6 dynamic
// perturbations), call Refresh(u, v) for a point fix or Invalidate() to
// drop everything. Always-on counters report base-metric traffic.
#ifndef DIVERSE_CORE_DISTANCE_CACHE_H_
#define DIVERSE_CORE_DISTANCE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "metric/metric_backend.h"
#include "obs/metric_registry.h"
#include "obs/metrics.h"

namespace diverse {

class DistanceCache : public MetricBackend {
 public:
  static constexpr std::size_t kDefaultDenseThreshold = 4096;

  struct Options {
    // Largest n for which the full matrix is materialized eagerly.
    std::size_t dense_threshold = kDefaultDenseThreshold;
    // Forward every query to the base metric's own batched kernels
    // instead of materializing anything. Requires the base to be a
    // MetricBackend (CHECKed at construction).
    bool delegate = false;
  };

  // Profiling counters (cheap, always on).
  struct Stats {
    long long base_distance_calls = 0;  // Distance() calls on the base
    long long rows_materialized = 0;    // lazy rows built (dense: n)
    long long lookups = 0;              // Distance() calls served
  };

  // `base` must outlive the cache and be safe for concurrent const
  // Distance() calls (all metrics in src/metric are).
  explicit DistanceCache(const MetricSpace* base);
  DistanceCache(const MetricSpace* base, Options options);

  int size() const override { return n_; }
  double Distance(int u, int v) const override;
  void DistanceRow(int u, std::span<double> row) const override;
  void DistancesTo(int u, std::span<const int> ids,
                   std::span<double> out) const override;
  const double* TryRow(int u) const override;

  bool dense() const { return dense_; }
  bool delegating() const { return backend_ != nullptr; }
  bool RowMaterialized(int u) const;

  // Re-pulls d(u, v) (both orientations) from the base metric. O(1); only
  // touches storage that is already materialized (no-op in delegate mode,
  // where the base is always authoritative).
  void Refresh(int u, int v);

  // Batch Refresh: re-pulls every listed pair in one pass, bumping
  // version() once — an epoch's worth of base-metric perturbations
  // applied as a single logical update for long-lived caches over
  // mutable metrics. (The engine's Corpus keeps per-snapshot DenseMetric
  // copies instead; this hook serves cache-over-mutable-metric setups
  // like the §6 perturbation studies.)
  void RefreshMany(std::span<const std::pair<int, int>> pairs);

  // Drops all cached values. Dense mode re-materializes eagerly.
  void Invalidate();

  // Monotone counter, bumped by Refresh/RefreshMany/Invalidate. Layers
  // that derive state from cached distances compare it against the
  // version they materialized from to detect staleness without
  // re-reading the matrix.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  Stats stats() const;

  // Publishes the cache's counters into `registry` under
  // `<prefix>_{base_distance_calls,rows_materialized,lookups}_total`
  // (e.g. prefix "diverse_cache"). The registry must outlive the cache;
  // calling again replaces the previous registrations.
  void RegisterMetrics(obs::MetricRegistry* registry,
                       const std::string& prefix);

 private:
  void MaterializeDense();
  // Refresh without the version bump (shared by Refresh/RefreshMany).
  void RefreshOne(int u, int v);
  // Returns the row for u, building it under the lock on first touch.
  const double* LazyRow(int u) const;

  const MetricSpace* base_;
  const MetricBackend* backend_ = nullptr;  // delegate mode only
  int n_;
  bool dense_;
  std::vector<double> matrix_;  // dense mode, row-major n x n

  // Lazy mode: rows_[u] is empty until first touch; ready_[u] flips with
  // release ordering once the row is fully written.
  mutable std::vector<std::vector<double>> rows_;
  mutable std::unique_ptr<std::atomic<bool>[]> ready_;
  mutable std::mutex materialize_mu_;

  std::atomic<std::uint64_t> version_{0};
  mutable obs::Counter base_calls_;
  mutable obs::Counter rows_built_;
  mutable obs::Counter lookups_;
  // Declared last so the views unregister before the counters they read.
  std::vector<obs::MetricRegistry::Registration> registrations_;
};

}  // namespace diverse

#endif  // DIVERSE_CORE_DISTANCE_CACHE_H_
