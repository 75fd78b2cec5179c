// Pivot-based candidate-pruning index (LAESA-style) over a MetricBackend.
//
// P pivots are selected by deterministic, seed-stable farthest-point
// sampling; the index keeps the P x n pivot-distance table and serves
// triangle-inequality bounds for any pair:
//
//   LowerBound(u, v) = max_p |d(u, p) - d(p, v)|
//   UpperBound(u, v) = min_p  d(u, p) + d(p, v)
//
// Scans use the bounds to skip candidates whose gain upper bound cannot
// beat the running best exact gain (see IncrementalEvaluator's *Pruned
// variants); every exactly-scored candidate is cross-checked against its
// bound interval, so a metricity violation in the data demotes the scan to
// an unpruned fallback instead of a wrong answer.
//
// Storage policy: for backends with resident rows (DenseMetric::TryRow)
// only the pivot *ids* are stored and the pivot rows are read live from
// the backend at scan time — SetDistance epochs therefore invalidate
// nothing and dense inserts need no table maintenance. For lazy backends
// (VectorMetric) the P pivot rows are materialized at build time and
// extended by WithAppended() when the corpus grows.
//
// Instances are immutable and shared; engine::Corpus republishes the same
// shared_ptr across non-structural epochs (copy-on-write).
#ifndef DIVERSE_METRIC_PRUNING_INDEX_H_
#define DIVERSE_METRIC_PRUNING_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "metric/metric_backend.h"
#include "obs/metrics.h"

namespace diverse {

class PruningIndex {
 public:
  struct Options {
    // Pivot count; the effective count is min(num_pivots, |ids|).
    int num_pivots = 8;
    // Seed for the farthest-point start; the sweep itself is deterministic
    // (argmax of min-distance, earliest id on ties).
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
    // Structural updates (inserts + erases) tolerated before the owning
    // corpus triggers a deterministic rebuild. Staleness only degrades
    // pivot quality, never correctness: bounds stay sound because erased
    // ids keep valid distances and appended ids get exact columns.
    int rebuild_after = 64;
  };

  // Builds over the backend's current contents; pivots are chosen among
  // `ids` (typically the alive ids). Deterministic for fixed inputs.
  static std::shared_ptr<const PruningIndex> Build(const MetricBackend& metric,
                                                   std::span<const int> ids,
                                                   const Options& options);

  // Returns a copy whose coverage extends to the backend's current size;
  // for lazy backends the stored pivot rows gain exact columns for the new
  // ids (O(P * new * d)). Pivot set is unchanged.
  std::shared_ptr<const PruningIndex> WithAppended(
      const MetricBackend& metric) const;

  // False when no pivots could be selected (empty corpus); callers should
  // fall back to unpruned scans.
  bool usable() const { return !pivots_.empty(); }
  int num_pivots() const { return static_cast<int>(pivots_.size()); }
  const std::vector<int>& pivots() const { return pivots_; }
  // Ids covered by stored rows; resident indexes cover whatever the bound
  // metric holds at scan time.
  int universe_size() const { return universe_; }
  bool resident() const { return resident_; }
  const Options& options() const { return options_; }

 private:
  friend class PruningBounds;

  PruningIndex() = default;

  Options options_;
  std::vector<int> pivots_;
  // rows_[p][v] = d(pivots_[p], v); only populated when !resident_.
  std::vector<std::vector<double>> rows_;
  int universe_ = 0;
  bool resident_ = false;
};

// Binds an index to the metric of the snapshot being scanned. Cheap to
// construct (resolves resident row pointers); not thread-safe to share,
// make one per scan.
//
// Bounds carry a 1e-12 relative slack so that ulp-level triangle
// violations of correctly-rounded metrics (e.g. Euclidean distances) never
// produce an unsound bound; Lower() <= true distance <= Upper() holds for
// any genuinely metric data.
class PruningBounds {
 public:
  PruningBounds(const PruningIndex& index, const MetricSpace& metric);

  // True when the binding can serve non-degenerate bounds (usable index
  // whose row storage matches the metric).
  bool active() const { return active_; }
  int num_pivots() const { return active_ ? index_->num_pivots() : 0; }

  // Fills `out` (size num_pivots()) with the pivot-distance profile of u:
  // out[p] = d(u, pivots[p]). Returns false (degenerate bounds) when u is
  // not covered by the index.
  bool Profile(int u, std::span<double> out) const;

  // Bounds on d(u, v) given u's profile. With a degenerate binding these
  // return 0 / +infinity, which never prunes and is always sound.
  double Lower(std::span<const double> profile, int v) const;
  double Upper(std::span<const double> profile, int v) const;

  // Cross-check for an exactly computed distance: true iff
  // Lower <= distance <= Upper. A false return means the data violates the
  // triangle inequality beyond slack; callers must fall back to an
  // unpruned scan.
  bool Consistent(std::span<const double> profile, int v,
                  double distance) const;

 private:
  const double* Row(int p) const { return row_ptrs_[p]; }
  bool Covered(int v) const { return v >= 0 && v < coverage_; }

  const PruningIndex* index_;
  const MetricSpace* metric_;
  std::vector<const double*> row_ptrs_;
  int coverage_ = 0;
  bool active_ = false;
};

// Process-wide pruning counters. Scans are run by ephemeral per-query
// evaluators, so the durable totals live here; the engine registers
// them as diverse_eval_candidates_pruned_total,
// diverse_pruning_certified_scans_total,
// diverse_pruning_fallback_scans_total and
// diverse_pruning_rebuilds_total.
struct PruningCounters {
  obs::Counter candidates_pruned;
  obs::Counter certified_scans;
  obs::Counter fallback_scans;
  obs::Counter rebuilds;
};

PruningCounters& GlobalPruningCounters();

}  // namespace diverse

#endif  // DIVERSE_METRIC_PRUNING_INDEX_H_
