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
// The index stores the P pivot rows as one flat P x n table over the
// backend's contents at build time; WithAppended() gives a copy extended
// with exact columns when the corpus grows. The engine builds one only for
// feature-vector corpora, where a full scan pays an O(d) kernel per
// candidate; a dense scan reads stored rows that bounds cannot beat.
//
// Instances are immutable and shared; engine::Corpus republishes the same
// shared_ptr across non-structural epochs (copy-on-write).
#ifndef DIVERSE_METRIC_PRUNING_INDEX_H_
#define DIVERSE_METRIC_PRUNING_INDEX_H_

#include <cstddef>
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

  // Returns a copy extended with exact pivot columns for the ids the
  // backend gained since the build (O(P * new * d)). Pivot set is
  // unchanged.
  std::shared_ptr<const PruningIndex> WithAppended(
      const MetricBackend& metric) const;

  // False when no pivots could be selected (empty corpus); callers should
  // fall back to unpruned scans.
  bool usable() const { return !pivots_.empty(); }
  int num_pivots() const { return static_cast<int>(pivots_.size()); }
  const std::vector<int>& pivots() const { return pivots_; }
  // Ids [0, universe_size()) have stored pivot columns.
  int universe_size() const { return universe_; }
  const Options& options() const { return options_; }

  // Triangle-inequality bounds for a scan over the metric the index was
  // built on (or a grown copy of it). Bounds carry a 1e-12 relative slack
  // so that ulp-level triangle violations of correctly-rounded metrics
  // (e.g. Euclidean distances) never produce an unsound bound;
  // Lower() <= true distance <= Upper() holds for any genuinely metric
  // data.
  //
  // Fills `out` (size num_pivots()) with the pivot-distance profile of u:
  // out[p] = d(u, pivots[p]). Returns false (degenerate bounds) when the
  // index is unusable or u is not covered.
  bool Profile(int u, std::span<double> out) const;

  // Bounds on d(u, v) given u's profile. For an uncovered v or an empty
  // profile these return 0 / +infinity, which never prunes and is always
  // sound.
  double Lower(std::span<const double> profile, int v) const;
  double Upper(std::span<const double> profile, int v) const;

  // Cross-check for an exactly computed distance: true iff
  // Lower <= distance <= Upper. A false return means the data violates the
  // triangle inequality beyond slack; callers must fall back to an
  // unpruned scan.
  bool Consistent(std::span<const double> profile, int v,
                  double distance) const;

 private:
  PruningIndex() = default;

  // Stored row d(pivots_[p], .), universe_ entries long.
  const double* Row(std::size_t p) const {
    return table_.data() + p * static_cast<std::size_t>(universe_);
  }
  bool Covered(int v) const { return v >= 0 && v < universe_; }

  Options options_;
  std::vector<int> pivots_;
  // Flat P x universe_ table, row-major: table_[p * universe_ + v] =
  // d(pivots_[p], v).
  std::vector<double> table_;
  int universe_ = 0;
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
