// Inert pruning declarations. No scan prunes: local search has one swap
// scan (SolutionState::ScoreSwapsFor), so nothing builds an index
// and nothing increments these counters.
#ifndef DIVERSE_METRIC_PRUNING_INDEX_H_
#define DIVERSE_METRIC_PRUNING_INDEX_H_

#include "obs/metrics.h"

namespace diverse {

// Only reader: servebench/serving.cc (engine::Options::pruning_config).
class PruningIndex {
 public:
  struct Options {};
};

// Only reader: servebench/serving.cc, which reports their (zero) deltas.
struct PruningCounters {
  obs::Counter candidates_pruned;
  obs::Counter certified_scans;
  obs::Counter fallback_scans;
  obs::Counter rebuilds;
};

inline PruningCounters& GlobalPruningCounters() {
  static PruningCounters counters;
  return counters;
}

}  // namespace diverse

#endif  // DIVERSE_METRIC_PRUNING_INDEX_H_
