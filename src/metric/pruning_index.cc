#include "metric/pruning_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace diverse {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Relative slack absorbing ulp-level triangle violations of correctly
// rounded metrics; see the header comment.
constexpr double kLowerSlack = 1.0 - 1e-12;
constexpr double kUpperSlack = 1.0 + 1e-12;

// SplitMix64 finalizer; local copy so the metric layer does not depend on
// the sharding hash in algorithms/.
std::uint64_t HashSeed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::shared_ptr<const PruningIndex> PruningIndex::Build(
    const MetricBackend& metric, std::span<const int> ids,
    const Options& options) {
  std::shared_ptr<PruningIndex> index(new PruningIndex());
  index->options_ = options;
  const int n = metric.size();
  index->universe_ = n;
  const int pivot_target =
      std::min<int>(std::max(options.num_pivots, 0),
                    static_cast<int>(ids.size()));
  if (pivot_target == 0 || n == 0) return index;

  // Farthest-point sweep: seed-stable start, then repeatedly take the id
  // maximizing the min-distance to the chosen pivots (earliest id wins
  // ties via the strict > below, since `ids` is scanned in order).
  const std::size_t width = static_cast<std::size_t>(n);
  index->table_.reserve(static_cast<std::size_t>(pivot_target) * width);
  std::vector<double> min_dist(ids.size(), kInf);
  int current = ids[HashSeed(options.seed) % ids.size()];
  for (int k = 0; k < pivot_target; ++k) {
    DIVERSE_CHECK(0 <= current && current < n);
    index->pivots_.push_back(current);
    index->table_.resize(index->table_.size() + width);
    const std::span<double> row(index->table_.data() + k * width, width);
    metric.DistanceRow(current, row);
    if (k + 1 == pivot_target) break;
    int next = -1;
    double best = -1.0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      min_dist[i] = std::min(min_dist[i], row[ids[i]]);
      if (min_dist[i] > best) {
        best = min_dist[i];
        next = ids[i];
      }
    }
    // Every remaining id coincides with a pivot; more pivots add cost
    // without tightening any bound.
    if (best <= 0.0) break;
    current = next;
  }
  return index;
}

std::shared_ptr<const PruningIndex> PruningIndex::WithAppended(
    const MetricBackend& metric) const {
  std::shared_ptr<PruningIndex> next(new PruningIndex());
  next->options_ = options_;
  next->pivots_ = pivots_;
  const int n = metric.size();
  DIVERSE_CHECK_MSG(n >= universe_, "corpus shrank under WithAppended");
  next->universe_ = n;
  const std::size_t old_width = static_cast<std::size_t>(universe_);
  const std::size_t width = static_cast<std::size_t>(n);
  next->table_.resize(pivots_.size() * width);
  std::vector<int> fresh(width - old_width);
  std::iota(fresh.begin(), fresh.end(), universe_);
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    double* row = next->table_.data() + p * width;
    std::copy_n(Row(p), old_width, row);
    metric.DistancesTo(pivots_[p], fresh,
                       std::span<double>(row + old_width, fresh.size()));
  }
  return next;
}

bool PruningIndex::Profile(int u, std::span<double> out) const {
  DIVERSE_CHECK(static_cast<int>(out.size()) == num_pivots());
  if (!usable() || !Covered(u)) return false;
  for (std::size_t p = 0; p < pivots_.size(); ++p) out[p] = Row(p)[u];
  return true;
}

double PruningIndex::Lower(std::span<const double> profile, int v) const {
  if (!Covered(v) || profile.empty()) return 0.0;
  double best = 0.0;
  for (std::size_t p = 0; p < profile.size(); ++p) {
    const double diff = std::abs(profile[p] - Row(p)[v]);
    if (diff > best) best = diff;
  }
  return best * kLowerSlack;
}

double PruningIndex::Upper(std::span<const double> profile, int v) const {
  if (!Covered(v) || profile.empty()) return kInf;
  double best = kInf;
  for (std::size_t p = 0; p < profile.size(); ++p) {
    const double sum = profile[p] + Row(p)[v];
    if (sum < best) best = sum;
  }
  return best * kUpperSlack;
}

bool PruningIndex::Consistent(std::span<const double> profile, int v,
                              double distance) const {
  return Lower(profile, v) <= distance && distance <= Upper(profile, v);
}

PruningCounters& GlobalPruningCounters() {
  static PruningCounters* counters = new PruningCounters();
  return *counters;
}

}  // namespace diverse
