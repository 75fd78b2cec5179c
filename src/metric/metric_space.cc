#include "metric/metric_space.h"

#include "util/check.h"

namespace diverse {

void MetricSpace::DistanceRow(int u, std::span<double> row) const {
  DIVERSE_DCHECK(static_cast<int>(row.size()) == size());
  for (int v = 0; v < static_cast<int>(row.size()); ++v) {
    row[v] = Distance(u, v);
  }
}

void MetricSpace::DistancesTo(int u, std::span<const int> ids,
                              std::span<double> out) const {
  DIVERSE_DCHECK(out.size() == ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out[i] = Distance(u, ids[i]);
  }
}

}  // namespace diverse
