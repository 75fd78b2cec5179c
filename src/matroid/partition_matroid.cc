#include "matroid/partition_matroid.h"

#include <algorithm>

#include "util/check.h"

namespace diverse {

PartitionMatroid::PartitionMatroid(std::vector<int> block_of,
                                   std::vector<int> capacities)
    : block_of_(std::move(block_of)), capacities_(std::move(capacities)) {
  std::vector<int> block_size(capacities_.size(), 0);
  for (int b : block_of_) {
    DIVERSE_CHECK_MSG(0 <= b && b < num_blocks(), "block index out of range");
    ++block_size[b];
  }
  rank_ = 0;
  for (int i = 0; i < num_blocks(); ++i) {
    DIVERSE_CHECK_MSG(capacities_[i] >= 0, "negative block capacity");
    // A block contributes min(|S_i|, k_i) to the rank.
    rank_ += std::min(block_size[i], capacities_[i]);
  }
}

// Counts in place, without a per-block counter array: the pair scans call
// this once per pair. Element i's block is over capacity iff it holds more
// than capacity elements among set[0..i]; only a capacity below i + 1 can
// be exceeded there, so the count runs for small capacities alone.
bool PartitionMatroid::IsIndependent(std::span<const int> set) const {
  for (std::size_t i = 0; i < set.size(); ++i) {
    const int b = block_of_[set[i]];
    if (static_cast<std::size_t>(capacities_[b]) > i) continue;
    std::size_t used = 0;
    for (std::size_t j = 0; j <= i; ++j) used += block_of_[set[j]] == b;
    if (used > static_cast<std::size_t>(capacities_[b])) return false;
  }
  return true;
}

bool PartitionMatroid::CanAdd(std::span<const int> set, int e) const {
  const int b = block_of_[e];
  int used = 0;
  for (int u : set) {
    if (block_of_[u] == b) ++used;
  }
  return used < capacities_[b];
}

bool PartitionMatroid::CanExchange(std::span<const int> set, int out,
                                   int in) const {
  const int b = block_of_[in];
  int used = 0;
  for (int u : set) {
    if (u != out && block_of_[u] == b) ++used;
  }
  return used < capacities_[b];
}

}  // namespace diverse
