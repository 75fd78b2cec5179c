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

bool PartitionMatroid::IsIndependent(std::span<const int> set) const {
  std::vector<int> used(capacities_.size(), 0);
  for (int e : set) {
    const int b = block_of_[e];
    if (++used[b] > capacities_[b]) return false;
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
