// Partition matroid: the universe is partitioned into blocks S_1..S_m, and
// a set is independent iff it contains at most k_i elements of block i.
// Used in the paper for source-diversity constraints (§1, §5) and for the
// appendix counterexample where vertex greedy fails.
#ifndef DIVERSE_MATROID_PARTITION_MATROID_H_
#define DIVERSE_MATROID_PARTITION_MATROID_H_

#include <vector>

#include "matroid/matroid.h"

namespace diverse {

class PartitionMatroid : public Matroid {
 public:
  // `block_of[e]` gives the block index (in [0, m)) of element e;
  // `capacities[i]` the bound k_i for block i (>= 0).
  PartitionMatroid(std::vector<int> block_of, std::vector<int> capacities);

  int ground_size() const override {
    return static_cast<int>(block_of_.size());
  }
  bool IsIndependent(std::span<const int> set) const override;
  int rank() const override { return rank_; }
  bool CanAdd(std::span<const int> set, int e) const override;
  bool CanExchange(std::span<const int> set, int out, int in) const override;

  int block_of(int e) const { return block_of_[e]; }
  int capacity(int block) const { return capacities_[block]; }
  int num_blocks() const { return static_cast<int>(capacities_.size()); }

 private:
  std::vector<int> block_of_;
  std::vector<int> capacities_;
  int rank_;
};

}  // namespace diverse

#endif  // DIVERSE_MATROID_PARTITION_MATROID_H_
