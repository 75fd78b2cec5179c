// Argmax scans over candidate lists.
//
// The batched candidate-scoring hot loops (greedy steps, swap scans, edge
// scans) all reduce to "score every candidate, keep the best". These
// helpers are plain sequential loops with a strictly-greater test, so ties
// keep the earliest candidate position. Parallelism comes from running
// whole queries side by side (the engine's worker pool), never from inside
// one scan.
#ifndef DIVERSE_CORE_ARGMAX_SCAN_H_
#define DIVERSE_CORE_ARGMAX_SCAN_H_

#include <cstddef>
#include <span>

namespace diverse {

// Result of an argmax scan over single candidates.
struct ScoredCandidate {
  int element = -1;
  double gain = 0.0;
  bool valid() const { return element >= 0; }
};

// Result of an argmax scan over ordered candidate pairs.
struct ScoredPair {
  int first = -1;
  int second = -1;
  double gain = 0.0;
  bool valid() const { return first >= 0; }
};

// Argmax over `candidates` of score(i), i a candidate position, so the
// score can read per-position arrays filled by one batched call.
// `score(i, &gain)` returns false to skip candidates[i] (members,
// over-budget elements). Ties keep the earliest candidate position.
template <typename Score>
ScoredCandidate ArgmaxOver(std::span<const int> candidates, Score&& score) {
  ScoredCandidate best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    double gain = 0.0;
    if (!score(i, &gain)) continue;
    if (!best.valid() || gain > best.gain) best = {candidates[i], gain};
  }
  return best;
}

// Argmax of score(a, b) over all ordered pairs (items[i], items[j]), i < j.
// Ties keep the lexicographically earliest (i, j).
template <typename Score>
ScoredPair ArgmaxOverPairs(std::span<const int> items, Score&& score) {
  ScoredPair best;
  for (std::size_t i = 0; i + 1 < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      const double gain = score(items[i], items[j]);
      if (!best.valid() || gain > best.gain) {
        best = {items[i], items[j], gain};
      }
    }
  }
  return best;
}

}  // namespace diverse

#endif  // DIVERSE_CORE_ARGMAX_SCAN_H_
