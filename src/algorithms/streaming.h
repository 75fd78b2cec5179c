// Incremental (streaming) diversification in the spirit of Minack, Siberski
// & Nejdl (SIGIR 2011), which the paper's §2 discusses as the experimental
// precursor of its dynamic-update results: elements arrive one at a time
// and a near-diverse set of size <= p is maintained with one candidate swap
// per arrival.
#ifndef DIVERSE_ALGORITHMS_STREAMING_H_
#define DIVERSE_ALGORITHMS_STREAMING_H_

#include <vector>

#include "core/diversification_problem.h"
#include "core/solution_state.h"

namespace diverse {

class StreamingDiversifier {
 public:
  // `problem` must outlive the diversifier. Elements observed must be valid
  // indices of the problem's ground set; each element may be observed once.
  StreamingDiversifier(const DiversificationProblem* problem, int p);

  // Processes one arrival: fills up to p, then applies the best
  // objective-improving swap with the arriving element (if any). Returns
  // true when the current set changed.
  bool Observe(int v);

  // Observes a whole stream in order.
  void ObserveAll(const std::vector<int>& stream);

  int size() const { return state_.size(); }
  const std::vector<int>& current() const { return state_.members(); }
  double objective() const { return state_.objective(); }
  long long swaps_performed() const { return swaps_; }

 private:
  SolutionState state_;
  int p_;
  long long swaps_ = 0;
};

}  // namespace diverse

#endif  // DIVERSE_ALGORITHMS_STREAMING_H_
