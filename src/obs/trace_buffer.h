// Always-on trace retention: completed QueryTraces from sampled queries
// land here so /tracez (obs/http_handler.h) can show where recent
// requests spent their time without anyone attaching a trace by hand.
//
// Two retention tiers share one mutex:
//
//   * a fixed-capacity ring of the most recent traces (newest evicts
//     oldest), and
//   * a slow-query log pinning the slowest-N traces seen since startup,
//     so a pathological query observed an hour ago is still inspectable
//     after the ring has churned past it.
//
// The lock is "light" by construction, not by cleverness: only sampled
// queries (default ~1/64, see TraceSampler) ever touch the buffer, the
// critical section is a couple of vector moves, and the query's answer
// is already computed and delivered to the caller before Add runs — the
// buffer is downstream of every answer, so it can never perturb one.
//
// TraceSampler is the admission decision: a relaxed atomic sequence
// counter hashed through SplitMix64, sampling when the hash lands in a
// 1/rate slice. Deterministic per process (same sequence of Sample()
// calls -> same decisions), cheap enough for every query, and free of
// any per-thread state.
#ifndef DIVERSE_OBS_TRACE_BUFFER_H_
#define DIVERSE_OBS_TRACE_BUFFER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace diverse {
namespace obs {

// ~1/rate probabilistic sampling decisions (rate <= 1: every call
// samples; the "always" setting integration tests use). Thread-safe.
class TraceSampler {
 public:
  explicit TraceSampler(std::uint32_t rate) : rate_(rate) {}

  bool Sample() {
    if (rate_ <= 1) return true;
    // SplitMix64 of the admission sequence number: decisions are spread
    // pseudo-randomly (bursts are not systematically all-sampled or
    // all-skipped the way plain modulo would make them) yet replayable.
    std::uint64_t z = seq_.fetch_add(1, std::memory_order_relaxed) +
                      0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    return z % rate_ == 0;
  }

 private:
  const std::uint32_t rate_;
  std::atomic<std::uint64_t> seq_{0};
};

// One finished trace plus the request facts /tracez renders alongside
// the timeline.
struct CompletedTrace {
  std::uint64_t id = 0;
  std::string label;  // e.g. "greedy/remote p=10"
  double latency_seconds = 0.0;
  std::uint64_t corpus_version = 0;
  std::chrono::system_clock::time_point completed;
  std::vector<QueryTrace::Span> spans;
};

class TraceBuffer {
 public:
  // `capacity` bounds the recent ring, `slow_capacity` the slow-query
  // log; both must be >= 1.
  TraceBuffer(std::size_t capacity, std::size_t slow_capacity);
  TraceBuffer() : TraceBuffer(128, 8) {}

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // Consumes `trace`'s spans and id; `completed` is stamped here.
  void Add(const QueryTrace& trace, std::string label,
           double latency_seconds, std::uint64_t corpus_version);

  // Newest-first copy of the recent ring.
  std::vector<CompletedTrace> Recent() const;
  // Slowest-first copy of the slow-query log.
  std::vector<CompletedTrace> Slowest() const;

  long long added() const { return added_.value(); }
  std::size_t capacity() const { return capacity_; }

  // Publishes diverse_traces_sampled_total and the retained-count gauge
  // into `registry`, appending the RAII handles to *registrations. Both
  // the registry and this buffer must outlive the handles (the gauge
  // callback reads the buffer).
  void RegisterMetrics(MetricRegistry* registry,
                       std::vector<MetricRegistry::Registration>* registrations);

  // The /tracez page body: recent timelines (newest first) followed by
  // the slow-query log, spans rendered by AppendSpanLine.
  std::string RenderTracez() const;

 private:
  const std::size_t capacity_;
  const std::size_t slow_capacity_;

  mutable std::mutex mu_;
  std::deque<CompletedTrace> recent_;   // back = newest
  std::vector<CompletedTrace> slowest_; // sorted, slowest first

  Counter added_;
};

}  // namespace obs
}  // namespace diverse

#endif  // DIVERSE_OBS_TRACE_BUFFER_H_
