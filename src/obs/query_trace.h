// Per-query span recorder: a lightweight trace of where one query spent
// its time as it moves through the serving stack — queue wait, snapshot
// acquire, per-shard fan-out RPCs, catch-up, merge.
//
// A QueryTrace is attached to an engine::Query by pointer (null = not
// traced, every recording site no-ops). Spans carry monotonic-clock
// offsets relative to the trace's construction instant, so a rendered
// trace reads as a timeline. AddSpan is mutex-protected because the
// coordinator's fan-out records from one thread per busy node; everything
// else about tracing is observation-only — no span ever influences an
// answer, so traced and untraced runs of the same query are bit-equal.
//
// The trace id crosses the wire on ShardQueryRequest so a shard node
// knows to record its own span block (decode/wait/kernel/encode) on the
// response; the coordinator aligns those into the parent timeline via
// AddSpanAt. Ids are process-local, unique, and never 0 (0 on the wire
// means untraced).
#ifndef DIVERSE_OBS_QUERY_TRACE_H_
#define DIVERSE_OBS_QUERY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace diverse {
namespace obs {

class QueryTrace {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_seconds = 0.0;     // offset from trace construction
    double duration_seconds = 0.0;  // >= 0
  };

  QueryTrace();
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  std::uint64_t id() const { return id_; }
  Clock::time_point epoch() const { return epoch_; }

  // Thread-safe; `end < start` is clamped to a zero-length span.
  void AddSpan(std::string name, Clock::time_point start,
               Clock::time_point end);

  // Records a pre-computed span — e.g. one recorded on a remote node's
  // clock and already aligned into this trace's timeline. Negative or
  // non-finite inputs clamp to 0 so a hostile peer cannot corrupt the
  // rendered timeline. Thread-safe.
  void AddSpanAt(std::string name, double start_seconds,
                 double duration_seconds);

  std::vector<Span> spans() const;

  // Human-readable timeline dump: one "  name @start +duration" line per
  // span in recording order, durations in milliseconds.
  std::string Render() const;

 private:
  const std::uint64_t id_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span: records [construction, destruction) into the trace. A null
// trace makes the whole object a no-op, so call sites stay branch-free.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, std::string name)
      : trace_(trace),
        name_(std::move(name)),
        start_(trace != nullptr ? QueryTrace::Clock::now()
                                : QueryTrace::Clock::time_point()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->AddSpan(std::move(name_), start_, QueryTrace::Clock::now());
    }
  }

 private:
  QueryTrace* trace_;
  std::string name_;
  QueryTrace::Clock::time_point start_;
};

}  // namespace obs
}  // namespace diverse

#endif  // DIVERSE_OBS_QUERY_TRACE_H_
