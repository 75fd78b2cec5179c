// Per-query span recorder: a lightweight trace of where one query spent
// its time as it moves through the serving stack — queue wait, snapshot
// acquire, per-shard fan-out RPCs, catch-up, merge.
//
// A QueryTrace is attached to an engine::Query by pointer (null = not
// traced, every recording site no-ops). Spans carry monotonic-clock
// offsets relative to the trace's construction instant, so a rendered
// trace reads as a timeline. Recording is mutex-protected because the
// coordinator's fan-out records from one thread per busy node; everything
// else about tracing is observation-only — no span ever influences an
// answer, so traced and untraced runs of the same query are bit-equal.
//
// The trace id crosses the wire on ShardQueryRequest so a shard node
// knows to stamp its NodeTiming on the response. The coordinator stores
// that record as it arrives (AddNodeTiming); the five named node spans
// are only built, aligned into the parent timeline, when spans() reads
// the trace. Ids are process-local, unique, and never 0 (0 on the wire
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

// A shard node's four stamps for one traced kernel request, in seconds on
// the node's steady clock since it received the request: decode done,
// kernel start, kernel end, and response assembled (pre-encode).
// Observation-only — never consulted by the kernel or the merge.
struct NodeTiming {
  double decoded = 0.0;
  double kernel_start = 0.0;
  double kernel_end = 0.0;
  double handled = 0.0;
};

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

  // Stores node `node`'s timing for shard `shard`, answered over the
  // round trip [t0, t1] (this process's send and receive stamps, t0 <=
  // t1). The four stamps must be finite and >= 0, as the wire decoder
  // leaves them; any order among them is tolerated. Thread-safe.
  void AddNodeTiming(int shard, int node, Clock::time_point t0,
                     Clock::time_point t1, const NodeTiming& timing);

  // Every span in start order (a stable sort, so a parent recorded at
  // its child's start instant still precedes it). Each stored NodeTiming
  // expands here into five children of its "rpc.shard<s>" span:
  // "rpc.shard<s>/<phase> node=<k>" for handle, decode, wait, kernel and
  // encode, the handle span annotated " skew<=X.XXXms".
  //
  // The two clocks share no epoch, so the node's handle block of length
  // H is assumed centered in the round trip: offset = midpoint(t0, t1) -
  // H/2. The residual half-gap ((t1 - t0) - H)/2 bounds the one-way
  // network time plus any clock rate skew and is the annotated bound.
  // Every expanded span is clamped into [t0, t1], so node spans nest
  // inside the enclosing rpc.shard<s> span whatever the clocks did.
  std::vector<Span> spans() const;

  // Human-readable timeline dump: a "trace <id>" header, then one
  // AppendSpanLine line per span in spans() order.
  std::string Render() const;

 private:
  struct RemoteTiming {
    int shard;
    int node;
    double t0;  // offsets from epoch_
    double t1;
    NodeTiming timing;
  };

  const std::uint64_t id_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<RemoteTiming> remote_;
};

// Appends "  <name> @<start>ms +<duration>ms\n" (milliseconds, three
// decimals): the one span-line format of Render() and /tracez.
void AppendSpanLine(std::string* out, const QueryTrace::Span& span);

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
