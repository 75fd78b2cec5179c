#include "obs/query_trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace diverse {
namespace obs {

namespace {
std::uint64_t NextTraceId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

double Seconds(QueryTrace::Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
}  // namespace

QueryTrace::QueryTrace() : QueryTrace(Clock::now()) {}

QueryTrace::QueryTrace(Clock::time_point epoch)
    : id_(NextTraceId()), epoch_(epoch) {}

void QueryTrace::AddSpan(std::string name, Clock::time_point start,
                         Clock::time_point end) {
  Span span;
  span.name = std::move(name);
  span.start_seconds = Seconds(start - epoch_);
  span.duration_seconds = end > start ? Seconds(end - start) : 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void QueryTrace::AddNodeTiming(int shard, int node, Clock::time_point t0,
                               Clock::time_point t1, const NodeTiming& timing) {
  const RemoteTiming remote{shard, node, Seconds(t0 - epoch_),
                            Seconds(t1 - epoch_), timing};
  std::lock_guard<std::mutex> lock(mu_);
  remote_.push_back(remote);
}

std::vector<QueryTrace::Span> QueryTrace::spans() const {
  std::vector<Span> out;
  std::vector<RemoteTiming> remote;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
    remote = remote_;
  }
  for (const RemoteTiming& r : remote) {
    const NodeTiming& n = r.timing;
    const double offset = (r.t0 + r.t1) / 2.0 - n.handled / 2.0;
    const double skew_bound = std::max(0.0, ((r.t1 - r.t0) - n.handled) / 2.0);
    // [begin, end) on the node's clock, aligned and clamped into [t0, t1].
    const auto add = [&](const char* phase, double begin, double end) {
      const double start = std::clamp(offset + begin, r.t0, r.t1);
      char name[96];
      std::snprintf(name, sizeof(name), "rpc.shard%d/%s node=%d", r.shard,
                    phase, r.node);
      Span& span = out.emplace_back();
      span.name = name;
      span.start_seconds = start;
      span.duration_seconds = std::clamp(offset + end, start, r.t1) - start;
    };
    add("handle", 0.0, n.handled);
    char skew[32];
    std::snprintf(skew, sizeof(skew), " skew<=%.3fms", skew_bound * 1e3);
    out.back().name += skew;
    add("decode", 0.0, n.decoded);
    add("wait", n.decoded, n.kernel_start);
    add("kernel", n.kernel_start, n.kernel_end);
    add("encode", n.kernel_end, n.handled);
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_seconds < b.start_seconds;
  });
  return out;
}

void AppendSpanLine(std::string* out, const QueryTrace::Span& span) {
  char times[64];
  std::snprintf(times, sizeof(times), " @%.3fms +%.3fms\n",
                span.start_seconds * 1e3, span.duration_seconds * 1e3);
  *out += "  ";
  *out += span.name;
  *out += times;
}

std::string QueryTrace::Render() const {
  std::string out = "trace " + std::to_string(id_) + "\n";
  for (const Span& span : spans()) AppendSpanLine(&out, span);
  return out;
}

}  // namespace obs
}  // namespace diverse
