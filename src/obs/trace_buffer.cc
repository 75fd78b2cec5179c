#include "obs/trace_buffer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/check.h"

namespace diverse {
namespace obs {
namespace {

void RenderTrace(std::string* out, const CompletedTrace& trace,
                 std::chrono::system_clock::time_point now) {
  const double age =
      std::chrono::duration<double>(now - trace.completed).count();
  char header[160];
  std::snprintf(header, sizeof(header),
                "trace %llu [%s] latency %.3f ms, version %llu, %.1fs ago\n",
                static_cast<unsigned long long>(trace.id),
                trace.label.c_str(), trace.latency_seconds * 1e3,
                static_cast<unsigned long long>(trace.corpus_version),
                age < 0.0 ? 0.0 : age);
  *out += header;
  for (const QueryTrace::Span& span : trace.spans) AppendSpanLine(out, span);
}

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity, std::size_t slow_capacity)
    : capacity_(capacity), slow_capacity_(slow_capacity) {
  DIVERSE_CHECK(capacity_ >= 1);
  DIVERSE_CHECK(slow_capacity_ >= 1);
}

void TraceBuffer::Add(const QueryTrace& trace, std::string label,
                      double latency_seconds, std::uint64_t corpus_version) {
  CompletedTrace completed;
  completed.id = trace.id();
  completed.label = std::move(label);
  completed.latency_seconds = latency_seconds;
  completed.corpus_version = corpus_version;
  completed.completed = std::chrono::system_clock::now();
  completed.spans = trace.spans();
  added_.Inc();

  std::lock_guard<std::mutex> lock(mu_);
  // Slow-query log first (the ring copy below moves the spans away):
  // insert in sorted position while below capacity or faster-than-floor.
  if (slowest_.size() < slow_capacity_ ||
      completed.latency_seconds > slowest_.back().latency_seconds) {
    const auto pos = std::upper_bound(
        slowest_.begin(), slowest_.end(), completed,
        [](const CompletedTrace& a, const CompletedTrace& b) {
          return a.latency_seconds > b.latency_seconds;
        });
    slowest_.insert(pos, completed);
    if (slowest_.size() > slow_capacity_) slowest_.pop_back();
  }
  recent_.push_back(std::move(completed));
  if (recent_.size() > capacity_) recent_.pop_front();
}

std::vector<CompletedTrace> TraceBuffer::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<CompletedTrace>(recent_.rbegin(), recent_.rend());
}

std::vector<CompletedTrace> TraceBuffer::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slowest_;
}

void TraceBuffer::RegisterMetrics(
    MetricRegistry* registry,
    std::vector<MetricRegistry::Registration>* registrations) {
  registrations->push_back(
      registry->RegisterCounter("diverse_traces_sampled_total", &added_));
  registrations->push_back(registry->RegisterGauge(
      "diverse_traces_retained", [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<double>(recent_.size());
      }));
}

std::string TraceBuffer::RenderTracez() const {
  const std::vector<CompletedTrace> recent = Recent();
  const std::vector<CompletedTrace> slowest = Slowest();
  const auto now = std::chrono::system_clock::now();
  std::string out;
  out += "recent sampled traces (" + std::to_string(recent.size()) + " of " +
         std::to_string(capacity_) + " retained, " +
         std::to_string(added()) + " sampled total, newest first)\n";
  for (const CompletedTrace& trace : recent) RenderTrace(&out, trace, now);
  out += "\nslow-query log (slowest " + std::to_string(slowest.size()) +
         " since startup)\n";
  for (const CompletedTrace& trace : slowest) RenderTrace(&out, trace, now);
  return out;
}

}  // namespace obs
}  // namespace diverse
