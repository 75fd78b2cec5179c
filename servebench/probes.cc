#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "rpc/wire.h"

namespace servebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double HistogramDeltaPercentile(const diverse::obs::Histogram::Snapshot& before,
                                const diverse::obs::Histogram::Snapshot& after,
                                double q) {
  using diverse::obs::Histogram;
  long long counts[Histogram::kNumBuckets];
  long long total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    counts[i] = after.counts[i] - before.counts[i];
    total += counts[i];
  }
  if (total <= 0) return std::numeric_limits<double>::quiet_NaN();
  const double rank = q * static_cast<double>(total);
  long long seen = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double lower = i == 0 ? 0.0 : Histogram::UpperBound(i - 1);
    if (i == Histogram::kNumBuckets - 1) return lower;
    if (static_cast<double>(seen + counts[i]) >= rank) {
      const double upper = Histogram::UpperBound(i);
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(counts[i]);
      return lower + std::clamp(within, 0.0, 1.0) * (upper - lower);
    }
    seen += counts[i];
  }
  return Histogram::UpperBound(Histogram::kNumBuckets - 2);
}

Usage ReadUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.cpu_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                    static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
                    static_cast<double>(usage.ru_stime.tv_sec) +
                    static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.invol_switches = usage.ru_nivcsw;
  // ru_maxrss also counts the RSS the parent had when it forked us, so
  // prefer the kernel's high-water mark of this process's own memory.
  long long kib = usage.ru_maxrss;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      kib = std::atoll(line.c_str() + 6);
      break;
    }
  }
  out.peak_rss_mb = static_cast<double>(kib) / 1024.0;
  return out;
}

namespace {
volatile std::uint64_t alu_sink;  // keeps the calibration loop alive
}  // namespace

double AluCalibrationSeconds() {
  const Clock::time_point start = Clock::now();
  // One serial xorshift chain: register-only work, so its time moves with
  // the CPU share this process gets and not with memory bandwidth.
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < (1 << 25); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double seconds = SecondsBetween(start, Clock::now());
  alu_sink = x;
  return seconds;
}

double LoadAverage1m() {
  double load[1];
  if (getloadavg(load, 1) != 1) return std::numeric_limits<double>::quiet_NaN();
  return load[0];
}

void RpcProbe::AddCall(std::span<const std::uint8_t> request,
                       std::span<const std::uint8_t> response,
                       double seconds) {
  rpc::ShardQueryRequest decoded;
  const bool is_query =
      rpc::PeekType(request) == rpc::MessageType::kShardQueryRequest &&
      rpc::Decode(request, &decoded);
  std::lock_guard<std::mutex> lock(mu_);
  if (!is_query) {
    ++records_.other_calls;
    return;
  }
  records_.calls.push_back({decoded.shard_salt, seconds});
  records_.query_bytes +=
      static_cast<long long>(request.size() + response.size());
  rpc::ShardQueryResponse reply;
  if (records_.response.empty() && rpc::Decode(response, &reply) &&
      reply.status == rpc::RpcStatus::kOk) {
    records_.request.assign(request.begin(), request.end());
    records_.response.assign(response.begin(), response.end());
  }
}

void RpcProbe::AddHandle(std::span<const std::uint8_t> request,
                         double seconds) {
  if (rpc::PeekType(request) != rpc::MessageType::kShardQueryRequest) return;
  std::lock_guard<std::mutex> lock(mu_);
  records_.handles.push_back(seconds);
}

void RpcProbe::AddExecute(std::uint64_t salt, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.executes.push_back({salt, seconds});
}

RpcProbe::Records RpcProbe::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(records_, Records{});
}

bool TimedTransport::Call(const std::vector<std::uint8_t>& request,
                          std::vector<std::uint8_t>* response) {
  if (!probe_->on()) return inner_->Call(request, response);
  const Clock::time_point start = Clock::now();
  const bool ok = inner_->Call(request, response);
  const double seconds = SecondsBetween(start, Clock::now());
  if (ok) probe_->AddCall(request, *response, seconds);
  return ok;
}

std::vector<std::uint8_t> TimedHandler::Handle(
    std::span<const std::uint8_t> request_payload) {
  if (!probe_->on()) return inner_->Handle(request_payload);
  const Clock::time_point start = Clock::now();
  std::vector<std::uint8_t> reply = inner_->Handle(request_payload);
  probe_->AddHandle(request_payload, SecondsBetween(start, Clock::now()));
  return reply;
}

engine::QueryResult TimedExecutor::ExecuteSharded(
    const engine::CorpusSnapshot& snapshot, const engine::Query& query,
    int num_shards) {
  if (!probe_->on()) return inner_->ExecuteSharded(snapshot, query, num_shards);
  const Clock::time_point start = Clock::now();
  engine::QueryResult result =
      inner_->ExecuteSharded(snapshot, query, num_shards);
  probe_->AddExecute(query.shard_salt, SecondsBetween(start, Clock::now()));
  return result;
}

}  // namespace servebench
