// Bench-side probes: decorators over the program's public seams
// (rpc::Transport, rpc::Handler, engine::RemoteExecutor) plus the small
// statistics and process-accounting helpers the report needs. Nothing
// here reaches inside src/; every number is timed around a public call.
//
// The decorators are always installed and pass straight through while
// their probe is off, so the untraced phase runs the same object graph
// as the traced one.
#ifndef SERVEBENCH_PROBES_H_
#define SERVEBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "engine/execution_plan.h"
#include "obs/metrics.h"
#include "rpc/transport.h"

namespace servebench {

namespace engine = diverse::engine;
namespace rpc = diverse::rpc;

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Linear-interpolated quantile (q in [0, 1]); NaN when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Percentile of the samples a histogram gained between two snapshots,
// interpolated inside the bucket the way obs::Histogram::Percentile is.
// NaN when nothing was recorded in between.
double HistogramDeltaPercentile(const diverse::obs::Histogram::Snapshot& before,
                                const diverse::obs::Histogram::Snapshot& after,
                                double q);

// Process accounting the report uses (getrusage, /proc/self/status).
struct Usage {
  double cpu_seconds = 0.0;      // user + system
  long long invol_switches = 0;  // ru_nivcsw
  double peak_rss_mb = 0.0;      // this process's peak resident set
};
Usage ReadUsage();

// Noise diagnostics: seconds for a fixed ALU-only loop (no memory
// traffic), and the 1-minute load average (NaN when unavailable).
double AluCalibrationSeconds();
double LoadAverage1m();

// What the traced phase records at the rpc and router seams.
class RpcProbe {
 public:
  struct Timed {
    std::uint64_t salt = 0;  // the query's shard salt: joins calls to it
    double seconds = 0.0;
  };
  struct Records {
    std::vector<Timed> calls;     // shard query round trips
    std::vector<Timed> executes;  // RemoteExecutor::ExecuteSharded
    std::vector<double> handles;  // node-side Handle of shard queries
    long long query_bytes = 0;    // request + reply bytes of those calls
    long long other_calls = 0;    // publish, catch-up, snapshot frames
    // First shard query request / OK reply seen, for wire timing.
    std::vector<std::uint8_t> request;
    std::vector<std::uint8_t> response;
  };

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  void AddCall(std::span<const std::uint8_t> request,
               std::span<const std::uint8_t> response, double seconds);
  void AddHandle(std::span<const std::uint8_t> request, double seconds);
  void AddExecute(std::uint64_t salt, double seconds);
  Records Take();

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  Records records_;  // guarded by mu_
};

// Client half: times each Call through to `inner`.
class TimedTransport : public rpc::Transport {
 public:
  TimedTransport(rpc::Transport* inner, RpcProbe* probe)
      : inner_(inner), probe_(probe) {}
  bool Call(const std::vector<std::uint8_t>& request,
            std::vector<std::uint8_t>* response) override;

 private:
  rpc::Transport* inner_;
  RpcProbe* probe_;
};

// Server half: sits between SocketServer and the ShardNode.
class TimedHandler : public rpc::Handler {
 public:
  TimedHandler(rpc::Handler* inner, RpcProbe* probe)
      : inner_(inner), probe_(probe) {}
  std::vector<std::uint8_t> Handle(
      std::span<const std::uint8_t> request_payload) override;

 private:
  rpc::Handler* inner_;
  RpcProbe* probe_;
};

// Router seam: what the engine calls for kRemoteSharded queries.
class TimedExecutor : public engine::RemoteExecutor {
 public:
  TimedExecutor(engine::RemoteExecutor* inner, RpcProbe* probe)
      : inner_(inner), probe_(probe) {}
  engine::QueryResult ExecuteSharded(const engine::CorpusSnapshot& snapshot,
                                     const engine::Query& query,
                                     int num_shards) override;

 private:
  engine::RemoteExecutor* inner_;
  RpcProbe* probe_;
};

}  // namespace servebench

#endif  // SERVEBENCH_PROBES_H_
