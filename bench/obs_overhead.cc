// Observation-only contract check for the obs layer: replays the same
// synthetic query/update trace through engines with and without
// instrumentation — plain, fully instrumented (MetricRegistry attached + a
// QueryTrace on every query), sampled (registry + TraceBuffer with the
// production default of ~1/64 engine-owned traces, the /tracez feed),
// remote-plain (an in-process two-node shard cluster behind a
// Coordinator, untraced), and remote-traced (same cluster, a QueryTrace
// per query, so node-side timing records ride the wire back and are
// stored in the trace) — and reports
//
//   overhead_x = median over rounds of (arm round seconds / baseline
//                seconds in the same round)
//   bit_equal  = arm answers identical to baseline answers (elements,
//                objective, corpus version) for every query
//
// in BENCH_obs.json. The local arms baseline against plain; the
// remote-traced arm baselines against remote-plain (sharded answers
// legitimately differ from single-plan ones, so comparing across plans
// would measure the plan, not the tracing). The binary itself enforces
// the contract: bit_equal must hold unconditionally for every arm, and
// each arm's overhead_x must stay <= --max_overhead (default 1.05)
// unless DIVERSE_BENCH_NO_GATE is set — instrumentation that perturbs
// answers or costs more than ~5% is a bug, not a tuning knob. Each round
// runs every arm side by side with its own baseline on two live engines,
// interleaved one update block at a time in ABBA order (RunPair), so host
// noise lasting longer than a block (noisy neighbours, frequency changes)
// lands on both sides of a ratio alike.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench_json.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "engine/workload.h"
#include "obs/metric_registry.h"
#include "obs/query_trace.h"
#include "obs/trace_buffer.h"
#include "rpc/coordinator.h"
#include "rpc/shard_node.h"
#include "rpc/transport.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"

namespace diverse {
namespace {

enum class Arm {
  kPlain,         // no registry, no traces
  kInstrumented,  // registry + a caller-attached QueryTrace per query
  kSampled,       // registry + TraceBuffer sampling (~1/64, the /tracez feed)
  kRemotePlain,   // in-process shard cluster, untraced (the remote baseline)
  kRemoteTraced,  // same cluster + a QueryTrace per query: node timing
                  // records on the wire, stored in the coordinator trace
};

// One arm's replay of the trace on a fresh engine built from `data`. The
// Rng is seeded identically for every arm and round, so every replay sees
// the identical query stream and identical update epochs — the only
// difference between arms is the instrumentation.
class ArmReplay {
 public:
  ArmReplay(const Dataset& data, int queries, int p, double lambda,
            int update_every, std::uint64_t seed, Arm arm)
      : update_every_(update_every), n_(data.size()), rng_(seed) {
    const bool instrumented =
        arm == Arm::kInstrumented || arm == Arm::kRemoteTraced;
    const bool remote =
        arm == Arm::kRemotePlain || arm == Arm::kRemoteTraced;
    // Remote arms: two full-replica shard nodes behind in-process
    // transports, updates fanned out through the coordinator after each
    // local apply — the same topology the obs integration tests use.
    if (remote) {
      std::vector<rpc::Transport*> raw;
      for (int i = 0; i < 2; ++i) {
        Dataset replica = data;
        nodes_.push_back(std::make_unique<rpc::ShardNode>(
            replica.weights, std::move(replica.metric), lambda));
        transports_.push_back(
            std::make_unique<rpc::InProcessTransport>(nodes_.back().get()));
        raw.push_back(transports_.back().get());
      }
      coordinator_ = std::make_unique<rpc::Coordinator>(raw);
    }
    engine::DiversificationEngine::Options options;
    options.num_workers = 1;
    options.remote = coordinator_.get();
    if (arm != Arm::kPlain && arm != Arm::kRemotePlain) {
      options.registry = &registry_;
    }
    if (arm == Arm::kSampled) {
      options.trace_buffer = &trace_buffer_;
      options.trace_sample_every = 64;
    }
    Dataset copy = data;
    server_ = std::make_unique<engine::DiversificationEngine>(
        copy.weights, std::move(copy.metric), lambda, options);

    engine::SyntheticQueryConfig query_config;
    query_config.p = p;
    query_config.lambda = lambda;
    query_config.universe = n_;
    query_config.sharded = remote;
    query_config.remote = remote;
    query_config.num_shards = 4;
    trace_.reserve(queries);
    for (int i = 0; i < queries; ++i) {
      trace_.push_back(engine::MakeSyntheticQuery(query_config, rng_));
    }
    if (instrumented) {
      query_traces_.reserve(queries);
      for (int i = 0; i < queries; ++i) {
        query_traces_.push_back(std::make_unique<obs::QueryTrace>());
        trace_[i].trace = query_traces_.back().get();
      }
    }
    answers_.reserve(queries);
  }

  // Applies the update epoch due before query i, then answers query i;
  // returns the wall seconds of both. Queries must come in order.
  double Step(int i) {
    WallTimer wall;
    if (update_every_ > 0 && i > 0 && i % update_every_ == 0) {
      const std::vector<engine::CorpusUpdate> updates =
          engine::MakeSyntheticEpoch(n_, /*churn=*/false, epoch_++, rng_);
      const std::uint64_t version = server_->ApplyUpdates(updates);
      if (coordinator_) coordinator_->PublishEpoch(version, updates);
    }
    answers_.push_back(server_->RunSync(trace_[i]));
    return wall.Seconds();
  }

  const std::vector<engine::QueryResult>& answers() const { return answers_; }

 private:
  const int update_every_;
  const int n_;
  Rng rng_;
  int epoch_ = 0;
  obs::MetricRegistry registry_;
  obs::TraceBuffer trace_buffer_;
  std::vector<std::unique_ptr<rpc::ShardNode>> nodes_;
  std::vector<std::unique_ptr<rpc::InProcessTransport>> transports_;
  std::unique_ptr<rpc::Coordinator> coordinator_;
  std::unique_ptr<engine::DiversificationEngine> server_;
  std::vector<engine::Query> trace_;
  std::vector<std::unique_ptr<obs::QueryTrace>> query_traces_;
  std::vector<engine::QueryResult> answers_;
};

// Seconds and answers of an arm and its baseline over one replay.
struct PairResult {
  double base_seconds = 0.0;
  double arm_seconds = 0.0;
  std::vector<engine::QueryResult> base_answers;
  std::vector<engine::QueryResult> arm_answers;
};

// Replays the trace on `base` and `arm` interleaved block by block, one
// block being the update epoch and the queries up to the next one. Blocks
// alternate in ABBA order (base first in even blocks, arm first in odd
// ones), so each side's epoch follows its own queries as often as the
// other side's: cloning the corpus right after querying it runs faster,
// and per-query alternation, which gave this only to the base, read
// 1.09-1.17 in an A/A run of plain against plain. Host noise lasting
// longer than a block lands on both sides alike.
PairResult RunPair(const Dataset& data, int queries, int p, double lambda,
                   int update_every, std::uint64_t seed, Arm base, Arm arm) {
  ArmReplay base_replay(data, queries, p, lambda, update_every, seed, base);
  ArmReplay arm_replay(data, queries, p, lambda, update_every, seed, arm);
  PairResult result;
  const int block = update_every > 0 ? update_every : 1;
  for (int start = 0; start < queries; start += block) {
    const int end = std::min(queries, start + block);
    const bool base_first = (start / block) % 2 == 0;
    for (int side = 0; side < 2; ++side) {
      const bool run_base = (side == 0) == base_first;
      ArmReplay& replay = run_base ? base_replay : arm_replay;
      double& seconds = run_base ? result.base_seconds : result.arm_seconds;
      for (int i = start; i < end; ++i) seconds += replay.Step(i);
    }
  }
  result.base_answers = base_replay.answers();
  result.arm_answers = arm_replay.answers();
  return result;
}

// The three measured pairs: each instrumented arm against its baseline.
struct Round {
  PairResult instrumented;  // plain vs instrumented
  PairResult sampled;       // plain vs sampled
  PairResult remote;        // remote-plain vs remote-traced
};

Round RunRound(const Dataset& data, int queries, int p, double lambda,
               int update_every, std::uint64_t seed) {
  Round round;
  round.instrumented = RunPair(data, queries, p, lambda, update_every, seed,
                               Arm::kPlain, Arm::kInstrumented);
  round.sampled = RunPair(data, queries, p, lambda, update_every, seed,
                          Arm::kPlain, Arm::kSampled);
  round.remote = RunPair(data, queries, p, lambda, update_every, seed,
                         Arm::kRemotePlain, Arm::kRemoteTraced);
  return round;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

bool SameAnswers(const std::vector<engine::QueryResult>& a,
                 const std::vector<engine::QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].elements != b[i].elements ||
        a[i].objective != b[i].objective ||
        a[i].corpus_version != b[i].corpus_version) {
      return false;
    }
  }
  return true;
}

int Run(int n, int p, int queries, int rounds, double lambda,
        int update_every, double max_overhead, std::uint64_t seed) {
  Rng rng(seed);
  const Dataset data = MakeUniformSynthetic(n, rng);
  std::cout << "obs overhead: n = " << n << ", p = " << p << ", " << queries
            << " queries x " << rounds << " rounds per arm\n";

  // Warm-up round (all arms) so first-touch costs are off the clock.
  RunRound(data, queries, p, lambda, update_every, seed);

  std::vector<double> seconds[5];  // plain, instrumented, sampled, remote
                                   // plain, remote traced
  std::vector<double> instr_ratios;
  std::vector<double> sampled_ratios;
  std::vector<double> remote_ratios;
  bool instr_bit_equal = true;
  bool sampled_bit_equal = true;
  bool remote_bit_equal = true;
  for (int r = 0; r < rounds; ++r) {
    const Round round = RunRound(data, queries, p, lambda, update_every, seed);
    seconds[0].push_back(round.instrumented.base_seconds);
    seconds[1].push_back(round.instrumented.arm_seconds);
    seconds[2].push_back(round.sampled.arm_seconds);
    seconds[3].push_back(round.remote.base_seconds);
    seconds[4].push_back(round.remote.arm_seconds);
    instr_ratios.push_back(round.instrumented.arm_seconds /
                           round.instrumented.base_seconds);
    sampled_ratios.push_back(round.sampled.arm_seconds /
                             round.sampled.base_seconds);
    remote_ratios.push_back(round.remote.arm_seconds /
                            round.remote.base_seconds);
    instr_bit_equal =
        instr_bit_equal && SameAnswers(round.instrumented.base_answers,
                                       round.instrumented.arm_answers);
    sampled_bit_equal =
        sampled_bit_equal && SameAnswers(round.sampled.base_answers,
                                         round.sampled.arm_answers);
    // Remote arms compare against each other: the sharded plan's answers
    // differ from the single plan's by construction, but tracing must
    // not move them.
    remote_bit_equal =
        remote_bit_equal &&
        SameAnswers(round.remote.base_answers, round.remote.arm_answers);
  }
  const double plain_median = Median(seconds[0]);
  const double instr_median = Median(seconds[1]);
  const double sampled_median = Median(seconds[2]);
  const double remote_plain_median = Median(seconds[3]);
  const double remote_traced_median = Median(seconds[4]);
  const double instr_overhead_x = Median(instr_ratios);
  const double sampled_overhead_x = Median(sampled_ratios);
  const double remote_overhead_x = Median(remote_ratios);
  std::cout << "plain median:         " << plain_median * 1e3 << " ms\n"
            << "instrumented median:  " << instr_median * 1e3 << " ms"
            << " (overhead_x " << instr_overhead_x << ", bit_equal "
            << (instr_bit_equal ? "yes" : "NO") << ")\n"
            << "sampled median:       " << sampled_median * 1e3 << " ms"
            << " (overhead_x " << sampled_overhead_x << ", bit_equal "
            << (sampled_bit_equal ? "yes" : "NO") << ")\n"
            << "remote plain median:  " << remote_plain_median * 1e3
            << " ms\n"
            << "remote traced median: " << remote_traced_median * 1e3
            << " ms (overhead_x " << remote_overhead_x << ", bit_equal "
            << (remote_bit_equal ? "yes" : "NO") << ")\n";

  bench::BenchJson json("obs");
  json.NewRecord("plain")
      .Add("n", static_cast<long long>(n))
      .Add("p", static_cast<long long>(p))
      .Add("queries", static_cast<long long>(queries))
      .Add("rounds", static_cast<long long>(rounds))
      .Add("median_seconds", plain_median)
      .Add("qps", queries / plain_median);
  json.NewRecord("instrumented")
      .Add("n", static_cast<long long>(n))
      .Add("p", static_cast<long long>(p))
      .Add("queries", static_cast<long long>(queries))
      .Add("rounds", static_cast<long long>(rounds))
      .Add("median_seconds", instr_median)
      .Add("qps", queries / instr_median)
      .Add("overhead_x", instr_overhead_x)
      .Add("bit_equal", static_cast<long long>(instr_bit_equal ? 1 : 0));
  json.NewRecord("sampled")
      .Add("n", static_cast<long long>(n))
      .Add("p", static_cast<long long>(p))
      .Add("queries", static_cast<long long>(queries))
      .Add("rounds", static_cast<long long>(rounds))
      .Add("sample_every", 64LL)
      .Add("median_seconds", sampled_median)
      .Add("qps", queries / sampled_median)
      .Add("overhead_x", sampled_overhead_x)
      .Add("bit_equal", static_cast<long long>(sampled_bit_equal ? 1 : 0));
  json.NewRecord("remote_plain")
      .Add("n", static_cast<long long>(n))
      .Add("p", static_cast<long long>(p))
      .Add("queries", static_cast<long long>(queries))
      .Add("rounds", static_cast<long long>(rounds))
      .Add("median_seconds", remote_plain_median)
      .Add("qps", queries / remote_plain_median);
  json.NewRecord("remote_traced")
      .Add("n", static_cast<long long>(n))
      .Add("p", static_cast<long long>(p))
      .Add("queries", static_cast<long long>(queries))
      .Add("rounds", static_cast<long long>(rounds))
      .Add("median_seconds", remote_traced_median)
      .Add("qps", queries / remote_traced_median)
      .Add("overhead_x", remote_overhead_x)
      .Add("bit_equal", static_cast<long long>(remote_bit_equal ? 1 : 0));
  json.WriteFile();

  if (!instr_bit_equal || !sampled_bit_equal || !remote_bit_equal) {
    std::cerr << "FAIL: "
              << (!instr_bit_equal
                      ? "instrumented"
                      : !sampled_bit_equal ? "sampled" : "remote traced")
              << " answers diverged from their baseline — observation "
                 "changed an answer\n";
    return 1;
  }
  const double worst_overhead_x =
      std::max({instr_overhead_x, sampled_overhead_x, remote_overhead_x});
  if (worst_overhead_x > max_overhead) {
    if (std::getenv("DIVERSE_BENCH_NO_GATE") != nullptr) {
      std::cout << "DIVERSE_BENCH_NO_GATE set: overhead gate not enforced\n";
      return 0;
    }
    std::cerr << "FAIL: overhead_x " << worst_overhead_x << " > "
              << max_overhead
              << " (set DIVERSE_BENCH_NO_GATE=1 to override)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace diverse

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Every update epoch clones a dense corpus (6.5 MB at n = 900). By
  // default glibc adapts its mmap threshold to freed blocks, so whether a
  // clone reuses faulted-in heap memory or maps fresh pages depends on
  // what the other engine of the pair allocated before it: an A/A run of
  // plain against plain read 1.00, but the sampled arm read 1.14 after an
  // instrumented pair and 1.01 after a plain one. Fixed thresholds keep
  // large blocks on the heap and untrimmed, so both sides reuse memory
  // alike.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  int n = 900;
  int p = 10;
  int queries = 160;
  int rounds = 51;
  double lambda = 0.2;
  int update_every = 10;
  double max_overhead = 1.05;
  std::int64_t seed = 17;
  diverse::FlagSet flags(
      "obs_overhead — measure the cost of full instrumentation (metric "
      "registry + per-query traces, locally and across an in-process "
      "shard cluster with node-side timing records) against identical "
      "uninstrumented runs and enforce the observation-only contract");
  flags.AddInt("n", &n, "synthetic corpus size");
  flags.AddInt("p", &p, "subset size per query");
  flags.AddInt("queries", &queries, "queries per round");
  flags.AddInt("rounds", &rounds, "rounds per arm (median is reported)");
  flags.AddDouble("lambda", &lambda, "quality/diversity trade-off");
  flags.AddInt("update_every", &update_every,
               "apply an update epoch every K queries (0 = none)");
  flags.AddDouble("max_overhead", &max_overhead,
                  "fail when overhead_x exceeds this");
  flags.AddInt64("seed", &seed, "random seed");
  if (!flags.Parse(argc, argv)) return 1;
  return diverse::Run(n, p, queries, rounds, lambda, update_every,
                      max_overhead, static_cast<std::uint64_t>(seed));
}
