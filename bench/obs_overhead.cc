// Observation-only contract check for the obs layer: replays the same
// synthetic query/update trace through the engine five times per round —
// plain, fully instrumented (MetricRegistry attached + a QueryTrace on
// every query), sampled (registry + TraceBuffer with the production
// default of ~1/64 engine-owned traces, the /tracez feed), remote-plain
// (an in-process two-node shard cluster behind a Coordinator, untraced),
// and remote-traced (same cluster, a QueryTrace per query, so node-side
// spans ride the wire back and get aligned) — and reports
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
// answers or costs more than ~5% is a bug, not a tuning knob. Rounds
// interleave the arms, in forward order on even rounds and reverse order
// on odd ones, and each ratio pairs an arm with its baseline from the
// same round, so slow drift (thermal, noisy neighbors) cancels instead
// of landing on whichever arm ran during a slow stretch.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

struct RoundResult {
  double seconds = 0.0;
  std::vector<engine::QueryResult> answers;
};

enum class Arm {
  kPlain,         // no registry, no traces
  kInstrumented,  // registry + a caller-attached QueryTrace per query
  kSampled,       // registry + TraceBuffer sampling (~1/64, the /tracez feed)
  kRemotePlain,   // in-process shard cluster, untraced (the remote baseline)
  kRemoteTraced,  // same cluster + a QueryTrace per query: node spans on
                  // the wire, aligned into the coordinator timeline
};

// One full trace replay on a fresh engine built from `data`. The Rng is
// re-seeded per round, so every round sees the identical query stream
// and identical update epochs — the only difference between arms is the
// instrumentation.
RoundResult RunRound(const Dataset& data, int queries, int p, double lambda,
                     int update_every, std::uint64_t seed, Arm arm) {
  const bool instrumented =
      arm == Arm::kInstrumented || arm == Arm::kRemoteTraced;
  const bool remote =
      arm == Arm::kRemotePlain || arm == Arm::kRemoteTraced;
  obs::MetricRegistry registry;
  obs::TraceBuffer trace_buffer;
  // Remote arms: two full-replica shard nodes behind in-process
  // transports, updates fanned out through the coordinator after each
  // local apply — the same topology the obs integration tests use.
  std::vector<std::unique_ptr<rpc::ShardNode>> nodes;
  std::vector<std::unique_ptr<rpc::InProcessTransport>> transports;
  std::unique_ptr<rpc::Coordinator> coordinator;
  if (remote) {
    std::vector<rpc::Transport*> raw;
    for (int i = 0; i < 2; ++i) {
      Dataset replica = data;
      nodes.push_back(std::make_unique<rpc::ShardNode>(
          replica.weights, std::move(replica.metric), lambda));
      transports.push_back(
          std::make_unique<rpc::InProcessTransport>(nodes.back().get()));
      raw.push_back(transports.back().get());
    }
    coordinator = std::make_unique<rpc::Coordinator>(raw);
  }
  engine::DiversificationEngine::Options options;
  options.num_workers = 1;
  options.remote = coordinator.get();
  if (arm != Arm::kPlain && arm != Arm::kRemotePlain) {
    options.registry = &registry;
  }
  if (arm == Arm::kSampled) {
    options.trace_buffer = &trace_buffer;
    options.trace_sample_every = 64;
  }
  Dataset copy = data;
  engine::DiversificationEngine server(copy.weights, std::move(copy.metric),
                                       lambda, options);
  const int n = data.size();

  Rng rng(seed);
  engine::SyntheticQueryConfig query_config;
  query_config.p = p;
  query_config.lambda = lambda;
  query_config.universe = n;
  query_config.sharded = remote;
  query_config.remote = remote;
  query_config.num_shards = 4;
  std::vector<engine::Query> trace;
  trace.reserve(queries);
  for (int i = 0; i < queries; ++i) {
    trace.push_back(engine::MakeSyntheticQuery(query_config, rng));
  }
  std::vector<std::unique_ptr<obs::QueryTrace>> query_traces;
  if (instrumented) {
    query_traces.reserve(queries);
    for (int i = 0; i < queries; ++i) {
      query_traces.push_back(std::make_unique<obs::QueryTrace>());
      trace[i].trace = query_traces.back().get();
    }
  }

  int epoch = 0;
  RoundResult result;
  result.answers.reserve(queries);
  WallTimer wall;
  for (int i = 0; i < queries; ++i) {
    if (update_every > 0 && i > 0 && i % update_every == 0) {
      const std::vector<engine::CorpusUpdate> updates =
          engine::MakeSyntheticEpoch(n, /*churn=*/false, epoch++, rng);
      const std::uint64_t version = server.ApplyUpdates(updates);
      if (coordinator) coordinator->PublishEpoch(version, updates);
    }
    result.answers.push_back(server.RunSync(trace[i]));
  }
  result.seconds = wall.Seconds();
  return result;
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

  constexpr Arm kArms[] = {Arm::kPlain, Arm::kInstrumented, Arm::kSampled,
                           Arm::kRemotePlain, Arm::kRemoteTraced};
  constexpr int kNumArms = static_cast<int>(std::size(kArms));
  // Warm-up pass (all arms) so first-touch costs are off the clock.
  for (const Arm arm : kArms) {
    RunRound(data, queries, p, lambda, update_every, seed, arm);
  }

  std::vector<double> seconds[kNumArms];
  std::vector<double> instr_ratios;
  std::vector<double> sampled_ratios;
  std::vector<double> remote_ratios;
  bool instr_bit_equal = true;
  bool sampled_bit_equal = true;
  bool remote_bit_equal = true;
  for (int r = 0; r < rounds; ++r) {
    RoundResult round[kNumArms];
    for (int k = 0; k < kNumArms; ++k) {
      const int a = r % 2 == 0 ? k : kNumArms - 1 - k;
      round[a] = RunRound(data, queries, p, lambda, update_every, seed,
                          kArms[a]);
      seconds[a].push_back(round[a].seconds);
    }
    const RoundResult& plain = round[0];
    const RoundResult& instr = round[1];
    const RoundResult& sampled = round[2];
    const RoundResult& remote_plain = round[3];
    const RoundResult& remote_traced = round[4];
    instr_ratios.push_back(instr.seconds / plain.seconds);
    sampled_ratios.push_back(sampled.seconds / plain.seconds);
    remote_ratios.push_back(remote_traced.seconds / remote_plain.seconds);
    instr_bit_equal =
        instr_bit_equal && SameAnswers(plain.answers, instr.answers);
    sampled_bit_equal =
        sampled_bit_equal && SameAnswers(plain.answers, sampled.answers);
    // Remote arms compare against each other: the sharded plan's answers
    // differ from the single plan's by construction, but tracing must
    // not move them.
    remote_bit_equal = remote_bit_equal &&
                       SameAnswers(remote_plain.answers,
                                   remote_traced.answers);
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
  int n = 900;
  int p = 10;
  int queries = 80;
  int rounds = 15;
  double lambda = 0.2;
  int update_every = 10;
  double max_overhead = 1.05;
  std::int64_t seed = 17;
  diverse::FlagSet flags(
      "obs_overhead — measure the cost of full instrumentation (metric "
      "registry + per-query traces, locally and across an in-process "
      "shard cluster with node-side span blocks) against identical "
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
