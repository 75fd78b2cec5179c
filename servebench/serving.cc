#include "serving.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "engine/engine.h"
#include "engine/execution_plan.h"
#include "metric/pruning_index.h"
#include "probes.h"
#include "rpc/coordinator.h"
#include "rpc/shard_node.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "snapshot/checkpoint_store.h"
#include "util/random.h"

namespace servebench {
namespace {

namespace snapshot = diverse::snapshot;
using Epochs = std::vector<std::vector<engine::CorpusUpdate>>;

// Query-index ranges, so no two queries of a run share an input stream.
constexpr std::uint64_t kSetupQueryBase = 1ULL << 40;
constexpr std::uint64_t kWarmupQueryBase = 1ULL << 41;
// Traced phase: one query in this many is executed again off the pool, on
// the snapshot it was served from, to time the plan layer alone.
constexpr int kReexecuteEvery = 16;

double Or0(double value) { return std::isnan(value) ? 0.0 : value; }

bool WellFormed(const engine::QueryResult& result, int p) {
  return result.ok && static_cast<int>(result.elements.size()) == p &&
         std::isfinite(result.objective);
}

bool BitEqual(const engine::QueryResult& a, const engine::QueryResult& b) {
  return a.elements == b.elements &&
         std::bit_cast<std::uint64_t>(a.objective) ==
             std::bit_cast<std::uint64_t>(b.objective);
}

// The single-node reference for a served query: a remote answer must be
// bit-equal to the in-process sharded plan on the same snapshot.
engine::QueryResult ReferenceAnswer(const engine::CorpusSnapshot& snapshot,
                                    engine::Query query) {
  if (query.plan == engine::PlanKind::kRemoteSharded) {
    query.plan = engine::PlanKind::kSharded;
  }
  return engine::ExecuteQuery(snapshot, query, engine::PlanDefaults{});
}

// One cold-started serving stack. Members are declared in start-up order,
// so destruction stops the engine first and the shard nodes last.
struct System {
  std::vector<std::unique_ptr<diverse::rpc::ShardNode>> nodes;
  std::vector<std::unique_ptr<TimedHandler>> handlers;
  std::vector<std::unique_ptr<diverse::rpc::SocketServer>> servers;
  std::vector<std::unique_ptr<diverse::rpc::SocketTransport>> sockets;
  std::vector<std::unique_ptr<TimedTransport>> transports;
  std::unique_ptr<diverse::rpc::Coordinator> coordinator;
  std::unique_ptr<TimedExecutor> executor;
  std::unique_ptr<engine::DiversificationEngine> engine;
  engine::PlanDefaults defaults;  // what the engine's workers run with
};

struct StartTimes {
  double setup = 0.0;      // checkpoint load .. first answer returned
  double load = 0.0;       // CheckpointStore::LoadLatest
  double construct = 0.0;  // nodes, coordinator and engine construction
  double bootstrap = 0.0;  // CompactLog + first remote answer (transfer)
};

// Cold start from the checkpoint in `dir` until `first` is answered. The
// answer is checked off the clock; a wrong one is reported in *problem.
std::unique_ptr<System> ColdStart(const Recipe& recipe, const std::string& dir,
                                  RpcProbe* probe, const engine::Query& first,
                                  StartTimes* times, std::string* problem) {
  auto system = std::make_unique<System>();
  const Clock::time_point t0 = Clock::now();
  const snapshot::CheckpointStore store(dir);
  std::string error;
  std::optional<engine::CorpusState> state = store.LoadLatest(&error);
  if (!state) {
    *problem = "checkpoint load failed: " + error;
    return nullptr;
  }
  const Clock::time_point t1 = Clock::now();
  engine::DiversificationEngine::Options options;  // the shipped defaults
  if (recipe.kind == Kind::kRemoteVector) {
    std::vector<diverse::rpc::Transport*> nodes;
    for (int i = 0; i < recipe.num_shards; ++i) {
      // Empty node: it bootstraps by snapshot transfer.
      system->nodes.push_back(std::make_unique<diverse::rpc::ShardNode>());
      system->handlers.push_back(
          std::make_unique<TimedHandler>(system->nodes.back().get(), probe));
      system->servers.push_back(std::make_unique<diverse::rpc::SocketServer>(
          system->handlers.back().get(), 0));
      system->servers.back()->Start();
      system->sockets.push_back(std::make_unique<diverse::rpc::SocketTransport>(
          "127.0.0.1", system->servers.back()->port()));
      system->transports.push_back(
          std::make_unique<TimedTransport>(system->sockets.back().get(),
                                           probe));
      nodes.push_back(system->transports.back().get());
    }
    system->coordinator =
        std::make_unique<diverse::rpc::Coordinator>(std::move(nodes));
    system->executor =
        std::make_unique<TimedExecutor>(system->coordinator.get(), probe);
    options.remote = system->executor.get();
  }
  system->engine = std::make_unique<engine::DiversificationEngine>(
      std::move(*state), options);
  system->defaults.num_shards = options.default_num_shards;
  system->defaults.remote = options.remote;
  system->defaults.eval = options.eval;
  const Clock::time_point t2 = Clock::now();
  if (system->coordinator) {
    system->coordinator->CompactLog(*system->engine->corpus().snapshot());
  }
  const engine::SnapshotPtr served_from = system->engine->corpus().snapshot();
  const engine::QueryResult answer =
      system->engine->Submit(engine::Query(first)).get();
  const Clock::time_point t3 = Clock::now();
  times->setup = SecondsBetween(t0, t3);
  times->load = SecondsBetween(t0, t1);
  times->construct = SecondsBetween(t1, t2);
  times->bootstrap = system->coordinator ? SecondsBetween(t2, t3) : 0.0;
  if (!WellFormed(answer, recipe.p) ||
      answer.corpus_version != served_from->version() ||
      !BitEqual(answer, ReferenceAnswer(*served_from, first))) {
    *problem = "first answer after cold start is wrong";
  }
  return system;
}

// Snapshot-transfer bytes a stack has streamed so far.
long long SnapshotBytes(const System& system, long long image_bytes) {
  if (!system.coordinator) return 0;
  return system.coordinator->stats().snapshots_sent * image_bytes;
}

// Query positions [first, second) of `round` in a phase of n queries.
std::pair<int, int> RoundRange(int n, int round) {
  const auto at = [n](int r) {
    return static_cast<int>(static_cast<long long>(n) * r / kRounds);
  };
  return {at(round), at(round + 1)};
}

struct Sample {
  engine::Query query;
  engine::QueryResult result;
};

struct PhaseInput {
  const Recipe* recipe = nullptr;
  std::uint64_t seed = 0;
  int queries = 0;
  std::uint64_t first_index = 0;  // query-stream index of position 0
  std::span<const std::vector<engine::CorpusUpdate>> epochs;
  std::uint64_t base_version = 0;  // corpus version before epochs[0]
  int universe = 0;
  const diverse::Matroid* matroid = nullptr;
  bool traced = false;
  std::vector<char> keep;  // by position: retain for the replay check
};

struct Phase {
  std::vector<double> latency;        // seconds, by query position
  std::vector<double> round_seconds;  // wall time of each round
  std::vector<double> update;         // apply (+ publish), per epoch
  std::vector<double> apply;
  std::vector<double> publish;
  long long bad_answers = 0;
  long long bad_epochs = 0;
  long long steps = 0;
  std::vector<Sample> samples;
  // Traced phase only: off-pool re-execution on the served snapshot.
  std::vector<double> execute;
  std::vector<double> view;
  long long reexecuted = 0;
  long long reexecute_mismatches = 0;
};

// Closed loop: kClients clients, each sending its next query when the
// previous one returns, over kRounds rounds of equal size; one writer
// applies epoch k once k*K queries have been issued.
Phase RunPhase(System& system, const PhaseInput& in) {
  const Recipe& recipe = *in.recipe;
  engine::DiversificationEngine& server = *system.engine;
  Phase phase;
  phase.latency.assign(in.queries, 0.0);

  std::mutex mu;
  std::condition_variable issued_cv;
  long long issued = 0;  // guarded by mu
  std::atomic<long long> bad_answers{0};
  std::atomic<long long> steps{0};

  std::thread writer([&] {
    for (std::size_t k = 0; k < in.epochs.size(); ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        issued_cv.wait(lock, [&] {
          return issued >= static_cast<long long>(k + 1) *
                               recipe.queries_per_epoch;
        });
      }
      const Clock::time_point start = Clock::now();
      const std::uint64_t version = server.ApplyUpdates(in.epochs[k]);
      const Clock::time_point applied = Clock::now();
      if (system.coordinator) {
        system.coordinator->PublishEpoch(version, in.epochs[k]);
      }
      const Clock::time_point published = Clock::now();
      if (version != in.base_version + k + 1) ++phase.bad_epochs;
      phase.update.push_back(SecondsBetween(start, published));
      phase.apply.push_back(SecondsBetween(start, applied));
      phase.publish.push_back(SecondsBetween(applied, published));
    }
  });

  const auto serve_one = [&](int i) {
    engine::Query query = BuildQuery(recipe, in.seed, in.first_index + i,
                                     in.universe, in.matroid);
    const bool keep = in.keep[i] != 0;
    const bool reexecute = in.traced && i % kReexecuteEvery == 0;
    engine::SnapshotPtr held;
    if (reexecute) held = server.corpus().snapshot();
    {
      std::lock_guard<std::mutex> lock(mu);
      if (++issued % recipe.queries_per_epoch == 0) issued_cv.notify_one();
    }
    const Clock::time_point start = Clock::now();
    std::future<engine::QueryResult> future =
        keep || reexecute ? server.Submit(query)
                          : server.Submit(std::move(query));
    engine::QueryResult result = future.get();
    phase.latency[i] = SecondsBetween(start, Clock::now());
    if (!WellFormed(result, recipe.p)) bad_answers.fetch_add(1);
    steps.fetch_add(result.steps);
    if (reexecute && held->version() == result.corpus_version) {
      const Clock::time_point view_start = Clock::now();
      const engine::ProblemView view =
          engine::MakeProblemView(*held, query.relevance, query.lambda);
      const Clock::time_point exec_start = Clock::now();
      const engine::QueryResult again =
          engine::ExecuteQuery(*held, query, system.defaults);
      const Clock::time_point exec_end = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      phase.view.push_back(SecondsBetween(view_start, exec_start));
      phase.execute.push_back(SecondsBetween(exec_start, exec_end));
      ++phase.reexecuted;
      if (!BitEqual(again, result)) ++phase.reexecute_mismatches;
    }
    if (keep) {
      std::lock_guard<std::mutex> lock(mu);
      phase.samples.push_back({std::move(query), std::move(result)});
    }
  };

  // Persistent clients; the barrier marks round boundaries, so one round
  // ends when its last query returns and the next starts together.
  std::vector<Clock::time_point> marks;
  marks.reserve(kRounds + 1);
  std::barrier sync(kClients,
                    [&marks]() noexcept { marks.push_back(Clock::now()); });
  std::vector<std::atomic<int>> next(kRounds);
  for (int round = 0; round < kRounds; ++round) {
    next[round] = RoundRange(in.queries, round).first;
  }
  const auto client = [&] {
    sync.arrive_and_wait();
    for (int round = 0; round < kRounds; ++round) {
      const int end = RoundRange(in.queries, round).second;
      for (int i = next[round]++; i < end; i = next[round]++) serve_one(i);
      sync.arrive_and_wait();
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  for (int round = 0; round < kRounds; ++round) {
    phase.round_seconds.push_back(
        SecondsBetween(marks[round], marks[round + 1]));
  }
  writer.join();
  phase.bad_answers = bad_answers.load();
  phase.steps = steps.load();
  return phase;
}

// Median over rounds of a per-round statistic of the query latencies.
template <typename F>
double PerRound(const Phase& phase, F stat) {
  std::vector<double> values;
  const int n = static_cast<int>(phase.latency.size());
  for (int round = 0; round < kRounds; ++round) {
    const auto [begin, end] = RoundRange(n, round);
    values.push_back(stat(
        std::vector<double>(phase.latency.begin() + begin,
                            phase.latency.begin() + end),
        phase.round_seconds[round]));
  }
  return Median(values);
}

double Qps(const Phase& phase) {
  return PerRound(phase, [](const std::vector<double>& latency, double wall) {
    return static_cast<double>(latency.size()) / wall;
  });
}

double LatencyQuantileMs(const Phase& phase, double q) {
  return PerRound(phase, [q](const std::vector<double>& latency, double) {
    return Quantile(latency, q) * 1e3;
  });
}

// Re-answers every sample off the clock with engine::ExecuteQuery on the
// snapshot at its corpus version, rebuilt by replaying the run's epochs
// onto the checkpoint. Returns the number of mismatches.
long long Replay(const std::string& dir, const Epochs& epochs,
                 std::vector<Sample> samples,
                 std::vector<std::string>* problems) {
  if (samples.empty()) return 0;
  const snapshot::CheckpointStore store(dir);
  std::optional<engine::CorpusState> state = store.LoadLatest();
  if (!state) {
    problems->push_back("replay: checkpoint load failed");
    return static_cast<long long>(samples.size());
  }
  engine::Corpus corpus(std::move(*state));
  const engine::DiversificationEngine::Options defaults;
  if (defaults.pruning != engine::PruningMode::kOff) {
    corpus.EnablePruning(defaults.pruning_config);
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.result.corpus_version < b.result.corpus_version;
            });
  const std::uint64_t base = corpus.version();
  long long mismatches = 0;
  for (const Sample& sample : samples) {
    const std::uint64_t version = sample.result.corpus_version;
    while (corpus.version() < version &&
           corpus.version() - base < epochs.size()) {
      corpus.Apply(epochs[corpus.version() - base]);
    }
    if (corpus.version() != version ||
        !BitEqual(sample.result, ReferenceAnswer(*corpus.snapshot(),
                                                 sample.query))) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    problems->push_back("replay: " + std::to_string(mismatches) +
                        " sampled answers differ from the reference");
  }
  return mismatches;
}

// Median seconds of one call to `op`, timed in batches of 32.
template <typename F>
double MedianCallSeconds(F op) {
  std::vector<double> batches;
  for (int b = 0; b < 16; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 32; ++i) op(i);
    batches.push_back(SecondsBetween(start, Clock::now()) / 32);
  }
  return Median(batches);
}

// Encode + decode cost of one captured shard request and reply.
void WireCosts(const RpcProbe::Records& records, double* encode_us,
               double* decode_us) {
  *encode_us = 0.0;
  *decode_us = 0.0;
  diverse::rpc::ShardQueryRequest request;
  diverse::rpc::ShardQueryResponse response;
  if (records.request.empty() ||
      !diverse::rpc::Decode(records.request, &request) ||
      !diverse::rpc::Decode(records.response, &response)) {
    return;
  }
  // Library calls in another translation unit: their results need no sink.
  *encode_us =
      1e6 * (MedianCallSeconds([&](int) { diverse::rpc::Encode(request); }) +
             MedianCallSeconds([&](int) { diverse::rpc::Encode(response); }));
  *decode_us = 1e6 * (MedianCallSeconds([&](int) {
                        diverse::rpc::ShardQueryRequest out;
                        diverse::rpc::Decode(records.request, &out);
                      }) +
                      MedianCallSeconds([&](int) {
                        diverse::rpc::ShardQueryResponse out;
                        diverse::rpc::Decode(records.response, &out);
                      }));
}

// One DistanceRow over the live corpus on the workload's backend.
double RowMicros(const engine::CorpusSnapshot& snapshot) {
  std::vector<double> row(snapshot.universe_size());
  const std::vector<int>& ids = snapshot.candidates();
  return 1e6 * MedianCallSeconds([&](int i) {
           snapshot.backend().DistanceRow(ids[(i * 97) % ids.size()], row);
         });
}

// Counters and histograms read on both sides of the traced phase.
struct Window {
  diverse::obs::Histogram::Snapshot queue_wait;
  engine::DiversificationEngine::Stats engine;
  diverse::rpc::Coordinator::Stats router;
  long long pruned = 0, certified = 0, fallback = 0, rebuilds = 0;
  Usage usage;
};

Window ReadWindow(const System& system) {
  Window window;
  window.queue_wait = system.engine->queue_wait_histogram().TakeSnapshot();
  window.engine = system.engine->stats();
  if (system.coordinator) window.router = system.coordinator->stats();
  const diverse::PruningCounters& pruning = diverse::GlobalPruningCounters();
  window.pruned = pruning.candidates_pruned.value();
  window.certified = pruning.certified_scans.value();
  window.fallback = pruning.fallback_scans.value();
  window.rebuilds = pruning.rebuilds.value();
  window.usage = ReadUsage();
  return window;
}

double MedianOf(const std::vector<StartTimes>& starts,
                double StartTimes::*field) {
  std::vector<double> values;
  for (const StartTimes& start : starts) values.push_back(start.*field);
  return Median(values);
}

// Everything the per-layer report reads from a traced run.
struct Traced {
  const Recipe* recipe = nullptr;
  const Phase* phase = nullptr;
  Window before, after;
  RpcProbe::Records records;
  double untraced_qps = 0.0;
  double row_us = 0.0;
  long long image_bytes = 0;
  std::vector<StartTimes> starts;
};

// The per-layer metrics of the traced phase. Runs the layer accounting
// self-checks, adding their shares to *diagnostics and any failure to
// *problems.
std::vector<Metric> PerLayer(const Traced& in,
                             std::vector<Metric>* diagnostics,
                             std::vector<std::string>* problems) {
  const Recipe& recipe = *in.recipe;
  const Phase& phase = *in.phase;
  const Window& before = in.before;
  const Window& after = in.after;
  const RpcProbe::Records& records = in.records;
  const double queries = static_cast<double>(phase.latency.size());
  const double executed = queries + static_cast<double>(phase.reexecuted);
  const double traced_p50 = LatencyQuantileMs(phase, 0.5);
  const double queue_wait_ms = Or0(
      HistogramDeltaPercentile(before.queue_wait, after.queue_wait, 0.5) *
      1e3);
  const double execute_ms = Or0(Median(phase.execute) * 1e3);
  const double batches =
      static_cast<double>(after.engine.batches - before.engine.batches);
  const double served = static_cast<double>(after.engine.queries_served -
                                            before.engine.queries_served);

  // Join each ExecuteSharded to its shard calls by the query's salt.
  std::vector<double> calls, slowest, merge, executes;
  std::unordered_map<std::uint64_t, double> slowest_by_salt;
  for (const RpcProbe::Timed& call : records.calls) {
    calls.push_back(call.seconds);
    double& worst = slowest_by_salt[call.salt];
    worst = std::max(worst, call.seconds);
  }
  for (const RpcProbe::Timed& exec : records.executes) {
    const double worst = slowest_by_salt[exec.salt];
    executes.push_back(exec.seconds);
    slowest.push_back(worst);
    merge.push_back(exec.seconds - worst);
  }
  const double remote_queries =
      std::max<double>(1.0, static_cast<double>(records.executes.size()));
  const double call_ms = Or0(Median(calls) * 1e3);
  const double handle_ms = Or0(Median(records.handles) * 1e3);
  const double router_ms = Or0(Median(executes) * 1e3);
  const double slowest_ms = Or0(Median(slowest) * 1e3);
  const double merge_ms = Or0(Median(merge) * 1e3);
  double encode_us = 0.0, decode_us = 0.0;
  WireCosts(records, &encode_us, &decode_us);
  const double cpu_ms =
      (after.usage.cpu_seconds - before.usage.cpu_seconds) * 1e3;
  const double csw = static_cast<double>(after.usage.invol_switches -
                                         before.usage.invol_switches);
  const long long pruned = after.pruned - before.pruned;
  const long long certified = after.certified - before.certified;
  const long long fallback = after.fallback - before.fallback;
  const long long rebuilds = after.rebuilds - before.rebuilds;
  const double traced_qps = Qps(phase);
  const bool remote = recipe.kind == Kind::kRemoteVector;

  std::vector<Metric> metrics = {
      {"engine.queue_wait_p50_ms", queue_wait_ms, "ms"},
      {"engine.jobs_per_batch", batches > 0 ? served / batches : 0.0,
       "ratio"},
      {"engine.apply_p50_ms", Median(phase.apply) * 1e3, "ms"},
      {"plan.execute_p50_ms", execute_ms, "ms"},
      {"plan.view_us", Or0(Median(phase.view) * 1e6), "us"},
      {"core.steps_per_query", static_cast<double>(phase.steps) / queries,
       "count"},
      {"process.cpu_ms_per_query", cpu_ms / queries, "ms"},
      {"process.invol_csw_per_query", csw / queries, "count"},
      {"pruning.candidates_pruned_per_query",
       static_cast<double>(pruned) / executed, "count"},
      {"pruning.certified_scans", static_cast<double>(certified), "count"},
      {"pruning.fallback_scans", static_cast<double>(fallback), "count"},
      {"pruning.rebuilds", static_cast<double>(rebuilds), "count"},
      {"metric.row_us", in.row_us, "us"},
      {"rpc.call_p50_ms", call_ms, "ms"},
      {"rpc.node_handle_p50_ms", handle_ms, "ms"},
      {"rpc.transport_ms", call_ms - handle_ms, "ms"},
      {"rpc.calls_per_query",
       static_cast<double>(records.calls.size()) / remote_queries, "count"},
      {"rpc.bytes_per_query",
       static_cast<double>(records.query_bytes) / remote_queries, "bytes"},
      {"wire.encode_us", encode_us, "us"},
      {"wire.decode_us", decode_us, "us"},
      {"router.execute_p50_ms", router_ms, "ms"},
      {"router.slowest_call_p50_ms", slowest_ms, "ms"},
      {"router.merge_ms", merge_ms, "ms"},
      {"router.local_fallbacks",
       static_cast<double>(after.router.local_fallbacks -
                           before.router.local_fallbacks),
       "count"},
      {"router.version_mismatches",
       static_cast<double>(after.router.version_mismatches -
                           before.router.version_mismatches),
       "count"},
      {"router.catchups_per_query",
       static_cast<double>(after.router.proactive_catchups -
                           before.router.proactive_catchups) /
           remote_queries,
       "count"},
      {"replication.publish_p50_ms",
       remote ? Median(phase.publish) * 1e3 : 0.0, "ms"},
      {"snapshot.load_s", MedianOf(in.starts, &StartTimes::load), "s"},
      {"engine.construct_s", MedianOf(in.starts, &StartTimes::construct),
       "s"},
      {"replication.bootstrap_s", MedianOf(in.starts, &StartTimes::bootstrap),
       "s"},
      {"snapshot.image_mb", static_cast<double>(in.image_bytes) / (1 << 20),
       "MB"},
      {"trace.overhead_x", traced_qps > 0 ? in.untraced_qps / traced_qps : 0.0,
       "ratio"},
  };
  diagnostics->push_back({"traced_query_p50_ms", traced_p50, "ms"});

  // Layer accounting: the blocking layers must cover >= 90% of the time.
  double share = 1.0;
  if (recipe.kind == Kind::kGreedyDense) {
    share = (queue_wait_ms + execute_ms) / traced_p50;
  } else if (remote) {
    share = (slowest_ms + merge_ms) / router_ms;
  }
  diagnostics->push_back({"accounting_share", share, "ratio"});
  if (!recipe.smoke && !(share >= 0.9)) {
    problems->push_back("accounting: blocking layers cover only " +
                        std::to_string(share) + " of their total");
  }
  // Predicted bypasses must read exactly 0.
  if (!remote && (!records.calls.empty() || !records.handles.empty() ||
                  !records.executes.empty() || records.other_calls != 0)) {
    problems->push_back("bypass: rpc layer saw traffic");
  }
  if (recipe.kind == Kind::kGreedyDense &&
      (pruned != 0 || certified != 0 || fallback != 0 || rebuilds != 0)) {
    problems->push_back("bypass: pruning counters moved on dense");
  }
  return metrics;
}

}  // namespace

bool Prepare(const Recipe& recipe, const std::string& dir) {
  const std::unique_ptr<engine::Corpus> corpus = BuildInitialCorpus(recipe);
  snapshot::CheckpointStore store(dir);
  std::string error;
  if (!store.Save(*corpus->snapshot(), &error)) {
    std::cerr << "prepare: checkpoint save failed: " << error << "\n";
    return false;
  }
  return true;
}

Report Serve(const ServeOptions& options) {
  const Recipe& recipe = options.recipe;
  Report report;
  const double load_before = LoadAverage1m();
  const double alu_before = AluCalibrationSeconds();

  const PhaseSize size = SizePhase(recipe, options.seconds);
  const int phases = options.trace ? 2 : 1;
  const Epochs epochs = BuildEpochs(recipe, options.seed, size.epochs * phases);
  const int universe = MaxUniverse(recipe, size.epochs * phases);
  const std::unique_ptr<diverse::PartitionMatroid> matroid =
      recipe.kind == Kind::kSwapVector ? BuildMatroid(universe) : nullptr;
  Traced traced;
  traced.recipe = &recipe;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.dir, ec)) {
    if (entry.path().extension() == ".snap") {
      traced.image_bytes += static_cast<long long>(entry.file_size(ec));
    }
  }

  // Cold starts; the last one serves the measured phases.
  RpcProbe probe;
  std::unique_ptr<System> system;
  long long snapshot_bytes = 0;
  for (int s = 0; s < recipe.setup_starts; ++s) {
    if (system) snapshot_bytes += SnapshotBytes(*system, traced.image_bytes);
    system.reset();
    const engine::Query first = BuildQuery(
        recipe, options.seed, kSetupQueryBase + s, universe, matroid.get());
    StartTimes times;
    std::string problem;
    system = ColdStart(recipe, options.dir, &probe, first, &times, &problem);
    ++report.attempted;
    if (!problem.empty()) {
      ++report.failed;
      report.problems.push_back(problem);
    }
    if (!system) {
      report.correct = false;
      return report;
    }
    traced.starts.push_back(times);
  }
  for (int i = 0; i < kWarmupQueries; ++i) {
    const engine::QueryResult answer =
        system->engine
            ->Submit(BuildQuery(recipe, options.seed, kWarmupQueryBase + i,
                                universe, matroid.get()))
            .get();
    ++report.attempted;
    if (!WellFormed(answer, recipe.p)) ++report.failed;
  }

  // The measured phase, then with --trace 1 the traced phase.
  std::vector<Sample> samples;
  std::vector<Phase> results;
  for (int ph = 0; ph < phases; ++ph) {
    const bool tracing = ph == 1;
    PhaseInput in;
    in.recipe = &recipe;
    in.seed = options.seed;
    in.queries = size.queries;
    in.first_index = static_cast<std::uint64_t>(ph) * size.queries;
    in.epochs = std::span<const std::vector<engine::CorpusUpdate>>(epochs)
                    .subspan(static_cast<std::size_t>(ph) * size.epochs,
                             size.epochs);
    in.base_version = system->engine->corpus().version();
    in.universe = universe;
    in.matroid = matroid.get();
    in.traced = tracing;
    in.keep.assign(size.queries, 0);
    diverse::Rng pick(options.seed * 131 + ph);
    for (int i : pick.SampleWithoutReplacement(
             size.queries, std::min(size.queries, recipe.verify_samples))) {
      in.keep[i] = 1;
    }
    if (tracing) {
      traced.before = ReadWindow(*system);
      probe.set_on(true);
    }
    Phase phase = RunPhase(*system, in);
    if (tracing) {
      probe.set_on(false);
      traced.after = ReadWindow(*system);
      traced.records = probe.Take();
    }
    for (Sample& sample : phase.samples) samples.push_back(std::move(sample));
    phase.samples.clear();
    report.attempted += size.queries + size.epochs;
    report.failed += phase.bad_answers + phase.bad_epochs +
                     phase.reexecute_mismatches;
    if (phase.bad_answers > 0) {
      report.problems.push_back(std::to_string(phase.bad_answers) +
                                " answers not ok / wrong size / non-finite");
    }
    if (phase.bad_epochs > 0) {
      report.problems.push_back(std::to_string(phase.bad_epochs) +
                                " epochs published an unexpected version");
    }
    if (phase.reexecute_mismatches > 0) {
      report.problems.push_back("off-pool re-execution differs from the "
                                "served answer");
    }
    results.push_back(std::move(phase));
  }
  traced.row_us = RowMicros(*system->engine->corpus().snapshot());
  snapshot_bytes += SnapshotBytes(*system, traced.image_bytes);
  system.reset();  // peak RSS below covers serving only, not the replay
  const double peak_rss_mb = ReadUsage().peak_rss_mb;
  const double alu_after = AluCalibrationSeconds();
  const double load_after = LoadAverage1m();

  report.failed +=
      Replay(options.dir, epochs, std::move(samples), &report.problems);

  const Phase& plain = results[0];
  traced.untraced_qps = Qps(plain);
  report.end_to_end = {
      {"setup_s", MedianOf(traced.starts, &StartTimes::setup), "s"},
      {"qps", traced.untraced_qps, "1/s"},
      {"query_p50_ms", LatencyQuantileMs(plain, 0.5), "ms"},
      {"query_p90_ms", LatencyQuantileMs(plain, 0.9), "ms"},
      {"update_p50_ms", Median(plain.update) * 1e3, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  report.counts = {
      {"queries_issued", static_cast<double>(size.queries * phases), "count"},
      {"epochs_applied", static_cast<double>(size.epochs * phases), "count"},
      {"snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes"},
  };
  report.diagnostics = {
      {"alu_calibration_before_ms", alu_before * 1e3, "ms"},
      {"alu_calibration_after_ms", alu_after * 1e3, "ms"},
      {"load_avg_1m_before", load_before, "load"},
      {"load_avg_1m_after", load_after, "load"},
      {"query_p99_ms", Quantile(plain.latency, 0.99) * 1e3, "ms"},
      {"query_samples", static_cast<double>(plain.latency.size()), "count"},
  };
  if (options.trace) {
    traced.phase = &results[1];
    report.per_layer =
        PerLayer(traced, &report.diagnostics, &report.problems);
  }
  report.correct = report.failed == 0 && report.problems.empty();
  return report;
}

}  // namespace servebench
