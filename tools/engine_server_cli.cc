// engine_server_cli — request-stream driver for the serving engine.
//
// Loads or generates a corpus, stands up a DiversificationEngine, replays
// a mixed query/update trace against it, and reports throughput (QPS) and
// submit-to-completion latency percentiles. Queries draw per-query
// relevance vectors (a fresh "user" per request); every --update_every
// queries the driver publishes an update epoch (weight + distance
// perturbations in the paper-§6 style, plus occasional insert/erase when
// --churn is set).
//
// --plan=remote executes the sharded plan's per-shard kernels on remote
// shard_node_cli workers (--nodes=host:port,...) through an rpc::
// Coordinator; update epochs are published to the replicas as they are
// applied locally. --verify additionally re-answers every remote query
// with the in-process sharded plan on the same snapshot and fails unless
// the two are bit-equal — the end-to-end check CI runs over loopback.
//
// Failover (src/replication): --standby=host:port names a standby
// coordinator (`shard_node_cli --standby`) that every epoch and the
// acked table are mirrored to BEFORE the shard nodes — its fold of the
// stream is the promotable state. After the active dies, a new
// `engine_server_cli --promote --checkpoint_dir=<standby's dir>` takes
// over: it cold-starts from the standby's mirrored checkpoint, retains a
// bootstrap image at that version immediately (CompactLog), and resumes
// publishing — replicas the dead active left behind catch up by epoch
// replay or snapshot transfer, and answers stay bit-equal because corpus
// state is a deterministic fold of the epoch stream.
//
// Durability (src/snapshot): --checkpoint_dir cold-starts the engine from
// the newest loadable checkpoint (falling back to --input/--generate) and
// persists one every --checkpoint_every update epochs plus a final one at
// exit. --compact_every=K additionally folds every K-th epoch's snapshot
// into the coordinator's retained bootstrap image and truncates its epoch
// log below the replicas' acked versions — lagging or empty nodes then
// bootstrap by snapshot transfer instead of unbounded epoch replay.
//
// Examples:
//   engine_server_cli --generate=2000 --queries=200 --p=10 --workers=4
//   engine_server_cli --generate=1000 --queries=100 --plan=sharded
//       --shards=8 --update_every=10 --churn
//   engine_server_cli --generate=400 --queries=50 --plan=remote
//       --nodes=127.0.0.1:7411,127.0.0.1:7412 --update_every=5
//       --compact_every=10 --verify
//   engine_server_cli --input=data.csv --queries=50 --sync
//       --checkpoint_dir=/var/tmp/engine_ckpt
//
// Observability (src/obs, src/http): --http_port mounts the HTTP front
// door — /metrics, /metrics/cluster (remote plan: every node's registry
// re-exported with a node label), /healthz, /readyz, /statusz, /tracez
// (fed by always-on ~1/--trace_sample_every query sampling; remote-plan
// traces include node-recorded spans aligned into the coordinator's
// timeline), and /tracez?kind=replication (publish/catch-up/snapshot
// timelines). --linger_ms keeps the process (and its endpoints) alive
// after the replay finishes so a scraper or CI smoke can still reach it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/csv_io.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "engine/workload.h"
#include "http/server.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/http_handler.h"
#include "obs/metric_registry.h"
#include "obs/query_trace.h"
#include "obs/trace_buffer.h"
#include "rpc/coordinator.h"
#include "rpc/socket_transport.h"
#include "rpc/stats.h"
#include "snapshot/checkpoint_store.h"
#include "snapshot/snapshot_codec.h"
#include "tool_common.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"

namespace diverse {
namespace {

using tools::MetricsDumper;

// --scrape client mode: one StatsRequest per endpoint, dump and exit.
int RunScrape(const std::string& scrape, const std::string& format) {
  const bool json = format == "json";
  if (!json && format != "prometheus") {
    std::cerr << "error: --format must be prometheus | json\n";
    return 1;
  }
  std::vector<rpc::Endpoint> endpoints;
  std::string parse_error;
  if (!rpc::ParseEndpoints(scrape, &endpoints, &parse_error)) {
    std::cerr << "error: bad --scrape list: " << parse_error << "\n";
    return 1;
  }
  int failures = 0;
  for (const rpc::Endpoint& endpoint : endpoints) {
    rpc::SocketTransport transport(endpoint.host, endpoint.port);
    std::string text;
    const rpc::StatsFormat wire_format =
        json ? rpc::StatsFormat::kJson : rpc::StatsFormat::kPrometheus;
    if (!rpc::ScrapeStats(&transport, wire_format, &text)) {
      std::cerr << "error: scrape of " << endpoint.host << ":"
                << endpoint.port << " failed\n";
      ++failures;
      continue;
    }
    std::cout << "== " << endpoint.host << ":" << endpoint.port << " ==\n"
              << text;
    if (!text.empty() && text.back() != '\n') std::cout << "\n";
  }
  return failures == 0 ? 0 : 1;
}

std::vector<std::unique_ptr<rpc::SocketTransport>> MakeTransports(
    const std::vector<rpc::Endpoint>& endpoints) {
  std::vector<std::unique_ptr<rpc::SocketTransport>> transports;
  transports.reserve(endpoints.size());
  for (const rpc::Endpoint& endpoint : endpoints) {
    transports.push_back(std::make_unique<rpc::SocketTransport>(
        endpoint.host, endpoint.port));
  }
  return transports;
}

int RunServer(const std::string& input, int generate, int queries, int p,
              double lambda, const std::string& plan,
              const std::string& nodes, const std::string& standby,
              bool promote, int shards, int per_shard, int workers,
              int batch, int update_every, bool churn, bool sync,
              bool verify, const std::string& checkpoint_dir,
              int checkpoint_every, int compact_every, int stats_every,
              int trace_first, int http_port, int linger_ms,
              int trace_sample_every, std::uint64_t seed) {
  Rng rng(seed);
  obs::MetricRegistry registry;
  obs::TraceBuffer trace_buffer;
  // Replication-path traces (publish fan-out, catch-up replay, snapshot
  // chunks), sampled by the coordinator's sync service and served at
  // /tracez?kind=replication. Declared next to the query buffer so it
  // outlives the coordinator that feeds it.
  obs::TraceBuffer replication_traces;
  // Declared after what they observe so they unregister first.
  std::vector<obs::MetricRegistry::Registration> obs_registrations;
  obs::RegisterStandardMetrics(&registry, &obs_registrations);
  trace_buffer.RegisterMetrics(&registry, &obs_registrations);
  std::unique_ptr<snapshot::CheckpointStore> store;
  std::optional<engine::CorpusState> restored;
  if (!checkpoint_dir.empty()) {
    store = std::make_unique<snapshot::CheckpointStore>(checkpoint_dir);
    restored = store->LoadLatest();
    if (restored) {
      std::cout << "cold start from checkpoint version "
                << restored->version << " (n=" << restored->weights.size()
                << ")" << std::endl;
    }
  }
  Dataset data(0);
  if (restored) {
    // Corpus comes from disk below; data stays empty.
  } else if (!input.empty()) {
    auto loaded = LoadDatasetCsv(input);
    if (!loaded) {
      std::cerr << "error: cannot load dataset from '" << input << "'\n";
      return 1;
    }
    data = std::move(*loaded);
  } else if (generate > 0) {
    data = MakeUniformSynthetic(generate, rng);
  } else {
    std::cerr << "error: provide --input=FILE, --generate=N, or a loadable "
                 "--checkpoint_dir\n";
    return 1;
  }
  const bool remote = plan == "remote";
  if (plan != "single" && plan != "sharded" && !remote) {
    std::cerr << "error: --plan must be single | sharded | remote\n";
    return 1;
  }
  if (queries < 1) {
    std::cerr << "error: --queries must be >= 1\n";
    return 1;
  }
  if (verify && !remote) {
    std::cerr << "error: --verify requires --plan=remote\n";
    return 1;
  }
  if (promote && !remote) {
    std::cerr << "error: --promote requires --plan=remote\n";
    return 1;
  }
  if (promote && !restored) {
    std::cerr << "error: --promote needs --checkpoint_dir pointing at the "
                 "standby's mirrored checkpoints\n";
    return 1;
  }
  std::vector<std::unique_ptr<rpc::SocketTransport>> transports;
  std::vector<std::unique_ptr<rpc::SocketTransport>> mirror_transports;
  std::vector<obs::ObservabilityHandler::ClusterSource> cluster_sources;
  std::unique_ptr<rpc::Coordinator> coordinator;
  if (remote) {
    std::string parse_error;
    std::vector<rpc::Endpoint> node_endpoints;
    if (nodes.empty() ||
        !rpc::ParseEndpoints(nodes, &node_endpoints, &parse_error)) {
      std::cerr << "error: --plan=remote needs --nodes=host:port[,...]"
                << (parse_error.empty() ? "" : ": " + parse_error) << "\n";
      return 1;
    }
    std::vector<rpc::Endpoint> standby_endpoints;
    if (!standby.empty()) {
      if (!rpc::ParseEndpoints(standby, &standby_endpoints, &parse_error)) {
        std::cerr << "error: bad --standby list: " << parse_error << "\n";
        return 1;
      }
      // Self-addressing guard: a standby that is also a shard node would
      // receive shard queries AND doubled sync traffic — undefined
      // fan-out. Reject it instead.
      for (const rpc::Endpoint& endpoint : standby_endpoints) {
        for (const rpc::Endpoint& node : node_endpoints) {
          if (endpoint == node) {
            std::cerr << "error: --standby endpoint " << endpoint.host << ":"
                      << endpoint.port
                      << " also appears in --nodes; a standby cannot be "
                         "one of its own shard nodes\n";
            return 1;
          }
        }
      }
    }
    transports = MakeTransports(node_endpoints);
    mirror_transports = MakeTransports(standby_endpoints);
    // /metrics/cluster scrapes ride the coordinator's query transports,
    // so a scrape opens no connection of its own and takes no slot under
    // a node's connection cap. Transport::Call serializes frames under
    // the per-connection mutex, so a scrape interleaves cleanly with
    // query fan-out.
    for (std::size_t i = 0; i < node_endpoints.size(); ++i) {
      rpc::SocketTransport* transport = transports[i].get();
      cluster_sources.push_back(
          {node_endpoints[i].host + ":" +
               std::to_string(node_endpoints[i].port),
           [transport](std::string* out) {
             return rpc::ScrapeStats(transport, rpc::StatsFormat::kPrometheus,
                                     out);
           }});
    }
    std::vector<rpc::Transport*> raw;
    raw.reserve(transports.size());
    for (const auto& t : transports) raw.push_back(t.get());
    std::vector<rpc::Transport*> mirrors;
    mirrors.reserve(mirror_transports.size());
    for (const auto& t : mirror_transports) mirrors.push_back(t.get());
    rpc::Coordinator::Options coordinator_options;
    coordinator_options.replication_traces = &replication_traces;
    if (trace_sample_every >= 1) {
      coordinator_options.replication_trace_sample_every =
          static_cast<std::uint32_t>(trace_sample_every);
    }
    if (promote) {
      // Same takeover handling as the in-process Promote(). The log is
      // seeded AT the restored version by adopting the restored state
      // as its bootstrap image — started at 0, the unfillable slots
      // below would pin published_version (and so every compaction) at
      // 0 forever — and every node is probed: one AHEAD of the mirrored
      // state holds epochs of the dead active's lineage that the
      // standby never saw, and is quarantined (bit-equal local
      // fallback) until a newer image replaces it wholesale
      // (--compact_every keeps such images coming).
      const std::uint64_t mirrored_version = restored->version;
      auto log = std::make_shared<replication::ReplicationLog>();
      log->AdoptImage(mirrored_version,
                      std::make_shared<const std::vector<std::uint8_t>>(
                          snapshot::EncodeState(*restored)));
      std::vector<replication::ReplicaSeed> seeds =
          replication::BuildPromotionSeeds(raw, mirrored_version, {});
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        if (!seeds[i].needs_reimage) continue;
        std::cerr << "warning: node " << node_endpoints[i].host << ":"
                  << node_endpoints[i].port << " is at version "
                  << seeds[i].acked << ", ahead of the mirrored state ("
                  << mirrored_version << "); quarantined until re-imaged\n";
      }
      coordinator = std::make_unique<rpc::Coordinator>(
          std::move(log), std::move(seeds), std::move(raw),
          std::move(mirrors), coordinator_options);
    } else {
      coordinator = std::make_unique<rpc::Coordinator>(
          std::move(raw), std::move(mirrors), coordinator_options);
    }
  }
  engine::DiversificationEngine::Options options;
  options.num_workers = workers;
  options.max_batch = batch;
  options.default_num_shards = shards;
  options.remote = coordinator.get();
  options.registry = &registry;
  options.trace_buffer = &trace_buffer;
  options.trace_sample_every =
      trace_sample_every > 1 ? static_cast<std::uint32_t>(trace_sample_every)
                             : 1;
  if (coordinator) coordinator->RegisterMetrics(&registry);
  std::unique_ptr<engine::DiversificationEngine> server_owner =
      restored ? std::make_unique<engine::DiversificationEngine>(
                     std::move(*restored), options)
               : std::make_unique<engine::DiversificationEngine>(
                     data.weights, std::move(data.metric), lambda, options);
  engine::DiversificationEngine& server = *server_owner;
  const int n = server.corpus().snapshot()->universe_size();
  p = std::min(p, n);
  if (promote) {
    std::cout << "promoted: resuming from standby checkpoint version "
              << server.corpus().version()
              << " (bootstrap image retained at version "
              << coordinator->retained_snapshot_version() << ")"
              << std::endl;
  }

  // Observability front door. The handler sees the engine, coordinator,
  // and trace buffer by reference, all of which outlive the server (it
  // is stopped by destruction at scope exit, before any of them die).
  std::unique_ptr<obs::ObservabilityHandler> http_handler;
  std::unique_ptr<http::HttpServer> http_server;
  if (http_port >= 0) {
    obs::ObservabilityHandler::Options obs_options;
    obs_options.registry = &registry;
    obs_options.role = remote ? "coordinator" : "engine";
    obs_options.corpus_version = [&server] {
      return server.corpus().version();
    };
    obs_options.traces = &trace_buffer;
    if (coordinator) {
      rpc::Coordinator* coord = coordinator.get();
      obs_options.acked_table = [coord] {
        return coord->sync().acked_table();
      };
      // Only a coordinator has a replication path to trace; leaving the
      // buffer unset elsewhere keeps /tracez?kind=replication an honest
      // 404.
      obs_options.replication_traces = &replication_traces;
    }
    obs_options.cluster = std::move(cluster_sources);
    http_handler =
        std::make_unique<obs::ObservabilityHandler>(std::move(obs_options));
    http_server =
        std::make_unique<http::HttpServer>(http_handler.get(), http_port);
    http_server->Start();
    std::cout << "observability http listening on port "
              << http_server->port() << std::endl;
  }

  // Pre-generate the trace so request construction stays off the clock.
  engine::SyntheticQueryConfig query_config;
  query_config.p = p;
  query_config.lambda = lambda;
  query_config.universe = n;
  query_config.sharded = plan != "single";
  query_config.remote = remote;
  query_config.num_shards = shards;
  query_config.per_shard = per_shard;
  std::vector<engine::Query> trace;
  trace.reserve(queries);
  for (int i = 0; i < queries; ++i) {
    trace.push_back(engine::MakeSyntheticQuery(query_config, rng));
  }
  // --trace=N attaches a span recorder to the first N queries; traces
  // must outlive their futures, so they live here until the report.
  std::vector<std::unique_ptr<obs::QueryTrace>> query_traces;
  for (int i = 0; i < std::min(trace_first, queries); ++i) {
    query_traces.push_back(std::make_unique<obs::QueryTrace>());
    trace[i].trace = query_traces.back().get();
  }
  MetricsDumper dumper(&registry, stats_every);
  // Update epochs are built against the live universe size at publish
  // time (churn grows the id space as the trace runs). Remote runs
  // publish every epoch to the replicas right after applying it locally.
  int epoch = 0;
  auto maybe_update = [&](int i, std::uint64_t* last_version) {
    if (update_every <= 0 || i == 0 || i % update_every != 0) return;
    const int universe = server.corpus().snapshot()->universe_size();
    const std::vector<engine::CorpusUpdate> updates =
        engine::MakeSyntheticEpoch(universe, churn, epoch++, rng);
    *last_version = server.ApplyUpdates(updates);
    if (coordinator) coordinator->PublishEpoch(*last_version, updates);
    // Durability + log compaction ride the update path: they see the
    // snapshot the epoch just published.
    if (store && checkpoint_every > 0 && epoch % checkpoint_every == 0) {
      std::string error;
      if (!store->Save(*server.corpus().snapshot(), &error)) {
        std::cerr << "warning: checkpoint failed: " << error << "\n";
      }
    }
    if (coordinator && compact_every > 0 && epoch % compact_every == 0) {
      coordinator->CompactLog(*server.corpus().snapshot());
    }
  };

  WallTimer wall;
  std::uint64_t last_version = 0;
  long long verified = 0;
  if (verify) {
    // Bit-equality audit: answer each query synchronously through the
    // coordinator AND through the in-process sharded plan. No updates
    // land between the two calls, so both see the same snapshot; any
    // divergence is a wire/replica-sync bug.
    for (int i = 0; i < queries; ++i) {
      maybe_update(i, &last_version);
      const engine::QueryResult remote_result = server.RunSync(trace[i]);
      engine::Query local = trace[i];
      local.plan = engine::PlanKind::kSharded;
      const engine::QueryResult local_result = server.RunSync(local);
      if (!remote_result.ok ||
          remote_result.elements != local_result.elements ||
          remote_result.objective != local_result.objective ||
          remote_result.corpus_version != local_result.corpus_version) {
        std::cerr << "VERIFY FAILED at query " << i << ": remote ok="
                  << remote_result.ok << " version "
                  << remote_result.corpus_version << " objective "
                  << remote_result.objective << " vs local version "
                  << local_result.corpus_version << " objective "
                  << local_result.objective << "\n";
        return 1;
      }
      ++verified;
    }
    // Bit-equality alone cannot distinguish remote execution from the
    // (also bit-equal) local fallback; a verify run that never reached a
    // node proved nothing about the wire, so fail it.
    if (coordinator->stats().remote_shards == 0) {
      std::cerr << "VERIFY FAILED: no shard was answered remotely (all "
                   "fell back locally) — nodes unreachable?\n";
      return 1;
    }
  } else if (sync) {
    for (int i = 0; i < queries; ++i) {
      maybe_update(i, &last_version);
      server.RunSync(trace[i]);
    }
  } else {
    std::vector<std::future<engine::QueryResult>> futures;
    futures.reserve(queries);
    for (int i = 0; i < queries; ++i) {
      maybe_update(i, &last_version);
      futures.push_back(server.Submit(trace[i]));
    }
    for (auto& future : futures) future.get();
  }
  const double elapsed = wall.Seconds();

  if (store) {
    // Final checkpoint so the next run resumes from this corpus even
    // when no epoch boundary hit --checkpoint_every.
    std::string error;
    if (!store->Save(*server.corpus().snapshot(), &error)) {
      std::cerr << "warning: final checkpoint failed: " << error << "\n";
    }
  }

  const engine::DiversificationEngine::Stats stats = server.stats();
  std::cout << "corpus n:        " << n << "\n"
            << "mode:            "
            << (verify ? "verify" : sync ? "sync" : "pooled") << "\n"
            << "plan:            " << plan << "\n"
            << "workers:         " << server.num_workers() << "\n"
            << "max batch:       " << batch << "\n"
            << "queries:         " << queries << "\n"
            << "update epochs:   " << stats.update_epochs
            << " (final version " << last_version << ")\n"
            << "wall time:       " << elapsed * 1e3 << " ms\n"
            << "throughput:      " << queries / elapsed << " qps\n"
            // Percentiles come from the engine's latency histogram (every
            // query the engine served, including --verify audit re-runs),
            // not a sorted raw vector.
            << "latency p50:     "
            << server.latency_histogram().Percentile(0.50) * 1e3 << " ms\n"
            << "latency p90:     "
            << server.latency_histogram().Percentile(0.90) * 1e3 << " ms\n"
            << "latency p99:     "
            << server.latency_histogram().Percentile(0.99) * 1e3 << " ms\n"
            << "batches:         " << stats.batches << "\n"
            << "snapshots:       " << stats.snapshots_acquired << "\n";
  if (coordinator) {
    const rpc::Coordinator::Stats rpc_stats = coordinator->stats();
    std::cout << "remote shards:   " << rpc_stats.remote_shards << "\n"
              << "local fallbacks: " << rpc_stats.local_fallbacks << "\n"
              << "catchup batches: " << rpc_stats.catchup_batches << "\n"
              << "proactive syncs: " << rpc_stats.proactive_catchups << "\n"
              << "version misses:  " << rpc_stats.version_mismatches << "\n"
              << "snapshots sent:  " << rpc_stats.snapshots_sent << " ("
              << rpc_stats.snapshot_chunks_sent << " chunks)\n"
              << "log compactions: " << rpc_stats.compactions
              << " (log starts at version " << coordinator->log_start()
              << ")\n"
              << "acked syncs:     " << rpc_stats.acked_syncs_sent
              << " (to standby mirrors)\n";
  }
  if (verify) {
    std::cout << "verified:        " << verified
              << " queries bit-equal (remote vs in-process sharded)\n";
  }
  for (const auto& query_trace : query_traces) {
    std::cout << query_trace->Render();
  }
  // Final registry dump: the authoritative end-of-run metric state, in
  // the same format a remote scrape returns.
  std::cout << "--- metrics ---\n" << obs::RenderPrometheusText(registry);
  if (http_server != nullptr && linger_ms > 0) {
    std::cout << "lingering " << linger_ms
              << " ms for http scrapes on port " << http_server->port()
              << std::endl;
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  return 0;
}

}  // namespace
}  // namespace diverse

int main(int argc, char** argv) {
  std::string input;
  int generate = 1000;
  int queries = 100;
  int p = 10;
  double lambda = 0.2;
  std::string plan = "single";
  std::string nodes;
  std::string standby;
  bool promote = false;
  int shards = 4;
  int per_shard = 0;
  int workers = 0;
  int batch = 8;
  int update_every = 0;
  bool churn = false;
  bool sync = false;
  bool verify = false;
  std::string checkpoint_dir;
  int checkpoint_every = 16;
  int compact_every = 0;
  int stats_every = 0;
  int trace_first = 0;
  int http_port = -1;
  int linger_ms = 0;
  int trace_sample_every = 64;
  std::string scrape;
  std::string format = "prometheus";
  std::int64_t seed = 1;
  diverse::FlagSet flags(
      "engine_server_cli — replay a query/update trace against the serving "
      "engine and report QPS + latency percentiles");
  flags.AddString("input", &input, "dataset CSV to load");
  flags.AddInt("generate", &generate,
               "generate a synthetic corpus of size N (default)");
  flags.AddInt("queries", &queries, "number of queries to replay");
  flags.AddInt("p", &p, "subset size per query");
  flags.AddDouble("lambda", &lambda, "quality/diversity trade-off");
  flags.AddString("plan", &plan,
                  "execution plan: single | sharded | remote");
  flags.AddString("nodes", &nodes,
                  "shard nodes as host:port[,host:port...] for "
                  "--plan=remote");
  flags.AddString("standby", &standby,
                  "standby coordinators (shard_node_cli --standby) as "
                  "host:port[,...]; every epoch + the acked table are "
                  "mirrored to them before the shard nodes");
  flags.AddBool("promote", &promote,
                "take over from a dead active: cold-start from the "
                "standby's mirrored --checkpoint_dir, retain a bootstrap "
                "image immediately, and resume publishing");
  flags.AddInt("shards", &shards,
               "shard count for --plan=sharded|remote");
  flags.AddInt("per_shard", &per_shard,
               "elements per shard (0 = p) for --plan=sharded|remote");
  flags.AddInt("workers", &workers, "worker threads (0 = hardware)");
  flags.AddInt("batch", &batch, "max queries drained per worker wakeup");
  flags.AddInt("update_every", &update_every,
               "publish an update epoch every K queries (0 = none)");
  flags.AddBool("churn", &churn,
                "include insert/erase churn in update epochs");
  flags.AddBool("sync", &sync,
                "serve one query at a time on the caller thread (baseline)");
  flags.AddBool("verify", &verify,
                "remote plan only: re-answer every query with the "
                "in-process sharded plan and require bit-equality");
  flags.AddString("checkpoint_dir", &checkpoint_dir,
                  "cold-start from / persist corpus checkpoints in this "
                  "directory");
  flags.AddInt("checkpoint_every", &checkpoint_every,
               "checkpoint every K update epochs (<= 0: final only)");
  flags.AddInt("compact_every", &compact_every,
               "remote plan: fold every K-th epoch's snapshot into the "
               "coordinator's bootstrap image and truncate its epoch log "
               "(0 = never)");
  flags.AddInt("stats_every", &stats_every,
               "dump the metric registry to stdout every K seconds "
               "(0 = only at exit; SIGUSR1 forces a dump any time)");
  flags.AddInt("trace", &trace_first,
               "record and print a span timeline for the first N queries");
  flags.AddInt("http_port", &http_port,
               "serve /metrics /metrics/cluster /healthz /readyz /statusz "
               "/tracez on this port (0 = ephemeral, negative = disabled)");
  flags.AddInt("linger_ms", &linger_ms,
               "keep the process (and --http_port endpoints) alive this "
               "long after the replay finishes");
  flags.AddInt("trace_sample_every", &trace_sample_every,
               "sample ~1 in N untraced queries into /tracez "
               "(<= 1: every query)");
  flags.AddString("scrape", &scrape,
                  "client mode: scrape metrics from these nodes "
                  "(host:port[,...]) over the wire protocol and exit");
  flags.AddString("format", &format,
                  "--scrape output format: prometheus | json");
  flags.AddInt64("seed", &seed, "random seed");
  if (!flags.Parse(argc, argv)) return 1;
  if (!scrape.empty()) return diverse::RunScrape(scrape, format);
  return diverse::RunServer(input, generate, queries, p, lambda, plan, nodes,
                            standby, promote, shards, per_shard, workers,
                            batch, update_every, churn, sync, verify,
                            checkpoint_dir, checkpoint_every, compact_every,
                            stats_every, trace_first, http_port, linger_ms,
                            trace_sample_every,
                            static_cast<std::uint64_t>(seed));
}
