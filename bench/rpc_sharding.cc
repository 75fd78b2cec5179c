// RPC sharding bench: coordinator fan-out over InProcessTransport vs the
// in-process sharded plan vs single-node greedy, at several shard counts,
// plus the replica-sync publish path, alone and (over loopback sockets)
// under a stream of remote queries. Emits BENCH_rpc.json.
//
// The in-process transport isolates protocol cost (encode/decode, replica
// snapshot, fan-out threads, merge) from network cost, so rpc_overhead_x
// — remote wall time over in-process-sharded wall time — is the honest
// price of the wire, comparable across PRs. Every remote record also
// re-checks bit-equality against the in-process plan (bit_equal field);
// a 0 there is a correctness regression, not a perf one.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "engine/execution_plan.h"
#include "engine/workload.h"
#include "rpc/coordinator.h"
#include "rpc/shard_node.h"
#include "rpc/socket_transport.h"
#include "rpc/transport.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"

namespace diverse {
namespace {

struct Trace {
  std::vector<engine::Query> queries;
};

Trace MakeTrace(int n, int queries, int p, int shards, std::uint64_t seed) {
  Rng rng(seed);
  engine::SyntheticQueryConfig config;
  config.p = p;
  config.universe = n;
  config.sharded = shards > 0;
  config.num_shards = shards;
  Trace trace;
  trace.queries.reserve(queries);
  for (int i = 0; i < queries; ++i) {
    trace.queries.push_back(engine::MakeSyntheticQuery(config, rng));
  }
  return trace;
}

// Publish latency while queries are in flight: 2 shard nodes behind
// loopback SocketServers, kQueryThreads threads streaming remote queries
// (each re-checked against the in-process sharded plan on its snapshot)
// while kEpochs epochs are applied and published, one per
// kQueriesPerEpoch answered queries. publish_p50_ms is the median
// PublishEpoch call.
void RunPublishUnderLoad(const Dataset& data, int p, std::uint64_t seed,
                         bench::BenchJson* json) {
  constexpr int kNodes = 2;
  constexpr int kQueryThreads = 3;
  constexpr int kEpochs = 50;
  constexpr long long kQueriesPerEpoch = 6;
  const int n = data.size();
  std::vector<std::unique_ptr<rpc::ShardNode>> nodes;
  std::vector<std::unique_ptr<rpc::SocketServer>> servers;
  std::vector<std::unique_ptr<rpc::SocketTransport>> transports;
  std::vector<rpc::Transport*> raw;
  for (int i = 0; i < kNodes; ++i) {
    Dataset replica = data;
    nodes.push_back(std::make_unique<rpc::ShardNode>(
        replica.weights, std::move(replica.metric), 0.3));
    servers.push_back(
        std::make_unique<rpc::SocketServer>(nodes.back().get(), 0));
    servers.back()->Start();
    transports.push_back(std::make_unique<rpc::SocketTransport>(
        "127.0.0.1", servers.back()->port()));
    raw.push_back(transports.back().get());
  }
  rpc::Coordinator coordinator(raw);
  engine::PlanDefaults defaults;
  defaults.remote = &coordinator;
  Dataset mine = data;
  engine::Corpus corpus(mine.weights, std::move(mine.metric), 0.3);

  std::atomic<bool> stop{false};
  std::atomic<long long> answered{0};
  std::atomic<long long> equal{1};
  std::vector<std::thread> streams;
  for (int t = 0; t < kQueryThreads; ++t) {
    streams.emplace_back([&, t] {
      Rng rng(seed + 10 + static_cast<std::uint64_t>(t));
      engine::SyntheticQueryConfig config;
      config.p = p;
      config.universe = n;
      config.sharded = true;
      config.remote = true;
      config.num_shards = kNodes;
      while (!stop.load(std::memory_order_relaxed)) {
        engine::Query query = engine::MakeSyntheticQuery(config, rng);
        const engine::SnapshotPtr snapshot = corpus.snapshot();
        const engine::QueryResult remote =
            engine::ExecuteQuery(*snapshot, query, defaults);
        query.plan = engine::PlanKind::kSharded;
        const engine::QueryResult local =
            engine::ExecuteQuery(*snapshot, query, defaults);
        if (remote.elements != local.elements ||
            remote.objective != local.objective ||
            remote.steps != local.steps) {
          equal.store(0);
        }
        answered.fetch_add(1);
      }
    });
  }
  Rng urng(seed + 3);
  std::vector<double> publish_ms;
  for (int e = 0; e < kEpochs; ++e) {
    while (answered.load() < (e + 1) * kQueriesPerEpoch) {
      std::this_thread::yield();
    }
    const std::vector<engine::CorpusUpdate> updates =
        engine::MakeSyntheticEpoch(n, /*churn=*/false, e, urng);
    const std::uint64_t version = corpus.Apply(updates);
    WallTimer publish;
    coordinator.PublishEpoch(version, updates);
    publish_ms.push_back(publish.Seconds() * 1e3);
  }
  stop.store(true);
  for (std::thread& stream : streams) stream.join();

  std::nth_element(publish_ms.begin(),
                   publish_ms.begin() + publish_ms.size() / 2,
                   publish_ms.end());
  json->NewRecord("publish_under_queries_s2")
      .Add("n", static_cast<long long>(n))
      .Add("shards", static_cast<long long>(kNodes))
      .Add("query_threads", static_cast<long long>(kQueryThreads))
      .Add("epochs", static_cast<long long>(kEpochs))
      .Add("queries", answered.load())
      .Add("local_fallbacks", coordinator.stats().local_fallbacks)
      .Add("publish_p50_ms", publish_ms[publish_ms.size() / 2])
      .Add("bit_equal", equal.load());
}

int Run(int n, int queries, int p, std::uint64_t seed) {
  Rng rng(seed);
  const Dataset data = MakeUniformSynthetic(n, rng);
  Dataset mine = data;
  engine::Corpus corpus(mine.weights, std::move(mine.metric), 0.3);
  const engine::SnapshotPtr snapshot = corpus.snapshot();

  bench::BenchJson json("rpc");

  // Baseline: single-node greedy over all candidates.
  {
    const Trace trace = MakeTrace(n, queries, p, /*shards=*/0, seed + 1);
    WallTimer wall;
    for (const engine::Query& query : trace.queries) {
      engine::ExecuteQuery(*snapshot, query);
    }
    const double seconds = wall.Seconds();
    json.NewRecord("single")
        .Add("n", static_cast<long long>(n))
        .Add("queries", static_cast<long long>(queries))
        .Add("wall_seconds", seconds)
        .Add("qps", queries / seconds);
  }

  for (const int shards : {2, 4, 8}) {
    const Trace trace = MakeTrace(n, queries, p, shards, seed + 1);

    // In-process sharded plan (the reference the coordinator must match).
    double sharded_seconds;
    {
      WallTimer wall;
      for (const engine::Query& query : trace.queries) {
        engine::ExecuteQuery(*snapshot, query);
      }
      sharded_seconds = wall.Seconds();
      json.NewRecord("sharded_s" + std::to_string(shards))
          .Add("n", static_cast<long long>(n))
          .Add("shards", static_cast<long long>(shards))
          .Add("wall_seconds", sharded_seconds)
          .Add("qps", queries / sharded_seconds);
    }

    // Remote plan: one replica node per shard, in-process transport.
    {
      std::vector<std::unique_ptr<rpc::ShardNode>> nodes;
      std::vector<std::unique_ptr<rpc::InProcessTransport>> transports;
      std::vector<rpc::Transport*> raw;
      for (int i = 0; i < shards; ++i) {
        Dataset replica = data;
        nodes.push_back(std::make_unique<rpc::ShardNode>(
            replica.weights, std::move(replica.metric), 0.3));
        transports.push_back(
            std::make_unique<rpc::InProcessTransport>(nodes.back().get()));
        raw.push_back(transports.back().get());
      }
      rpc::Coordinator coordinator(raw);
      engine::PlanDefaults defaults;
      defaults.remote = &coordinator;

      // Time only the remote calls; the interleaved in-process reference
      // runs off the clock (subtracting a separately measured loop would
      // let run-to-run noise contaminate the overhead ratio).
      long long equal = 1;
      double seconds = 0.0;
      for (engine::Query query : trace.queries) {
        query.plan = engine::PlanKind::kRemoteSharded;
        WallTimer call;
        const engine::QueryResult remote =
            engine::ExecuteQuery(*snapshot, query, defaults);
        seconds += call.Seconds();
        query.plan = engine::PlanKind::kSharded;
        const engine::QueryResult local =
            engine::ExecuteQuery(*snapshot, query, defaults);
        if (remote.elements != local.elements ||
            remote.objective != local.objective) {
          equal = 0;
        }
      }
      json.NewRecord("remote_s" + std::to_string(shards))
          .Add("n", static_cast<long long>(n))
          .Add("shards", static_cast<long long>(shards))
          .Add("wall_seconds", seconds)
          .Add("qps", queries / seconds)
          .Add("rpc_overhead_x", seconds / sharded_seconds)
          .Add("bit_equal", equal);

      // Replica-sync path: publish epochs to all nodes.
      Rng urng(seed + 2);
      const int epochs = 50;
      WallTimer publish_wall;
      for (int e = 0; e < epochs; ++e) {
        coordinator.PublishEpoch(
            static_cast<std::uint64_t>(e) + 1,
            engine::MakeSyntheticEpoch(n, /*churn=*/false, e, urng));
      }
      const double publish_seconds = publish_wall.Seconds();
      json.NewRecord("publish_s" + std::to_string(shards))
          .Add("n", static_cast<long long>(n))
          .Add("shards", static_cast<long long>(shards))
          .Add("epochs", static_cast<long long>(epochs))
          .Add("wall_seconds", publish_seconds)
          .Add("epochs_per_second", epochs / publish_seconds);
    }
  }

  RunPublishUnderLoad(data, p, seed, &json);

  json.WriteFile();
  return 0;
}

}  // namespace
}  // namespace diverse

int main(int argc, char** argv) {
  int n = 600;
  int queries = 20;
  int p = 10;
  std::int64_t seed = 1;
  diverse::FlagSet flags(
      "rpc_sharding — coordinator-vs-in-process sharded plan scaling over "
      "the in-process transport; writes BENCH_rpc.json");
  flags.AddInt("n", &n, "corpus size");
  flags.AddInt("queries", &queries, "queries per configuration");
  flags.AddInt("p", &p, "subset size per query");
  flags.AddInt64("seed", &seed, "random seed");
  if (!flags.Parse(argc, argv)) return 1;
  return diverse::Run(n, queries, p, static_cast<std::uint64_t>(seed));
}
