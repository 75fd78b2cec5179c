// End-to-end tests for the cross-node RPC sharding layer (src/rpc/):
// coordinator answers must be bit-equal to the in-process sharded plan at
// the same snapshot version — over InProcessTransport and loopback
// SocketTransport, through replica-sync epochs, query-time catch-up of
// lagging replicas, killed nodes (both failure policies), concurrent
// corpus updates, and across engine worker-pool sizes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/distributed.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "engine/execution_plan.h"
#include "engine/workload.h"
#include "metric/vector_metric.h"
#include "net/tcp_server.h"
#include "rpc/coordinator.h"
#include "rpc/shard_node.h"
#include "rpc/socket_transport.h"
#include "rpc/stats.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "snapshot/checkpoint_store.h"
#include "snapshot/snapshot_codec.h"
#include "util/bytes.h"
#include "util/random.h"

namespace diverse {
namespace rpc {
namespace {

using engine::CorpusUpdate;
using engine::DiversificationEngine;
using engine::PlanKind;
using engine::Query;
using engine::QueryResult;

// One corpus served three ways: the engine (coordinator side), and
// `num_nodes` ShardNode replicas behind InProcessTransports.
struct RemoteCluster {
  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::vector<std::unique_ptr<InProcessTransport>> transports;
  std::unique_ptr<Coordinator> coordinator;
  std::unique_ptr<DiversificationEngine> engine;

  std::uint64_t ApplyAndPublish(const std::vector<CorpusUpdate>& updates) {
    const std::uint64_t version = engine->ApplyUpdates(updates);
    coordinator->PublishEpoch(version, updates);
    return version;
  }
};

RemoteCluster MakeCluster(
    int n, int num_nodes, std::uint64_t seed, double lambda,
    Coordinator::Options coordinator_options = {},
    DiversificationEngine::Options engine_options = {}) {
  Rng rng(seed);
  const Dataset data = MakeUniformSynthetic(n, rng);
  RemoteCluster cluster;
  std::vector<Transport*> raw;
  for (int i = 0; i < num_nodes; ++i) {
    Dataset replica = data;
    cluster.nodes.push_back(std::make_unique<ShardNode>(
        replica.weights, std::move(replica.metric), lambda));
    cluster.transports.push_back(
        std::make_unique<InProcessTransport>(cluster.nodes.back().get()));
    raw.push_back(cluster.transports.back().get());
  }
  cluster.coordinator =
      std::make_unique<Coordinator>(raw, coordinator_options);
  engine_options.remote = cluster.coordinator.get();
  Dataset mine = data;
  cluster.engine = std::make_unique<DiversificationEngine>(
      mine.weights, std::move(mine.metric), lambda, engine_options);
  return cluster;
}

Query MakeQuery(int universe, int p, int num_shards, std::uint64_t salt,
                Rng& rng, bool remote = true) {
  engine::SyntheticQueryConfig config;
  config.p = p;
  config.universe = universe;
  config.sharded = true;
  config.remote = remote;
  config.num_shards = num_shards;
  Query query = engine::MakeSyntheticQuery(config, rng);
  query.shard_salt = salt;
  return query;
}

// The acceptance assertion: remote and in-process sharded answers on the
// same snapshot must agree bitwise (elements, objective, steps, version).
void ExpectBitEqual(DiversificationEngine& engine, const Query& remote) {
  const QueryResult remote_result = engine.RunSync(remote);
  Query local = remote;
  local.plan = PlanKind::kSharded;
  const QueryResult local_result = engine.RunSync(local);
  EXPECT_TRUE(remote_result.ok);
  EXPECT_EQ(remote_result.corpus_version, local_result.corpus_version);
  EXPECT_EQ(remote_result.elements, local_result.elements);
  EXPECT_EQ(remote_result.objective, local_result.objective);
  EXPECT_EQ(remote_result.steps, local_result.steps);
}

TEST(RpcTest, CoordinatorBitEqualToInProcessSharded) {
  RemoteCluster cluster = MakeCluster(80, 3, 1, 0.3);
  Rng rng(2);
  // Shard counts below, at, and above the node count; varying salts and
  // per-query relevance draws.
  for (int num_shards : {1, 2, 3, 4, 8}) {
    for (int q = 0; q < 4; ++q) {
      ExpectBitEqual(*cluster.engine,
                     MakeQuery(80, 9, num_shards, rng.NextSeed(), rng));
    }
  }
  const Coordinator::Stats stats = cluster.coordinator->stats();
  EXPECT_GT(stats.remote_shards, 0);
  EXPECT_EQ(stats.local_fallbacks, 0);
}

TEST(RpcTest, PerShardAndLambdaOverridesStayBitEqual) {
  RemoteCluster cluster = MakeCluster(60, 2, 3, 0.25);
  Rng rng(4);
  Query query = MakeQuery(60, 8, 4, 77, rng);
  query.per_shard = 12;  // per-shard yield larger than p
  query.lambda = 0.9;
  ExpectBitEqual(*cluster.engine, query);
  query.per_shard = 3;  // smaller than p
  ExpectBitEqual(*cluster.engine, query);
  query.relevance.clear();  // corpus weights, corpus lambda
  query.lambda = -1.0;
  ExpectBitEqual(*cluster.engine, query);
}

// A query's relevance may be shorter or longer than the corpus. The
// coordinator pads and truncates it to the snapshot before it gathers
// each shard's values, so every node serves its shard and the answer
// matches the in-process plan.
TEST(RpcTest, ShortAndLongRelevanceStayBitEqual) {
  RemoteCluster cluster = MakeCluster(60, 2, 7, 0.3);
  Rng rng(8);
  for (const int size : {1, 41, 60, 75}) {
    Query query = MakeQuery(60, 8, 4, rng.NextSeed(), rng);
    query.relevance.resize(size, 0.8);
    ExpectBitEqual(*cluster.engine, query);
  }
  EXPECT_EQ(cluster.coordinator->stats().local_fallbacks, 0);
  for (const auto& node : cluster.nodes) {
    EXPECT_EQ(node->stats().rejected, 0);
  }
}

TEST(RpcTest, ReplicasApplyEpochsInVersionOrder) {
  RemoteCluster cluster = MakeCluster(50, 2, 5, 0.3);
  Rng rng(6);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const int universe =
        cluster.engine->corpus().snapshot()->universe_size();
    const std::uint64_t version = cluster.ApplyAndPublish(
        engine::MakeSyntheticEpoch(universe, /*churn=*/true, epoch, rng));
    EXPECT_EQ(version, static_cast<std::uint64_t>(epoch + 1));
    for (const auto& node : cluster.nodes) {
      EXPECT_EQ(node->version(), version);
    }
    const int new_universe =
        cluster.engine->corpus().snapshot()->universe_size();
    ExpectBitEqual(*cluster.engine,
                   MakeQuery(new_universe, 7, 4, rng.NextSeed(), rng));
  }
}

TEST(RpcTest, LaggingReplicaCaughtUpProactivelyWithoutMismatchRoundTrip) {
  RemoteCluster cluster = MakeCluster(50, 2, 7, 0.3);
  Rng rng(8);
  // Node 1 misses three epochs; the coordinator's per-node tracking saw
  // the failed publishes, so it knows the replica is behind.
  cluster.transports[1]->set_down(true);
  for (int epoch = 0; epoch < 3; ++epoch) {
    cluster.ApplyAndPublish(
        engine::MakeSyntheticEpoch(50, /*churn=*/false, epoch, rng));
  }
  EXPECT_EQ(cluster.nodes[0]->version(), 3u);
  EXPECT_EQ(cluster.nodes[1]->version(), 0u);

  cluster.transports[1]->set_down(false);
  ExpectBitEqual(*cluster.engine, MakeQuery(50, 6, 4, 99, rng));
  // The stale replica was caught up by replaying the missed epochs
  // BEFORE the kernel request went out (tracked version, no
  // kVersionMismatch round-trip), and then served its shards remotely.
  EXPECT_EQ(cluster.nodes[1]->version(), 3u);
  const Coordinator::Stats stats = cluster.coordinator->stats();
  EXPECT_GT(stats.proactive_catchups, 0);
  EXPECT_EQ(stats.version_mismatches, 0);
  EXPECT_EQ(cluster.nodes[1]->stats().version_mismatches, 0);
  EXPECT_GT(stats.catchup_batches, 0);
  EXPECT_EQ(stats.local_fallbacks, 0);
}

// The reactive mismatch path remains the backstop when the tracking is
// stale: a silently restarted replica (fresh version-0 process behind the
// same address) corrects the tracking on first contact.
TEST(RpcTest, StaleTrackingFallsBackToMismatchRoundTrip) {
  RemoteCluster cluster = MakeCluster(40, 1, 27, 0.3);
  Rng rng(28);
  for (int epoch = 0; epoch < 2; ++epoch) {
    cluster.ApplyAndPublish(
        engine::MakeSyntheticEpoch(40, /*churn=*/false, epoch, rng));
  }
  EXPECT_EQ(cluster.nodes[0]->version(), 2u);
  // "Restart" the node: same baseline (same seed as MakeCluster), fresh
  // version-0 replica. The coordinator still tracks it at version 2.
  Rng baseline_rng(27);
  Dataset data = MakeUniformSynthetic(40, baseline_rng);
  ShardNode restarted(data.weights, std::move(data.metric), 0.3);
  cluster.transports[0]->set_node(&restarted);

  ExpectBitEqual(*cluster.engine, MakeQuery(40, 6, 4, 77, rng));
  EXPECT_EQ(restarted.version(), 2u);
  const Coordinator::Stats stats = cluster.coordinator->stats();
  EXPECT_GT(stats.version_mismatches, 0);
  EXPECT_GT(stats.catchup_batches, 0);
  EXPECT_EQ(stats.local_fallbacks, 0);
}

TEST(RpcTest, ProactiveResyncOnPublish) {
  RemoteCluster cluster = MakeCluster(40, 2, 9, 0.3);
  Rng rng(10);
  cluster.transports[1]->set_down(true);
  cluster.ApplyAndPublish(
      engine::MakeSyntheticEpoch(40, /*churn=*/false, 0, rng));
  cluster.ApplyAndPublish(
      engine::MakeSyntheticEpoch(40, /*churn=*/false, 1, rng));
  cluster.transports[1]->set_down(false);
  // The next publish finds node 1 at version 0 (mismatch ack) and replays
  // the whole missing suffix off the query path.
  cluster.ApplyAndPublish(
      engine::MakeSyntheticEpoch(40, /*churn=*/false, 2, rng));
  EXPECT_EQ(cluster.nodes[1]->version(), 3u);
  EXPECT_GT(cluster.coordinator->stats().catchup_batches, 0);
}

// Two updater threads racing ApplyUpdates + PublishEpoch: the log slots
// epochs by the version Corpus::Apply actually assigned, so a publish
// that loses the race cannot land its epoch at the wrong replay index.
// If the log ever reordered, replicas would reach a version whose
// content differs from the coordinator's and the bit-equality check
// below would fail.
TEST(RpcTest, ConcurrentPublishersKeepLogInVersionOrder) {
  RemoteCluster cluster = MakeCluster(50, 2, 23, 0.3);
  auto updater = [&cluster](std::uint64_t seed) {
    Rng rng(seed);
    for (int e = 0; e < 8; ++e) {
      cluster.ApplyAndPublish(
          engine::MakeSyntheticEpoch(50, /*churn=*/false, e, rng));
    }
  };
  std::thread a(updater, 24);
  std::thread b(updater, 25);
  a.join();
  b.join();
  EXPECT_EQ(cluster.engine->corpus().version(), 16u);
  EXPECT_EQ(cluster.coordinator->published_version(), 16u);
  Rng qrng(26);
  ExpectBitEqual(*cluster.engine, MakeQuery(50, 7, 4, 31, qrng));
  // Query-time catch-up converged any replica that missed racing pushes.
  for (const auto& node : cluster.nodes) {
    EXPECT_EQ(node->version(), 16u);
  }
}

TEST(RpcTest, KilledNodeFallsBackLocallyBitEqual) {
  RemoteCluster cluster = MakeCluster(60, 2, 11, 0.3);
  Rng rng(12);
  cluster.transports[0]->set_down(true);  // killed for good
  for (int q = 0; q < 3; ++q) {
    ExpectBitEqual(*cluster.engine,
                   MakeQuery(60, 8, 4, rng.NextSeed(), rng));
  }
  const Coordinator::Stats stats = cluster.coordinator->stats();
  EXPECT_GT(stats.local_fallbacks, 0);
  EXPECT_GT(stats.remote_shards, 0);  // the healthy node kept serving
}

// A node that answers with bytes that decode but are not a solution its
// shard could produce (wrong shard's ids) is treated as failed, and the
// fallback keeps the answer bit-equal.
class CorruptingTransport : public Transport {
 public:
  explicit CorruptingTransport(ShardNode* node) : node_(node) {}
  bool Call(const std::vector<std::uint8_t>& request,
            std::vector<std::uint8_t>* response) override {
    *response = node_->Handle(request);
    ShardQueryResponse decoded;
    if (Decode(*response, &decoded) &&
        decoded.status == RpcStatus::kOk) {
      decoded.elements.assign(1, 0);  // id 0 rarely hashes to every shard
      decoded.elements.push_back(0);  // and duplicates are never valid
      *response = Encode(decoded);
    }
    return true;
  }

 private:
  ShardNode* node_;
};

TEST(RpcTest, MisbehavingNodeTriggersFallback) {
  Rng rng(15);
  Dataset data = MakeUniformSynthetic(50, rng);
  Dataset replica = data;
  ShardNode node(replica.weights, std::move(replica.metric), 0.3);
  CorruptingTransport transport(&node);
  Coordinator coordinator({&transport});
  DiversificationEngine::Options options;
  options.remote = &coordinator;
  options.num_workers = 1;
  DiversificationEngine engine(data.weights, std::move(data.metric), 0.3,
                               options);
  Rng qrng(16);
  ExpectBitEqual(engine, MakeQuery(50, 7, 4, 21, qrng));
  EXPECT_GT(coordinator.stats().local_fallbacks, 0);
}

// A node answers an invalid kernel request with kError and counts it as
// rejected, instead of running the kernel on it.
TEST(RpcTest, NodeRejectsInvalidQueryRequests) {
  Rng rng(17);
  Dataset data = MakeUniformSynthetic(20, rng);
  ShardNode node(data.weights, std::move(data.metric), 0.3);
  ShardQueryRequest valid;
  valid.num_shards = 2;
  valid.p = 3;
  valid.per_shard = 3;
  // Relevance covers the request's shard alone.
  const std::vector<int> shard =
      ShardCandidates(node.replica().snapshot()->candidates(), 2, 0, 0);
  ASSERT_GT(shard.size(), 3u);
  ASSERT_LT(shard.size(), 20u);
  valid.relevance.assign(shard.size(), 0.5);
  ShardQueryResponse response;
  ASSERT_TRUE(Decode(node.Handle(Encode(valid)), &response));
  ASSERT_EQ(response.status, RpcStatus::kOk);
  ASSERT_EQ(node.stats().rejected, 0);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<ShardQueryRequest> invalid(8, valid);
  invalid[0].shard_index = 2;  // == num_shards
  invalid[1].relevance[3] = -1.0;
  invalid[2].relevance[3] = kInf;
  invalid[3].lambda = kInf;
  invalid[4].lambda = std::numeric_limits<double>::quiet_NaN();
  invalid[5].relevance.push_back(0.5);   // one value past the shard
  invalid[6].relevance.pop_back();       // one value short
  invalid[7].relevance.assign(20, 0.5);  // the whole corpus
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    ASSERT_TRUE(Decode(node.Handle(Encode(invalid[i])), &response)) << i;
    EXPECT_EQ(response.status, RpcStatus::kError) << i;
    EXPECT_EQ(node.stats().rejected, static_cast<long long>(i + 1)) << i;
  }
}

// A vector replica of n ids, each at a distinct point, at version 0.
engine::CorpusState VectorReplicaState(int n, int dim) {
  engine::CorpusState state;
  state.repr = engine::MetricRepr::kVector;
  state.lambda = 0.3;
  state.weights.assign(n, 1.0);
  state.alive.assign(n, 1);
  std::vector<double> rows(static_cast<std::size_t>(n) * dim);
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = 0.1 * i;
  state.vectors = VectorMetric::FromRows(dim, std::move(rows));
  return state;
}

UpdateAck SendBatch(ShardNode& node, const CorpusUpdateBatch& batch) {
  UpdateAck ack;
  EXPECT_TRUE(Decode(node.Handle(Encode(batch)), &ack));
  return ack;
}

// Each epoch of a batch validates against the state the epochs before it
// leave behind, and the batch applies all or nothing: after one insert,
// SetWeight(n) names the new id but SetWeight(n + 1) names none.
TEST(RpcTest, NodeValidatesEachEpochAgainstTheEpochsBeforeIt) {
  constexpr int kN = 6;
  constexpr int kDim = 3;
  ShardNode node(VectorReplicaState(kN, kDim));
  CorpusUpdateBatch batch;
  batch.epochs = {{CorpusUpdate::InsertVector(0.5, {1.0, 2.0, 3.0})},
                  {CorpusUpdate::SetWeight(kN + 1, 0.25)}};
  UpdateAck ack = SendBatch(node, batch);
  EXPECT_EQ(ack.status, RpcStatus::kError);
  EXPECT_EQ(ack.node_version, 0u);
  EXPECT_EQ(node.version(), 0u);
  EXPECT_EQ(node.replica().snapshot()->universe_size(), kN);
  EXPECT_EQ(node.stats().rejected, 1);
  EXPECT_EQ(node.stats().epochs_applied, 0);

  // On its own, the twin's second epoch names an id that does not exist.
  CorpusUpdateBatch alone;
  alone.epochs = {{CorpusUpdate::SetWeight(kN, 0.25)}};
  EXPECT_EQ(SendBatch(node, alone).status, RpcStatus::kError);
  EXPECT_EQ(node.stats().rejected, 2);

  batch.epochs[1] = {CorpusUpdate::SetWeight(kN, 0.25)};
  ack = SendBatch(node, batch);
  EXPECT_EQ(ack.status, RpcStatus::kOk);
  EXPECT_EQ(ack.node_version, 2u);
  const engine::SnapshotPtr snapshot = node.replica().snapshot();
  ASSERT_EQ(snapshot->universe_size(), kN + 1);
  EXPECT_EQ(snapshot->weights().weight(kN), 0.25);
  EXPECT_EQ(snapshot->vectors().row(kN)[2], 3.0);
  EXPECT_EQ(node.stats().rejected, 2);
  EXPECT_EQ(node.stats().epochs_applied, 2);
}

// A vector replica has no stored distances to overwrite.
TEST(RpcTest, VectorReplicaRejectsSetDistance) {
  ShardNode node(VectorReplicaState(5, 2));
  CorpusUpdateBatch batch;
  batch.epochs = {{CorpusUpdate::SetDistance(0, 1, 0.5)}};
  const UpdateAck ack = SendBatch(node, batch);
  EXPECT_EQ(ack.status, RpcStatus::kError);
  EXPECT_EQ(ack.node_version, 0u);
  EXPECT_EQ(node.version(), 0u);
  EXPECT_EQ(node.stats().rejected, 1);
}

// Pooled remote queries racing an updater thread: every result must be
// exactly the in-process sharded answer at the snapshot version it
// reports (snapshot isolation + purity, now across the RPC boundary).
TEST(RpcTest, ConcurrentUpdatesStaySnapshotConsistent) {
  DiversificationEngine::Options engine_options;
  engine_options.num_workers = 3;
  engine_options.max_batch = 2;
  RemoteCluster cluster = MakeCluster(60, 2, 17, 0.3, {}, engine_options);
  Rng rng(18);

  std::map<std::uint64_t, engine::SnapshotPtr> snapshots;
  snapshots[0] = cluster.engine->corpus().snapshot();

  std::vector<Query> queries;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 30; ++i) {
    if (i % 5 == 0) {
      const std::uint64_t version = cluster.ApplyAndPublish(
          engine::MakeSyntheticEpoch(60, /*churn=*/false, i / 5, rng));
      snapshots[version] = cluster.engine->corpus().snapshot();
    }
    queries.push_back(MakeQuery(60, 8, 4, rng.NextSeed(), rng));
    futures.push_back(cluster.engine->Submit(queries.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult result = futures[i].get();
    ASSERT_TRUE(result.ok);
    ASSERT_TRUE(snapshots.count(result.corpus_version));
    Query local = queries[i];
    local.plan = PlanKind::kSharded;
    const QueryResult reference = engine::ExecuteQuery(
        *snapshots[result.corpus_version], local, engine::PlanDefaults{});
    EXPECT_EQ(result.elements, reference.elements);
    EXPECT_EQ(result.objective, reference.objective);
  }
}

// Satellite: the sharded plans are a pure function of (snapshot, query) —
// identical answers across worker-pool sizes, per plan, for a fixed salt.
TEST(RpcTest, ShardedPlansDeterministicAcrossWorkerCounts) {
  for (const bool remote : {false, true}) {
    std::vector<int> reference;
    double reference_objective = 0.0;
    for (const int workers : {1, 2, 4}) {
      DiversificationEngine::Options engine_options;
      engine_options.num_workers = workers;
      RemoteCluster cluster =
          MakeCluster(70, 2, /*seed=*/19, 0.3, {}, engine_options);
      Rng rng(20);  // same trace per pool size
      Query query = MakeQuery(70, 9, 4, /*salt=*/1234, rng, remote);
      const QueryResult result = cluster.engine->Submit(query).get();
      if (workers == 1) {
        reference = result.elements;
        reference_objective = result.objective;
        EXPECT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(result.elements, reference);
        EXPECT_EQ(result.objective, reference_objective);
      }
    }
  }
}

// Compaction + bootstrap: after the epoch log is truncated below what a
// cold node would need, the node is imaged by snapshot transfer, then
// joins ordinary epoch replay — and every answer stays bit-equal.
TEST(RpcTest, CompactedLogBootstrapsEmptyNodeViaSnapshotTransfer) {
  RemoteCluster cluster = MakeCluster(45, 2, 33, 0.3);
  Rng rng(34);
  for (int epoch = 0; epoch < 3; ++epoch) {
    cluster.ApplyAndPublish(engine::MakeSyntheticEpoch(
        cluster.engine->corpus().snapshot()->universe_size(),
        /*churn=*/true, epoch, rng));
  }
  // Both replicas acked version 3: compaction truncates the whole log
  // into the retained image.
  cluster.coordinator->CompactLog(*cluster.engine->corpus().snapshot());
  EXPECT_EQ(cluster.coordinator->log_start(), 3u);
  EXPECT_EQ(cluster.coordinator->retained_snapshot_version(), 3u);
  EXPECT_EQ(cluster.coordinator->published_version(), 3u);

  // Node 1 dies and comes back EMPTY — no baseline, no checkpoint. The
  // truncated log could never replay it back; only the snapshot can.
  ShardNode empty_node;
  EXPECT_TRUE(empty_node.awaiting_bootstrap());
  cluster.transports[1]->set_node(&empty_node);

  const int universe = cluster.engine->corpus().snapshot()->universe_size();
  ExpectBitEqual(*cluster.engine,
                 MakeQuery(universe, 7, 4, rng.NextSeed(), rng));
  EXPECT_FALSE(empty_node.awaiting_bootstrap());
  EXPECT_EQ(empty_node.version(), 3u);
  EXPECT_EQ(empty_node.stats().snapshots_installed, 1);
  const Coordinator::Stats stats = cluster.coordinator->stats();
  EXPECT_GT(stats.snapshots_sent, 0);
  EXPECT_EQ(stats.local_fallbacks, 0);

  // Subsequent epochs reach the bootstrapped node as ordinary replay.
  cluster.ApplyAndPublish(engine::MakeSyntheticEpoch(
      cluster.engine->corpus().snapshot()->universe_size(),
      /*churn=*/true, 9, rng));
  EXPECT_EQ(empty_node.version(), 4u);
  ExpectBitEqual(*cluster.engine,
                 MakeQuery(cluster.engine->corpus().snapshot()
                               ->universe_size(),
                           7, 4, rng.NextSeed(), rng));
}

// The ISSUE acceptance cycle: a node checkpoints itself, is killed, is
// restarted FROM ITS CHECKPOINT (not the baseline), catches up on the
// epochs it missed — here from a log compacted exactly down to its acked
// version — and answers stay bit-equal throughout.
TEST(RpcTest, KilledNodeRestartsFromCheckpointAndStaysBitEqual) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "rpc_ckpt").string();
  std::filesystem::remove_all(dir);
  snapshot::CheckpointStore store(dir);
  ShardNode::Options node_options;
  node_options.checkpoint = &store;
  node_options.checkpoint_every = 1;

  Rng rng(35);
  const Dataset data = MakeUniformSynthetic(40, rng);
  Dataset replica = data;
  auto node = std::make_unique<ShardNode>(
      replica.weights, std::move(replica.metric), 0.3, node_options);
  InProcessTransport transport(node.get());
  Coordinator coordinator({&transport});
  DiversificationEngine::Options engine_options;
  engine_options.remote = &coordinator;
  engine_options.num_workers = 1;
  Dataset mine = data;
  DiversificationEngine engine(mine.weights, std::move(mine.metric), 0.3,
                               engine_options);
  auto publish = [&](int epoch) {
    const std::vector<CorpusUpdate> updates = engine::MakeSyntheticEpoch(
        engine.corpus().snapshot()->universe_size(), /*churn=*/true, epoch,
        rng);
    coordinator.PublishEpoch(engine.ApplyUpdates(updates), updates);
  };

  for (int epoch = 0; epoch < 4; ++epoch) publish(epoch);
  EXPECT_EQ(node->version(), 4u);
  EXPECT_GE(node->stats().checkpoints_saved, 3);

  // Kill the node; the corpus moves on without it.
  transport.set_down(true);
  for (int epoch = 4; epoch < 7; ++epoch) publish(epoch);
  // Compaction truncates exactly down to the dead node's acked version —
  // the epochs it missed are still in the log, everything older is not.
  coordinator.CompactLog(*engine.corpus().snapshot());
  EXPECT_EQ(coordinator.log_start(), 4u);

  // Restart from disk: the newest checkpoint is the replica's own
  // version-4 state, so catch-up is pure epoch replay — no snapshot
  // transfer, no version-0 re-sync.
  std::optional<engine::CorpusState> state = store.LoadLatest();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->version, 4u);
  auto restarted = std::make_unique<ShardNode>(std::move(*state),
                                               node_options);
  transport.set_node(restarted.get());
  transport.set_down(false);
  node.reset();

  Rng qrng(36);
  for (int q = 0; q < 3; ++q) {
    ExpectBitEqual(engine,
                   MakeQuery(engine.corpus().snapshot()->universe_size(), 7,
                             4, qrng.NextSeed(), qrng));
  }
  EXPECT_EQ(restarted->version(), 7u);
  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_EQ(stats.snapshots_sent, 0);
  EXPECT_EQ(stats.local_fallbacks, 0);
  EXPECT_GT(stats.remote_shards, 0);
}

// A RESTARTED coordinator has an empty epoch log (log_start 0, nothing
// in it): the epochs a lagging replica needs may simply not exist in
// this process. Once the first CompactLog retains a bootstrap image,
// catch-up must bridge such nodes by snapshot transfer — epoch replay
// alone can never reach them again.
TEST(RpcTest, RestartedCoordinatorResyncsLaggingReplicaViaSnapshot) {
  Rng rng(41);
  const Dataset data = MakeUniformSynthetic(40, rng);
  Dataset replica = data;
  ShardNode node(replica.weights, std::move(replica.metric), 0.3);
  InProcessTransport transport(&node);
  DiversificationEngine::Options engine_options;
  engine_options.num_workers = 1;
  Dataset mine = data;
  DiversificationEngine engine(mine.weights, std::move(mine.metric), 0.3,
                               engine_options);
  {
    // First coordinator lifetime: one epoch reaches the node...
    Coordinator first({&transport});
    const std::vector<CorpusUpdate> updates =
        engine::MakeSyntheticEpoch(40, /*churn=*/false, 0, rng);
    first.PublishEpoch(engine.ApplyUpdates(updates), updates);
    EXPECT_EQ(node.version(), 1u);
  }
  // ...then the coordinator dies; the corpus moves on without publishing.
  for (int epoch = 1; epoch < 3; ++epoch) {
    engine.ApplyUpdates(
        engine::MakeSyntheticEpoch(40, /*churn=*/false, epoch, rng));
  }

  // Restarted coordinator: empty log, node stuck at version 1. Its
  // first compaction recreates the bootstrap image from the live corpus.
  Coordinator restarted({&transport});
  restarted.CompactLog(*engine.corpus().snapshot());
  EXPECT_EQ(restarted.retained_snapshot_version(), 3u);

  Rng qrng(42);
  engine::Query query = MakeQuery(40, 7, 4, qrng.NextSeed(), qrng);
  const engine::SnapshotPtr snapshot = engine.corpus().snapshot();
  const QueryResult remote = restarted.ExecuteSharded(*snapshot, query, 4);
  Query local = query;
  local.plan = PlanKind::kSharded;
  const QueryResult reference =
      engine::ExecuteQuery(*snapshot, local, engine::PlanDefaults{});
  EXPECT_TRUE(remote.ok);
  EXPECT_EQ(remote.elements, reference.elements);
  EXPECT_EQ(remote.objective, reference.objective);
  EXPECT_EQ(node.version(), 3u);
  const Coordinator::Stats stats = restarted.stats();
  EXPECT_GT(stats.snapshots_sent, 0);
  EXPECT_EQ(stats.local_fallbacks, 0);
}

// Transport whose acks claim an arbitrary replica version — nodes are a
// trust boundary, and an inflated ack must not be able to truncate an
// epoch slot a concurrent publish has not filled yet (which would
// CHECK-abort the straggling publish).
class LyingAckTransport : public Transport {
 public:
  bool Call(const std::vector<std::uint8_t>& request,
            std::vector<std::uint8_t>* response) override {
    (void)request;
    UpdateAck ack;
    ack.status = RpcStatus::kOk;
    ack.node_version = 1000000;  // far beyond anything published
    *response = Encode(ack);
    return true;
  }
};

TEST(RpcTest, InflatedAckCannotTruncateUnpublishedEpochs) {
  Rng rng(43);
  Dataset data = MakeUniformSynthetic(30, rng);
  LyingAckTransport lying;
  Coordinator coordinator({&lying});
  DiversificationEngine::Options engine_options;
  engine_options.num_workers = 1;
  DiversificationEngine engine(data.weights, std::move(data.metric), 0.3,
                               engine_options);
  const std::vector<CorpusUpdate> epoch1{CorpusUpdate::SetWeight(0, 0.5)};
  const std::vector<CorpusUpdate> epoch2{CorpusUpdate::SetWeight(1, 0.25)};
  EXPECT_EQ(engine.ApplyUpdates(epoch1), 1u);
  EXPECT_EQ(engine.ApplyUpdates(epoch2), 2u);
  // Out-of-order publish (the version-slotted log supports this):
  // version 2 lands first, leaving version 1's slot allocated but
  // unfilled.
  coordinator.PublishEpoch(2, epoch2);
  EXPECT_EQ(coordinator.published_version(), 0u);  // hole at slot 0
  // Compaction with the lying node's inflated ack on record must stop
  // at the contiguous published prefix (version 0), not at min(acked).
  EXPECT_EQ(coordinator.CompactLog(*engine.corpus().snapshot()), 0u);
  // The straggling publish must still land, not CHECK-abort.
  coordinator.PublishEpoch(1, epoch1);
  EXPECT_EQ(coordinator.published_version(), 2u);
}

// Transport that fails every Call once its budget runs out — for cutting
// a snapshot transfer off mid-stream.
class BudgetedTransport : public Transport {
 public:
  explicit BudgetedTransport(ShardNode* node) : node_(node) {}
  bool Call(const std::vector<std::uint8_t>& request,
            std::vector<std::uint8_t>* response) override {
    if (budget_ == 0) return false;
    if (budget_ > 0) --budget_;
    *response = node_->Handle(request);
    return true;
  }
  void set_budget(int budget) { budget_ = budget; }  // -1 = unlimited

 private:
  ShardNode* node_;
  int budget_ = -1;
};

// An interrupted snapshot transfer resumes at the node's next missing
// chunk instead of restarting from zero: every chunk crosses the wire
// exactly once.
TEST(RpcTest, InterruptedSnapshotTransferResumes) {
  Rng rng(37);
  const int n = 40;
  const Dataset data = MakeUniformSynthetic(n, rng);
  ShardNode bootstrap_node;  // empty, awaiting snapshot
  BudgetedTransport transport(&bootstrap_node);
  Coordinator::Options coordinator_options;
  coordinator_options.snapshot_chunk_bytes = 512;
  Coordinator coordinator({&transport}, coordinator_options);
  DiversificationEngine::Options engine_options;
  engine_options.remote = &coordinator;
  engine_options.num_workers = 1;
  Dataset mine = data;
  DiversificationEngine engine(mine.weights, std::move(mine.metric), 0.3,
                               engine_options);

  const std::vector<CorpusUpdate> updates = engine::MakeSyntheticEpoch(
      n, /*churn=*/false, 0, rng);
  coordinator.PublishEpoch(engine.ApplyUpdates(updates), updates);
  coordinator.CompactLog(*engine.corpus().snapshot());
  const std::uint32_t num_chunks = static_cast<std::uint32_t>(
      (snapshot::EncodedSnapshotBytes(n) + 511) / 512);
  ASSERT_GT(num_chunks, 5u);

  // Budget: 1 refused epoch batch + the offer + 3 chunks, then the wire
  // dies. The query falls back locally — still bit-equal.
  transport.set_budget(5);
  Rng qrng(38);
  ExpectBitEqual(engine, MakeQuery(n, 6, 4, qrng.NextSeed(), qrng));
  EXPECT_EQ(bootstrap_node.stats().snapshot_chunks, 3);
  EXPECT_TRUE(bootstrap_node.awaiting_bootstrap());
  EXPECT_GT(coordinator.stats().local_fallbacks, 0);

  // Wire heals: the next query's catch-up resumes at chunk 3 and
  // completes the install; the node then serves remotely.
  transport.set_budget(-1);
  ExpectBitEqual(engine, MakeQuery(n, 6, 4, qrng.NextSeed(), qrng));
  EXPECT_FALSE(bootstrap_node.awaiting_bootstrap());
  EXPECT_EQ(bootstrap_node.version(), 1u);
  const ShardNode::Stats node_stats = bootstrap_node.stats();
  EXPECT_EQ(node_stats.snapshots_installed, 1);
  // Exactly once per chunk — 3 before the cut, the remaining after.
  EXPECT_EQ(node_stats.snapshot_chunks,
            static_cast<long long>(num_chunks));
  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_EQ(stats.snapshots_sent, 2);  // two transfer attempts
  EXPECT_EQ(stats.snapshot_chunks_sent,
            static_cast<long long>(num_chunks));
  EXPECT_GT(stats.remote_shards, 0);
}

// A valid whole-corpus kernel request at `version` (2 shards, shard 0,
// corpus weights).
ShardQueryRequest KernelRequestAt(std::uint64_t version) {
  ShardQueryRequest request;
  request.snapshot_version = version;
  request.num_shards = 2;
  request.p = 3;
  request.per_shard = 3;
  return request;
}

ShardQueryResponse AskNode(ShardNode& node, std::uint64_t version) {
  ShardQueryResponse response;
  EXPECT_TRUE(Decode(node.Handle(Encode(KernelRequestAt(version))),
                     &response));
  return response;
}

// Streams `image` (the encoded corpus at `version`) into `node` as one
// offer and one chunk; true once the node reports the install.
bool InstallImage(ShardNode& node, std::uint64_t version,
                  const std::vector<std::uint8_t>& image) {
  SnapshotOffer offer;
  offer.snapshot_version = version;
  offer.total_bytes = image.size();
  offer.chunk_bytes = static_cast<std::uint32_t>(image.size());
  offer.num_chunks = 1;
  SnapshotAck ack;
  if (!Decode(node.Handle(Encode(offer)), &ack) ||
      ack.status != RpcStatus::kOk) {
    return false;
  }
  SnapshotChunk chunk;
  chunk.snapshot_version = version;
  chunk.data = image;
  return Decode(node.Handle(Encode(chunk)), &ack) &&
         ack.status == RpcStatus::kOk && ack.node_version == version;
}

// Runs `query` at `snapshot` through the coordinator and through the
// in-process sharded plan, and expects the two answers bit-equal.
void ExpectRemoteBitEqualAt(Coordinator& coordinator,
                            const engine::CorpusSnapshot& snapshot,
                            Query query) {
  engine::PlanDefaults defaults;
  defaults.remote = &coordinator;
  const QueryResult remote = engine::ExecuteQuery(snapshot, query, defaults);
  query.plan = PlanKind::kSharded;
  const QueryResult local =
      engine::ExecuteQuery(snapshot, query, engine::PlanDefaults{});
  EXPECT_EQ(remote.corpus_version, snapshot.version());
  EXPECT_EQ(remote.elements, local.elements);
  EXPECT_EQ(remote.objective, local.objective);
  EXPECT_EQ(remote.steps, local.steps);
}

// A publish that overtakes a query on its way leaves every node one epoch
// ahead of the query's snapshot. The nodes answer from their ring, bit-
// equal to the reference at the query's version, with no mismatch, no
// fallback and no catch-up; the tracked version is the nodes' own.
TEST(RpcTest, NodeOneEpochAheadAnswersFromItsRingBitEqual) {
  RemoteCluster cluster = MakeCluster(60, 2, 41, 0.3);
  Rng rng(42);
  for (int epoch = 0; epoch < 2; ++epoch) {
    cluster.ApplyAndPublish(engine::MakeSyntheticEpoch(
        cluster.engine->corpus().snapshot()->universe_size(),
        /*churn=*/true, epoch, rng));
  }
  const engine::SnapshotPtr at_two = cluster.engine->corpus().snapshot();
  cluster.ApplyAndPublish(engine::MakeSyntheticEpoch(
      at_two->universe_size(), /*churn=*/true, 3, rng));  // inserts an id
  ASSERT_NE(cluster.engine->corpus().snapshot()->universe_size(),
            at_two->universe_size());
  for (const auto& node : cluster.nodes) ASSERT_EQ(node->version(), 3u);
  const Coordinator::Stats before = cluster.coordinator->stats();

  for (int q = 0; q < 3; ++q) {
    ExpectRemoteBitEqualAt(
        *cluster.coordinator, *at_two,
        MakeQuery(at_two->universe_size(), 8, 4, rng.NextSeed(), rng));
  }
  const Coordinator::Stats after = cluster.coordinator->stats();
  EXPECT_GT(after.remote_shards, before.remote_shards);
  EXPECT_EQ(after.local_fallbacks, 0);
  EXPECT_EQ(after.version_mismatches, 0);
  EXPECT_EQ(after.proactive_catchups, 0);
  EXPECT_EQ(after.catchup_batches, before.catchup_batches);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.nodes[i]->stats().version_mismatches, 0);
    EXPECT_EQ(cluster.coordinator->sync().GetAcked(i), 3u);
  }
}

// Answers every frame from `node`; after a kernel query, runs
// `after_query` once before handing the reply back, so an epoch it
// publishes overtakes that reply.
class OvertakingTransport : public Transport {
 public:
  explicit OvertakingTransport(ShardNode* node) : node_(node) {}

  bool Call(const std::vector<std::uint8_t>& request,
            std::vector<std::uint8_t>* response) override {
    *response = node_->Handle(request);
    if (PeekType(request) == MessageType::kShardQueryRequest &&
        after_query) {
      std::exchange(after_query, nullptr)();
    }
    return true;
  }

  std::function<void()> after_query;

 private:
  ShardNode* node_;
};

// A query reply that arrives after the ack of an epoch that overtook it
// reports an older node version; the tracking keeps the newer one, so the
// next query at the new version needs no catch-up.
TEST(RpcTest, OvertakenQueryReplyDoesNotLowerTheTrackedVersion) {
  Rng rng(51);
  const Dataset data = MakeUniformSynthetic(40, rng);
  Dataset replica = data;
  ShardNode node(replica.weights, std::move(replica.metric), 0.3);
  OvertakingTransport transport(&node);
  Coordinator coordinator({&transport});
  Dataset mine = data;
  engine::Corpus corpus(mine.weights, std::move(mine.metric), 0.3);
  const engine::SnapshotPtr at_zero = corpus.snapshot();
  transport.after_query = [&] {
    const std::vector<CorpusUpdate> updates =
        engine::MakeSyntheticEpoch(40, /*churn=*/false, 0, rng);
    coordinator.PublishEpoch(corpus.Apply(updates), updates);
  };

  ExpectRemoteBitEqualAt(coordinator, *at_zero,
                         MakeQuery(40, 6, 1, rng.NextSeed(), rng));
  ASSERT_EQ(node.version(), 1u);
  EXPECT_EQ(coordinator.sync().GetAcked(0), 1u);

  ExpectRemoteBitEqualAt(coordinator, *corpus.snapshot(),
                         MakeQuery(40, 6, 1, rng.NextSeed(), rng));
  const Coordinator::Stats stats = coordinator.stats();
  EXPECT_EQ(stats.remote_shards, 2);
  EXPECT_EQ(stats.proactive_catchups, 0);
  EXPECT_EQ(stats.catchup_batches, 0);
  EXPECT_EQ(stats.version_mismatches, 0);
}

// The ring holds one version: two epochs back is a mismatch at the node,
// and the coordinator runs those shards on-box, still bit-equal.
TEST(RpcTest, RequestTwoVersionsBackStillMismatches) {
  RemoteCluster cluster = MakeCluster(50, 2, 43, 0.3);
  Rng rng(44);
  cluster.ApplyAndPublish(
      engine::MakeSyntheticEpoch(50, /*churn=*/false, 0, rng));
  const engine::SnapshotPtr at_one = cluster.engine->corpus().snapshot();
  for (int epoch = 1; epoch < 3; ++epoch) {
    cluster.ApplyAndPublish(
        engine::MakeSyntheticEpoch(50, /*churn=*/false, epoch, rng));
  }
  ShardNode& node = *cluster.nodes[0];
  ASSERT_EQ(node.version(), 3u);
  EXPECT_EQ(AskNode(node, 2).status, RpcStatus::kOk);
  const ShardQueryResponse stale = AskNode(node, 1);
  EXPECT_EQ(stale.status, RpcStatus::kVersionMismatch);
  EXPECT_EQ(stale.node_version, 3u);
  EXPECT_EQ(AskNode(node, 0).status, RpcStatus::kVersionMismatch);

  ExpectRemoteBitEqualAt(*cluster.coordinator, *at_one,
                         MakeQuery(50, 7, 4, rng.NextSeed(), rng));
  const Coordinator::Stats stats = cluster.coordinator->stats();
  EXPECT_GT(stats.version_mismatches, 0);
  EXPECT_GT(stats.local_fallbacks, 0);
  EXPECT_EQ(stats.remote_shards, 0);
}

// A snapshot install replaces the replica wholesale and drops the ring:
// neither the replaced current version nor the ring's version is served
// afterwards, only the installed one.
TEST(RpcTest, SnapshotInstallDropsTheRing) {
  Rng rng(45);
  const Dataset data = MakeUniformSynthetic(40, rng);
  Dataset replica = data;
  ShardNode node(replica.weights, std::move(replica.metric), 0.3);
  Dataset mine = data;
  engine::Corpus corpus(mine.weights, std::move(mine.metric), 0.3);
  for (int epoch = 0; epoch < 2; ++epoch) {
    const std::vector<CorpusUpdate> updates =
        engine::MakeSyntheticEpoch(40, /*churn=*/false, epoch, rng);
    CorpusUpdateBatch batch;
    batch.from_version = corpus.version();
    batch.epochs.push_back(updates);
    corpus.Apply(updates);
    ASSERT_EQ(SendBatch(node, batch).status, RpcStatus::kOk);
  }
  ASSERT_EQ(node.version(), 2u);
  EXPECT_EQ(AskNode(node, 1).status, RpcStatus::kOk);  // the ring

  corpus.Apply(engine::MakeSyntheticEpoch(40, /*churn=*/false, 2, rng));
  ASSERT_TRUE(InstallImage(node, 3,
                           snapshot::EncodeSnapshot(*corpus.snapshot())));
  EXPECT_EQ(node.version(), 3u);
  for (const std::uint64_t old_version : {1u, 2u}) {
    const ShardQueryResponse response = AskNode(node, old_version);
    EXPECT_EQ(response.status, RpcStatus::kVersionMismatch) << old_version;
    EXPECT_EQ(response.node_version, 3u) << old_version;
  }
  EXPECT_EQ(AskNode(node, 3).status, RpcStatus::kOk);
}

// The acceptance path over real sockets: two shard nodes behind loopback
// SocketServers, coordinator on SocketTransports — bit-equal before and
// after replica-sync epochs, and after both nodes die (local fallback).
TEST(RpcTest, SocketLoopbackEndToEnd) {
  Rng rng(21);
  const Dataset data = MakeUniformSynthetic(50, rng);

  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::vector<std::unique_ptr<SocketServer>> servers;
  std::vector<std::unique_ptr<SocketTransport>> transports;
  std::vector<Transport*> raw;
  for (int i = 0; i < 2; ++i) {
    Dataset replica = data;
    nodes.push_back(std::make_unique<ShardNode>(
        replica.weights, std::move(replica.metric), 0.3));
    servers.push_back(
        std::make_unique<SocketServer>(nodes.back().get(), /*port=*/0));
    servers.back()->Start();
    transports.push_back(std::make_unique<SocketTransport>(
        "127.0.0.1", servers.back()->port()));
    raw.push_back(transports.back().get());
  }
  Coordinator coordinator(raw);
  DiversificationEngine::Options options;
  options.remote = &coordinator;
  options.num_workers = 2;
  Dataset mine = data;
  DiversificationEngine engine(mine.weights, std::move(mine.metric), 0.3,
                               options);

  Rng qrng(22);
  ExpectBitEqual(engine, MakeQuery(50, 7, 4, qrng.NextSeed(), qrng));

  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::vector<CorpusUpdate> updates =
        engine::MakeSyntheticEpoch(50, /*churn=*/false, epoch, qrng);
    coordinator.PublishEpoch(engine.ApplyUpdates(updates), updates);
  }
  EXPECT_EQ(nodes[0]->version(), 3u);
  EXPECT_EQ(nodes[1]->version(), 3u);
  ExpectBitEqual(engine, MakeQuery(50, 7, 4, qrng.NextSeed(), qrng));
  EXPECT_GT(coordinator.stats().remote_shards, 0);

  // Kill both nodes; the coordinator degrades to local execution with the
  // same answers.
  for (auto& server : servers) server->Stop();
  ExpectBitEqual(engine, MakeQuery(50, 7, 4, qrng.NextSeed(), qrng));
  EXPECT_GT(coordinator.stats().local_fallbacks, 0);
}

// A raw loopback connection to `port` (-1 on failure); the caller closes
// it.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// True once the server has closed `fd` (a read sees EOF or a reset)
// within `wait_ms`.
bool ClosedByServer(int fd, int wait_ms) {
  pollfd waiter{fd, POLLIN, 0};
  if (::poll(&waiter, 1, wait_ms) != 1) return false;
  char byte;
  return ::recv(fd, &byte, 1, 0) <= 0;
}

// Peers that connect and send nothing, or stop mid-frame, hold one
// connection each and never block the node for anyone else; each is
// dropped at the server's deadline, while a transport that idles between
// completed frames keeps its connection; Stop() does not wait on them.
TEST(RpcTest, SilentPeersDoNotWedgeSocketServer) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  Rng rng(31);
  Dataset data = MakeUniformSynthetic(30, rng);
  ShardNode node(data.weights, std::move(data.metric), 0.3);
  SocketServer server(&node, /*port=*/0);
  server.Start();

  const int silent = ConnectLoopback(server.port());
  const int half = ConnectLoopback(server.port());
  ASSERT_GE(silent, 0);
  ASSERT_GE(half, 0);
  const steady_clock::time_point stalled = steady_clock::now();
  const std::uint8_t half_header[2] = {8, 0};  // 2 of 4 length bytes
  ASSERT_EQ(::send(half, half_header, sizeof(half_header), 0), 2);

  // A round trip completes well under the transport's 5 s timeout.
  SocketTransport transport("127.0.0.1", server.port());
  std::string text;
  const steady_clock::time_point call = steady_clock::now();
  ASSERT_TRUE(ScrapeStats(&transport, StatsFormat::kPrometheus, &text));
  const steady_clock::time_point idle_since = steady_clock::now();
  EXPECT_LT(idle_since - call, milliseconds(1000));
  EXPECT_NE(text.find("diverse_"), std::string::npos);

  // The half frame is dropped at the deadline, not before it; so is the
  // peer whose first frame never started.
  EXPECT_TRUE(ClosedByServer(half, net::kIoTimeoutMs + 3000));
  EXPECT_GE(steady_clock::now() - stalled,
            milliseconds(net::kIoTimeoutMs - 500));
  EXPECT_TRUE(ClosedByServer(silent, 3000));
  ::close(half);
  ::close(silent);

  // The transport idled past the deadline after a completed frame; its
  // connection is still served.
  std::this_thread::sleep_until(idle_since +
                                milliseconds(net::kIoTimeoutMs + 500));
  ASSERT_TRUE(ScrapeStats(&transport, StatsFormat::kPrometheus, &text));

  // Stop() returns promptly while a silent connection is still open. A
  // second transport's round trip proves the silent one was accepted
  // (the accept loop takes connections in order).
  const int late = ConnectLoopback(server.port());
  ASSERT_GE(late, 0);
  SocketTransport second("127.0.0.1", server.port());
  ASSERT_TRUE(ScrapeStats(&second, StatsFormat::kPrometheus, &text));
  const steady_clock::time_point stop = steady_clock::now();
  server.Stop();
  EXPECT_LT(steady_clock::now() - stop, milliseconds(1000));
  EXPECT_TRUE(ClosedByServer(late, 1000));
  ::close(late);
}

// Holds every kernel query until Release() (or 10 s), passing every
// other frame straight through to `inner`.
class LatchedHandler : public Handler {
 public:
  explicit LatchedHandler(Handler* inner) : inner_(inner) {}

  std::vector<std::uint8_t> Handle(
      std::span<const std::uint8_t> request) override {
    if (PeekType(request) == MessageType::kShardQueryRequest) {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(10), [this] { return open_; });
    }
    return inner_->Handle(request);
  }

  // True once a query is being held (waits up to 10 s).
  bool WaitForHeldQuery() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return held_ > 0; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  Handler* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  int held_ = 0;
  bool open_ = false;
};

// Epochs travel on their own connection: a publish completes while a
// query to the same node is still in the node's handler, and the held
// query, overtaken by the epoch, is then answered from the node's ring.
TEST(RpcTest, PublishDoesNotWaitBehindAQueryInFlight) {
  Rng rng(47);
  const Dataset data = MakeUniformSynthetic(40, rng);
  Dataset replica = data;
  ShardNode node(replica.weights, std::move(replica.metric), 0.3);
  LatchedHandler latched(&node);
  SocketServer server(&latched, /*port=*/0);
  server.Start();
  SocketTransport transport("127.0.0.1", server.port());
  Coordinator coordinator({&transport});

  std::future<std::vector<std::uint8_t>> query =
      std::async(std::launch::async, [&transport] {
        std::vector<std::uint8_t> reply;
        transport.Call(Encode(KernelRequestAt(0)), &reply);
        return reply;
      });
  ASSERT_TRUE(latched.WaitForHeldQuery());
  coordinator.PublishEpoch(
      1, engine::MakeSyntheticEpoch(40, /*churn=*/false, 0, rng));
  EXPECT_EQ(node.version(), 1u);
  EXPECT_EQ(coordinator.sync().GetAcked(0), 1u);
  EXPECT_EQ(query.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  latched.Release();
  ShardQueryResponse response;
  ASSERT_TRUE(Decode(query.get(), &response));
  EXPECT_EQ(response.status, RpcStatus::kOk);
  EXPECT_EQ(response.node_version, 1u);
  server.Stop();
}

// A loopback frame server in front of `node` that counts the connections
// it accepts, notes whether any one connection carried both query and
// replication frames, and on request drops the connection that carries
// the next frame of one kind without answering it.
class LaneCountingServer {
 public:
  explicit LaneCountingServer(Handler* node)
      : node_(node), server_(0, [this](int fd) { Serve(fd); }) {
    server_.Start();
  }

  int port() const { return server_.port(); }
  int accepted() const { return accepted_.load(); }
  bool mixed() const { return mixed_.load(); }
  void DropNextQuery() { drop_query_.store(true); }
  void DropNextReplication() { drop_replication_.store(true); }

 private:
  void Serve(int fd) {
    accepted_.fetch_add(1);
    std::optional<bool> lane_is_query;
    while (true) {
      std::uint8_t header[4];
      if (!net::RecvFull(fd, header, sizeof(header), net::kNoDeadline)) {
        return;
      }
      std::uint32_t length = 0;
      ByteReader(header).ReadU32(&length);
      std::vector<std::uint8_t> request(length);
      if (!net::RecvFull(fd, request.data(), length, net::kNoDeadline)) {
        return;
      }
      const bool is_query =
          PeekType(request) == MessageType::kShardQueryRequest;
      if (lane_is_query.has_value() && *lane_is_query != is_query) {
        mixed_.store(true);
      }
      lane_is_query = is_query;
      if ((is_query ? drop_query_ : drop_replication_).exchange(false)) {
        return;  // the layer closes the connection
      }
      const std::vector<std::uint8_t> reply = node_->Handle(request);
      std::vector<std::uint8_t> frame;
      AppendU32(&frame, static_cast<std::uint32_t>(reply.size()));
      frame.insert(frame.end(), reply.begin(), reply.end());
      if (!net::SendFull(fd, frame.data(), frame.size())) return;
    }
  }

  Handler* node_;
  std::atomic<int> accepted_{0};
  std::atomic<bool> mixed_{false};
  std::atomic<bool> drop_query_{false};
  std::atomic<bool> drop_replication_{false};
  net::TcpServer server_;  // last: stopped before the members it reads
};

// Each lane connects on its own first call and, after a failed exchange,
// reconnects on its next one; the other lane's connection is untouched.
TEST(RpcTest, EachLaneDropsAndReconnectsOnlyItsOwnConnection) {
  Rng rng(49);
  Dataset data = MakeUniformSynthetic(30, rng);
  ShardNode node(data.weights, std::move(data.metric), 0.3);
  LaneCountingServer server(&node);
  SocketTransport transport("127.0.0.1", server.port());
  const std::vector<std::uint8_t> query = Encode(KernelRequestAt(0));
  const std::vector<std::uint8_t> probe = Encode(CorpusUpdateBatch{});
  std::vector<std::uint8_t> reply;

  ASSERT_TRUE(transport.Call(query, &reply));
  EXPECT_EQ(server.accepted(), 1);
  ASSERT_TRUE(transport.Call(probe, &reply));
  EXPECT_EQ(server.accepted(), 2);
  ASSERT_TRUE(transport.Call(query, &reply));
  ASSERT_TRUE(transport.Call(probe, &reply));
  EXPECT_EQ(server.accepted(), 2);

  // A failed replication exchange leaves the query connection in place.
  server.DropNextReplication();
  EXPECT_FALSE(transport.Call(probe, &reply));
  ASSERT_TRUE(transport.Call(query, &reply));
  EXPECT_EQ(server.accepted(), 2);
  ASSERT_TRUE(transport.Call(probe, &reply));
  EXPECT_EQ(server.accepted(), 3);

  // And the other way round.
  server.DropNextQuery();
  EXPECT_FALSE(transport.Call(query, &reply));
  ASSERT_TRUE(transport.Call(probe, &reply));
  EXPECT_EQ(server.accepted(), 3);
  ASSERT_TRUE(transport.Call(query, &reply));
  EXPECT_EQ(server.accepted(), 4);
  ShardQueryResponse response;
  ASSERT_TRUE(Decode(reply, &response));
  EXPECT_EQ(response.status, RpcStatus::kOk);
  EXPECT_FALSE(server.mixed());
}

}  // namespace
}  // namespace rpc
}  // namespace diverse
