#include "rpc/coordinator.h"

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "algorithms/distributed.h"
#include "algorithms/result.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {
namespace rpc {
namespace {

// Catch-up attempts per shard per query before the shard runs locally:
// each round replays the node's missing epochs and re-asks.
constexpr int kMaxCatchupRounds = 3;

// A kernel solution a replica sent back must be something the in-process
// plan could have produced for this shard: live ids of the right shard,
// no more than per_shard of them, no duplicates. Anything else marks the
// node as misbehaving and the shard runs locally.
bool ValidShardSolution(const engine::CorpusSnapshot& snapshot,
                        const ShardQueryRequest& request,
                        const std::vector<int>& elements) {
  if (static_cast<int>(elements.size()) > request.per_shard) return false;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const int e = elements[i];
    if (e < 0 || e >= snapshot.universe_size() || !snapshot.alive(e)) {
      return false;
    }
    if (ShardOf(request.shard_salt, e, request.num_shards) !=
        request.shard_index) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (elements[j] == e) return false;
    }
  }
  return true;
}

}  // namespace

Coordinator::Coordinator(std::vector<Transport*> nodes,
                         std::vector<Transport*> mirrors, Options options)
    : Coordinator(std::make_shared<replication::ReplicationLog>(), {},
                  std::move(nodes), std::move(mirrors), options) {}

Coordinator::Coordinator(std::shared_ptr<replication::ReplicationLog> log,
                         std::vector<replication::ReplicaSeed> seeds,
                         std::vector<Transport*> nodes,
                         std::vector<Transport*> mirrors, Options options)
    : log_(std::move(log)),
      sync_(log_.get(), std::move(nodes), std::move(mirrors), options,
            std::move(seeds)) {}

void Coordinator::PublishEpoch(std::uint64_t version,
                               std::span<const engine::CorpusUpdate> updates) {
  sync_.Publish(version, updates);
}

std::uint64_t Coordinator::CompactLog(
    const engine::CorpusSnapshot& snapshot) {
  if (!log_->Retain(snapshot)) return log_->log_start();
  return log_->TruncateBelow(sync_.MinAcked());
}

bool Coordinator::RunShardRemote(const engine::CorpusSnapshot& snapshot,
                                 const ShardQueryRequest& request,
                                 obs::QueryTrace* trace,
                                 std::vector<int>* elements,
                                 long long* steps) {
  const int node_index = request.shard_index % sync_.num_nodes();
  Transport* node = sync_.transport(node_index);
  const std::string catchup_span =
      "catchup.node" + std::to_string(node_index);
  // A quarantined node holds another coordinator lineage's epochs; its
  // answers at a numerically matching version would not be this
  // snapshot's. Catch-up below is snapshot-only and queries stay on-box
  // until the re-image lands.
  // Proactive catch-up: when the tracked replica version already says the
  // node is behind this snapshot, replay (or bootstrap) BEFORE asking —
  // the kVersionMismatch round-trip below then only fires when the
  // tracking was stale (e.g. the node silently restarted).
  const std::uint64_t tracked = sync_.GetAcked(node_index);
  if (tracked < request.snapshot_version || sync_.NeedsReimage(node_index)) {
    proactive_catchups_.Inc();
    {
      obs::ScopedSpan span(trace, catchup_span);
      sync_.CatchUpTarget(node_index, tracked, request.snapshot_version);
    }
    // Best-effort: the query's own mismatch loop is the backstop.
    if (sync_.NeedsReimage(node_index)) return false;
  }
  const std::vector<std::uint8_t> encoded = Encode(request);
  for (int round = 0; round <= kMaxCatchupRounds; ++round) {
    const auto sent = obs::QueryTrace::Clock::now();
    std::vector<std::uint8_t> reply;
    if (!node->Call(encoded, &reply)) return false;
    const auto received = obs::QueryTrace::Clock::now();
    ShardQueryResponse response;
    if (!Decode(reply, &response)) return false;
    if (response.status == RpcStatus::kOk) {
      if (!ValidShardSolution(snapshot, request, response.elements)) {
        return false;
      }
      if (trace != nullptr && response.timing) {
        trace->AddNodeTiming(request.shard_index, node_index, sent, received,
                             *response.timing);
      }
      // The node's latest version, not the request's: a reply served from
      // the node's ring comes from a node already one epoch further on.
      // Raised, never lowered: the ack of a publish that overtook this
      // query may already have recorded a newer one.
      sync_.RaiseAcked(node_index, response.node_version);
      *elements = std::move(response.elements);
      *steps = response.steps;
      return true;
    }
    if (response.status != RpcStatus::kVersionMismatch) return false;
    version_mismatches_.Inc();
    sync_.SetAcked(node_index, response.node_version);
    // A replica one epoch ahead would have answered from its ring, so one
    // that refuses from ahead (or at) this snapshot no longer holds it and
    // cannot rewind; one behind is brought up by snapshot transfer and/or
    // epoch replay.
    if (response.node_version >= request.snapshot_version) return false;
    obs::ScopedSpan span(trace, catchup_span);
    if (!sync_.CatchUpTarget(node_index, response.node_version,
                             request.snapshot_version)) {
      return false;
    }
  }
  return false;
}

engine::QueryResult Coordinator::ExecuteSharded(
    const engine::CorpusSnapshot& snapshot, const engine::Query& query,
    int num_shards) {
  DIVERSE_CHECK(num_shards >= 1);
  WallTimer timer;
  const int num_nodes = sync_.num_nodes();
  const std::vector<int>& candidates = snapshot.candidates();
  const int p = std::min<int>(query.p, static_cast<int>(candidates.size()));
  const engine::ProblemView view =
      engine::MakeProblemView(snapshot, query.relevance, query.lambda);

  // Round 1, remote: fan out in parallel, one worker thread per node
  // with work (shards on the same node would only serialize on its
  // query lane, so more threads than nodes buys nothing); results
  // land in shard-indexed slots, so completion order is irrelevant to
  // the merge below. The single-busy-node case runs inline. A shard left
  // without a solution runs locally inside RunShardRound: the identical
  // kernel on the identical shard of the identical snapshot, so taking
  // it never changes the answer.
  const auto fan_out = [&](const std::vector<std::vector<int>>& shards,
                           int per_shard) {
    std::vector<std::optional<ShardSolution>> arrived(num_shards);
    std::vector<std::vector<int>> node_shards(num_nodes);
    for (int s = 0; s < num_shards; ++s) {
      if (!shards[s].empty()) node_shards[s % num_nodes].push_back(s);
    }
    const auto run_node = [&](const std::vector<int>& shard_list) {
      for (const int s : shard_list) {
        ShardQueryRequest request;
        request.snapshot_version = snapshot.version();
        request.shard_salt = query.shard_salt;
        request.trace_id = query.trace != nullptr ? query.trace->id() : 0;
        request.num_shards = num_shards;
        request.shard_index = s;
        request.p = p;
        request.per_shard = per_shard;
        request.lambda = query.lambda;
        // Only this shard's relevance crosses the wire, read from the
        // view's weights, which are already fitted to the snapshot.
        if (view.relevance != nullptr) {
          request.relevance.reserve(shards[s].size());
          for (const int e : shards[s]) {
            request.relevance.push_back(view.relevance->weight(e));
          }
        }
        obs::ScopedSpan span(query.trace, "rpc.shard" + std::to_string(s));
        ShardSolution solution;
        if (RunShardRemote(snapshot, request, query.trace,
                           &solution.elements, &solution.steps)) {
          remote_shards_.Inc();
          arrived[s] = std::move(solution);
        } else {
          local_fallbacks_.Inc();
        }
      }
    };
    int busy_nodes = 0;
    for (const std::vector<int>& list : node_shards) {
      if (!list.empty()) ++busy_nodes;
    }
    if (busy_nodes <= 1) {
      for (const std::vector<int>& list : node_shards) run_node(list);
    } else {
      std::vector<std::thread> fanout;
      fanout.reserve(busy_nodes);
      for (const std::vector<int>& list : node_shards) {
        if (list.empty()) continue;
        fanout.emplace_back([&run_node, &list] { run_node(list); });
      }
      for (std::thread& t : fanout) t.join();
    }
    return arrived;
  };

  engine::QueryResult result;
  result.corpus_version = snapshot.version();
  const std::vector<std::vector<int>> local_solutions =
      RunShardRound(view.problem, candidates, p, num_shards, query.per_shard,
                    query.shard_salt, fan_out, &result.steps);

  obs::ScopedSpan merge_span(query.trace, "merge");
  AlgorithmResult merged =
      MergeShardSolutions(view.problem, local_solutions, p);
  result.steps += merged.steps;
  result.elements = std::move(merged.elements);
  result.objective = merged.objective;
  result.latency_seconds = timer.Seconds();
  return result;
}

void Coordinator::RegisterMetrics(obs::MetricRegistry* registry) {
  sync_.RegisterMetrics(registry);
  registrations_.clear();
  registrations_.push_back(registry->RegisterCounter(
      "diverse_router_remote_shards_total", &remote_shards_));
  registrations_.push_back(registry->RegisterCounter(
      "diverse_router_local_fallbacks_total", &local_fallbacks_));
  registrations_.push_back(registry->RegisterCounter(
      "diverse_router_version_mismatches_total", &version_mismatches_));
  registrations_.push_back(registry->RegisterCounter(
      "diverse_router_proactive_catchups_total", &proactive_catchups_));
  registrations_.push_back(registry->RegisterGauge(
      "diverse_log_published_version",
      [this] { return static_cast<double>(log_->published_version()); }));
  registrations_.push_back(registry->RegisterGauge(
      "diverse_log_start",
      [this] { return static_cast<double>(log_->log_start()); }));
  registrations_.push_back(registry->RegisterGauge(
      "diverse_log_retained_snapshot_version",
      [this] { return static_cast<double>(log_->retained_version()); }));
  registrations_.push_back(registry->RegisterGauge(
      "diverse_log_compactions",
      [this] { return static_cast<double>(log_->compactions()); }));
}

Coordinator::Stats Coordinator::stats() const {
  const replication::ReplicaSyncService::Counters& sync = sync_.counters();
  Stats stats;
  stats.remote_shards = remote_shards_.value();
  stats.local_fallbacks = local_fallbacks_.value();
  stats.version_mismatches = version_mismatches_.value();
  stats.proactive_catchups = proactive_catchups_.value();
  stats.catchup_batches = sync.catchup_batches.value();
  stats.snapshots_sent = sync.snapshots_sent.value();
  stats.snapshot_chunks_sent = sync.snapshot_chunks_sent.value();
  stats.acked_syncs_sent = sync.acked_syncs_sent.value();
  stats.compactions = log_->compactions();
  return stats;
}

}  // namespace rpc
}  // namespace diverse
