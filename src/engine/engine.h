// DiversificationEngine — the long-lived concurrent serving layer.
//
// The engine owns a Corpus and a worker pool. Callers submit Queries and
// get futures; workers drain the queue in batches (up to
// Options::max_batch jobs per wakeup), acquire ONE corpus snapshot per
// batch, and answer every job in the batch from that snapshot through the
// execution plans. Batching amortizes snapshot acquisition and keeps the
// corpus rows hot across consecutive queries; the per-batch snapshot is
// also the consistency unit — every query in a batch observes the same
// corpus version.
//
// Updates go through ApplyUpdates, which forwards to the corpus's
// epoch/copy-on-write protocol: writers never block readers, and a query
// that started on version v keeps reading v even while v+1 is published
// mid-flight. The query hot path takes no lock on corpus data — only the
// job-queue mutex, held for a pop.
//
// Determinism: results are a pure function of (corpus version, query) —
// the same query answered on the same version returns the same elements
// regardless of worker count, batch boundaries, or which worker ran it.
#ifndef DIVERSE_ENGINE_ENGINE_H_
#define DIVERSE_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include "engine/corpus.h"
#include "engine/execution_plan.h"
#include "engine/query.h"
#include "metric/dense_metric.h"
#include "metric/pruning_index.h"
#include "obs/metric_registry.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace diverse {
namespace engine {

// Only reader: servebench/serving.cc. Inert: no scan prunes.
enum class PruningMode { kOff };

class DiversificationEngine {
 public:
  struct Options {
    // Worker threads; 0 = hardware concurrency (at least 1).
    int num_workers = 0;
    // Jobs a worker drains per queue wakeup (one snapshot per batch).
    int max_batch = 8;
    // Default shard count for sharded-plan queries that leave it 0.
    int default_num_shards = 4;
    // Executor for PlanKind::kRemoteSharded queries (an rpc::Coordinator);
    // must outlive the engine. Submitting a remote query without one
    // CHECK-aborts at the call site. Implementations must be thread-safe:
    // every worker may call ExecuteSharded concurrently.
    RemoteExecutor* remote = nullptr;
    // When set, the engine registers its counters, corpus-version gauge,
    // and latency/queue-wait histograms under diverse_engine_* at
    // construction. Must outlive the engine. Null = counters still
    // accumulate (stats() is unchanged), just not enumerable.
    obs::MetricRegistry* registry = nullptr;
    // Sampled-tracing sink (must outlive the engine). When set, roughly
    // 1 in trace_sample_every queries arriving WITHOUT a caller-attached
    // trace gets an engine-owned QueryTrace whose completed spans land
    // here — the feed behind /tracez. Observation-only: a sampled query
    // returns bit-identical elements to the same query unsampled (the
    // trace never influences execution, see obs/query_trace.h), and
    // unsampled queries pay one atomic-increment hash per query.
    obs::TraceBuffer* trace_buffer = nullptr;
    // Sampling denominator (~1/N of untraced queries); <= 1 samples
    // every query (what the integration tests use).
    std::uint32_t trace_sample_every = 64;
    // Only reader: servebench/serving.cc. Inert: the engine reads neither.
    PruningMode pruning = PruningMode::kOff;
    PruningIndex::Options pruning_config{};
    // Inert; only servebench/serving.cc reads it (assigning it to
    // PlanDefaults::eval).
    std::monostate eval{};
  };

  // Always-on counters.
  struct Stats {
    long long queries_served = 0;
    long long batches = 0;            // worker wakeups that served >= 1 job
    long long snapshots_acquired = 0; // == batches + sync queries
    long long update_epochs = 0;
  };

  // The engine owns its corpus; `metric` must match weights.size().
  DiversificationEngine(std::vector<double> weights, DenseMetric metric,
                        double lambda);
  DiversificationEngine(std::vector<double> weights, DenseMetric metric,
                        double lambda, Options options);
  // Feature-vector corpus: one embedding per weight; distances are served
  // by the batched Euclidean kernel instead of an O(n^2) matrix.
  DiversificationEngine(std::vector<double> weights, VectorMetric vectors,
                        double lambda);
  DiversificationEngine(std::vector<double> weights, VectorMetric vectors,
                        double lambda, Options options);
  // Cold start from a decoded checkpoint (snapshot/checkpoint_store.h):
  // the corpus resumes at `state`'s version instead of an empty v0.
  DiversificationEngine(CorpusState state, Options options);
  // Drains outstanding queries, then joins the workers.
  ~DiversificationEngine();

  DiversificationEngine(const DiversificationEngine&) = delete;
  DiversificationEngine& operator=(const DiversificationEngine&) = delete;

  const Corpus& corpus() const { return corpus_; }

  // Enqueues one query; the future resolves when a worker answers it.
  // Query-shape contract violations (negative p, sharded plan with a
  // non-greedy algorithm, negative knapsack budget/costs) CHECK-abort on
  // the submitting thread, before the job can reach a worker.
  std::future<QueryResult> Submit(Query query);
  // Enqueues a batch under one queue lock; futures align with `queries`.
  std::vector<std::future<QueryResult>> SubmitBatch(
      std::vector<Query> queries);

  // Answers on the caller's thread against the current snapshot — the
  // one-query-at-a-time baseline the bench compares the pool against.
  // Participates in trace sampling like worker-served queries do.
  QueryResult RunSync(const Query& query) const;

  // Applies one update epoch (insert / erase / set-weight / set-distance)
  // and returns the published version. In-flight queries are unaffected.
  std::uint64_t ApplyUpdates(std::span<const CorpusUpdate> updates);
  std::uint64_t ApplyUpdate(const CorpusUpdate& update) {
    return ApplyUpdates(std::span<const CorpusUpdate>(&update, 1));
  }

  int num_workers() const { return static_cast<int>(workers_.size()); }
  Stats stats() const;

  // Queue-inclusive latency of every answered query (Submit and RunSync);
  // the source of the CLI's percentile report.
  const obs::Histogram& latency_histogram() const { return latency_hist_; }
  // Time jobs spent queued before a worker picked them up.
  const obs::Histogram& queue_wait_histogram() const {
    return queue_wait_hist_;
  }

 private:
  void Start();  // shared ctor tail: option checks + worker spawn
  void RegisterMetrics(obs::MetricRegistry* registry);
  // RunSync minus the sampling decision (query.trace already settled).
  QueryResult RunSyncInternal(const Query& query) const;

  struct Job {
    Query query;
    std::promise<QueryResult> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  Corpus corpus_;
  Options options_;
  PlanDefaults plan_defaults_;
  // Non-null iff Options::trace_buffer was set; mutable because the
  // admission counter advances on the const RunSync path too.
  mutable std::unique_ptr<obs::TraceSampler> sampler_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  mutable obs::Counter queries_served_;
  mutable obs::Counter batches_;
  mutable obs::Counter snapshots_acquired_;
  obs::Counter update_epochs_;
  mutable obs::Histogram latency_hist_;
  mutable obs::Histogram queue_wait_hist_;
  // Declared last so the views unregister before anything they read dies.
  std::vector<obs::MetricRegistry::Registration> registrations_;
};

}  // namespace engine
}  // namespace diverse

#endif  // DIVERSE_ENGINE_ENGINE_H_
