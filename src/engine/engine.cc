#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "obs/query_trace.h"
#include "util/check.h"

namespace diverse {
namespace engine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Query-shape contract, enforced on the submitting thread: a malformed
// request must fail at its own call site, not abort a worker mid-batch
// and take every other in-flight query down with it.
void ValidateQuery(const Query& query, const PlanDefaults& defaults) {
  DIVERSE_CHECK_MSG(query.p >= 0, "query.p must be non-negative");
  DIVERSE_CHECK_MSG(query.num_shards >= 0,
                    "query.num_shards must be non-negative");
  // Checked here, on the submitting thread: a non-finite value would
  // abort a worker (relevance), answer NaN (lambda) or lift the knapsack
  // constraint altogether, so that every live id fits (budget).
  DIVERSE_CHECK_MSG(std::isfinite(query.lambda),
                    "query.lambda must be finite (negative: corpus default)");
  for (double r : query.relevance) {
    DIVERSE_CHECK_MSG(r >= 0.0 && std::isfinite(r),
                      "relevance scores must be finite and non-negative");
  }
  if (query.plan == PlanKind::kSharded ||
      query.plan == PlanKind::kRemoteSharded) {
    DIVERSE_CHECK_MSG(query.algorithm == QueryAlgorithm::kGreedy,
                      "sharded plan supports the greedy kernel only");
  }
  if (query.plan == PlanKind::kRemoteSharded) {
    DIVERSE_CHECK_MSG(defaults.remote != nullptr,
                      "remote sharded plan needs Options::remote configured");
  }
  if (query.algorithm == QueryAlgorithm::kKnapsack) {
    DIVERSE_CHECK_MSG(query.budget >= 0.0 && std::isfinite(query.budget),
                      "knapsack budget must be finite and non-negative");
    for (double c : query.costs) {
      DIVERSE_CHECK_MSG(c >= 0.0, "knapsack costs must be non-negative");
    }
  }
}

// Trace label a /tracez reader can recognize the query shape from.
std::string QueryLabel(const Query& query) {
  const char* algorithm = "greedy";
  switch (query.algorithm) {
    case QueryAlgorithm::kGreedy: algorithm = "greedy"; break;
    case QueryAlgorithm::kLocalSearch: algorithm = "local_search"; break;
    case QueryAlgorithm::kKnapsack: algorithm = "knapsack"; break;
  }
  const char* plan = "single";
  switch (query.plan) {
    case PlanKind::kSingleNode: plan = "single"; break;
    case PlanKind::kSharded: plan = "sharded"; break;
    case PlanKind::kRemoteSharded: plan = "remote"; break;
  }
  return std::string(algorithm) + "/" + plan + " p=" +
         std::to_string(query.p);
}

}  // namespace

DiversificationEngine::DiversificationEngine(std::vector<double> weights,
                                             DenseMetric metric,
                                             double lambda)
    : DiversificationEngine(std::move(weights), std::move(metric), lambda,
                            Options()) {}

DiversificationEngine::DiversificationEngine(std::vector<double> weights,
                                             DenseMetric metric,
                                             double lambda, Options options)
    : corpus_(std::move(weights), std::move(metric), lambda),
      options_(options) {
  Start();
}

DiversificationEngine::DiversificationEngine(std::vector<double> weights,
                                             VectorMetric vectors,
                                             double lambda)
    : DiversificationEngine(std::move(weights), std::move(vectors), lambda,
                            Options()) {}

DiversificationEngine::DiversificationEngine(std::vector<double> weights,
                                             VectorMetric vectors,
                                             double lambda, Options options)
    : corpus_(std::move(weights), std::move(vectors), lambda),
      options_(options) {
  Start();
}

DiversificationEngine::DiversificationEngine(CorpusState state,
                                             Options options)
    : corpus_(std::move(state)), options_(options) {
  Start();
}

void DiversificationEngine::Start() {
  DIVERSE_CHECK(options_.max_batch >= 1);
  DIVERSE_CHECK(options_.default_num_shards >= 1);
  plan_defaults_.num_shards = options_.default_num_shards;
  plan_defaults_.remote = options_.remote;
  if (options_.trace_buffer != nullptr) {
    sampler_ =
        std::make_unique<obs::TraceSampler>(options_.trace_sample_every);
  }
  if (options_.registry != nullptr) RegisterMetrics(options_.registry);
  int workers = options_.num_workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers < 1) workers = 1;
  }
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DiversificationEngine::~DiversificationEngine() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<QueryResult> DiversificationEngine::Submit(Query query) {
  ValidateQuery(query, plan_defaults_);
  Job job;
  job.query = std::move(query);
  job.enqueued = std::chrono::steady_clock::now();
  std::future<QueryResult> future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    DIVERSE_CHECK_MSG(!stopping_, "Submit after engine shutdown");
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return future;
}

std::vector<std::future<QueryResult>> DiversificationEngine::SubmitBatch(
    std::vector<Query> queries) {
  for (const Query& query : queries) ValidateQuery(query, plan_defaults_);
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(queries.size());
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    DIVERSE_CHECK_MSG(!stopping_, "SubmitBatch after engine shutdown");
    for (Query& query : queries) {
      Job job;
      job.query = std::move(query);
      job.enqueued = now;
      futures.push_back(job.promise.get_future());
      queue_.push_back(std::move(job));
    }
  }
  queue_cv_.notify_all();
  return futures;
}

QueryResult DiversificationEngine::RunSync(const Query& query) const {
  ValidateQuery(query, plan_defaults_);
  if (query.trace == nullptr && sampler_ != nullptr && sampler_->Sample()) {
    obs::QueryTrace trace;
    Query sampled = query;  // observation-only: same bytes reach execution
    sampled.trace = &trace;
    QueryResult result = RunSyncInternal(sampled);
    options_.trace_buffer->Add(trace, QueryLabel(query),
                               result.latency_seconds,
                               result.corpus_version);
    return result;
  }
  return RunSyncInternal(query);
}

QueryResult DiversificationEngine::RunSyncInternal(const Query& query) const {
  const auto start = std::chrono::steady_clock::now();
  const SnapshotPtr snapshot = corpus_.snapshot();
  const auto acquired = std::chrono::steady_clock::now();
  if (query.trace != nullptr) {
    query.trace->AddSpan("snapshot", start, acquired);
  }
  snapshots_acquired_.Inc();
  QueryResult result = ExecuteQuery(*snapshot, query, plan_defaults_);
  result.latency_seconds = SecondsSince(start);
  latency_hist_.Record(result.latency_seconds);
  queries_served_.Inc();
  return result;
}

std::uint64_t DiversificationEngine::ApplyUpdates(
    std::span<const CorpusUpdate> updates) {
  const std::uint64_t version = corpus_.Apply(updates);
  update_epochs_.Inc();
  return version;
}

void DiversificationEngine::WorkerLoop() {
  std::vector<Job> batch;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      const int take = std::min<int>(options_.max_batch,
                                     static_cast<int>(queue_.size()));
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // One snapshot serves the whole batch: every job in it observes the
    // same corpus version, and acquisition cost is amortized.
    const auto pickup = std::chrono::steady_clock::now();
    const SnapshotPtr snapshot = corpus_.snapshot();
    const auto acquired = std::chrono::steady_clock::now();
    snapshots_acquired_.Inc();
    batches_.Inc();
    for (Job& job : batch) {
      queue_wait_hist_.Record(
          std::chrono::duration<double>(pickup - job.enqueued).count());
      // Sampling decision before the span sites below, so a sampled job
      // records the same spans a caller-traced one would. Its timeline
      // starts at the enqueue, where its queue span does.
      std::unique_ptr<obs::QueryTrace> sampled;
      if (job.query.trace == nullptr && sampler_ != nullptr &&
          sampler_->Sample()) {
        sampled = std::make_unique<obs::QueryTrace>(job.enqueued);
        job.query.trace = sampled.get();
      }
      if (job.query.trace != nullptr) {
        job.query.trace->AddSpan("queue", job.enqueued, pickup);
        job.query.trace->AddSpan("snapshot", pickup, acquired);
        // The jobs ahead of this one in the batch ran in between.
        if (&job != &batch.front()) {
          job.query.trace->AddSpan("batch", acquired,
                                   std::chrono::steady_clock::now());
        }
      }
      QueryResult result = ExecuteQuery(*snapshot, job.query, plan_defaults_);
      result.latency_seconds = SecondsSince(job.enqueued);
      const std::uint64_t served_version = result.corpus_version;
      latency_hist_.Record(result.latency_seconds);
      queries_served_.Inc();
      const double latency = result.latency_seconds;
      job.promise.set_value(std::move(result));
      // Retention runs strictly after the answer is delivered: the
      // buffer is downstream of every query it observes.
      if (sampled != nullptr) {
        options_.trace_buffer->Add(*sampled, QueryLabel(job.query), latency,
                                   served_version);
      }
    }
  }
}

DiversificationEngine::Stats DiversificationEngine::stats() const {
  Stats stats;
  stats.queries_served = queries_served_.value();
  stats.batches = batches_.value();
  stats.snapshots_acquired = snapshots_acquired_.value();
  stats.update_epochs = update_epochs_.value();
  return stats;
}

void DiversificationEngine::RegisterMetrics(obs::MetricRegistry* registry) {
  registrations_.clear();
  registrations_.push_back(registry->RegisterCounter(
      "diverse_engine_queries_total", &queries_served_));
  registrations_.push_back(
      registry->RegisterCounter("diverse_engine_batches_total", &batches_));
  registrations_.push_back(registry->RegisterCounter(
      "diverse_engine_snapshots_acquired_total", &snapshots_acquired_));
  registrations_.push_back(registry->RegisterCounter(
      "diverse_engine_update_epochs_total", &update_epochs_));
  registrations_.push_back(registry->RegisterGauge(
      "diverse_engine_corpus_version",
      [this] { return static_cast<double>(corpus_.version()); }));
  registrations_.push_back(registry->RegisterHistogram(
      "diverse_engine_query_latency_seconds", &latency_hist_));
  registrations_.push_back(registry->RegisterHistogram(
      "diverse_engine_queue_wait_seconds", &queue_wait_hist_));
}

}  // namespace engine
}  // namespace diverse
