// Metric row bench (MetricSpace's batched calls) — emits BENCH_metric.json.
//
// Three records:
//
//   * kernel    — batched VectorMetric::DistanceRow throughput versus the
//                 same distances pulled one scalar virtual Distance() call
//                 at a time. `kernel_speedup` (scalar_seconds /
//                 batched_seconds) is the machine-relative headline: both
//                 timings come from the same run on the same data, so the
//                 ratio isolates what the row kernel buys the hot loops.
//                 `avx2` says which kernel ran (1: the AVX2 one, 0: the
//                 portable one), and `bit_equal` checks every dispatched
//                 row against the portable kernel bit for bit.
//   * snapshot  — encoded image bytes per element for the dense (O(n^2))
//                 and feature-vector (O(n * d)) payloads at two corpus
//                 sizes. Exact arithmetic, no timing: the vector
//                 bytes/item must stay flat as n doubles while the dense
//                 bytes/item roughly doubles.
//   * query     — end-to-end engine latency of the same greedy query over
//                 a feature-vector corpus versus the dense oracle
//                 materialized from the very same vectors, including an
//                 insert/erase epoch on both. `bit_equal` checks the
//                 feature-vector answers (elements and objective) are
//                 bitwise identical to the oracle's — a 0 is a
//                 correctness regression in the row kernel.
//
// Absolute seconds vary with CI hardware and stay advisory; the gated
// fields are kernel_speedup and both records' bit_equal.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "metric/dense_metric.h"
#include "metric/metric_space.h"
#include "metric/vector_kernel.h"
#include "metric/vector_metric.h"
#include "snapshot/snapshot_codec.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"

namespace diverse {
namespace {

VectorMetric MakeVectors(int n, int dim, Rng& rng) {
  std::vector<double> data;
  data.reserve(static_cast<std::size_t>(n) * dim);
  for (int i = 0; i < n * dim; ++i) data.push_back(rng.Uniform(-1.0, 1.0));
  return VectorMetric::FromRows(dim, std::move(data));
}

// Kept out-of-line so the scalar loop goes through genuine virtual
// dispatch — the cost the batched row path amortizes away.
[[gnu::noinline]] double ScalarRowSum(const MetricSpace& metric, int u,
                                      int n) {
  double sum = 0.0;
  for (int v = 0; v < n; ++v) sum += metric.Distance(u, v);
  return sum;
}

bool SameAnswer(const engine::QueryResult& a, const engine::QueryResult& b) {
  return a.elements == b.elements && a.objective == b.objective;
}

int Run(int n, int dim, int p, std::uint64_t seed) {
  Rng rng(seed);
  const VectorMetric vectors = MakeVectors(n, dim, rng);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);

  bench::BenchJson json("metric");

  // Batched rows vs one virtual scalar call per distance, same data.
  // Three alternating rounds; the gated ratio is the median round's, so
  // one scheduler hiccup on a shared runner cannot fail the gate.
  {
    std::vector<double> row(n);
    double sink = 0.0;
    double batched_seconds[3];
    double scalar_seconds[3];
    for (int round = 0; round < 3; ++round) {
      WallTimer batched_wall;
      for (int u = 0; u < n; ++u) {
        vectors.DistanceRow(u, row);
        sink += row[u > 0 ? u - 1 : 0];
      }
      batched_seconds[round] = batched_wall.Seconds();
      WallTimer scalar_wall;
      for (int u = 0; u < n; ++u) sink += ScalarRowSum(vectors, u, n);
      scalar_seconds[round] = scalar_wall.Seconds();
    }
    double ratios[3];
    for (int round = 0; round < 3; ++round) {
      ratios[round] = batched_seconds[round] > 0.0
                          ? scalar_seconds[round] / batched_seconds[round]
                          : 0.0;
    }
    std::sort(ratios, ratios + 3);
    // Untimed: every dispatched row against the portable kernel.
    bool rows_equal = true;
    for (int u = 0; u < n && rows_equal; ++u) {
      vectors.DistanceRow(u, row);
      for (int v = 0; v < n; ++v) {
        const double want = std::sqrt(vector_kernel::SquaredDistancePortable(
            vectors.row(u).data(), vectors.row(v).data(), dim));
        if (std::bit_cast<std::uint64_t>(row[v]) !=
            std::bit_cast<std::uint64_t>(want)) {
          rows_equal = false;
        }
      }
    }
    const double best_batched =
        std::min({batched_seconds[0], batched_seconds[1],
                  batched_seconds[2]});
    const double distances = static_cast<double>(n) * n;
    json.NewRecord("kernel")
        .Add("n", static_cast<long long>(n))
        .Add("dim", static_cast<long long>(dim))
        .Add("batched_seconds", best_batched)
        .Add("scalar_seconds", scalar_seconds[2])
        .Add("batched_mdist_s", distances / best_batched / 1e6)
        .Add("kernel_speedup", ratios[1])
        .Add("avx2",
             static_cast<long long>(vector_kernel::Avx2Supported() ? 1 : 0))
        .Add("bit_equal", static_cast<long long>(rows_equal ? 1 : 0))
        .Add("sink", sink == -1.0 ? 1.0 : 0.0);  // defeat dead-code elim
  }

  // Image size scaling: bytes/item at n and 2n for both payloads.
  {
    const double dense_small =
        static_cast<double>(snapshot::EncodedSnapshotBytes(n / 2)) /
        (n / 2);
    const double dense_large =
        static_cast<double>(snapshot::EncodedSnapshotBytes(n)) / n;
    const double vector_small =
        static_cast<double>(snapshot::EncodedVectorSnapshotBytes(n / 2,
                                                                 dim)) /
        (n / 2);
    const double vector_large =
        static_cast<double>(snapshot::EncodedVectorSnapshotBytes(n, dim)) /
        n;
    json.NewRecord("snapshot")
        .Add("n", static_cast<long long>(n))
        .Add("dim", static_cast<long long>(dim))
        .Add("dense_bytes_per_item_half_n", dense_small)
        .Add("dense_bytes_per_item", dense_large)
        .Add("vector_bytes_per_item_half_n", vector_small)
        .Add("vector_bytes_per_item", vector_large)
        .Add("image_shrink_x",
             vector_large > 0.0 ? dense_large / vector_large : 0.0);
  }

  // End-to-end engine queries: vector backend vs its dense oracle, with
  // an insert/erase epoch in the middle. The oracle matrix is
  // materialized from the same vectors through the same kernel, so every
  // answer must match bitwise.
  {
    engine::DiversificationEngine::Options options;
    options.num_workers = 1;
    engine::DiversificationEngine vec_engine(weights, vectors, 0.3,
                                             options);
    engine::DiversificationEngine dense_engine(
        weights, DenseMetric::Materialize(vectors), 0.3, options);

    engine::Query query;
    query.p = p;

    WallTimer vec_wall;
    const engine::QueryResult vec_before = vec_engine.RunSync(query);
    const double vector_seconds = vec_wall.Seconds();
    WallTimer dense_wall;
    const engine::QueryResult dense_before = dense_engine.RunSync(query);
    const double dense_seconds = dense_wall.Seconds();

    // One churn epoch on both corpora: insert a fresh element (the dense
    // side receives the kernel-computed distance row for it) and retire
    // an old one, then re-query.
    std::vector<double> fresh(dim);
    for (double& x : fresh) x = rng.Uniform(-1.0, 1.0);
    VectorMetric grown(vectors);
    grown.AppendRow(fresh);
    std::vector<double> fresh_distances(n);
    std::vector<double> grown_row(n + 1);
    grown.DistanceRow(n, grown_row);
    for (int i = 0; i < n; ++i) fresh_distances[i] = grown_row[i];

    vec_engine.ApplyUpdates(std::vector<engine::CorpusUpdate>{
        engine::CorpusUpdate::InsertVector(0.9, fresh),
        engine::CorpusUpdate::Erase(0)});
    dense_engine.ApplyUpdates(std::vector<engine::CorpusUpdate>{
        engine::CorpusUpdate::Insert(0.9, fresh_distances),
        engine::CorpusUpdate::Erase(0)});

    const engine::QueryResult vec_after = vec_engine.RunSync(query);
    const engine::QueryResult dense_after = dense_engine.RunSync(query);

    const bool equal = SameAnswer(vec_before, dense_before) &&
                       SameAnswer(vec_after, dense_after);
    json.NewRecord("query")
        .Add("n", static_cast<long long>(n))
        .Add("dim", static_cast<long long>(dim))
        .Add("p", static_cast<long long>(p))
        .Add("vector_seconds", vector_seconds)
        .Add("dense_seconds", dense_seconds)
        .Add("vector_vs_dense_x",
             dense_seconds > 0.0 ? vector_seconds / dense_seconds : 0.0)
        .Add("bit_equal", static_cast<long long>(equal ? 1 : 0));
  }

  json.WriteFile();
  return 0;
}

}  // namespace
}  // namespace diverse

int main(int argc, char** argv) {
  int n = 4000;
  int dim = 64;
  int p = 50;
  std::int64_t seed = 1;
  diverse::FlagSet flags(
      "metric_backend — batched feature-vector kernel throughput, snapshot "
      "bytes/item scaling, and end-to-end query latency vs the dense "
      "oracle; writes BENCH_metric.json");
  flags.AddInt("n", &n, "corpus size");
  flags.AddInt("dim", &dim, "feature-vector dimension");
  flags.AddInt("p", &p, "query subset size");
  flags.AddInt64("seed", &seed, "random seed");
  if (!flags.Parse(argc, argv)) return 1;
  return diverse::Run(n, dim, p, static_cast<std::uint64_t>(seed));
}
