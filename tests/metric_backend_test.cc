// Metric row tests: the batched-query contract (every DistanceRow /
// DistancesTo value bit-equal to scalar Distance()), the VectorMetric
// kernel's bit-reproducibility and symmetry, DenseMetric::Materialize as a
// bit-equality oracle for the vector kernel and for every scalar metric,
// repr-aware update / state validation, and end-to-end engine answers over
// the vector backend matching the dense oracle bitwise across churn epochs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "algorithms/greedy_vertex.h"
#include "algorithms/local_search.h"
#include "algorithms/streaming.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "matroid/partition_matroid.h"
#include "metric/cosine_metric.h"
#include "metric/dense_metric.h"
#include "metric/euclidean_metric.h"
#include "metric/graph_metric.h"
#include "metric/jaccard_metric.h"
#include "metric/relaxed_metric.h"
#include "metric/vector_metric.h"
#include "submodular/modular_function.h"
#include "util/random.h"

namespace diverse {
namespace {

VectorMetric MakeVectors(int n, int dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data;
  data.reserve(static_cast<std::size_t>(n) * dim);
  for (int i = 0; i < n * dim; ++i) data.push_back(rng.Uniform(-2.0, 2.0));
  return VectorMetric::FromRows(dim, std::move(data));
}

TEST(VectorMetricTest, ZeroDiagonalAndExactSymmetry) {
  const VectorMetric vectors = MakeVectors(23, 7, 3);
  for (int u = 0; u < vectors.size(); ++u) {
    EXPECT_EQ(vectors.Distance(u, u), 0.0);
    for (int v = 0; v < vectors.size(); ++v) {
      // Bitwise, not approximate: the kernel squares the exact IEEE
      // negations of the same differences in the same lane order.
      EXPECT_EQ(vectors.Distance(u, v), vectors.Distance(v, u))
          << "d(" << u << "," << v << ")";
    }
  }
}

TEST(VectorMetricTest, MatchesNaiveEuclidean) {
  const int dim = 5;
  const VectorMetric vectors = MakeVectors(12, dim, 5);
  for (int u = 0; u < vectors.size(); ++u) {
    for (int v = 0; v < vectors.size(); ++v) {
      double sum = 0.0;
      for (int k = 0; k < dim; ++k) {
        const double diff = vectors.row(u)[k] - vectors.row(v)[k];
        sum += diff * diff;
      }
      // The lane-split accumulation may round differently from the naive
      // left-to-right sum, so this is a near check; bitwise guarantees
      // are only between kernel outputs (previous test) and across
      // backends fed by the kernel (oracle tests below).
      EXPECT_NEAR(vectors.Distance(u, v), std::sqrt(sum), 1e-12);
    }
  }
}

// The MetricSpace row contract: batched queries return exactly what scalar
// Distance() returns, bit for bit.
TEST(VectorMetricTest, BatchedQueriesBitEqualScalar) {
  const VectorMetric vectors = MakeVectors(31, 9, 7);
  const int n = vectors.size();
  std::vector<double> row(n);
  for (int u = 0; u < n; ++u) {
    vectors.DistanceRow(u, row);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(row[v], vectors.Distance(u, v));
    }
  }
  const std::vector<int> ids = {0, 7, 7, 30, 1};
  std::vector<double> out(ids.size());
  vectors.DistancesTo(3, ids, out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i], vectors.Distance(3, ids[i]));
  }
  // Vector rows are computed on demand — no resident storage to expose.
  EXPECT_EQ(vectors.TryRow(0), nullptr);
}

TEST(VectorMetricTest, RepeatedCallsBitIdentical) {
  const VectorMetric vectors = MakeVectors(17, 13, 11);
  const int n = vectors.size();
  std::vector<double> first(n);
  std::vector<double> again(n);
  for (int u = 0; u < n; ++u) {
    vectors.DistanceRow(u, first);
    vectors.DistanceRow(u, again);
    EXPECT_EQ(first, again);
  }
}

TEST(VectorMetricTest, SetRowAndAppendRowRecomputeDistances) {
  VectorMetric vectors(3, 2);
  EXPECT_EQ(vectors.Distance(0, 1), 0.0);  // all at the origin
  const std::vector<double> e0 = {3.0, 0.0};
  const std::vector<double> e1 = {0.0, 4.0};
  vectors.SetRow(0, e0);
  vectors.SetRow(1, e1);
  EXPECT_EQ(vectors.Distance(0, 1), 5.0);
  const std::vector<double> e3 = {3.0, 4.0};
  EXPECT_EQ(vectors.AppendRow(e3), 3);
  EXPECT_EQ(vectors.size(), 4);
  EXPECT_EQ(vectors.Distance(0, 3), 4.0);
  EXPECT_EQ(vectors.Distance(1, 3), 3.0);
}

// The dense matrix materialized from the kernel stores bit-identical
// values — the property that makes it the oracle for the vector backend.
TEST(MetricBackendTest, MaterializedDenseIsBitEqualOracle) {
  const VectorMetric vectors = MakeVectors(29, 6, 13);
  const DenseMetric dense = DenseMetric::Materialize(vectors);
  ASSERT_EQ(dense.size(), vectors.size());
  for (int u = 0; u < dense.size(); ++u) {
    const double* resident = dense.TryRow(u);
    ASSERT_NE(resident, nullptr);
    for (int v = 0; v < dense.size(); ++v) {
      EXPECT_EQ(dense.Distance(u, v), vectors.Distance(u, v));
      EXPECT_EQ(resident[v], vectors.Distance(u, v));
    }
  }
}

// ---- Default batched queries over plain scalar metrics --------------------

// GraphMetric and JaccardMetric override only Distance(), so their
// DistanceRow/DistancesTo/TryRow are MetricSpace's default loops. Graph
// shortest paths and Jaccard sets prove the defaults hold the
// bit-equality contract for arbitrary scalar implementations, not just
// the vector kernel.

TEST(MetricBackendDefaultsTest, GraphMetricRowsBitEqualScalar) {
  // A connected weighted graph whose shortest paths are served per-pair.
  const int n = 12;
  std::vector<WeightedEdge> edges;
  Rng rng(41);
  for (int i = 1; i < n; ++i) {
    edges.push_back({rng.UniformInt(0, i - 1), i, rng.Uniform(0.5, 2.0)});
  }
  for (int extra = 0; extra < 8; ++extra) {
    const int a = rng.UniformInt(0, n - 1);
    const int b = rng.UniformInt(0, n - 1);
    if (a != b) edges.push_back({a, b, rng.Uniform(0.5, 3.0)});
  }
  const GraphMetric graph(n, edges);

  std::vector<double> row(n);
  for (int u = 0; u < n; ++u) {
    graph.DistanceRow(u, row);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(row[v], graph.Distance(u, v));
    }
  }
  const std::vector<int> ids = {3, 0, 11, 3, 7};
  std::vector<double> out(ids.size());
  graph.DistancesTo(5, ids, out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i], graph.Distance(5, ids[i]));
  }
  // The default stores nothing, so there is no resident row.
  EXPECT_EQ(graph.TryRow(0), nullptr);
}

TEST(MetricBackendDefaultsTest, JaccardMetricRowsBitEqualScalar) {
  std::vector<std::vector<int>> attributes;
  Rng rng(43);
  for (int i = 0; i < 15; ++i) {
    std::vector<int> attrs;
    const int count = rng.UniformInt(0, 6);
    for (int j = 0; j < count; ++j) attrs.push_back(rng.UniformInt(0, 9));
    attributes.push_back(std::move(attrs));
  }
  const JaccardMetric jaccard(std::move(attributes));

  const int n = jaccard.size();
  std::vector<double> row(n);
  for (int u = 0; u < n; ++u) {
    jaccard.DistanceRow(u, row);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(row[v], jaccard.Distance(u, v));
    }
  }
  const std::vector<int> ids = {0, 14, 7, 7, 2, 0};
  std::vector<double> out(ids.size());
  jaccard.DistancesTo(9, ids, out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i], jaccard.Distance(9, ids[i]));
  }
}

// Empty id lists and empty metrics must be no-ops, not UB.
TEST(MetricBackendDefaultsTest, DegenerateShapes) {
  const JaccardMetric jaccard({{1}, {2}});
  jaccard.DistancesTo(0, {}, {});
  std::vector<double> row(2);
  jaccard.DistanceRow(1, row);
  EXPECT_EQ(row[1], 0.0);
}

// ---- Scalar metrics vs their materialized dense oracle ---------------------

void ExpectSameResult(const AlgorithmResult& a, const AlgorithmResult& b) {
  EXPECT_EQ(a.elements, b.elements);
  EXPECT_EQ(a.objective, b.objective);  // exact: objective bits
  EXPECT_EQ(a.steps, b.steps);
}

// Every shipped scalar metric serves rows through MetricSpace's default
// loops. Greedy B, partition-matroid local search and a streaming pass
// over it must answer exactly as over DenseMetric::Materialize of it.
TEST(ScalarMetricParityTest, AnswersBitEqualOverMaterializedDense) {
  const int n = 40;
  Rng rng(53);
  std::vector<std::vector<double>> points(n, std::vector<double>(5));
  for (auto& point : points) {
    for (double& x : point) x = rng.Uniform(0.0, 1.0);
  }
  std::vector<std::vector<int>> attributes(n);
  for (auto& attrs : attributes) {
    const int count = rng.UniformInt(1, 6);
    for (int j = 0; j < count; ++j) attrs.push_back(rng.UniformInt(0, 11));
  }
  std::vector<WeightedEdge> edges;
  for (int i = 1; i < n; ++i) {
    edges.push_back({rng.UniformInt(0, i - 1), i, rng.Uniform(0.5, 2.0)});
  }
  for (int extra = 0; extra < 30; ++extra) {
    const int a = rng.UniformInt(0, n - 1);
    const int b = rng.UniformInt(0, n - 1);
    if (a != b) edges.push_back({a, b, rng.Uniform(0.5, 3.0)});
  }
  const EuclideanMetric l1(points, Norm::kL1);
  const EuclideanMetric l2(points, Norm::kL2);
  const CosineMetric cosine(points);
  const JaccardMetric jaccard(std::move(attributes));
  const GraphMetric graph(n, edges);
  const PowerRelaxedMetric relaxed(&l2, 1.5);
  const std::vector<std::pair<const char*, const MetricSpace*>> metrics = {
      {"euclidean_l1", &l1}, {"euclidean_l2", &l2},
      {"cosine", &cosine},   {"jaccard", &jaccard},
      {"graph", &graph},     {"power_relaxed_l2", &relaxed}};

  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);
  const ModularFunction quality(weights);
  std::vector<int> block_of(n);
  for (int i = 0; i < n; ++i) block_of[i] = i % 4;
  const PartitionMatroid matroid(block_of, {2, 3, 2, 3});
  std::vector<int> stream(n);
  std::iota(stream.begin(), stream.end(), 0);
  rng.Shuffle(&stream);

  for (const auto& [name, metric] : metrics) {
    SCOPED_TRACE(name);
    const DenseMetric dense = DenseMetric::Materialize(*metric);
    const DiversificationProblem scalar(metric, &quality, 0.4);
    const DiversificationProblem oracle(&dense, &quality, 0.4);
    for (int p : {3, 6, 9}) {
      ExpectSameResult(GreedyVertex(scalar, {.p = p}),
                       GreedyVertex(oracle, {.p = p}));
    }
    // The arbitrary completion leaves swaps for the search to make.
    LocalSearchOptions options;
    options.greedy_completion = false;
    const AlgorithmResult local = LocalSearch(scalar, matroid, options);
    EXPECT_GT(local.steps, 0);
    ExpectSameResult(local, LocalSearch(oracle, matroid, options));

    StreamingDiversifier over_scalar(&scalar, 6);
    StreamingDiversifier over_oracle(&oracle, 6);
    over_scalar.ObserveAll(stream);
    over_oracle.ObserveAll(stream);
    EXPECT_GT(over_scalar.swaps_performed(), 0);
    EXPECT_EQ(over_scalar.current(), over_oracle.current());
    EXPECT_EQ(over_scalar.objective(), over_oracle.objective());
    EXPECT_EQ(over_scalar.swaps_performed(), over_oracle.swaps_performed());
  }
}

// ---- Repr-aware validation -------------------------------------------------

TEST(ValidUpdateTest, VectorContextAcceptsOnlyVectorKinds) {
  engine::UpdateContext ctx;
  ctx.n = 5;
  ctx.repr = engine::MetricRepr::kVector;
  ctx.dim = 3;

  EXPECT_TRUE(engine::ValidUpdate(
      engine::CorpusUpdate::InsertVector(0.5, {1.0, -2.0, 0.0}), &ctx));
  EXPECT_EQ(ctx.n, 6);  // a valid insert grows the context
  EXPECT_TRUE(engine::ValidUpdate(engine::CorpusUpdate::SetWeight(5, 0.25),
                                  &ctx));
  EXPECT_TRUE(engine::ValidUpdate(engine::CorpusUpdate::Erase(0), &ctx));

  // Dense-only kinds are invalid under the vector representation.
  EXPECT_FALSE(engine::ValidUpdate(
      engine::CorpusUpdate::SetDistance(0, 1, 1.0), &ctx));
  EXPECT_FALSE(engine::ValidUpdate(
      engine::CorpusUpdate::Insert(0.5, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0}),
      &ctx));

  // Wrong dimension, bad weight, bad components.
  EXPECT_FALSE(engine::ValidUpdate(
      engine::CorpusUpdate::InsertVector(0.5, {1.0, 2.0}), &ctx));
  EXPECT_FALSE(engine::ValidUpdate(
      engine::CorpusUpdate::InsertVector(-1.0, {1.0, 2.0, 3.0}), &ctx));
  EXPECT_FALSE(engine::ValidUpdate(
      engine::CorpusUpdate::InsertVector(
          0.5, {1.0, std::nan(""), 3.0}),
      &ctx));
  EXPECT_FALSE(engine::ValidUpdate(
      engine::CorpusUpdate::InsertVector(0.5, {1.0, 2.0, 2e100}), &ctx));
  EXPECT_EQ(ctx.n, 6);  // failed inserts must not grow the context

  // And the mirror image: vector inserts are invalid under kDense.
  engine::UpdateContext dense_ctx;
  dense_ctx.n = 5;
  EXPECT_FALSE(engine::ValidUpdate(
      engine::CorpusUpdate::InsertVector(0.5, {1.0, 2.0, 3.0}),
      &dense_ctx));
}

TEST(ValidStateTest, VectorStatesValidated) {
  engine::CorpusState state;
  state.repr = engine::MetricRepr::kVector;
  state.weights = {0.5, 0.25};
  state.alive = {1, 1};
  state.vectors = VectorMetric::FromRows(2, {0.0, 1.0, 1.0, 0.0});
  EXPECT_TRUE(engine::ValidState(state));

  // The unused dense payload must stay empty.
  engine::CorpusState dense_leak = state;
  dense_leak.metric = DenseMetric(2);
  EXPECT_FALSE(engine::ValidState(dense_leak));

  // Size mismatch between weights and vectors.
  engine::CorpusState skew = state;
  skew.vectors = VectorMetric::FromRows(2, {0.0, 1.0});
  EXPECT_FALSE(engine::ValidState(skew));

  // Component out of range.
  engine::CorpusState huge = state;
  huge.vectors = VectorMetric::FromRows(2, {0.0, 1.0, -2e100, 0.0});
  EXPECT_FALSE(engine::ValidState(huge));

  // And a vector state must not carry repr = kDense.
  engine::CorpusState wrong_repr = state;
  wrong_repr.repr = engine::MetricRepr::kDense;
  EXPECT_FALSE(engine::ValidState(wrong_repr));
}

// ---- End-to-end: engine over the vector backend vs the dense oracle --------

bool SameAnswer(const engine::QueryResult& a, const engine::QueryResult& b) {
  return a.ok == b.ok && a.elements == b.elements &&
         a.objective == b.objective;
}

TEST(EngineVectorBackendTest, AnswersBitEqualToDenseOracleAcrossChurn) {
  const int n = 60;
  const int dim = 8;
  Rng rng(23);
  VectorMetric vectors = MakeVectors(n, dim, 29);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);

  engine::DiversificationEngine::Options options;
  options.num_workers = 1;
  engine::DiversificationEngine vec_engine(weights, vectors, 0.3, options);
  engine::DiversificationEngine dense_engine(
      weights, DenseMetric::Materialize(vectors), 0.3, options);

  engine::Query query;
  query.p = 12;
  engine::Query local = query;
  local.algorithm = engine::QueryAlgorithm::kLocalSearch;
  EXPECT_TRUE(SameAnswer(vec_engine.RunSync(query),
                         dense_engine.RunSync(query)));
  EXPECT_TRUE(SameAnswer(vec_engine.RunSync(local),
                         dense_engine.RunSync(local)));

  // Churn epochs: fresh embeddings in (the dense twin receives the
  // kernel-computed distance row for each), old ids out, weights moved.
  // Answers must stay bitwise identical after every epoch.
  VectorMetric grown(vectors);
  for (int e = 0; e < 4; ++e) {
    const int universe = grown.size();
    std::vector<double> fresh(dim);
    for (double& x : fresh) x = rng.Uniform(-2.0, 2.0);
    grown.AppendRow(fresh);
    std::vector<double> grown_row(universe + 1);
    grown.DistanceRow(universe, grown_row);
    std::vector<double> fresh_distances(grown_row.begin(),
                                        grown_row.begin() + universe);

    const double weight = rng.Uniform(0.0, 1.0);
    const int retired = rng.UniformInt(0, universe - 1);
    const int nudged = rng.UniformInt(0, universe - 1);
    const double nudge = rng.Uniform(0.0, 2.0);
    vec_engine.ApplyUpdates(std::vector<engine::CorpusUpdate>{
        engine::CorpusUpdate::InsertVector(weight, fresh),
        engine::CorpusUpdate::Erase(retired),
        engine::CorpusUpdate::SetWeight(nudged, nudge)});
    dense_engine.ApplyUpdates(std::vector<engine::CorpusUpdate>{
        engine::CorpusUpdate::Insert(weight, std::move(fresh_distances)),
        engine::CorpusUpdate::Erase(retired),
        engine::CorpusUpdate::SetWeight(nudged, nudge)});

    const engine::QueryResult vec_result = vec_engine.RunSync(query);
    const engine::QueryResult dense_result = dense_engine.RunSync(query);
    EXPECT_TRUE(SameAnswer(vec_result, dense_result)) << "epoch " << e;
    EXPECT_EQ(vec_result.corpus_version, dense_result.corpus_version);
    EXPECT_TRUE(SameAnswer(vec_engine.RunSync(local),
                           dense_engine.RunSync(local)))
        << "epoch " << e;
  }
}

// Local search refines through the same row calls: the swap kernel reads
// DistancesTo, and the vector corpus's answers must match the oracle's
// bitwise there too.
TEST(EngineVectorBackendTest, LocalSearchMatchesDenseOracle) {
  const int n = 40;
  Rng rng(31);
  const VectorMetric vectors = MakeVectors(n, 6, 37);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.0, 1.0);

  engine::DiversificationEngine::Options options;
  options.num_workers = 1;
  engine::DiversificationEngine vec_engine(weights, vectors, 0.4, options);
  engine::DiversificationEngine dense_engine(
      weights, DenseMetric::Materialize(vectors), 0.4, options);

  engine::Query query;
  query.p = 10;
  query.algorithm = engine::QueryAlgorithm::kLocalSearch;
  EXPECT_TRUE(SameAnswer(vec_engine.RunSync(query),
                         dense_engine.RunSync(query)));
}

}  // namespace
}  // namespace diverse
