// MetricBackend seam tests: the batched-kernel contract (every batched
// query bit-equal to scalar Distance()), the VectorMetric kernel's
// bit-reproducibility and symmetry, DenseMetric::Materialize as a
// bit-equality oracle, repr-aware update / state validation, and
// end-to-end engine answers over the vector backend matching the dense
// oracle bitwise across churn epochs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "metric/dense_metric.h"
#include "metric/graph_metric.h"
#include "metric/jaccard_metric.h"
#include "metric/metric_backend.h"
#include "metric/vector_metric.h"
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

// The MetricBackend contract: batched queries return exactly what scalar
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

TEST(MetricBackendTest, AsBackendSeesBackendsOnly) {
  const VectorMetric vectors = MakeVectors(4, 2, 17);
  const DenseMetric dense(4);
  EXPECT_NE(AsBackend(&vectors), nullptr);
  EXPECT_NE(AsBackend(&dense), nullptr);
}

// ---- Default batched fallbacks over plain scalar metrics -------------------

// The thinnest possible backend: nothing overridden beyond the scalar
// interface, so DistanceRow/DistancesTo run MetricBackend's own default
// loops. Wrapping metrics that are NOT backends (graph shortest paths,
// Jaccard sets) proves the defaults hold the bit-equality contract for
// arbitrary scalar implementations, not just the vector kernel.
class ScalarOnlyBackend : public MetricBackend {
 public:
  explicit ScalarOnlyBackend(const MetricSpace* base) : base_(base) {}
  int size() const override { return base_->size(); }
  double Distance(int u, int v) const override {
    return base_->Distance(u, v);
  }

 private:
  const MetricSpace* base_;
};

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
  ASSERT_EQ(AsBackend(&graph), nullptr);  // plain MetricSpace, no backend
  const ScalarOnlyBackend backend(&graph);

  std::vector<double> row(n);
  for (int u = 0; u < n; ++u) {
    backend.DistanceRow(u, row);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(row[v], graph.Distance(u, v));
    }
  }
  const std::vector<int> ids = {3, 0, 11, 3, 7};
  std::vector<double> out(ids.size());
  backend.DistancesTo(5, ids, out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i], graph.Distance(5, ids[i]));
  }
  // The default backend stores nothing, so there is no resident row.
  EXPECT_EQ(backend.TryRow(0), nullptr);
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
  ASSERT_EQ(AsBackend(&jaccard), nullptr);
  const ScalarOnlyBackend backend(&jaccard);

  const int n = backend.size();
  std::vector<double> row(n);
  for (int u = 0; u < n; ++u) {
    backend.DistanceRow(u, row);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(row[v], jaccard.Distance(u, v));
    }
  }
  const std::vector<int> ids = {0, 14, 7, 7, 2, 0};
  std::vector<double> out(ids.size());
  backend.DistancesTo(9, ids, out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i], jaccard.Distance(9, ids[i]));
  }
}

// Empty id lists and empty metrics must be no-ops, not UB.
TEST(MetricBackendDefaultsTest, DegenerateShapes) {
  const JaccardMetric jaccard({{1}, {2}});
  const ScalarOnlyBackend backend(&jaccard);
  backend.DistancesTo(0, {}, {});
  std::vector<double> row(2);
  backend.DistanceRow(1, row);
  EXPECT_EQ(row[1], 0.0);
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

// Local search refines through the same seam: swap scans pull rows via
// TryRow/DistanceRow, and the vector backend's answers must match the
// oracle's bitwise there too.
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
