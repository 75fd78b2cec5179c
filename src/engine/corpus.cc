#include "engine/corpus.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace diverse {
namespace engine {

CorpusUpdate CorpusUpdate::SetWeight(int u, double w) {
  CorpusUpdate update;
  update.kind = Kind::kSetWeight;
  update.u = u;
  update.value = w;
  return update;
}

CorpusUpdate CorpusUpdate::SetDistance(int u, int v, double d) {
  CorpusUpdate update;
  update.kind = Kind::kSetDistance;
  update.u = u;
  update.v = v;
  update.value = d;
  return update;
}

CorpusUpdate CorpusUpdate::Insert(double weight,
                                  std::vector<double> distances) {
  CorpusUpdate update;
  update.kind = Kind::kInsert;
  update.value = weight;
  update.distances = std::move(distances);
  return update;
}

CorpusUpdate CorpusUpdate::Erase(int u) {
  CorpusUpdate update;
  update.kind = Kind::kErase;
  update.u = u;
  return update;
}

CorpusUpdate CorpusUpdate::InsertVector(double weight,
                                        std::vector<double> vector) {
  CorpusUpdate update;
  update.kind = Kind::kInsertVector;
  update.value = weight;
  update.distances = std::move(vector);
  return update;
}

CorpusUpdate CorpusUpdate::FromPerturbation(const Perturbation& p) {
  switch (p.type) {
    case PerturbationType::kWeightIncrease:
    case PerturbationType::kWeightDecrease:
      return SetWeight(p.u, p.new_value);
    case PerturbationType::kDistanceIncrease:
    case PerturbationType::kDistanceDecrease:
      return SetDistance(p.u, p.v, p.new_value);
  }
  DIVERSE_FAIL("unknown perturbation type");
}

bool ValidWeight(double value) {
  return value >= 0.0 && std::isfinite(value);
}

bool ValidDistance(double value) {
  return value >= 0.0 && std::isfinite(value);
}

bool ValidVectorComponent(double value) {
  return std::isfinite(value) && std::fabs(value) <= kMaxVectorComponent;
}

bool ValidUpdate(const CorpusUpdate& update, UpdateContext* ctx) {
  const bool dense = ctx->repr == MetricRepr::kDense;
  switch (update.kind) {
    case CorpusUpdate::Kind::kSetWeight:
      return 0 <= update.u && update.u < ctx->n && ValidWeight(update.value);
    case CorpusUpdate::Kind::kSetDistance:
      return dense && 0 <= update.u && update.u < ctx->n && 0 <= update.v &&
             update.v < ctx->n && update.u != update.v &&
             ValidDistance(update.value);
    case CorpusUpdate::Kind::kInsert: {
      if (!dense) return false;
      if (static_cast<int>(update.distances.size()) != ctx->n) return false;
      if (!ValidWeight(update.value)) return false;
      for (double d : update.distances) {
        if (!ValidDistance(d)) return false;
      }
      ++ctx->n;
      return true;
    }
    case CorpusUpdate::Kind::kErase:
      return 0 <= update.u && update.u < ctx->n;
    case CorpusUpdate::Kind::kInsertVector: {
      if (dense) return false;
      if (static_cast<int>(update.distances.size()) != ctx->dim) return false;
      if (!ValidWeight(update.value)) return false;
      for (double x : update.distances) {
        if (!ValidVectorComponent(x)) return false;
      }
      ++ctx->n;
      return true;
    }
  }
  return false;
}

bool ValidEpoch(std::span<const CorpusUpdate> updates, UpdateContext* ctx) {
  for (const CorpusUpdate& update : updates) {
    if (!ValidUpdate(update, ctx)) return false;
  }
  return true;
}

bool ValidState(const CorpusState& state) {
  const std::size_t n = state.weights.size();
  if (state.alive.size() != n) return false;
  if (!(state.lambda >= 0.0) || !std::isfinite(state.lambda)) return false;
  switch (state.repr) {
    case MetricRepr::kDense:
      if (state.metric.size() != static_cast<int>(n)) return false;
      if (state.vectors.size() != 0 || state.vectors.dim() != 0) return false;
      break;
    case MetricRepr::kVector: {
      if (state.metric.size() != 0) return false;
      if (state.vectors.size() != static_cast<int>(n)) return false;
      const int dim = state.vectors.dim();
      if (dim < 1 || dim > kMaxVectorDim) return false;
      for (double x : state.vectors.data()) {
        if (!ValidVectorComponent(x)) return false;
      }
      break;
    }
    default:
      return false;
  }
  for (double w : state.weights) {
    if (!ValidWeight(w)) return false;
  }
  for (char a : state.alive) {
    if (a != 0 && a != 1) return false;
  }
  return true;
}

CorpusSnapshot::CorpusSnapshot(std::uint64_t version,
                               std::vector<double> weights, MetricRepr repr,
                               std::shared_ptr<const DenseMetric> metric,
                               std::shared_ptr<const VectorMetric> vectors,
                               std::vector<char> alive, double lambda)
    : version_(version),
      weights_(std::move(weights)),
      repr_(repr),
      metric_(std::move(metric)),
      vectors_(std::move(vectors)),
      alive_(std::move(alive)),
      problem_(repr == MetricRepr::kDense
                   ? static_cast<const MetricSpace*>(metric_.get())
                   : vectors_.get(),
               &weights_, lambda) {
  const int n = weights_.ground_size();
  DIVERSE_CHECK((metric_ != nullptr) != (vectors_ != nullptr));
  DIVERSE_CHECK(problem_.metric().size() == n);
  DIVERSE_CHECK(static_cast<int>(alive_.size()) == n);
  candidates_.reserve(n);
  for (int id = 0; id < n; ++id) {
    if (alive_[id]) candidates_.push_back(id);
  }
}

int CorpusSnapshot::dim() const {
  return repr_ == MetricRepr::kVector ? vectors_->dim() : 0;
}

const DenseMetric& CorpusSnapshot::metric() const {
  DIVERSE_CHECK_MSG(repr_ == MetricRepr::kDense,
                    "metric() on a feature-vector snapshot");
  return *metric_;
}

const VectorMetric& CorpusSnapshot::vectors() const {
  DIVERSE_CHECK_MSG(repr_ == MetricRepr::kVector,
                    "vectors() on a dense snapshot");
  return *vectors_;
}

CorpusState CorpusSnapshot::State() const {
  CorpusState state;
  state.version = version_;
  state.lambda = problem_.lambda();
  state.repr = repr_;
  state.weights = weights_.weights();
  state.alive = alive_;
  if (repr_ == MetricRepr::kDense) {
    state.metric = *metric_;
  } else {
    state.vectors = *vectors_;
  }
  return state;
}

Corpus::Corpus(std::vector<double> weights, DenseMetric metric,
               double lambda)
    : weights_(std::move(weights)),
      repr_(MetricRepr::kDense),
      metric_(std::make_shared<const DenseMetric>(std::move(metric))),
      alive_(weights_.size(), 1),
      lambda_(lambda) {
  DIVERSE_CHECK(metric_->size() == static_cast<int>(weights_.size()));
  DIVERSE_CHECK(lambda_ >= 0.0);
  std::lock_guard<std::mutex> lock(writer_mu_);
  Publish(Build());
}

Corpus::Corpus(std::vector<double> weights, VectorMetric vectors,
               double lambda)
    : weights_(std::move(weights)),
      repr_(MetricRepr::kVector),
      vectors_(std::make_shared<const VectorMetric>(std::move(vectors))),
      alive_(weights_.size(), 1),
      lambda_(lambda) {
  DIVERSE_CHECK(vectors_->size() == static_cast<int>(weights_.size()));
  DIVERSE_CHECK(vectors_->dim() >= 1 && vectors_->dim() <= kMaxVectorDim);
  DIVERSE_CHECK(lambda_ >= 0.0);
  std::lock_guard<std::mutex> lock(writer_mu_);
  Publish(Build());
}

Corpus::Corpus(CorpusState state) : lambda_(0.0) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  RestoreLocked(std::move(state));
}

std::uint64_t Corpus::Restore(CorpusState state) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return RestoreLocked(std::move(state));
}

std::uint64_t Corpus::RestoreLocked(CorpusState state) {
  DIVERSE_CHECK_MSG(ValidState(state), "invalid corpus state image");
  weights_ = std::move(state.weights);
  repr_ = state.repr;
  if (repr_ == MetricRepr::kDense) {
    metric_ = std::make_shared<const DenseMetric>(std::move(state.metric));
    vectors_.reset();
  } else {
    vectors_ = std::make_shared<const VectorMetric>(std::move(state.vectors));
    metric_.reset();
  }
  alive_ = std::move(state.alive);
  lambda_ = state.lambda;
  version_ = state.version;
  Publish(Build());
  return version_;
}

Corpus Corpus::FromBaseMetric(const MetricSpace& base,
                              std::vector<double> weights, double lambda) {
  return Corpus(std::move(weights), DenseMetric::Materialize(base), lambda);
}

SnapshotPtr Corpus::Build() const {
  return SnapshotPtr(new CorpusSnapshot(version_, weights_, repr_, metric_,
                                        vectors_, alive_, lambda_));
}

void Corpus::Publish(SnapshotPtr next) {
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_.swap(next);
  }
  // `next` now holds the previous snapshot; it is released here, outside
  // current_mu_.
}

std::uint64_t Corpus::Apply(std::span<const CorpusUpdate> updates) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const int n = static_cast<int>(weights_.size());
  const bool dense = repr_ == MetricRepr::kDense;

  // ValidEpoch is the one rule set: the whole batch passes it before
  // anything is mutated. The published snapshot is the master state's.
  UpdateContext ctx = snapshot()->update_context();
  DIVERSE_CHECK_MSG(ValidEpoch(updates, &ctx),
                    "update invalid for this corpus");

  // Published snapshots share the metric payload, so mutating epochs work
  // on a private copy — made exactly once per epoch. A dense copy shares
  // every row, and SetDistance clones just the rows it writes. A batch of
  // k dense inserts builds each row of the n + k metric once, from the old
  // row and the inserted distances; vector inserts copy O(n * d) once into
  // storage reserved for the final row count and append O(d) per insert.
  const int inserts = ctx.n - n;  // validation grew ctx.n per insert
  bool writes_distances = false;
  std::vector<std::span<const double>> inserted;
  for (const CorpusUpdate& update : updates) {
    if (update.kind == CorpusUpdate::Kind::kSetDistance) {
      writes_distances = true;
    } else if (update.kind == CorpusUpdate::Kind::kInsert) {
      inserted.push_back(update.distances);
    }
  }
  std::shared_ptr<DenseMetric> owned;
  std::shared_ptr<VectorMetric> owned_vectors;
  if (dense) {
    if (inserts > 0) {
      owned = std::make_shared<DenseMetric>(metric_->Append(inserted));
    } else if (writes_distances) {
      owned = std::make_shared<DenseMetric>(*metric_);
    }
  } else if (inserts > 0) {
    std::vector<double> rows;
    rows.reserve(static_cast<std::size_t>(ctx.n) * vectors_->dim());
    rows.assign(vectors_->data().begin(), vectors_->data().end());
    owned_vectors = std::make_shared<VectorMetric>(
        VectorMetric::FromRows(vectors_->dim(), std::move(rows)));
  }

  for (const CorpusUpdate& update : updates) {
    switch (update.kind) {
      case CorpusUpdate::Kind::kSetWeight:
        weights_[update.u] = update.value;
        break;
      case CorpusUpdate::Kind::kSetDistance:
        owned->SetDistance(update.u, update.v, update.value);
        break;
      case CorpusUpdate::Kind::kInsert:  // distances placed by Append
        weights_.push_back(update.value);
        alive_.push_back(1);
        break;
      case CorpusUpdate::Kind::kErase:
        alive_[update.u] = 0;
        break;
      case CorpusUpdate::Kind::kInsertVector:
        owned_vectors->AppendRow(update.distances);
        weights_.push_back(update.value);
        alive_.push_back(1);
        break;
    }
  }
  if (owned) metric_ = std::move(owned);
  if (owned_vectors) vectors_ = std::move(owned_vectors);

  ++version_;
  Publish(Build());
  return version_;
}

}  // namespace engine
}  // namespace diverse
