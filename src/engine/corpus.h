// Snapshot-isolated corpus for the serving engine.
//
// A Corpus owns the mutable master copy of the served data — per-element
// quality weights, the metric payload, a liveness mask — and publishes
// immutable, versioned CorpusSnapshots. The protocol is epoch-based
// copy-on-write:
//
//   * readers (query workers) copy the current snapshot's shared_ptr
//     under a small publication mutex and never take the writer mutex;
//     the snapshot pins every object a query touches for as long as the
//     query runs;
//   * writers serialize on a writer mutex, apply a batch of CorpusUpdates
//     to the master copy, build the next snapshot, and publish it with
//     one pointer swap under the publication mutex (the old snapshot is
//     released after it). In-flight queries keep reading the version
//     they started on — pre- or post-update, never a torn mix.
//
// The metric payload comes in two representations (MetricRepr):
//
//   * kDense — the full n x n DenseMetric matrix. O(n^2) memory and
//     snapshot bytes; supports arbitrary per-pair SetDistance updates.
//     The bit-equality oracle for the vector representation.
//   * kVector — a VectorMetric of n d-dimensional feature vectors;
//     distances are computed on demand by the batched Euclidean kernel.
//     O(n * d) memory and snapshot bytes; elements are inserted as
//     vectors (kInsertVector) and individual distances cannot be
//     overwritten (kSetDistance is invalid in this representation).
//
// Weight-only epochs share the previous snapshot's metric payload
// (shared_ptr, O(n) to publish). A dense distance epoch copies the
// DenseMetric's row table (O(n) pointers) and clones the rows it writes
// (O(n) doubles each); every other row stays shared with the previous
// snapshot. A dense insert epoch builds each row of the grown matrix once
// (O((n + k)^2) for k inserts); a vector insert epoch copies the feature
// vectors once (O(n * d)). All of this is writer-side only. Element ids
// are stable: Erase retires an id (it stays out of candidates()) and
// Insert appends a fresh one.
#ifndef DIVERSE_ENGINE_CORPUS_H_
#define DIVERSE_ENGINE_CORPUS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/diversification_problem.h"
#include "dynamic/perturbation.h"
#include "metric/dense_metric.h"
#include "metric/metric_space.h"
#include "metric/pruning_index.h"
#include "metric/vector_metric.h"
#include "submodular/modular_function.h"

namespace diverse {
namespace engine {

// Wire/disk-stable metric representation tags. Values are serialized
// (snapshot codec repr byte); never renumber.
enum class MetricRepr : std::uint8_t {
  kDense = 0,   // n x n DenseMetric matrix
  kVector = 1,  // n rows of d-dimensional feature vectors
};

// Hard ceiling on feature-vector dimension accepted from any boundary
// (update epochs, snapshot images). Generous for real embedding models
// (which top out around 4k dims) while keeping O(n * d) payload sizes
// bounded by the same kind of ceiling kMaxUniverse gives n.
inline constexpr int kMaxVectorDim = 4096;

// Hard cap on |component| of a feature vector. Squared-distance sums of
// kMaxVectorDim components this large stay far below the double overflow
// threshold (~1e308), so every distance the kernel can produce from valid
// vectors is finite — preserving the ValidDistance invariant without
// validating O(n^2) derived values.
inline constexpr double kMaxVectorComponent = 1e100;

// One corpus mutation. Batches of these form an update epoch.
struct CorpusUpdate {
  enum class Kind {
    kSetWeight,     // weight(u) <- value
    kSetDistance,   // d(u, v) <- value (kDense only; caller preserves
                    // metricity)
    kInsert,        // kDense: append element with `value` as weight,
                    // `distances` giving d(new, i) for every existing id i
                    // (dead ids included; any non-negative filler works)
    kErase,         // retire id u: excluded from candidates from now on
    kInsertVector,  // kVector: append element with `value` as weight,
                    // `distances` holding its d-dimensional feature vector
  };

  Kind kind = Kind::kSetWeight;
  int u = -1;
  int v = -1;
  double value = 0.0;
  std::vector<double> distances;  // kInsert / kInsertVector only

  static CorpusUpdate SetWeight(int u, double w);
  static CorpusUpdate SetDistance(int u, int v, double d);
  static CorpusUpdate Insert(double weight, std::vector<double> distances);
  static CorpusUpdate Erase(int u);
  static CorpusUpdate InsertVector(double weight,
                                   std::vector<double> vector);
  // Bridges the paper-§6 dynamic machinery (dynamic/perturbation.h): a
  // weight or distance perturbation becomes the equivalent corpus update.
  static CorpusUpdate FromPerturbation(const Perturbation& perturbation);
};

// Plain-data image of one corpus version — what the snapshot subsystem
// (src/snapshot/) serializes to disk/wire and what a cold replica restores
// from. `alive` uses 1 = live, 0 = retired. Exactly one metric payload is
// populated, selected by `repr`: the dense matrix over the full id space
// (retired ids included, so ids stay stable), or one feature vector per
// id. The unused payload stays empty (size 0).
struct CorpusState {
  std::uint64_t version = 0;
  double lambda = 0.0;
  MetricRepr repr = MetricRepr::kDense;
  std::vector<double> weights;
  std::vector<char> alive;
  DenseMetric metric{0};        // kDense payload
  VectorMetric vectors{0, 0};   // kVector payload
};

// Shared value/update validation — the one rule set every epoch and image
// goes through, wherever it comes from: Corpus::Apply, epoch replay
// (rpc::ShardNode::HandleUpdates), the checkpoint delta fold
// (snapshot::CheckpointStore::LoadLatest) and image decode
// (snapshot::DecodeSnapshot, through ValidState). So no checkpoint can
// round-trip into a state an epoch replay would have rejected. Apply
// CHECK-aborts on an invalid epoch; the boundary paths report instead,
// because their data crossed a trust boundary (wire, disk).
bool ValidWeight(double value);
bool ValidDistance(double value);
// Feature-vector component: finite and |x| <= kMaxVectorComponent, so all
// derived distances are finite.
bool ValidVectorComponent(double value);

// The corpus facts an update validates against. kInsert/kInsertVector
// grow `n` on success so a batch validates as a whole. A snapshot's own
// context is CorpusSnapshot::update_context().
struct UpdateContext {
  int n = 0;
  MetricRepr repr = MetricRepr::kDense;
  int dim = 0;  // kVector only
};

// Is `update` valid against `ctx`? Representation-aware:
// kSetDistance/kInsert are only valid under kDense, kInsertVector only
// under kVector (with exactly ctx->dim valid components).
bool ValidUpdate(const CorpusUpdate& update, UpdateContext* ctx);
// Is every update of one epoch valid, in order, against `ctx`? Grows
// `ctx` as ValidUpdate does, so the next epoch of a batch validates
// against the state this one leaves behind.
bool ValidEpoch(std::span<const CorpusUpdate> updates, UpdateContext* ctx);
// Structural validity of a state image: sizes agree with `repr`, the
// unused payload is empty, lambda/weights/vector components valid,
// liveness is 0/1. (Individual dense distances are validated where the
// image is decoded; DenseMetric construction enforces symmetry and zero
// diagonal.)
bool ValidState(const CorpusState& state);

// Immutable view of one corpus version. Address-stable (always held by
// shared_ptr); the contained DiversificationProblem points at the
// snapshot's own weights and metric payload.
class CorpusSnapshot {
 public:
  std::uint64_t version() const { return version_; }
  // Size of the id space (including retired ids).
  int universe_size() const { return weights_.ground_size(); }
  // Live element ids, ascending. The candidate pool every query draws
  // from; retired ids never appear.
  const std::vector<int>& candidates() const { return candidates_; }
  bool alive(int id) const { return alive_[id]; }

  const ModularFunction& weights() const { return weights_; }
  MetricRepr repr() const { return repr_; }
  // Feature-vector dimension; 0 under kDense.
  int dim() const;
  // The metric payload queries evaluate against, whichever representation
  // backs it: the base problem's metric.
  const MetricSpace& backend() const { return problem_.metric(); }
  // Representation-specific accessors; CHECK-abort on the wrong repr.
  const DenseMetric& metric() const;
  const VectorMetric& vectors() const;
  double lambda() const { return problem_.lambda(); }
  // The base problem (corpus weights, corpus lambda). Per-query views are
  // derived via the WithQuality/WithLambda hooks.
  const DiversificationProblem& problem() const { return problem_; }

  // The facts an epoch applied on top of this version validates against.
  UpdateContext update_context() const {
    return {universe_size(), repr_, dim()};
  }

  // This version as a serializable state image. The weights and liveness
  // are copied; a dense payload shares its rows with this snapshot (see
  // DenseMetric), a vector payload is copied.
  CorpusState State() const;

 private:
  friend class Corpus;
  // Exactly one of metric/vectors is non-null, matching `repr`.
  CorpusSnapshot(std::uint64_t version, std::vector<double> weights,
                 MetricRepr repr, std::shared_ptr<const DenseMetric> metric,
                 std::shared_ptr<const VectorMetric> vectors,
                 std::vector<char> alive, double lambda);
  CorpusSnapshot(const CorpusSnapshot&) = delete;
  CorpusSnapshot& operator=(const CorpusSnapshot&) = delete;

  std::uint64_t version_;
  ModularFunction weights_;
  MetricRepr repr_;
  std::shared_ptr<const DenseMetric> metric_;    // kDense only
  std::shared_ptr<const VectorMetric> vectors_;  // kVector only
  std::vector<char> alive_;
  std::vector<int> candidates_;
  DiversificationProblem problem_;  // must follow weights_/metric payloads
};

using SnapshotPtr = std::shared_ptr<const CorpusSnapshot>;

class Corpus {
 public:
  // Initial dense corpus; `metric` must be n x n for n = weights.size().
  Corpus(std::vector<double> weights, DenseMetric metric, double lambda);

  // Initial feature-vector corpus; `vectors` must hold one row per
  // weight. Distances are served by the batched Euclidean kernel.
  Corpus(std::vector<double> weights, VectorMetric vectors, double lambda);

  // Cold-starts at `state`'s version (a decoded checkpoint or transferred
  // snapshot) instead of an empty version 0. CHECK-aborts on an invalid
  // image — callers validate untrusted bytes with the snapshot codec
  // first.
  explicit Corpus(CorpusState state);

  // Materializes `base` into the dense master copy with
  // DenseMetric::Materialize (each unordered pair is pulled from the base
  // metric exactly once), for corpora whose natural metric is expensive
  // (graph, cosine, ...).
  static Corpus FromBaseMetric(const MetricSpace& base,
                               std::vector<double> weights, double lambda);

  // The current version: a pointer copy under current_mu_, which no
  // writer holds for longer than a pointer swap.
  SnapshotPtr snapshot() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }
  std::uint64_t version() const { return snapshot()->version(); }

  // Applies one update epoch and publishes the next snapshot. Serializes
  // with other writers; readers wait at most for the pointer swap.
  // Returns the new version. CHECK-aborts on updates invalid for the
  // corpus representation (use ValidEpoch first for untrusted input).
  std::uint64_t Apply(std::span<const CorpusUpdate> updates);
  std::uint64_t Apply(const CorpusUpdate& update) {
    return Apply(std::span<const CorpusUpdate>(&update, 1));
  }

  // Replaces the whole corpus with `state` and publishes it — the replica
  // bootstrap path (snapshot transfer / checkpoint load). The version may
  // jump forward arbitrarily; in-flight readers keep their old snapshot.
  // The representation may switch across a Restore. Returns the published
  // version. CHECK-aborts on an invalid image.
  std::uint64_t Restore(CorpusState state);

  // Only reader: servebench/serving.cc. A no-op: no scan prunes.
  void EnablePruning(const PruningIndex::Options&) {}

 private:
  SnapshotPtr Build() const;             // caller holds writer_mu_
  // Swaps `next` in as current_ and drops the previous snapshot after
  // releasing current_mu_, so freeing a large metric never stalls a
  // reader. Caller holds writer_mu_.
  void Publish(SnapshotPtr next);
  std::uint64_t RestoreLocked(CorpusState state);

  mutable std::mutex writer_mu_;
  // Master state, guarded by writer_mu_. The metric payload is shared
  // with published snapshots; mutating epochs copy it before writing.
  std::vector<double> weights_;
  MetricRepr repr_ = MetricRepr::kDense;
  std::shared_ptr<const DenseMetric> metric_;    // kDense only
  std::shared_ptr<const VectorMetric> vectors_;  // kVector only
  std::vector<char> alive_;
  double lambda_;
  std::uint64_t version_ = 0;

  // The published snapshot, guarded by current_mu_ alone; readers never
  // take writer_mu_.
  mutable std::mutex current_mu_;
  SnapshotPtr current_;
};

}  // namespace engine
}  // namespace diverse

#endif  // DIVERSE_ENGINE_CORPUS_H_
