#include "engine/execution_plan.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "algorithms/distributed.h"
#include "algorithms/knapsack_greedy.h"
#include "algorithms/local_search.h"
#include "algorithms/result.h"
#include "matroid/uniform_matroid.h"
#include "util/check.h"

namespace diverse {
namespace engine {
namespace {

// Restriction of a matroid to the snapshot's live ids: a set is
// independent iff it avoids retired ids and is independent in the inner
// matroid. Keeps full-universe algorithms (local search) from ever
// touching an erased element.
class LiveMatroid : public Matroid {
 public:
  LiveMatroid(const Matroid* inner, const CorpusSnapshot* snapshot)
      : inner_(inner), snapshot_(snapshot) {}

  int ground_size() const override { return inner_->ground_size(); }

  bool IsIndependent(std::span<const int> set) const override {
    for (int e : set) {
      if (!snapshot_->alive(e)) return false;
    }
    return inner_->IsIndependent(set);
  }

  int rank() const override {
    return std::min(inner_->rank(),
                    static_cast<int>(snapshot_->candidates().size()));
  }

  bool CanAdd(std::span<const int> set, int e) const override {
    return snapshot_->alive(e) && inner_->CanAdd(set, e);
  }

  bool CanExchange(std::span<const int> set, int out, int in) const override {
    return snapshot_->alive(in) && inner_->CanExchange(set, out, in);
  }

 private:
  const Matroid* inner_;
  const CorpusSnapshot* snapshot_;
};

// Adapts a client matroid built for a different id-space size to the
// snapshot's: ids outside the inner matroid's ground set (inserts that
// raced the request) are simply infeasible, mirroring how relevance and
// costs treat them. Without this, a racing insert epoch would trip
// LocalSearch's ground-size CHECK on a worker thread.
class BoundedMatroid : public Matroid {
 public:
  BoundedMatroid(const Matroid* inner, int ground_size)
      : inner_(inner), n_(ground_size) {}

  int ground_size() const override { return n_; }

  bool IsIndependent(std::span<const int> set) const override {
    for (int e : set) {
      if (e >= inner_->ground_size()) return false;
    }
    return inner_->IsIndependent(set);
  }

  int rank() const override { return std::min(inner_->rank(), n_); }

  bool CanAdd(std::span<const int> set, int e) const override {
    return e < inner_->ground_size() && inner_->CanAdd(set, e);
  }

  bool CanExchange(std::span<const int> set, int out, int in) const override {
    return in < inner_->ground_size() &&
           inner_->CanExchange(set, out, in);
  }

 private:
  const Matroid* inner_;
  int n_;
};

// Per-id vector resized to the snapshot's id space: inserts that raced the
// request contribute `fill`, stale tail entries are dropped.
std::vector<double> FitToUniverse(const std::vector<double>& values, int n,
                                  double fill) {
  std::vector<double> fitted(values.begin(),
                             values.begin() +
                                 std::min<std::size_t>(values.size(), n));
  fitted.resize(n, fill);
  return fitted;
}

}  // namespace

ProblemView MakeProblemView(const CorpusSnapshot& snapshot,
                            const std::vector<double>& relevance,
                            double lambda) {
  ProblemView view{nullptr, snapshot.problem()};
  if (!relevance.empty()) {
    view.relevance = std::make_unique<ModularFunction>(
        FitToUniverse(relevance, snapshot.universe_size(), 0.0));
    view.problem = view.problem.WithQuality(view.relevance.get());
  }
  if (lambda >= 0.0) view.problem = view.problem.WithLambda(lambda);
  return view;
}

QueryResult ExecuteQuery(const CorpusSnapshot& snapshot, const Query& query,
                         const PlanDefaults& defaults) {
  DIVERSE_CHECK_MSG(query.p >= 0, "query.p must be non-negative");
  const int n = snapshot.universe_size();
  const std::vector<int>& candidates = snapshot.candidates();
  const int p = std::min<int>(query.p, static_cast<int>(candidates.size()));

  if (query.plan == PlanKind::kRemoteSharded) {
    DIVERSE_CHECK_MSG(query.algorithm == QueryAlgorithm::kGreedy,
                      "sharded plan supports the greedy kernel only");
    DIVERSE_CHECK_MSG(defaults.remote != nullptr,
                      "remote sharded plan needs a configured RemoteExecutor");
    const int shards =
        query.num_shards > 0 ? query.num_shards : defaults.num_shards;
    return defaults.remote->ExecuteSharded(snapshot, query, shards);
  }

  // Per-query problem view over the shared snapshot (core snapshot hooks).
  const ProblemView view =
      MakeProblemView(snapshot, query.relevance, query.lambda);
  const DiversificationProblem& problem = view.problem;

  AlgorithmResult algo;
  if (query.plan == PlanKind::kSharded) {
    DIVERSE_CHECK_MSG(query.algorithm == QueryAlgorithm::kGreedy,
                      "sharded plan supports the greedy kernel only");
    const int shards =
        query.num_shards > 0 ? query.num_shards : defaults.num_shards;
    algo = ShardedGreedy(problem, candidates, p, shards, query.per_shard,
                         query.shard_salt);
  } else {
    switch (query.algorithm) {
      case QueryAlgorithm::kGreedy:
        algo = GreedyVertexOnCandidates(problem, candidates, p);
        break;
      case QueryAlgorithm::kLocalSearch: {
        std::optional<UniformMatroid> uniform;
        const Matroid* constraint = query.matroid;
        if (constraint == nullptr) {
          uniform.emplace(n, p);
          constraint = &*uniform;
        }
        std::optional<BoundedMatroid> bounded;
        if (constraint->ground_size() != n) {
          bounded.emplace(constraint, n);
          constraint = &*bounded;
        }
        std::optional<LiveMatroid> live;
        if (snapshot.has_retired()) {
          live.emplace(constraint, &snapshot);
          constraint = &*live;
        }
        algo = LocalSearch(problem, *constraint, LocalSearchOptions{});
        break;
      }
      case QueryAlgorithm::kKnapsack: {
        KnapsackOptions options;
        options.costs = FitToUniverse(query.costs, n, 0.0);
        options.budget = query.budget;
        // Retired ids are masked by an infinite cost: infeasible both as
        // enumeration seeds and for the density completion (budget + 1.0
        // would round back to budget for budgets beyond 2^53).
        for (int id = 0; id < n; ++id) {
          if (!snapshot.alive(id)) {
            options.costs[id] = std::numeric_limits<double>::infinity();
          }
        }
        algo = KnapsackGreedy(problem, options);
        break;
      }
    }
  }

  QueryResult result;
  result.elements = std::move(algo.elements);
  result.objective = algo.objective;
  result.corpus_version = snapshot.version();
  result.latency_seconds = algo.elapsed_seconds;
  result.steps = algo.steps;
  return result;
}

}  // namespace engine
}  // namespace diverse
