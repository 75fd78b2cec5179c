#include "engine/execution_plan.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/distributed.h"
#include "algorithms/greedy_vertex.h"
#include "algorithms/knapsack_greedy.h"
#include "algorithms/local_search.h"
#include "algorithms/result.h"
#include "matroid/uniform_matroid.h"
#include "util/check.h"

namespace diverse {
namespace engine {
namespace {

// Per-id vector resized to the snapshot's id space: inserts that raced the
// request contribute 0, stale tail entries are dropped.
std::vector<double> FitToUniverse(std::vector<double> values, int n) {
  values.resize(n, 0.0);
  return values;
}

}  // namespace

ProblemView MakeProblemView(const CorpusSnapshot& snapshot,
                            std::vector<double> relevance, double lambda) {
  ProblemView view{nullptr, snapshot.problem()};
  if (!relevance.empty()) {
    view.relevance = std::make_unique<ModularFunction>(
        FitToUniverse(std::move(relevance), snapshot.universe_size()));
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
        // A client matroid built before an insert epoch covers fewer ids
        // than the snapshot: ids beyond its ground set are never picked.
        const UniformMatroid uniform(n, p);
        const Matroid& matroid =
            query.matroid != nullptr ? *query.matroid : uniform;
        const auto end = std::lower_bound(
            candidates.begin(), candidates.end(), matroid.ground_size());
        algo = LocalSearchOnCandidates(
            problem, matroid,
            std::span<const int>(candidates.begin(), end),
            LocalSearchOptions{});
        break;
      }
      case QueryAlgorithm::kKnapsack: {
        KnapsackOptions options;
        options.costs = FitToUniverse(query.costs, n);
        options.budget = query.budget;
        algo = KnapsackGreedyOnCandidates(problem, candidates, options);
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
