#include "algorithms/local_search.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/restricted_problem.h"
#include "core/solution_state.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {
namespace {

// Farthest-point pivot rows the pruned pair scan takes, 8 KB each at
// n = 1000. On the serving benchmark's swap_vector shape (n = 1000 in 10
// clusters, 64 dimensions, a partition of 10, lambda = 0.2) the sorted
// cell walk took 1.09 ms per scan with 12 pivots, 1.16-1.33 ms with 16 and
// 1.81-1.85 ms with 8 (4-core x86 host with AVX2, fastest of three per
// weighting over 300 weightings; the exhaustive scan takes 16-28 ms).
constexpr int kPairScanPivots = 12;
static_assert(kPairScanPivots % 4 == 0, "the pair bound takes four lanes");

// Relative slack of the pruning test. A pair is skipped only when
// ub + kBoundSlack * |ub| < best, strictly: the computed distances and f
// values sit within a few ulps of the exact ones, far inside 1e-9, so a
// skipped pair can neither beat nor tie the winner.
constexpr double kBoundSlack = 1e-9;

bool Prunable(double ub, double best) {
  return ub + kBoundSlack * std::abs(ub) < best;
}

// Every pair, in (i, j) order; ties keep the earliest pair. Empty when no
// pair is independent.
std::vector<int> ExhaustiveBestPair(const DiversificationProblem& problem,
                                    const Matroid& matroid) {
  const int n = problem.size();
  std::vector<int> best;
  double best_value = -1.0;
  std::vector<int> pair(2);
  for (pair[0] = 0; pair[0] < n; ++pair[0]) {
    for (pair[1] = pair[0] + 1; pair[1] < n; ++pair[1]) {
      if (!matroid.IsIndependent(pair)) continue;
      const double value = problem.Objective(pair);
      if (value > best_value) {
        best_value = value;
        best = pair;
      }
    }
  }
  return best;
}

// Farthest-point pivots and the cells they induce: each element belongs to
// the cell of its nearest pivot p_c. Slots index `order`, which groups the
// ids by cell and sorts each cell by descending
//
//   h(y) = f({y}) + lambda * d(p_c, y),
//
// ties by id, so a row's walk through a cell meets its partners in
// descending pivot bound. Each slot's distances to every pivot sit
// together in `dist`, so one pair's bound reads one short run.
struct PivotCells {
  std::vector<int> pivots;   // pivots[k] = p_k
  std::vector<int> order;    // ids by cell, by descending h within one
  std::vector<int> slot;     // slot[order[t]] = t
  std::vector<int> begin;    // cell c is order[begin[c] .. begin[c + 1])
  std::vector<double> f;     // f[t] = f({order[t]})
  std::vector<double> h;     // h[t] = h(order[t])
  // dist[t * kPairScanPivots + k] = d(p_k, order[t]); +inf for k >= size(),
  // which no minimum picks.
  std::vector<double> dist;

  int size() const { return static_cast<int>(pivots.size()); }
  // Slot t's distances to the pivots, p_k's at [k].
  const double* ToPivots(int t) const {
    return dist.data() + static_cast<std::size_t>(t) * kPairScanPivots;
  }
};

// Up to kPairScanPivots pivots, the first the element of largest f({x}),
// each next one the element farthest from all before it; one DistanceRow
// each.
PivotCells BuildPivotCells(const MetricSpace& metric,
                           const std::vector<double>& f, double lambda) {
  const int n = metric.size();
  const int max_pivots = std::min(kPairScanPivots, n);
  PivotCells cells;
  std::vector<double> rows(static_cast<std::size_t>(max_pivots) * n);
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  std::vector<int> cell_of(n, 0);
  int next = static_cast<int>(std::max_element(f.begin(), f.end()) -
                              f.begin());
  while (next >= 0 && cells.size() < max_pivots) {
    const int k = cells.size();
    const std::span<double> row(rows.data() + static_cast<std::size_t>(k) * n,
                                n);
    metric.DistanceRow(next, row);
    cells.pivots.push_back(next);
    next = -1;  // stays -1 when every element sits on a pivot
    double farthest = 0.0;
    for (int j = 0; j < n; ++j) {
      if (row[j] < nearest[j]) {
        nearest[j] = row[j];
        cell_of[j] = k;
      }
      if (nearest[j] > farthest) {
        farthest = nearest[j];
        next = j;
      }
    }
  }
  const int num_cells = cells.size();
  cells.begin.assign(num_cells + 1, 0);
  for (int j = 0; j < n; ++j) ++cells.begin[cell_of[j] + 1];
  std::partial_sum(cells.begin.begin(), cells.begin.end(),
                   cells.begin.begin());
  cells.order.resize(n);
  std::vector<int> fill(cells.begin.begin(), cells.begin.end() - 1);
  for (int j = 0; j < n; ++j) cells.order[fill[cell_of[j]]++] = j;
  // nearest[y] = d(p_c, y) for y in cell c.
  std::vector<double> key(n);
  for (int j = 0; j < n; ++j) key[j] = f[j] + lambda * nearest[j];
  for (int c = 0; c < num_cells; ++c) {
    std::sort(cells.order.begin() + cells.begin[c],
              cells.order.begin() + cells.begin[c + 1], [&](int a, int b) {
                return key[a] > key[b] || (key[a] == key[b] && a < b);
              });
  }
  cells.slot.resize(n);
  cells.f.resize(n);
  cells.h.resize(n);
  cells.dist.assign(static_cast<std::size_t>(n) * kPairScanPivots,
                    std::numeric_limits<double>::infinity());
  for (int t = 0; t < n; ++t) {
    const int j = cells.order[t];
    cells.slot[j] = t;
    cells.f[t] = f[j];
    cells.h[t] = key[j];
    for (int k = 0; k < num_cells; ++k) {
      cells.dist[static_cast<std::size_t>(t) * kPairScanPivots + k] =
          rows[static_cast<std::size_t>(k) * n + j];
    }
  }
  return cells;
}

// The exhaustive scan's pair by prune-then-verify, for metrics that obey
// the triangle inequality. f is normalized submodular, hence subadditive,
// so for any pivot p
//
//   phi({x, y}) <= f({x}) + f({y}) + lambda * (d(x, p) + d(p, y)).
//
// The pairs through each pivot seed the best. Then each row x walks every
// pivot cell c in descending h(y) order and stops at the first partner
// whose pivot-c bound f({x}) + lambda * d(x, p_c) + h(y) falls short: h
// only falls from there, so every later partner falls short too. A
// partner y > x met before the stop is bounded by the minimum over all
// pivots. Survivors get their exact d(x, y) in one DistancesTo call per
// row and are bounded again with it; only pairs still in reach pay the
// matroid oracle and the exact problem.Objective(pair). A pair replaces
// the best when its value is greater, or equal and earlier in (i, j)
// order, so the winner is the exhaustive scan's pair with the same value
// bits.
std::vector<int> PrunedBestPair(const DiversificationProblem& problem,
                                const Matroid& matroid) {
  const int n = problem.size();
  if (n < 2) return {};
  const double lambda = problem.lambda();

  // Singletons: f({x}) for the bounds, and whether {x} is independent (a
  // pair is then independent iff CanAdd({x}, y)).
  std::vector<double> f(n);
  std::vector<std::uint8_t> independent(n);
  {
    const auto eval = problem.quality().MakeEvaluator();
    for (int i = 0; i < n; ++i) {
      f[i] = eval->Gain(i);
      independent[i] = matroid.CanAdd({}, i);
    }
  }
  const PivotCells cells = BuildPivotCells(problem.metric(), f, lambda);
  const int num_cells = cells.size();

  // -1.0 and the strict tests mirror the exhaustive scan's start.
  double best = -1.0;
  int best_i = -1;
  int best_j = -1;
  std::vector<int> pair(2);
  const auto consider = [&](int i, int j) {  // i < j
    if (!independent[i] || !matroid.CanAdd(std::span<const int>(&i, 1), j)) {
      return;
    }
    pair[0] = i;
    pair[1] = j;
    const double value = problem.Objective(pair);
    if (value > best ||
        (value == best && best_i >= 0 &&
         (i < best_i || (i == best_i && j < best_j)))) {
      best = value;
      best_i = i;
      best_j = j;
    }
  };

  // Seeds: the pairs through each pivot, whose bound uses the exact
  // d(p, y), verified in descending-bound order until the rest of that
  // pivot's pairs are prunable. best only rises, so a pair prunable when
  // its pivot's heap is filled stays out of it.
  struct Seed {
    double ub;
    int j;
    bool operator<(const Seed& other) const { return ub < other.ub; }
  };
  std::vector<Seed> seeds;
  seeds.reserve(n);
  for (int k = 0; k < num_cells; ++k) {
    const int p = cells.pivots[k];
    seeds.clear();
    for (int t = 0; t < n; ++t) {
      const int j = cells.order[t];
      if (j == p) continue;
      const double ub = f[p] + cells.f[t] + lambda * cells.ToPivots(t)[k];
      if (!Prunable(ub, best)) seeds.push_back({ub, j});
    }
    std::make_heap(seeds.begin(), seeds.end());
    while (!seeds.empty() && !Prunable(seeds.front().ub, best)) {
      const int j = seeds.front().j;
      consider(std::min(p, j), std::max(p, j));
      std::pop_heap(seeds.begin(), seeds.end());
      seeds.pop_back();
    }
  }

  // Every row x against its partners after it, by the sorted cell walk.
  std::vector<int> survivors(n);
  std::vector<double> survivor_dist(n);
  for (int i = 0; i + 1 < n; ++i) {
    if (!independent[i]) continue;
    const double* to_pivot = cells.ToPivots(cells.slot[i]);
    const double fx = f[i];
    int count = 0;
    for (int c = 0; c < num_cells; ++c) {
      const double from_x = fx + lambda * to_pivot[c];
      for (int t = cells.begin[c]; t < cells.begin[c + 1]; ++t) {
        if (Prunable(from_x + cells.h[t], best)) break;
        const int j = cells.order[t];
        if (j <= i) continue;
        // f({x}) + f({y}) + lambda * min_k (d(x, p_k) + d(p_k, y)), the
        // minimum taken in four running lanes: min is exact, so the
        // grouping leaves the bound's bits alone.
        const double* to_y = cells.ToPivots(t);
        double via[4];
        for (int k = 0; k < 4; ++k) via[k] = to_pivot[k] + to_y[k];
        for (int k = 4; k < kPairScanPivots; ++k) {
          via[k % 4] = std::min(via[k % 4], to_pivot[k] + to_y[k]);
        }
        const double shortest =
            std::min(std::min(via[0], via[1]), std::min(via[2], via[3]));
        survivors[count] = j;  // kept only when still in reach
        count += !Prunable(fx + cells.f[t] + lambda * shortest, best);
      }
    }
    problem.metric().DistancesTo(
        i, std::span<const int>(survivors.data(), count),
        std::span<double>(survivor_dist.data(), count));
    for (int s = 0; s < count; ++s) {
      const int j = survivors[s];
      if (!Prunable(fx + f[j] + lambda * survivor_dist[s], best)) {
        consider(i, j);
      }
    }
  }
  if (best_i < 0) return {};
  return {best_i, best_j};
}

// Best independent singleton, for matroids of rank < 2.
std::vector<int> BestIndependentSingleton(
    const DiversificationProblem& problem, const Matroid& matroid) {
  std::vector<int> best;
  double best_value = -1.0;
  std::vector<int> single(1);
  for (single[0] = 0; single[0] < problem.size(); ++single[0]) {
    if (!matroid.IsIndependent(single)) continue;
    const double value = problem.Objective(single);
    if (best.empty() || value > best_value) {
      best_value = value;
      best = single;
    }
  }
  return best;
}

// The paper's initialization: the best independent pair, else the best
// independent singleton.
std::vector<int> BestPair(const DiversificationProblem& problem,
                          const Matroid& matroid) {
  std::vector<int> best = problem.metric().ObeysTriangleInequality()
                              ? PrunedBestPair(problem, matroid)
                              : ExhaustiveBestPair(problem, matroid);
  if (best.empty()) best = BestIndependentSingleton(problem, matroid);
  return best;
}

// Extends `state` to a basis of `matroid`, adding each pick by add(e). An
// element that cannot join S cannot join any superset of S, so each round
// tests only the elements the previous round found feasible, and the
// arbitrary completion's single pass adds each element the moment it fits
// (every element before it was rejected for a subset of the members).
template <typename AddFn>
void CompleteToBasis(const Matroid& matroid, bool greedy,
                     const SolutionState& state, const AddFn& add) {
  if (!greedy) {
    for (int e = 0; e < state.universe_size(); ++e) {
      if (!state.Contains(e) && matroid.CanAdd(state.members(), e)) add(e);
    }
    return;
  }
  std::vector<int> feasible;
  feasible.reserve(state.universe_size());
  for (int e = 0; e < state.universe_size(); ++e) {
    if (!state.Contains(e)) feasible.push_back(e);
  }
  while (true) {
    std::erase_if(feasible, [&](int e) {
      return state.Contains(e) || !matroid.CanAdd(state.members(), e);
    });
    const int pick = state.BestAddOver(feasible).element;
    if (pick < 0) break;
    add(pick);
  }
}

// One candidate exchange surfaced by the batched swap scan.
struct SwapCandidate {
  double gain;
  int out_rank;  // position of `out` in the scanned member order
  int in;
};

}  // namespace

std::vector<int> BestIndependentPair(const DiversificationProblem& problem,
                                     const Matroid& matroid,
                                     std::span<const int> candidates) {
  const RestrictedProblem local = Restrict(problem, candidates, &matroid);
  return local.ToGlobal(BestPair(local.problem(), local.matroid()));
}

AlgorithmResult LocalSearch(const DiversificationProblem& problem,
                            const Matroid& matroid,
                            const LocalSearchOptions& options) {
  DIVERSE_CHECK_MSG(matroid.ground_size() == problem.size(),
                    "matroid and problem ground sets differ");
  WallTimer timer;
  AlgorithmResult result;
  SolutionState state(&problem);
  const MetricSpace& metric = problem.metric();
  const int n = problem.size();

  // d(m, .) for every member m, in state.members() order, read once when m
  // joins and handed to the state. SolutionState's Swap erases `out` in
  // place and appends `in`, so an accepted swap moves out's row to the
  // back and refills it with in's: one row per swap.
  std::vector<std::vector<double>> member_rows;
  const auto add = [&](int v) {
    member_rows.emplace_back(n);
    metric.DistanceRow(v, member_rows.back());
    state.Add(v, member_rows.back());
  };
  if (options.initial.empty()) {
    for (int v : BestPair(problem, matroid)) add(v);
  } else {
    DIVERSE_CHECK_MSG(matroid.IsIndependent(options.initial),
                      "initial set must be independent");
    for (int v : options.initial) add(v);
  }
  CompleteToBasis(matroid, options.greedy_completion, state, add);

  const std::span<const int> universe = state.Universe();
  std::vector<double> gains(n);
  std::vector<double> in_row(n);
  std::vector<SwapCandidate> swaps;
  while (options.max_swaps < 0 || result.steps < options.max_swaps) {
    if (options.time_limit_seconds > 0.0 &&
        timer.Seconds() >= options.time_limit_seconds) {
      break;
    }
    const double threshold =
        options.epsilon * std::max(std::abs(state.objective()), 1.0);
    const std::vector<int>& members = state.members();
    // Batch-score every exchange, then test the (expensive) matroid oracle
    // in descending-gain order: the first feasible candidate is the best
    // feasible exchange, matching the scalar scan's result.
    swaps.clear();
    for (int rank = 0; rank < static_cast<int>(members.size()); ++rank) {
      state.ScoreSwapsFor(members[rank], universe, gains, member_rows[rank]);
      for (int in = 0; in < n; ++in) {
        const double gain = gains[in];
        if (gain <= threshold || gain <= 1e-12) continue;
        swaps.push_back({gain, rank, in});
      }
    }
    std::sort(swaps.begin(), swaps.end(),
              [](const SwapCandidate& a, const SwapCandidate& b) {
                if (a.gain != b.gain) return a.gain > b.gain;
                if (a.out_rank != b.out_rank) return a.out_rank < b.out_rank;
                return a.in < b.in;
              });
    const SwapCandidate* best = nullptr;
    for (const SwapCandidate& c : swaps) {
      if (!matroid.CanExchange(members, members[c.out_rank], c.in)) continue;
      best = &c;
      break;
    }
    if (best == nullptr) break;  // local optimum
    const int out_rank = best->out_rank;
    metric.DistanceRow(best->in, in_row);
    state.Swap(members[out_rank], best->in, member_rows[out_rank], in_row);
    std::rotate(member_rows.begin() + out_rank,
                member_rows.begin() + out_rank + 1, member_rows.end());
    member_rows.back().swap(in_row);  // out's row becomes the spare
    ++result.steps;
  }

  result.elements = state.SortedMembers();
  result.objective = state.objective();
  result.elapsed_seconds = timer.Seconds();
  return result;
}

AlgorithmResult LocalSearchOnCandidates(const DiversificationProblem& problem,
                                        const Matroid& matroid,
                                        std::span<const int> candidates,
                                        const LocalSearchOptions& options) {
  WallTimer timer;
  const RestrictedProblem local = Restrict(problem, candidates, &matroid);
  LocalSearchOptions local_options = options;
  local_options.initial = local.ToLocal(options.initial);
  AlgorithmResult result =
      LocalSearch(local.problem(), local.matroid(), local_options);
  result.elements = local.ToGlobal(result.elements);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace diverse
