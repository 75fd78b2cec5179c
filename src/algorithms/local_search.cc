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
// clusters, 64 dimensions, a partition of 10, lambda = 0.2) the scan with
// Ptolemy's bound took a median 0.32-0.35 ms with 12 pivots, 0.39-0.54 ms
// with 16 and 0.74-0.85 ms with 8, where cells span two clusters and ~21k
// pairs reach an exact distance instead of ~50 (4-core x86 host with AVX2,
// fastest of three calls per weighting over 200 weightings; the
// exhaustive scan takes 16-28 ms).
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
  std::vector<int> begin;    // cell c is order[begin[c] .. begin[c + 1])
  std::vector<double> f;     // f[t] = f({order[t]})
  std::vector<double> h;     // h[t] = h(order[t])
  // dist[t * kPairScanPivots + k] = d(p_k, order[t]); +inf for k >= size(),
  // which no minimum picks.
  std::vector<double> dist;
  // inv_gap[a * kPairScanPivots + b] = 1 / d(p_a, p_b), for Ptolemy's
  // bound. A pivot is taken only at a positive distance from all before
  // it, so the entries with a != b are finite, or +inf for a subnormal
  // gap: a bound that comes out +inf or NaN never prunes.
  std::vector<double> inv_gap;

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
  // Each cell's (h, id) entries by descending h, ties by id; nearest[y] =
  // d(p_c, y) for y in cell c.
  struct Entry {
    double h;
    int id;
  };
  std::vector<Entry> entries(n);
  std::vector<int> fill(cells.begin.begin(), cells.begin.end() - 1);
  for (int j = 0; j < n; ++j) {
    entries[fill[cell_of[j]]++] = {f[j] + lambda * nearest[j], j};
  }
  for (int c = 0; c < num_cells; ++c) {
    std::sort(entries.begin() + cells.begin[c],
              entries.begin() + cells.begin[c + 1],
              [](const Entry& a, const Entry& b) {
                return a.h > b.h || (a.h == b.h && a.id < b.id);
              });
  }
  cells.order.resize(n);
  cells.f.resize(n);
  cells.h.resize(n);
  cells.dist.assign(static_cast<std::size_t>(n) * kPairScanPivots,
                    std::numeric_limits<double>::infinity());
  for (int t = 0; t < n; ++t) {
    const int j = entries[t].id;
    cells.order[t] = j;
    cells.f[t] = f[j];
    cells.h[t] = entries[t].h;
    for (int k = 0; k < num_cells; ++k) {
      cells.dist[static_cast<std::size_t>(t) * kPairScanPivots + k] =
          rows[static_cast<std::size_t>(k) * n + j];
    }
  }
  cells.inv_gap.resize(kPairScanPivots * kPairScanPivots);
  for (int a = 0; a < num_cells; ++a) {
    for (int b = 0; b < num_cells; ++b) {
      cells.inv_gap[a * kPairScanPivots + b] =
          1.0 / rows[static_cast<std::size_t>(a) * n + cells.pivots[b]];
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
// The pairs through each pivot seed the best. Then each row x, in slot
// order, walks the rest of its own cell and every later cell c in
// descending h(y) order, so each pair is met once, and stops at the first
// partner whose pivot-c bound f({x}) + lambda * d(x, p_c) + h(y) falls
// short: h only falls from there, so every later partner falls short too.
// A partner met before the stop is bounded by the minimum over all
// pivots. When the metric also obeys Ptolemy's inequality, a partner in a
// cell other than x's own is first bounded through p = p_c and x's own
// pivot q:
//
//   d(x, y) <= (d(x, p) * d(y, q) + d(x, q) * d(y, p)) / d(p, q),
//
// which on clustered data is far tighter than the triangle bound (the
// latter overshoots by about two cell radii). Survivors get their exact
// d(x, y) in one DistancesTo call per row and are bounded again with it;
// only pairs still in reach pay the matroid oracle and the exact
// problem.Objective(pair). A pair replaces the best when its value is
// greater, or equal and earlier in (i, j) order, so the winner is the
// exhaustive scan's pair with the same value bits.
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
  const bool ptolemaic = problem.metric().ObeysPtolemyInequality();

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

  // Each row x, in slot order, against the partners in later slots: the
  // rest of its own cell (home) and every later cell. Every pair is met
  // once, from the row of its earlier slot, and `consider` takes it in
  // (i, j) order; its tie rule does not depend on the order pairs are met
  // in. Slot order also meets the rows of large h first, which raises the
  // best early.
  std::vector<int> survivors(n);
  std::vector<double> survivor_dist(n);
  for (int home = 0; home < num_cells; ++home) {  // q = p_home
    for (int slot_x = cells.begin[home]; slot_x < cells.begin[home + 1];
         ++slot_x) {
      const int i = cells.order[slot_x];
      if (!independent[i]) continue;
      const double* to_pivot = cells.ToPivots(slot_x);
      const double fx = f[i];
      int count = 0;
      for (int c = home; c < num_cells; ++c) {
        const double from_x = fx + lambda * to_pivot[c];
        // Ptolemy's bound with p = p_c, as d(x, y) <= to_q * d(y, q) +
        // to_p * d(y, p). Each computed distance sits within a relative
        // ~(dim + 2) ulps of the exact one (a sum of squares, then a
        // square root, for distances above ~1e-154, whose squared sums
        // stay normal doubles), and each of the bound's two terms takes
        // four relative roundings of its own (the reciprocal, two
        // products, the sum). Every part of the bound is non-negative, so
        // it sits within ~1e-14 of exact, relative to itself, for dim =
        // 64: far inside kBoundSlack, even where the inequality holds with
        // equality (concyclic points) and the computed bound lands ulps
        // below the computed distance. Pairs within x's own cell (p = q)
        // keep the triangle bound alone.
        const bool ptolemy = ptolemaic && c != home;
        double to_q = 0.0;
        double to_p = 0.0;
        if (ptolemy) {
          const double inv = cells.inv_gap[home * kPairScanPivots + c];
          to_q = to_pivot[c] * inv;     // d(x, p) / d(p, q)
          to_p = to_pivot[home] * inv;  // d(x, q) / d(p, q)
        }
        for (int t = c == home ? slot_x + 1 : cells.begin[c];
             t < cells.begin[c + 1]; ++t) {
          if (Prunable(from_x + cells.h[t], best)) break;
          const double* to_y = cells.ToPivots(t);
          const double fxy = fx + cells.f[t];
          if (ptolemy &&
              Prunable(fxy + lambda * (to_q * to_y[home] + to_p * to_y[c]),
                       best)) {
            continue;
          }
          // f({x}) + f({y}) + lambda * min_k (d(x, p_k) + d(p_k, y)), the
          // minimum taken in four running lanes: min is exact, so the
          // grouping leaves the bound's bits alone.
          double via[4];
          for (int k = 0; k < 4; ++k) via[k] = to_pivot[k] + to_y[k];
          for (int k = 4; k < kPairScanPivots; ++k) {
            via[k % 4] = std::min(via[k % 4], to_pivot[k] + to_y[k]);
          }
          const double shortest =
              std::min(std::min(via[0], via[1]), std::min(via[2], via[3]));
          survivors[count] = cells.order[t];  // kept only when in reach
          count += !Prunable(fxy + lambda * shortest, best);
        }
      }
      problem.metric().DistancesTo(
          i, std::span<const int>(survivors.data(), count),
          std::span<double>(survivor_dist.data(), count));
      for (int s = 0; s < count; ++s) {
        const int j = survivors[s];
        if (!Prunable(fx + f[j] + lambda * survivor_dist[s], best)) {
          consider(std::min(i, j), std::max(i, j));
        }
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
