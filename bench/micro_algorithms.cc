// Micro-benchmarks (google-benchmark) for the per-operation costs that
// determine the experiment-scale running times: greedy steps, swap-gain
// evaluation, evaluator updates, and the exact solver.
//
// In addition to the google-benchmark suite, main() times the incremental
// evaluation path (SolutionState and its batched scans) against the
// from-scratch DiversificationProblem::Objective path for greedy and
// local search at n >= 2000, and the pruned best-pair scan that starts
// matroid local search against the exhaustive scan on the serving
// benchmark's swap_vector shape (record local_search_init: speedup and
// bit_equal), and GreedyVertex's one-pass steps against a per-candidate
// PrimeGain loop on the greedy_dense shape (record greedy_scan:
// scan_speedup and bit_equal), and writes the timings (and speedups) to
// BENCH_micro_algorithms.json. The comparison runs before the
// google-benchmark suite, and local_search_init first within it. Pass
// --compare_only to skip the google-benchmark suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "algorithms/brute_force.h"
#include "algorithms/greedy_edge.h"
#include "algorithms/greedy_vertex.h"
#include "algorithms/local_search.h"
#include "bench_json.h"
#include "core/solution_state.h"
#include "data/synthetic.h"
#include "matroid/partition_matroid.h"
#include "matroid/uniform_matroid.h"
#include "metric/vector_metric.h"
#include "submodular/coverage_function.h"
#include "submodular/modular_function.h"
#include "util/random.h"
#include "util/timer.h"

namespace diverse {
namespace {

struct Shared {
  Dataset data;
  ModularFunction weights;
  DiversificationProblem problem;

  Shared(int n, double lambda, std::uint64_t /*seed*/, Rng&& rng)
      : data(MakeUniformSynthetic(n, rng)),
        weights(data.weights),
        problem(&data.metric, &weights, lambda) {}
  Shared(int n, double lambda = 0.2, std::uint64_t seed = 1)
      : Shared(n, lambda, seed, Rng(seed)) {}
};

void BM_GreedyVertex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int p = static_cast<int>(state.range(1));
  Shared shared(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyVertex(shared.problem, {.p = p}));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GreedyVertex)
    ->Args({100, 10})
    ->Args({200, 10})
    ->Args({400, 10})
    ->Args({400, 40})
    ->Complexity(benchmark::oN);

void BM_GreedyEdge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int p = static_cast<int>(state.range(1));
  Shared shared(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GreedyEdge(shared.problem, shared.weights, {.p = p}));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GreedyEdge)
    ->Args({100, 10})
    ->Args({200, 10})
    ->Args({400, 10})
    ->Complexity(benchmark::oNSquared);

void BM_SolutionStateAdd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Shared shared(n);
  SolutionState solution(&shared.problem);
  int v = 0;
  for (auto _ : state) {
    solution.Add(v);
    solution.Remove(v);
    v = (v + 1) % n;
  }
}
BENCHMARK(BM_SolutionStateAdd)->Arg(100)->Arg(1000)->Arg(4000);

void BM_SwapGain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Shared shared(n);
  SolutionState solution(&shared.problem);
  for (int v = 0; v < 20; ++v) solution.Add(v);
  int in = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solution.SwapGain(5, in));
    in = 20 + (in - 19) % (n - 20);
  }
}
BENCHMARK(BM_SwapGain)->Arg(100)->Arg(1000);

void BM_LocalSearchFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int p = 10;
  Shared shared(n);
  const UniformMatroid matroid(n, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocalSearch(shared.problem, matroid, {}));
  }
}
BENCHMARK(BM_LocalSearchFull)->Arg(60)->Arg(120);

void BM_BruteForce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int p = static_cast<int>(state.range(1));
  Shared shared(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BruteForceCardinality(shared.problem, {.p = p}));
  }
}
BENCHMARK(BM_BruteForce)->Args({20, 5})->Args({30, 5})->Args({40, 4});

void BM_CoverageEvaluatorGain(benchmark::State& state) {
  Rng rng(3);
  const int n = 500;
  std::vector<std::vector<int>> covers(n);
  for (auto& cv : covers) {
    cv = rng.SampleWithoutReplacement(50, rng.UniformInt(3, 10));
  }
  const CoverageFunction fn(covers, std::vector<double>(50, 1.0));
  auto eval = fn.MakeEvaluator();
  for (int v = 0; v < 50; ++v) eval->Add(v);
  int u = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval->Gain(u));
    u = 50 + (u - 49) % (n - 50);
  }
}
BENCHMARK(BM_CoverageEvaluatorGain);

// ---- Incremental vs from-scratch evaluation comparison --------------------

// Greedy B with every candidate potential evaluated from scratch:
// 1/2 [f(S+u) - f(S)] + lambda [d(S+u) - d(S)], each term via a full
// O(|S|^2) DiversificationProblem evaluation. This is the path the
// incremental subsystem replaces; kept here as the timing baseline.
AlgorithmResult ScratchGreedyVertex(const DiversificationProblem& problem,
                                    int p) {
  const int n = problem.size();
  AlgorithmResult result;
  std::vector<int> members;
  while (static_cast<int>(members.size()) < p) {
    const double f_base = problem.quality().Value(members);
    const double d_base = problem.DispersionTerm(members);
    int best = -1;
    double best_gain = 0.0;
    std::vector<int> extended = members;
    extended.push_back(-1);
    for (int u = 0; u < n; ++u) {
      if (std::find(members.begin(), members.end(), u) != members.end()) {
        continue;
      }
      extended.back() = u;
      const double gain =
          0.5 * (problem.quality().Value(extended) - f_base) +
          (problem.DispersionTerm(extended) - d_base);
      if (best < 0 || gain > best_gain) {
        best = u;
        best_gain = gain;
      }
    }
    members.push_back(best);
    ++result.steps;
  }
  result.elements = members;
  result.objective = problem.Objective(members);
  return result;
}

// Best-improvement single swaps with every gain evaluated from scratch.
AlgorithmResult ScratchLocalSearch(const DiversificationProblem& problem,
                                   std::vector<int> members,
                                   long long max_swaps) {
  const int n = problem.size();
  AlgorithmResult result;
  while (result.steps < max_swaps) {
    const double base = problem.Objective(members);
    int best_pos = -1;
    int best_in = -1;
    double best_gain = 0.0;
    std::vector<int> swapped = members;
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      for (int in = 0; in < n; ++in) {
        if (std::find(members.begin(), members.end(), in) != members.end()) {
          continue;
        }
        swapped[pos] = in;
        const double gain = problem.Objective(swapped) - base;
        if (gain > best_gain && gain > 1e-12) {
          best_gain = gain;
          best_pos = static_cast<int>(pos);
          best_in = in;
        }
      }
      swapped[pos] = members[pos];
    }
    if (best_pos < 0) break;
    members[best_pos] = best_in;
    ++result.steps;
  }
  std::sort(members.begin(), members.end());
  result.elements = members;
  result.objective = problem.Objective(members);
  return result;
}

// The minimum wall time of three calls of `run`.
template <typename Run>
double FastestOfThree(Run&& run) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    run();
    const double seconds = timer.Seconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

// Forwards every query to `base` but does not declare the triangle
// inequality, so BestIndependentPair runs its exhaustive scan: the
// reference the pruned scan must match pair for pair and bit for bit.
// (The forwarding adds one virtual hop per distance to the reference.)
class UndeclaredMetric : public MetricSpace {
 public:
  explicit UndeclaredMetric(const MetricSpace* base) : base_(base) {}
  int size() const override { return base_->size(); }
  double Distance(int u, int v) const override {
    return base_->Distance(u, v);
  }
  void DistanceRow(int u, std::span<double> row) const override {
    base_->DistanceRow(u, row);
  }
  void DistancesTo(int u, std::span<const int> ids,
                   std::span<double> out) const override {
    base_->DistancesTo(u, ids, out);
  }

 private:
  const MetricSpace* base_;
};

// Local search's initial pair on the swap_vector shape: n = 1000 vectors
// in 64 dimensions around 10 cluster centres ~ U[0, 10]^64 (N(0, 0.4)
// noise), a partition matroid of 10 blocks (id mod 10) of capacity 1,
// lambda = 0.2 and one U[0, 1] modular weighting per query. Each scan is
// timed as the minimum of three calls; bit_equal also requires the whole
// LocalSearchOnCandidates answer (elements, objective bits, swaps) to
// match between the two metrics.
void RunLocalSearchInit(bench::BenchJson& json) {
  const int n = 1000;
  const int dim = 64;
  const int clusters = 10;
  const int weightings = 8;
  const double lambda = 0.2;
  Rng rng(2012);
  std::vector<std::vector<double>> centres(clusters,
                                           std::vector<double>(dim));
  for (auto& centre : centres) {
    for (double& x : centre) x = rng.Uniform(0.0, 10.0);
  }
  std::vector<double> rows;
  rows.reserve(static_cast<std::size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    for (double c : centres[i % clusters]) {
      rows.push_back(c + rng.Gaussian(0.0, 0.4));
    }
  }
  const VectorMetric metric = VectorMetric::FromRows(dim, std::move(rows));
  const UndeclaredMetric reference(&metric);
  std::vector<int> block_of(n);
  for (int id = 0; id < n; ++id) block_of[id] = id % clusters;
  const PartitionMatroid matroid(block_of, std::vector<int>(clusters, 1));
  std::vector<int> candidates(n);
  std::iota(candidates.begin(), candidates.end(), 0);

  double pruned_s = 0.0;
  double exhaustive_s = 0.0;
  bool bit_equal = true;
  for (int w = 0; w < weightings; ++w) {
    std::vector<double> relevance(n);
    for (double& r : relevance) r = rng.Uniform(0.0, 1.0);
    const ModularFunction weights(relevance);
    const DiversificationProblem pruned(&metric, &weights, lambda);
    const DiversificationProblem exhaustive(&reference, &weights, lambda);
    std::vector<int> pruned_pair;
    std::vector<int> exhaustive_pair;
    pruned_s += FastestOfThree([&] {
      pruned_pair = BestIndependentPair(pruned, matroid, candidates);
    });
    exhaustive_s += FastestOfThree([&] {
      exhaustive_pair = BestIndependentPair(exhaustive, matroid, candidates);
    });
    const AlgorithmResult pruned_ls =
        LocalSearchOnCandidates(pruned, matroid, candidates, {});
    const AlgorithmResult exhaustive_ls =
        LocalSearchOnCandidates(exhaustive, matroid, candidates, {});
    bit_equal = bit_equal && pruned_pair == exhaustive_pair &&
                pruned.Objective(pruned_pair) ==
                    exhaustive.Objective(exhaustive_pair) &&
                pruned_ls.elements == exhaustive_ls.elements &&
                pruned_ls.objective == exhaustive_ls.objective &&
                pruned_ls.steps == exhaustive_ls.steps;
  }
  if (!bit_equal) {
    std::cerr << "warning: pruned and exhaustive pair scans disagree\n";
  }
  const double speedup = exhaustive_s / std::max(pruned_s, 1e-12);
  json.NewRecord("local_search_init")
      .Add("n", static_cast<long long>(n))
      .Add("dim", static_cast<long long>(dim))
      .Add("weightings", static_cast<long long>(weightings))
      .Add("pruned_seconds", pruned_s / weightings)
      .Add("exhaustive_seconds", exhaustive_s / weightings)
      .Add("speedup", speedup)
      .Add("bit_equal", static_cast<long long>(bit_equal ? 1 : 0));
  std::cout << "  local_search_init n=" << n << ": exhaustive "
            << exhaustive_s / weightings << "s, pruned "
            << pruned_s / weightings << "s (" << speedup << "x, bit_equal "
            << (bit_equal ? "yes" : "NO") << ")\n";
}

// Greedy B with the scan GreedyVertex ran before its fused step: Add, then
// one PrimeGain call (a virtual Gain() query) per candidate in a second
// pass over U. Same gains and tie rule, so the same answer bit for bit.
AlgorithmResult PerCandidateGreedy(const DiversificationProblem& problem,
                                   int p) {
  const int n = problem.size();
  SolutionState state(&problem);
  AlgorithmResult result;
  while (state.size() < p) {
    int best = -1;
    double best_gain = 0.0;
    for (int u = 0; u < n; ++u) {
      if (state.Contains(u)) continue;
      const double gain = state.PrimeGain(u);
      if (best < 0 || gain > best_gain) {
        best = u;
        best_gain = gain;
      }
    }
    state.Add(best);
    ++result.steps;
  }
  result.elements = state.members();
  result.objective = state.objective();
  return result;
}

// GreedyVertex on the serving benchmark's greedy_dense shape: paper §7.1
// dense n = 4000 (distances ~ U[1, 2]), p = 20, lambda = 0.2 and one
// U[0, 1] modular weighting per query. Each path is timed as the minimum
// of three calls per weighting; bit_equal requires equal elements and
// objective bits on every weighting. scan_speedup is advisory (timing).
void RunGreedyScan(bench::BenchJson& json) {
  const int n = 4000;
  const int p = 20;
  const int weightings = 10;
  const double lambda = 0.2;
  Rng rng(2012);
  const Dataset data = MakeUniformSynthetic(n, rng);
  double fused_s = 0.0;
  double ref_s = 0.0;
  bool bit_equal = true;
  for (int w = 0; w < weightings; ++w) {
    std::vector<double> relevance(n);
    for (double& r : relevance) r = rng.Uniform(0.0, 1.0);
    const ModularFunction weights(std::move(relevance));
    const DiversificationProblem problem(&data.metric, &weights, lambda);
    AlgorithmResult fused;
    AlgorithmResult ref;
    fused_s += FastestOfThree([&] { fused = GreedyVertex(problem, {.p = p}); });
    ref_s += FastestOfThree([&] { ref = PerCandidateGreedy(problem, p); });
    bit_equal = bit_equal && fused.elements == ref.elements &&
                fused.objective == ref.objective && fused.steps == ref.steps;
  }
  if (!bit_equal) {
    std::cerr << "warning: fused and per-candidate greedy scans disagree\n";
  }
  const double speedup = ref_s / std::max(fused_s, 1e-12);
  json.NewRecord("greedy_scan")
      .Add("n", static_cast<long long>(n))
      .Add("p", static_cast<long long>(p))
      .Add("weightings", static_cast<long long>(weightings))
      .Add("fused_seconds", fused_s / weightings)
      .Add("reference_seconds", ref_s / weightings)
      .Add("scan_speedup", speedup)
      .Add("bit_equal", static_cast<long long>(bit_equal ? 1 : 0));
  std::cout << "  greedy_scan n=" << n << " p=" << p << ": per-candidate "
            << ref_s / weightings << "s, fused "
            << fused_s / weightings << "s (" << speedup << "x, bit_equal "
            << (bit_equal ? "yes" : "NO") << ")\n";
}

void RunEvaluatorComparison() {
  bench::BenchJson json("micro_algorithms");
  std::cout << "\nIncremental evaluation vs from-scratch objective "
               "evaluation\n";
  // The sub-millisecond pair scan first, in a process that has not yet
  // allocated and freed the dense records' n = 2000/4000 matrices, so its
  // timing does not depend on what ran before it.
  RunLocalSearchInit(json);
  for (int n : {2000, 4000}) {
    const int p = 16;
    Shared shared(n);
    const UniformMatroid matroid(n, p);

    WallTimer timer;
    const AlgorithmResult scratch_greedy =
        ScratchGreedyVertex(shared.problem, p);
    const double scratch_greedy_s = timer.Seconds();
    timer.Restart();
    const AlgorithmResult fast_greedy = GreedyVertex(shared.problem, {.p = p});
    const double fast_greedy_s = timer.Seconds();
    if (std::abs(scratch_greedy.objective - fast_greedy.objective) > 1e-6) {
      std::cerr << "warning: greedy paths disagree: "
                << scratch_greedy.objective << " vs "
                << fast_greedy.objective << "\n";
    }
    json.NewRecord("greedy_vertex")
        .Add("n", static_cast<long long>(n))
        .Add("p", static_cast<long long>(p))
        .Add("scratch_seconds", scratch_greedy_s)
        .Add("incremental_seconds", fast_greedy_s)
        .Add("speedup", scratch_greedy_s / std::max(fast_greedy_s, 1e-12))
        .Add("objective", fast_greedy.objective);
    std::cout << "  greedy n=" << n << ": scratch " << scratch_greedy_s
              << "s, incremental " << fast_greedy_s << "s ("
              << scratch_greedy_s / std::max(fast_greedy_s, 1e-12)
              << "x)\n";

    // Local search from the same greedy start, identical swap budget.
    const long long max_swaps = 8;
    timer.Restart();
    const AlgorithmResult scratch_ls = ScratchLocalSearch(
        shared.problem, fast_greedy.elements, max_swaps);
    const double scratch_ls_s = timer.Seconds();
    LocalSearchOptions options;
    options.initial = fast_greedy.elements;
    options.max_swaps = max_swaps;
    timer.Restart();
    const AlgorithmResult fast_ls =
        LocalSearch(shared.problem, matroid, options);
    const double fast_ls_s = timer.Seconds();
    if (std::abs(scratch_ls.objective - fast_ls.objective) > 1e-6) {
      std::cerr << "warning: local-search paths disagree: "
                << scratch_ls.objective << " vs " << fast_ls.objective
                << "\n";
    }
    json.NewRecord("local_search")
        .Add("n", static_cast<long long>(n))
        .Add("p", static_cast<long long>(p))
        .Add("max_swaps", max_swaps)
        .Add("scratch_seconds", scratch_ls_s)
        .Add("incremental_seconds", fast_ls_s)
        .Add("speedup", scratch_ls_s / std::max(fast_ls_s, 1e-12))
        .Add("objective", fast_ls.objective);
    std::cout << "  local_search n=" << n << ": scratch " << scratch_ls_s
              << "s, incremental " << fast_ls_s << "s ("
              << scratch_ls_s / std::max(fast_ls_s, 1e-12) << "x)\n";
  }
  RunGreedyScan(json);
  json.WriteFile();
}

}  // namespace
}  // namespace diverse

int main(int argc, char** argv) {
  bool compare_only = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare_only") == 0) {
      compare_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  // The comparison records run before the google-benchmark suite, which
  // would otherwise run ahead of them in the same process.
  diverse::RunEvaluatorComparison();
  if (!compare_only) benchmark::RunSpecifiedBenchmarks();
  return 0;
}
