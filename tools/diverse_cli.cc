// diverse_cli — command-line front end to the library.
//
// Reads a dataset (CSV; see data/csv_io.h for the format) or generates a
// synthetic one, runs the selected diversification algorithm, and prints
// the chosen subset with its objective breakdown.
//
// Examples:
//   diverse_cli --generate=100 --algorithm=greedy --p=10 --lambda=0.2
//   diverse_cli --input=data.csv --algorithm=local_search --p=8
//   diverse_cli --generate=40 --algorithm=exact --p=5 --save=frozen.csv
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "algorithms/brute_force.h"
#include "algorithms/distributed.h"
#include "algorithms/greedy_edge.h"
#include "algorithms/greedy_vertex.h"
#include "algorithms/local_search.h"
#include "algorithms/mmr.h"
#include "algorithms/partial_enumeration.h"
#include "algorithms/random_select.h"
#include "core/diversification_problem.h"
#include "data/csv_io.h"
#include "data/synthetic.h"
#include "matroid/uniform_matroid.h"
#include "submodular/modular_function.h"
#include "util/flags.h"
#include "util/random.h"

namespace diverse {
namespace {

int RunCli(const std::string& input, int generate, const std::string& save,
           const std::string& algorithm, int p, double lambda, double mu,
           int num_shards, int per_shard, std::uint64_t seed) {
  // ---- Data ---------------------------------------------------------------
  Rng rng(seed);
  Dataset data(0);
  if (!input.empty()) {
    auto loaded = LoadDatasetCsv(input);
    if (!loaded) {
      std::cerr << "error: cannot load dataset from '" << input << "'\n";
      return 1;
    }
    data = std::move(*loaded);
  } else if (generate > 0) {
    data = MakeUniformSynthetic(generate, rng);
  } else {
    std::cerr << "error: provide --input=FILE or --generate=N\n";
    return 1;
  }
  if (!save.empty() && !SaveDatasetCsv(save, data)) {
    std::cerr << "error: cannot save dataset to '" << save << "'\n";
    return 1;
  }
  const ModularFunction weights(data.weights);
  const DiversificationProblem problem(&data.metric, &weights, lambda);
  p = std::min(p, data.size());

  // ---- Algorithm ----------------------------------------------------------
  AlgorithmResult result;
  if (algorithm == "greedy") {
    result = GreedyVertex(problem, {.p = p});
  } else if (algorithm == "greedy_pair") {
    result = GreedyVertex(problem, {.p = p, .best_first_pair = true});
  } else if (algorithm == "greedy_edge") {
    result = GreedyEdge(problem, weights, {.p = p});
  } else if (algorithm == "local_search") {
    const UniformMatroid matroid(data.size(), p);
    result = LocalSearch(problem, matroid, LocalSearchOptions{});
  } else if (algorithm == "partial_enum") {
    result = PartialEnumerationGreedy(problem, {.p = p, .seed_size = 2});
  } else if (algorithm == "mmr") {
    result = Mmr(problem, weights, {.p = p, .mu = mu});
  } else if (algorithm == "distributed") {
    if (num_shards < 1) {
      std::cerr << "error: --num_shards must be >= 1\n";
      return 1;
    }
    DistributedOptions options;
    options.p = p;
    options.num_shards = num_shards;
    options.per_shard = per_shard;
    result = DistributedGreedy(problem, options, rng);
  } else if (algorithm == "random") {
    result = RandomSubset(problem, p, rng);
  } else if (algorithm == "exact") {
    if (data.size() > 60 || p > 10) {
      std::cerr << "error: --algorithm=exact needs n <= 60 and p <= 10\n";
      return 1;
    }
    result = BruteForceCardinality(problem, {.p = p});
  } else {
    std::cerr << "error: unknown algorithm '" << algorithm
              << "' (greedy | greedy_pair | greedy_edge | local_search | "
                 "partial_enum | mmr | distributed | random | exact)\n";
    return 1;
  }

  // ---- Report -------------------------------------------------------------
  std::vector<int> elements = result.elements;
  std::sort(elements.begin(), elements.end());
  std::cout << "algorithm:  " << algorithm << "\n"
            << "n:          " << data.size() << "\n"
            << "p:          " << p << "\n"
            << "lambda:     " << lambda << "\n"
            << "selection: ";
  for (int e : elements) std::cout << ' ' << e;
  std::cout << "\nphi(S):     " << result.objective
            << "\n  f(S):     " << weights.Value(result.elements)
            << "\n  lambda*d: " << problem.DispersionTerm(result.elements)
            << "\nsteps:      " << result.steps
            << "\ntime:       " << result.elapsed_seconds * 1e3 << " ms\n";
  return 0;
}

}  // namespace
}  // namespace diverse

int main(int argc, char** argv) {
  std::string input;
  int generate = 0;
  std::string save;
  std::string algorithm = "greedy";
  int p = 10;
  double lambda = 0.2;
  double mu = 0.5;
  int num_shards = 4;
  int per_shard = 0;
  std::int64_t seed = 1;
  diverse::FlagSet flags(
      "diverse_cli — max-sum diversification from the command line");
  flags.AddString("input", &input, "dataset CSV to load");
  flags.AddInt("generate", &generate, "generate a synthetic dataset of size N");
  flags.AddString("save", &save, "write the (possibly generated) dataset here");
  flags.AddString("algorithm", &algorithm,
                  "greedy | greedy_pair | greedy_edge | local_search | "
                  "partial_enum | mmr | distributed | random | exact");
  flags.AddInt("p", &p, "number of elements to select");
  flags.AddDouble("lambda", &lambda, "quality/diversity trade-off");
  flags.AddDouble("mu", &mu, "MMR trade-off (only --algorithm=mmr)");
  flags.AddInt("num_shards", &num_shards,
               "shard count (only --algorithm=distributed)");
  flags.AddInt("per_shard", &per_shard,
               "elements per shard, 0 = p (only --algorithm=distributed)");
  flags.AddInt64("seed", &seed, "random seed");
  if (!flags.Parse(argc, argv)) return 1;
  return diverse::RunCli(input, generate, save, algorithm, p, lambda, mu,
                         num_shards, per_shard,
                         static_cast<std::uint64_t>(seed));
}
