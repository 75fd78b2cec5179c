#include "workloads.h"

#include <algorithm>
#include <utility>

#include "data/synthetic.h"
#include "engine/workload.h"
#include "metric/vector_metric.h"
#include "util/random.h"

namespace servebench {
namespace {

using diverse::Rng;
namespace engine = diverse::engine;

// Independent, seed-derived streams for each kind of input.
enum Stream : std::uint64_t {
  kCorpusStream = 1,
  kCentreStream = 2,
  kEpochStream = 3,
  kQueryStream = 4,
};

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng StreamRng(std::uint64_t seed, Stream stream, std::uint64_t index = 0) {
  return Rng(SplitMix(SplitMix(seed * 8 + stream) + index));
}

// The corpus of each workload is the same for every run; the run seed
// draws the traffic (queries and epochs). Runs at different seeds then
// differ in traffic only, not in dataset.
constexpr std::uint64_t kCorpusSeed = 2012;

// Cluster centres ~ U[0, 10]^dim: the clustered shape pivot bounds are
// built for (same recipe as bench/candidate_pruning.cc).
std::vector<std::vector<double>> Centres(const Recipe& recipe) {
  Rng rng = StreamRng(kCorpusSeed, kCentreStream);
  std::vector<std::vector<double>> centres(kClusters,
                                           std::vector<double>(recipe.dim));
  for (auto& centre : centres) {
    for (double& x : centre) x = rng.Uniform(0.0, 10.0);
  }
  return centres;
}

std::vector<double> PointNear(const std::vector<double>& centre, Rng& rng) {
  std::vector<double> point(centre.size());
  for (std::size_t k = 0; k < centre.size(); ++k) {
    point[k] = centre[k] + rng.Gaussian(0.0, 0.4);
  }
  return point;
}

}  // namespace

std::optional<Recipe> MakeRecipe(const std::string& name, bool smoke) {
  Recipe r;
  r.name = name;
  r.smoke = smoke;
  if (name == "greedy_dense") {
    r.kind = Kind::kGreedyDense;
    r.n = smoke ? 400 : 4000;
    r.p = 20;
    r.queries_per_epoch = smoke ? 20 : 200;
    r.queries_per_second = smoke ? 100 : 1000;
    r.setup_starts = smoke ? 2 : 5;
    r.verify_samples = smoke ? 6 : 12;
  } else if (name == "swap_vector") {
    r.kind = Kind::kSwapVector;
    r.n = smoke ? 200 : 1000;
    r.dim = smoke ? 16 : 64;
    r.p = kBlocks;  // one per block: the matroid's rank
    r.queries_per_epoch = 10;
    r.queries_per_second = smoke ? 40 : 60;
    r.setup_starts = smoke ? 2 : 7;
    r.verify_samples = smoke ? 6 : 12;
  } else if (name == "remote_vector") {
    r.kind = Kind::kRemoteVector;
    r.n = smoke ? 400 : 4000;
    r.dim = smoke ? 16 : 64;
    r.p = 20;
    r.num_shards = 2;
    r.queries_per_epoch = 20;
    r.queries_per_second = smoke ? 40 : 200;
    r.setup_starts = smoke ? 2 : 7;
    r.verify_samples = smoke ? 6 : 12;
  } else {
    return std::nullopt;
  }
  return r;
}

PhaseSize SizePhase(const Recipe& recipe, double seconds) {
  PhaseSize size;
  const int k = recipe.queries_per_epoch;
  // Whole epochs' worth of queries, at least two, so every epoch has
  // queries running after it.
  const int blocks = std::max(
      2, static_cast<int>(recipe.queries_per_second * seconds / k + 0.5));
  size.queries = blocks * k;
  size.epochs = blocks - 1;
  return size;
}

std::unique_ptr<engine::Corpus> BuildInitialCorpus(const Recipe& recipe) {
  Rng rng = StreamRng(kCorpusSeed, kCorpusStream);
  std::unique_ptr<engine::Corpus> corpus;
  if (recipe.kind == Kind::kGreedyDense) {
    // Paper §7.1: weights ~ U[0,1], distances ~ U[1,2].
    diverse::Dataset data = diverse::MakeUniformSynthetic(recipe.n, rng);
    corpus = std::make_unique<engine::Corpus>(
        std::move(data.weights), std::move(data.metric), kLambda);
  } else {
    const auto centres = Centres(recipe);
    std::vector<double> rows;
    rows.reserve(static_cast<std::size_t>(recipe.n) * recipe.dim);
    std::vector<double> weights(recipe.n);
    for (int i = 0; i < recipe.n; ++i) {
      const std::vector<double> point = PointNear(centres[i % kClusters], rng);
      rows.insert(rows.end(), point.begin(), point.end());
      weights[i] = rng.Uniform(0.0, 1.0);
    }
    corpus = std::make_unique<engine::Corpus>(
        std::move(weights),
        diverse::VectorMetric::FromRows(recipe.dim, std::move(rows)),
        kLambda);
  }
  corpus->Apply(engine::CorpusUpdate::SetWeight(0, rng.Uniform(0.0, 1.0)));
  return corpus;
}

std::vector<std::vector<engine::CorpusUpdate>> BuildEpochs(
    const Recipe& recipe, std::uint64_t seed, int count) {
  Rng rng = StreamRng(seed, kEpochStream);
  std::vector<std::vector<engine::CorpusUpdate>> epochs;
  epochs.reserve(count);
  if (recipe.kind == Kind::kGreedyDense) {
    for (int k = 0; k < count; ++k) {
      epochs.push_back(
          engine::MakeSyntheticEpoch(recipe.n, /*churn=*/false, k, rng));
    }
    return epochs;
  }
  const auto centres = Centres(recipe);
  int universe = recipe.n;
  int oldest = 0;  // erases retire ids in order, so [oldest, universe) live
  for (int k = 0; k < count; ++k) {
    std::vector<engine::CorpusUpdate> epoch;
    if (k % 2 == 0) {
      const auto& centre = centres[rng.UniformInt(0, kClusters - 1)];
      epoch.push_back(engine::CorpusUpdate::InsertVector(
          rng.Uniform(0.0, 1.0), PointNear(centre, rng)));
      ++universe;
    } else {
      epoch.push_back(engine::CorpusUpdate::Erase(oldest++));
    }
    epoch.push_back(engine::CorpusUpdate::SetWeight(
        rng.UniformInt(oldest, universe - 1), rng.Uniform(0.0, 1.0)));
    epochs.push_back(std::move(epoch));
  }
  return epochs;
}

int MaxUniverse(const Recipe& recipe, int total_epochs) {
  if (recipe.kind == Kind::kGreedyDense) return recipe.n;
  return recipe.n + (total_epochs + 1) / 2;
}

engine::Query BuildQuery(const Recipe& recipe, std::uint64_t seed,
                         std::uint64_t index, int universe,
                         const diverse::Matroid* matroid) {
  Rng rng = StreamRng(seed, kQueryStream, index);
  engine::SyntheticQueryConfig config;
  config.p = recipe.p;
  config.universe = universe;
  if (recipe.kind == Kind::kRemoteVector) {
    config.sharded = true;
    config.remote = true;
    config.num_shards = recipe.num_shards;
  }
  engine::Query query = engine::MakeSyntheticQuery(config, rng);
  if (recipe.kind == Kind::kSwapVector) {
    query.algorithm = engine::QueryAlgorithm::kLocalSearch;
    query.matroid = matroid;
  }
  return query;
}

std::unique_ptr<diverse::PartitionMatroid> BuildMatroid(int universe) {
  std::vector<int> block_of(universe);
  for (int id = 0; id < universe; ++id) block_of[id] = id % kBlocks;
  return std::make_unique<diverse::PartitionMatroid>(
      std::move(block_of), std::vector<int>(kBlocks, 1));
}

}  // namespace servebench
