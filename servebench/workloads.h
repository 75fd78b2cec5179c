// The three serving workloads: corpus recipes, seeded update epochs and
// seeded per-user queries. Everything here is a pure function of
// (workload, seed, smoke), so a prepare process and a serve process that
// agree on those three agree on every input byte. The corpus depends on
// the workload alone; the seed draws the queries and the epochs.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/corpus.h"
#include "engine/query.h"
#include "matroid/partition_matroid.h"

namespace servebench {

namespace engine = diverse::engine;

enum class Kind { kGreedyDense, kSwapVector, kRemoteVector };

struct Recipe {
  std::string name;
  Kind kind = Kind::kGreedyDense;
  int n = 0;            // live corpus size
  int dim = 0;          // feature dimension (vector workloads)
  int p = 0;            // answer size
  int num_shards = 0;   // remote_vector only
  int queries_per_epoch = 0;  // K: epoch k fires once k*K queries issued
  // Queries issued per requested second of measurement. The query count
  // of a phase is fixed from this and --seconds, so every run at one
  // seed does identical work whatever the speed of the build.
  double queries_per_second = 0.0;
  int setup_starts = 0;  // cold starts per run; setup_s is their median
  int verify_samples = 0;  // answers re-checked bit-equal per phase
  // Reduced sizes for the benchmark's own test. Queries are then so short
  // that fixed submit/wake-up costs break the 90% layer accounting, which
  // is reported but enforced only at full size.
  bool smoke = false;
};

inline constexpr double kLambda = 0.2;
inline constexpr int kClients = 3;
inline constexpr int kRounds = 9;         // sub-phases of a measured phase
inline constexpr int kWarmupQueries = 30;  // per run, before measuring
inline constexpr int kClusters = 10;
inline constexpr int kBlocks = 10;         // swap_vector partition matroid

// nullopt for an unknown name.
std::optional<Recipe> MakeRecipe(const std::string& name, bool smoke);

// Number of queries and update epochs in one measured phase.
struct PhaseSize {
  int queries = 0;
  int epochs = 0;
};
PhaseSize SizePhase(const Recipe& recipe, double seconds);

// The checkpointed starting corpus, at version 1 (one weight epoch is
// applied so that a coordinator's retained image, at that version, can
// bridge an empty shard node: an image at version 0 bridges nothing).
std::unique_ptr<engine::Corpus> BuildInitialCorpus(const Recipe& recipe);

// Seeded update epochs 1..count applied after the checkpoint. Dense:
// engine::MakeSyntheticEpoch (weight + distance perturbation). Vector:
// alternating InsertVector / Erase(oldest live id), each with a SetWeight,
// so the live count stays at n.
std::vector<std::vector<engine::CorpusUpdate>> BuildEpochs(
    const Recipe& recipe, std::uint64_t seed, int count);

// Largest id space any query of a run can see (n plus every insert).
int MaxUniverse(const Recipe& recipe, int total_epochs);

// Builds query `index` of a run. Deterministic in (recipe, seed, index);
// `matroid` is the constraint for local-search queries (may be null for
// the other workloads) and must outlive the query.
engine::Query BuildQuery(const Recipe& recipe, std::uint64_t seed,
                         std::uint64_t index, int universe,
                         const diverse::Matroid* matroid);

// swap_vector's constraint: block = id mod kBlocks, one per block, over
// every id the run can create.
std::unique_ptr<diverse::PartitionMatroid> BuildMatroid(int universe);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
