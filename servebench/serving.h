// The serving benchmark proper: cold starts, closed-loop measured phases,
// the traced per-layer phase, and the off-the-clock correctness replay.
#ifndef SERVEBENCH_SERVING_H_
#define SERVEBENCH_SERVING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace servebench {

// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> end_to_end;  // untraced phase; always filled
  std::vector<Metric> per_layer;   // traced phase; only with trace
  // Fixed-work counts (identical for two runs at one seed) and noise
  // diagnostics, printed next to the metrics.
  std::vector<Metric> counts;
  std::vector<Metric> diagnostics;
  std::vector<std::string> problems;  // why correct is false, if it is
};

// Writes the workload's starting corpus as a checkpoint into `dir`.
// Returns false (with a message on stderr) when the save fails.
bool Prepare(const Recipe& recipe, const std::string& dir);

struct ServeOptions {
  Recipe recipe;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  // holds the checkpoint Prepare wrote
};

Report Serve(const ServeOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_SERVING_H_
