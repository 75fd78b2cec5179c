// servebench — the serving benchmark's binary.
//
//   servebench prepare --workload W --dir D [--smoke]
//       Builds the workload's starting corpus and writes it
//       as a checkpoint into D (run off the clock, in its own process, so
//       the serving process's peak RSS never includes corpus generation).
//   servebench serve --workload W --seed S --seconds T --trace 0|1
//                    --dir D [--smoke]
//       Cold-starts the serving stack from that checkpoint several times,
//       runs the measured closed-loop phase (and with --trace 1 a second,
//       traced phase), checks every answer, and prints a report whose
//       last line is one JSON object.
//
// Workloads: greedy_dense, swap_vector, remote_vector (see README.md).
// servebench/run.py is the entry point that builds this binary and
// turns its report into the benchmark's result line.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "serving.h"

namespace servebench {
namespace {

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return (args->command == "prepare" || args->command == "serve") &&
         !args->workload.empty() && !args->dir.empty() && args->seconds > 0;
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: servebench prepare|serve --workload W --dir D "
                 "[--seed S] [--seconds T] [--trace 0|1] [--smoke]\n";
    return 2;
  }
  const std::optional<Recipe> recipe = MakeRecipe(args.workload, args.smoke);
  if (!recipe) {
    std::cerr << "unknown workload '" << args.workload
              << "' (greedy_dense | swap_vector | remote_vector)\n";
    return 2;
  }
  if (args.command == "prepare") {
    return Prepare(*recipe, args.dir) ? 0 : 1;
  }
  ServeOptions options;
  options.recipe = *recipe;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace;
  options.dir = args.dir;
  const Report report = Serve(options);

  std::cout << "workload " << recipe->name << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << "\n";
  PrintTable("end-to-end:", report.end_to_end);
  PrintTable("per-layer (traced phase):", report.per_layer);
  PrintTable("fixed-work counts:", report.counts);
  PrintTable("diagnostics:", report.diagnostics);
  for (const std::string& problem : report.problems) {
    std::cout << "PROBLEM: " << problem << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"end_to_end\": " << MetricsJson(report.end_to_end)
            << ", \"per_layer\": " << MetricsJson(report.per_layer)
            << ", \"counts\": " << MetricsJson(report.counts)
            << ", \"diagnostics\": " << MetricsJson(report.diagnostics)
            << "}" << std::endl;
  return 0;
}
