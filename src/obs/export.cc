#include "obs/export.h"

#include <cmath>

#include "obs/build_info.h"
#include <cstdio>
#include <string>
#include <vector>

namespace diverse {
namespace obs {
namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Bucket upper bound as it appears in the le label: shortest exact-enough
// form ("%g" keeps 1e-06 readable), "+Inf" for the overflow bucket.
std::string FormatBound(int index) {
  if (index >= Histogram::kNumBuckets - 1) return "+Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", Histogram::UpperBound(index));
  return buffer;
}

// Splits a registered name into its base name and the inner text of its
// inline label block ("" when unlabeled): "m{a=\"b\"}" -> {"m", "a=\"b\""}.
// Registration validated the shape (IsValidMetricName), so a '{' here is
// always a well-formed block ending at the final character.
struct SplitName {
  std::string base;
  std::string labels;
};
SplitName Split(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, ""};
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

// `base` + optional label block + one extra label (for histogram le).
std::string WithLabels(const std::string& base, const std::string& labels,
                       const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return base;
  std::string out = base + "{" + labels;
  if (!labels.empty() && !extra.empty()) out += ",";
  out += extra + "}";
  return out;
}

void AppendJsonString(std::string* out, const std::string& text) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string RenderPrometheusText(const MetricRegistry& registry) {
  std::string out;
  for (const MetricRegistry::Sample& sample : registry.Snapshot()) {
    // TYPE lines name the metric family — the base name only; labels
    // belong on the sample lines (a labeled TYPE line is invalid).
    const SplitName name = Split(sample.name);
    switch (sample.kind) {
      case MetricRegistry::Kind::kCounter:
        out += "# TYPE " + name.base + " counter\n";
        out += WithLabels(name.base, name.labels) + " " +
               std::to_string(sample.counter_value) + "\n";
        break;
      case MetricRegistry::Kind::kGauge:
        out += "# TYPE " + name.base + " gauge\n";
        out += WithLabels(name.base, name.labels) + " " +
               FormatDouble(sample.gauge_value) + "\n";
        break;
      case MetricRegistry::Kind::kHistogram: {
        out += "# TYPE " + name.base + " histogram\n";
        long long cumulative = 0;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          cumulative += sample.histogram.counts[i];
          out += WithLabels(name.base + "_bucket", name.labels,
                            "le=\"" + FormatBound(i) + "\"") +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += WithLabels(name.base + "_sum", name.labels) + " " +
               FormatDouble(sample.histogram.sum) + "\n";
        out += WithLabels(name.base + "_count", name.labels) + " " +
               std::to_string(sample.histogram.total) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string RenderJson(const MetricRegistry& registry) {
  std::vector<MetricRegistry::Sample> samples = registry.Snapshot();
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const MetricRegistry::Sample& sample : samples) {
    switch (sample.kind) {
      case MetricRegistry::Kind::kCounter:
        if (!counters.empty()) counters += ",";
        AppendJsonString(&counters, sample.name);
        counters += ":";
        counters += std::to_string(sample.counter_value);
        break;
      case MetricRegistry::Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        AppendJsonString(&gauges, sample.name);
        gauges += ":";
        gauges += std::isfinite(sample.gauge_value)
                      ? FormatDouble(sample.gauge_value)
                      : "null";
        break;
      case MetricRegistry::Kind::kHistogram: {
        if (!histograms.empty()) histograms += ",";
        AppendJsonString(&histograms, sample.name);
        histograms += ":{\"count\":" + std::to_string(sample.histogram.total) +
                      ",\"sum\":" +
                      (std::isfinite(sample.histogram.sum)
                           ? FormatDouble(sample.histogram.sum)
                           : "null") +
                      ",\"buckets\":[";
        long long cumulative = 0;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          cumulative += sample.histogram.counts[i];
          if (i > 0) histograms += ",";
          histograms += "[";
          AppendJsonString(&histograms, FormatBound(i));
          histograms += ",";
          histograms += std::to_string(cumulative);
          histograms += "]";
        }
        histograms += "]}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

namespace {

// Index just past the label block that starts at line[open] == '{',
// honoring quoted values (which may contain '}' and escaped quotes), or
// npos when unterminated.
std::size_t LabelBlockEnd(const std::string& line, std::size_t open) {
  bool in_quotes = false;
  for (std::size_t i = open + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == '}') {
      return i + 1;
    }
  }
  return std::string::npos;
}

}  // namespace

std::string RelabelPrometheusText(const std::string& text,
                                  const std::string& label_name,
                                  const std::string& label_value,
                                  std::set<std::string>* seen_families) {
  const std::string label =
      label_name + "=\"" + EscapeLabelValue(label_value) + "\"";
  std::string out;
  out.reserve(text.size() + 256);
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <family> <kind>": once per family across the whole page.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::size_t family_end = line.find(' ', 7);
        const std::string family =
            line.substr(7, family_end == std::string::npos
                               ? std::string::npos
                               : family_end - 7);
        if (!seen_families->insert(family).second) continue;
      }
      out += line + "\n";
      continue;
    }
    const std::size_t open = line.find('{');
    const std::size_t space = line.find(' ');
    if (open != std::string::npos && (space == std::string::npos ||
                                      open < space)) {
      const std::size_t close = LabelBlockEnd(line, open);
      if (close != std::string::npos) {
        out += line.substr(0, close - 1) + "," + label +
               line.substr(close - 1) + "\n";
        continue;
      }
    } else if (space != std::string::npos) {
      out += line.substr(0, space) + "{" + label + "}" + line.substr(space) +
             "\n";
      continue;
    }
    out += line + "\n";  // unrecognized shape: pass through untouched
  }
  return out;
}

}  // namespace obs
}  // namespace diverse
