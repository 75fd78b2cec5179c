// Observability layer tests (src/obs/ + the rpc scrape path): histogram
// bucket math and percentiles, registry registration lifetimes, both
// exporters, QueryTrace span recording under concurrency — and the
// end-to-end contract: a traced remote-sharded query yields a timeline
// covering queue wait, snapshot acquire, per-shard RPCs, and the merge,
// while answering bit-equal to the identical untraced query; a ShardNode
// is scrapeable over its transport in both formats and rejects corrupt
// stats frames.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "engine/workload.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/metric_registry.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/trace_buffer.h"
#include "rpc/coordinator.h"
#include "rpc/shard_node.h"
#include "rpc/stats.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "util/random.h"

namespace diverse {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndRead) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Inc();
  counter.Inc(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpper) {
  Histogram hist;
  hist.Record(1e-6);        // exactly bound[0] -> bucket 0
  hist.Record(0.0);         // below every bound -> bucket 0
  hist.Record(-1.0);        // negative (never from a monotonic clock)
  hist.Record(2e-6);        // exactly bound[1] -> bucket 1
  hist.Record(2.0000001e-6);  // just past bound[1] -> bucket 2
  const Histogram::Snapshot snapshot = hist.TakeSnapshot();
  EXPECT_EQ(snapshot.counts[0], 3);
  EXPECT_EQ(snapshot.counts[1], 1);
  EXPECT_EQ(snapshot.counts[2], 1);
  EXPECT_EQ(snapshot.total, 5);
}

TEST(HistogramTest, OverflowBucketCatchesEverythingPastTheLastBound) {
  Histogram hist;
  hist.Record(100.0);  // > 1e-6 * 2^26 ~= 67.1 s
  hist.Record(std::numeric_limits<double>::infinity());
  hist.Record(std::numeric_limits<double>::quiet_NaN());
  const Histogram::Snapshot snapshot = hist.TakeSnapshot();
  EXPECT_EQ(snapshot.counts[Histogram::kNumBuckets - 1], 3);
  EXPECT_EQ(snapshot.total, 3);
}

TEST(HistogramTest, EveryFiniteBoundContainsItself) {
  // Recording exactly bound[i] must land in bucket i for every finite
  // bound — the ilogb fast path must not round across the edge.
  for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    Histogram hist;
    hist.Record(Histogram::UpperBound(i));
    EXPECT_EQ(hist.TakeSnapshot().counts[i], 1) << "bound " << i;
  }
}

TEST(HistogramTest, UpperBoundsAreExponential) {
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(10), 1024e-6);
  EXPECT_TRUE(std::isinf(Histogram::UpperBound(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, SumAndCountAccumulate) {
  Histogram hist;
  hist.Record(0.001);
  hist.Record(0.002);
  EXPECT_EQ(hist.count(), 2);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.003);
}

TEST(HistogramTest, PercentileOfEmptyIsNaN) {
  Histogram hist;
  EXPECT_TRUE(std::isnan(hist.Percentile(0.5)));
}

TEST(HistogramTest, PercentileInterpolatesWithinTheBucket) {
  Histogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(0.0005);  // (256 µs, 512 µs]
  const double p50 = hist.Percentile(0.5);
  EXPECT_GT(p50, 256e-6);
  EXPECT_LE(p50, 512e-6);
  // Monotone in q.
  EXPECT_LE(hist.Percentile(0.1), hist.Percentile(0.9));
  EXPECT_LE(hist.Percentile(0.0), hist.Percentile(1.0));
}

TEST(HistogramTest, PercentileAcrossBucketsOrdersByMagnitude) {
  Histogram hist;
  for (int i = 0; i < 90; ++i) hist.Record(10e-6);
  for (int i = 0; i < 10; ++i) hist.Record(0.01);
  EXPECT_LE(hist.Percentile(0.5), 16e-6);   // inside the 10 µs bucket
  EXPECT_GT(hist.Percentile(0.99), 0.004);  // inside the 10 ms bucket
}

TEST(HistogramTest, PercentileOfOverflowOnlyIsTheLastFiniteBound) {
  Histogram hist;
  hist.Record(1000.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5),
                   Histogram::UpperBound(Histogram::kNumBuckets - 2));
}

TEST(MetricRegistryTest, SnapshotIsSortedAndTyped) {
  MetricRegistry registry;
  Counter counter;
  counter.Inc(7);
  Histogram hist;
  hist.Record(0.001);
  auto r1 = registry.RegisterCounter("zzz_total", &counter);
  auto r2 = registry.RegisterGauge("aaa_gauge", [] { return 2.5; });
  auto r3 = registry.RegisterHistogram("mmm_seconds", &hist);
  const std::vector<MetricRegistry::Sample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "aaa_gauge");
  EXPECT_EQ(samples[0].kind, MetricRegistry::Kind::kGauge);
  EXPECT_DOUBLE_EQ(samples[0].gauge_value, 2.5);
  EXPECT_EQ(samples[1].name, "mmm_seconds");
  EXPECT_EQ(samples[1].kind, MetricRegistry::Kind::kHistogram);
  EXPECT_EQ(samples[1].histogram.total, 1);
  EXPECT_EQ(samples[2].name, "zzz_total");
  EXPECT_EQ(samples[2].kind, MetricRegistry::Kind::kCounter);
  EXPECT_EQ(samples[2].counter_value, 7);
}

TEST(MetricRegistryTest, RegistrationUnregistersOnDestruction) {
  MetricRegistry registry;
  Counter counter;
  {
    MetricRegistry::Registration registration =
        registry.RegisterCounter("scoped_total", &counter);
    EXPECT_EQ(registry.size(), 1u);
  }
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricRegistryTest, RegistrationIsMovable) {
  MetricRegistry registry;
  Counter counter;
  MetricRegistry::Registration outer;
  {
    MetricRegistry::Registration inner =
        registry.RegisterCounter("moved_total", &counter);
    outer = std::move(inner);
  }  // inner (moved-from) destructs: must NOT unregister
  EXPECT_EQ(registry.size(), 1u);
  outer = MetricRegistry::Registration();  // now it unregisters
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ExportTest, PrometheusTextHasCumulativeBucketsAndTypes) {
  MetricRegistry registry;
  Counter counter;
  counter.Inc(3);
  Histogram hist;
  hist.Record(0.5e-6);  // bucket 0
  hist.Record(3e-6);    // bucket 2
  auto r1 = registry.RegisterCounter("demo_total", &counter);
  auto r2 = registry.RegisterGauge("demo_gauge", [] { return 1.5; });
  auto r3 = registry.RegisterHistogram("demo_seconds", &hist);
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("demo_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_seconds histogram"), std::string::npos);
  // Cumulative: bucket 0 holds 1, every later bucket (and +Inf) holds 2.
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"1e-06\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"4e-06\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_sum"), std::string::npos);
}

TEST(ExportTest, JsonHasAllSectionsAndEscapes) {
  MetricRegistry registry;
  Counter counter;
  counter.Inc(3);
  Histogram hist;
  hist.Record(3e-6);
  auto r1 = registry.RegisterCounter("a_total", &counter);
  // Labeled names are the only registrable names containing quotes, so
  // they are what exercises the JSON key escaping.
  auto r2 = registry.RegisterGauge("nan_gauge{tag=\"v\"}", [] {
    return std::numeric_limits<double>::quiet_NaN();
  });
  auto r3 = registry.RegisterHistogram("h_seconds", &hist);
  const std::string json = RenderJson(registry);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"nan_gauge{tag=\\\"v\\\"}\":null"),
            std::string::npos);  // escaped key, NaN -> null
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricNameTest, AcceptsPlainAndLabeledNames) {
  EXPECT_TRUE(IsValidMetricName("diverse_engine_queries_total"));
  EXPECT_TRUE(IsValidMetricName("a:b_c9"));
  EXPECT_TRUE(IsValidMetricName("x_info{version=\"1.2\",mode=\"Release\"}"));
  EXPECT_TRUE(IsValidMetricName("x_info{v=\"quote \\\" slash \\\\ n \\n\"}"));
  EXPECT_TRUE(IsValidMetricName("x{k=\"\"}"));  // empty value is fine
}

TEST(MetricNameTest, RejectsMalformedNames) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("9leading_digit"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("bad\"name"));
  EXPECT_FALSE(IsValidMetricName("caf\xc3\xa9_total"));  // UTF-8 in name
  EXPECT_FALSE(IsValidMetricName("x{}"));                // empty label block
  EXPECT_FALSE(IsValidMetricName("x{k=\"v\""));          // unterminated
  EXPECT_FALSE(IsValidMetricName("x{k=\"v\"}y"));        // trailing junk
  EXPECT_FALSE(IsValidMetricName("x{k=v}"));             // unquoted value
  EXPECT_FALSE(IsValidMetricName("x{9k=\"v\"}"));        // bad label key
  EXPECT_FALSE(IsValidMetricName("x{k=\"bad \\x\"}"));   // bad escape
  EXPECT_FALSE(IsValidMetricName("x{k=\"caf\xc3\xa9\"}"));  // UTF-8 value
}

TEST(MetricRegistryDeathTest, RegistrationRejectsInvalidNames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricRegistry registry;
  Counter counter;
  EXPECT_DEATH(registry.RegisterCounter("caf\xc3\xa9_total", &counter),
               "invalid metric name");
  EXPECT_DEATH(registry.RegisterGauge("bad\"name", [] { return 0.0; }),
               "invalid metric name");
}

TEST(ExportTest, TypeLineCarriesBaseNameForLabeledMetrics) {
  MetricRegistry registry;
  Counter counter;
  counter.Inc(4);
  auto r = registry.RegisterCounter("jobs_total{queue=\"fast\"}", &counter);
  const std::string text = RenderPrometheusText(registry);
  // The family TYPE line must not carry the label block; the sample
  // line must.
  EXPECT_NE(text.find("# TYPE jobs_total counter\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE jobs_total{"), std::string::npos);
  EXPECT_NE(text.find("jobs_total{queue=\"fast\"} 4\n"), std::string::npos);
}

TEST(ExportTest, LabeledHistogramMergesLeIntoTheLabelBlock) {
  MetricRegistry registry;
  Histogram hist;
  hist.Record(0.5e-6);
  auto r = registry.RegisterHistogram("lat_seconds{shard=\"0\"}", &hist);
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{shard=\"0\",le=\"1e-06\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum{shard=\"0\"} "), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count{shard=\"0\"} 1"), std::string::npos);
}

TEST(ExportTest, EmptyHistogramRendersZeroedSeries) {
  MetricRegistry registry;
  Histogram hist;  // never recorded into
  auto r = registry.RegisterHistogram("idle_seconds", &hist);
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("idle_seconds_bucket{le=\"1e-06\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("idle_seconds_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("idle_seconds_sum 0"), std::string::npos);
  EXPECT_NE(text.find("idle_seconds_count 0"), std::string::npos);
}

TEST(ExportTest, PrometheusPageGoldenShape) {
  // Exact-output golden for a small registry: pins line ordering (sorted
  // by name), TYPE-then-sample layout, and label rendering, so an
  // accidental format drift fails loudly instead of surviving substring
  // checks.
  MetricRegistry registry;
  Counter plain;
  plain.Inc(2);
  Counter labeled;
  labeled.Inc(5);
  auto r1 = registry.RegisterCounter("aa_total", &plain);
  auto r2 = registry.RegisterGauge("bb_ratio", [] { return 0.5; });
  auto r3 = registry.RegisterCounter("cc_total{shard=\"0\"}", &labeled);
  EXPECT_EQ(RenderPrometheusText(registry),
            "# TYPE aa_total counter\n"
            "aa_total 2\n"
            "# TYPE bb_ratio gauge\n"
            "bb_ratio 0.5\n"
            "# TYPE cc_total counter\n"
            "cc_total{shard=\"0\"} 5\n");
}

TEST(BuildInfoTest, EscapeLabelValueEscapesTheExpositionSet) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(BuildInfoTest, StandardMetricsRenderInBothExporters) {
  MetricRegistry registry;
  std::vector<MetricRegistry::Registration> registrations;
  RegisterStandardMetrics(&registry, &registrations);
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE diverse_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find("diverse_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find(",compiler=\""), std::string::npos);
  EXPECT_NE(text.find(",mode=\""), std::string::npos);
  EXPECT_NE(text.find("diverse_process_start_time_seconds"),
            std::string::npos);
  EXPECT_GT(ProcessStartTimeSeconds(), 0.0);
  const std::string json = RenderJson(registry);
  EXPECT_NE(json.find("diverse_build_info{version="), std::string::npos);
}

TEST(RelabelTest, InjectsLabelAndDedupesTypeLinesAcrossNodes) {
  const std::string page =
      "# TYPE q_total counter\n"
      "q_total 3\n"
      "# TYPE lat_bucket histogram\n"
      "lat_bucket{le=\"+Inf\"} 2\n";
  std::set<std::string> seen;
  const std::string first = RelabelPrometheusText(page, "node", "n0", &seen);
  EXPECT_NE(first.find("# TYPE q_total counter\n"), std::string::npos);
  EXPECT_NE(first.find("q_total{node=\"n0\"} 3"), std::string::npos);
  EXPECT_NE(first.find("lat_bucket{le=\"+Inf\",node=\"n0\"} 2"),
            std::string::npos);
  const std::string second = RelabelPrometheusText(page, "node", "n1", &seen);
  // TYPE lines already emitted for these families: only samples repeat.
  EXPECT_EQ(second.find("# TYPE"), std::string::npos);
  EXPECT_NE(second.find("q_total{node=\"n1\"} 3"), std::string::npos);
}

TEST(RelabelTest, QuotedBracesInLabelValuesDoNotConfuseInjection) {
  std::set<std::string> seen;
  const std::string out = RelabelPrometheusText(
      "weird{k=\"a}b\"} 1\n", "node", "n0", &seen);
  EXPECT_NE(out.find("weird{k=\"a}b\",node=\"n0\"} 1"), std::string::npos);
}

TEST(TraceSamplerTest, RateOneSamplesEverything) {
  TraceSampler sampler(1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(sampler.Sample());
}

TEST(TraceSamplerTest, RateNSamplesRoughlyOneInN) {
  TraceSampler sampler(64);
  int sampled = 0;
  for (int i = 0; i < 64000; ++i) sampled += sampler.Sample() ? 1 : 0;
  // ~1000 expected; SplitMix64 spreads decisions, so a wide band is
  // deterministic-safe (the sequence is fixed per process).
  EXPECT_GT(sampled, 500);
  EXPECT_LT(sampled, 1500);
}

TEST(TraceBufferTest, RingEvictsOldestAndSlowLogPinsSlowest) {
  TraceBuffer buffer(/*capacity=*/4, /*slow_capacity=*/2);
  for (int i = 0; i < 10; ++i) {
    QueryTrace trace;
    // Latencies 0.01..0.10; the slowest two are the LAST adds, which the
    // ring also retains — and an early slow outlier must survive churn.
    buffer.Add(trace, std::string("q").append(std::to_string(i)),
               0.01 * (i + 1), i);
  }
  {
    QueryTrace trace;
    buffer.Add(trace, "outlier", 9.9, 99);
  }
  for (int i = 0; i < 8; ++i) {
    QueryTrace trace;
    buffer.Add(trace, "fast", 0.001, 100 + i);
  }
  const auto recent = buffer.Recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0].label, "fast");  // newest first
  EXPECT_EQ(buffer.added(), 19);
  const auto slowest = buffer.Slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].label, "outlier");  // pinned despite ring churn
  EXPECT_DOUBLE_EQ(slowest[0].latency_seconds, 9.9);
  EXPECT_EQ(slowest[1].label, "q9");
  const std::string page = buffer.RenderTracez();
  EXPECT_NE(page.find("slow-query log"), std::string::npos);
  EXPECT_NE(page.find("outlier"), std::string::npos);
}

TEST(TraceBufferTest, AddCopiesSpansAndRegistersMetrics) {
  MetricRegistry registry;
  std::vector<MetricRegistry::Registration> registrations;
  TraceBuffer buffer(8, 2);
  buffer.RegisterMetrics(&registry, &registrations);
  QueryTrace trace;
  const auto now = QueryTrace::Clock::now();
  trace.AddSpan("kernel", now, now + std::chrono::milliseconds(2));
  buffer.Add(trace, "labeled", 0.002, 7);
  const auto recent = buffer.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].corpus_version, 7u);
  ASSERT_EQ(recent[0].spans.size(), 1u);
  EXPECT_EQ(recent[0].spans[0].name, "kernel");
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("diverse_traces_sampled_total 1"), std::string::npos);
  EXPECT_NE(text.find("diverse_traces_retained 1"), std::string::npos);
}

TEST(QueryTraceTest, IdsAreUniqueAndNonZero) {
  QueryTrace a;
  QueryTrace b;
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(b.id(), 0u);
  EXPECT_NE(a.id(), b.id());
}

TEST(QueryTraceTest, ClampsBackwardSpansToZeroLength) {
  QueryTrace trace;
  const auto now = QueryTrace::Clock::now();
  trace.AddSpan("weird", now, now - std::chrono::milliseconds(5));
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].duration_seconds, 0.0);
}

TEST(QueryTraceTest, ConcurrentAddSpanIsSafe) {
  QueryTrace trace;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 64;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&trace, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(&trace, std::string("t").append(std::to_string(t)));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(trace.spans().size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
}

TEST(QueryTraceTest, NullTraceScopedSpanIsANoOp) {
  ScopedSpan span(nullptr, "ignored");  // must not crash or allocate a trace
}

TEST(QueryTraceTest, RenderListsEverySpan) {
  QueryTrace trace;
  { ScopedSpan span(&trace, "alpha"); }
  { ScopedSpan span(&trace, "beta"); }
  const std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("trace "), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("beta"), std::string::npos);
}

TEST(QueryTraceTest, RenderAndTracezShareTheSpanLineFormat) {
  QueryTrace::Span span;
  span.name = "merge";
  span.start_seconds = 0.0015;
  span.duration_seconds = 0.00025;
  std::string line;
  AppendSpanLine(&line, span);
  EXPECT_EQ(line, "  merge @1.500ms +0.250ms\n");

  QueryTrace trace;
  const auto epoch = trace.epoch();
  trace.AddSpan("merge", epoch + std::chrono::microseconds(1500),
                epoch + std::chrono::microseconds(1750));
  const std::string header = "trace " + std::to_string(trace.id()) + "\n";
  EXPECT_EQ(trace.Render(), header + line);
  TraceBuffer buffer(4, 1);
  buffer.Add(trace, "label", 0.002, 1);
  const std::string page = buffer.RenderTracez();
  EXPECT_NE(page.find(line), std::string::npos) << page;
}

// Stores one NodeTiming over the round trip [t0_us, t1_us] and checks the
// expansion's contract: the five phase names, each span inside [t0, t1],
// every duration >= 0.
void ExpectFiveNodeSpansInside(const NodeTiming& timing, int t0_us, int t1_us) {
  QueryTrace trace;
  const QueryTrace::Clock::duration t0 = std::chrono::microseconds(t0_us);
  const QueryTrace::Clock::duration t1 = std::chrono::microseconds(t1_us);
  trace.AddNodeTiming(3, 1, trace.epoch() + t0, trace.epoch() + t1, timing);
  const double lo = std::chrono::duration<double>(t0).count();
  const double hi = std::chrono::duration<double>(t1).count();
  const std::vector<QueryTrace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 5u) << trace.Render();
  std::set<std::string> phases;
  for (const QueryTrace::Span& span : spans) {
    // "rpc.shard3/<phase> node=1", the handle span then " skew<=X.XXXms".
    ASSERT_EQ(span.name.rfind("rpc.shard3/", 0), 0u) << span.name;
    const std::size_t phase_end = span.name.find(" node=1");
    ASSERT_NE(phase_end, std::string::npos) << span.name;
    phases.insert(span.name.substr(11, phase_end - 11));
    EXPECT_GE(span.duration_seconds, 0.0) << span.name;
    EXPECT_GE(span.start_seconds, lo) << span.name;
    EXPECT_LE(span.start_seconds + span.duration_seconds, hi) << span.name;
  }
  std::string seen;
  for (const std::string& phase : phases) seen.append(phase).append(" ");
  EXPECT_EQ(seen, "decode encode handle kernel wait ") << trace.Render();
}

TEST(QueryTraceTest, NodeTimingExpandsIntoFiveNestedSpans) {
  // In order: a 4 ms handle block inside a 6 ms round trip.
  ExpectFiveNodeSpansInside({0.0005, 0.001, 0.003, 0.004}, 10000, 16000);
  // Out of order: decoded after handled, kernel_end before kernel_start.
  ExpectFiveNodeSpansInside({0.006, 0.002, 0.001, 0.003}, 10000, 16000);
  // The node claims more time than the whole round trip took.
  ExpectFiveNodeSpansInside({0.001, 0.002, 0.050, 0.090}, 10000, 16000);
  // Zero-length round trip.
  ExpectFiveNodeSpansInside({0.001, 0.002, 0.003, 0.004}, 10000, 10000);
  // All-zero stamps, which is what the decoder leaves of garbage.
  ExpectFiveNodeSpansInside(NodeTiming{}, 10000, 12000);
}

TEST(QueryTraceTest, NodeSpansFollowTheirParentInStartOrder) {
  QueryTrace trace;
  const auto t0 = trace.epoch() + std::chrono::milliseconds(2);
  const auto t1 = t0 + std::chrono::milliseconds(6);
  const auto slack = std::chrono::microseconds(10);
  // Recorded out of order, as RunShardRemote does: the node timing lands
  // before its enclosing rpc.shard span closes.
  trace.AddNodeTiming(0, 0, t0, t1, {0.001, 0.001, 0.003, 0.004});
  trace.AddSpan("rpc.shard0", t0 - slack, t1 + slack);
  trace.AddSpan("queue", trace.epoch(), t0 - std::chrono::milliseconds(1));
  trace.AddSpan("merge", t1 + slack, t1 + std::chrono::milliseconds(1));
  const std::vector<QueryTrace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 8u) << trace.Render();
  EXPECT_EQ(spans[0].name, "queue");
  EXPECT_EQ(spans[1].name, "rpc.shard0");
  EXPECT_EQ(spans[2].name, "rpc.shard0/handle node=0 skew<=1.000ms");
  EXPECT_EQ(spans[3].name, "rpc.shard0/decode node=0");
  EXPECT_EQ(spans[4].name, "rpc.shard0/wait node=0");
  EXPECT_EQ(spans[5].name, "rpc.shard0/kernel node=0");
  EXPECT_EQ(spans[6].name, "rpc.shard0/encode node=0");
  EXPECT_EQ(spans[7].name, "merge");
  // The kernel span's duration is exact: 2 ms on the node's clock.
  EXPECT_NEAR(spans[5].duration_seconds, 0.002, 1e-9);
}

TEST(QueryTraceTest, ConcurrentNodeTimingSpansAndReadsAreSafe) {
  QueryTrace trace;
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 64;
  std::atomic<bool> done{false};
  std::thread reader([&trace, &done] {
    while (!done.load()) {
      const std::vector<QueryTrace::Span> spans = trace.spans();
      for (std::size_t i = 1; i < spans.size(); ++i) {
        ASSERT_LE(spans[i - 1].start_seconds, spans[i].start_seconds);
      }
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&trace, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        const auto t0 = QueryTrace::Clock::now();
        trace.AddNodeTiming(t, i, t0, QueryTrace::Clock::now(), NodeTiming{});
        ScopedSpan span(&trace, std::string("t").append(std::to_string(t)));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(trace.spans().size(),
            static_cast<std::size_t>(kThreads * kRecordsPerThread * 6));
}

// ---------------------------------------------------------------------
// End-to-end: engine + coordinator + ShardNode replicas over
// InProcessTransport.

struct Cluster {
  std::vector<std::unique_ptr<rpc::ShardNode>> nodes;
  std::vector<std::unique_ptr<rpc::InProcessTransport>> transports;
  std::unique_ptr<rpc::Coordinator> coordinator;
  std::unique_ptr<engine::DiversificationEngine> engine;
};

Cluster MakeCluster(int n, int num_nodes, MetricRegistry* registry,
                    std::uint64_t seed, int workers = 1) {
  Rng rng(seed);
  const Dataset data = MakeUniformSynthetic(n, rng);
  Cluster cluster;
  std::vector<rpc::Transport*> raw;
  for (int i = 0; i < num_nodes; ++i) {
    Dataset replica = data;
    cluster.nodes.push_back(std::make_unique<rpc::ShardNode>(
        replica.weights, std::move(replica.metric), 0.2));
    cluster.transports.push_back(std::make_unique<rpc::InProcessTransport>(
        cluster.nodes.back().get()));
    raw.push_back(cluster.transports.back().get());
  }
  cluster.coordinator = std::make_unique<rpc::Coordinator>(raw);
  if (registry != nullptr) cluster.coordinator->RegisterMetrics(registry);
  engine::DiversificationEngine::Options options;
  options.num_workers = workers;
  options.remote = cluster.coordinator.get();
  options.registry = registry;
  Dataset mine = data;
  cluster.engine = std::make_unique<engine::DiversificationEngine>(
      mine.weights, std::move(mine.metric), 0.2, options);
  return cluster;
}

engine::Query MakeRemoteQuery(int universe, int p, int num_shards,
                              Rng& rng) {
  engine::SyntheticQueryConfig config;
  config.p = p;
  config.universe = universe;
  config.sharded = true;
  config.remote = true;
  config.num_shards = num_shards;
  return engine::MakeSyntheticQuery(config, rng);
}

TEST(ObsIntegrationTest, TracedRemoteQueryCoversTheServingPipeline) {
  MetricRegistry registry;
  Cluster cluster = MakeCluster(/*n=*/120, /*num_nodes=*/2, &registry,
                                /*seed=*/31);
  Rng rng(32);
  engine::Query query = MakeRemoteQuery(120, 6, 4, rng);
  QueryTrace trace;
  query.trace = &trace;
  // Submit through the worker pool so the queue-wait span is recorded.
  const engine::QueryResult result =
      cluster.engine->Submit(query).get();
  ASSERT_TRUE(result.ok);

  std::set<std::string> names;
  bool has_shard_rpc = false;
  for (const QueryTrace::Span& span : trace.spans()) {
    names.insert(span.name);
    if (span.name.rfind("rpc.shard", 0) == 0) has_shard_rpc = true;
  }
  EXPECT_TRUE(names.count("queue"));
  EXPECT_TRUE(names.count("snapshot"));
  EXPECT_TRUE(names.count("merge"));
  EXPECT_TRUE(has_shard_rpc);
  EXPECT_GE(names.size(), 4u) << trace.Render();

  // The trace id crossed the wire: some node counted a traced kernel.
  long long traced = 0;
  for (const auto& node : cluster.nodes) {
    traced += node->stats().traced_queries;
  }
  EXPECT_GT(traced, 0);
}

TEST(ObsIntegrationTest, RemoteNodeSpansNestInsideTheShardRpcSpans) {
  Cluster cluster = MakeCluster(/*n=*/120, /*num_nodes=*/2, nullptr,
                                /*seed=*/91);
  Rng rng(92);
  engine::Query query = MakeRemoteQuery(120, 6, 4, rng);
  QueryTrace trace;
  query.trace = &trace;
  ASSERT_TRUE(cluster.engine->RunSync(query).ok);

  // Parents are the router-side "rpc.shard<s>" spans; children are the
  // node-recorded "rpc.shard<s>/<name> node=<k>" spans aligned into the
  // parent timeline.
  std::vector<QueryTrace::Span> parents;
  std::vector<QueryTrace::Span> children;
  for (const QueryTrace::Span& span : trace.spans()) {
    if (span.name.rfind("rpc.shard", 0) != 0) continue;
    if (span.name.find('/') == std::string::npos) {
      parents.push_back(span);
    } else {
      children.push_back(span);
    }
  }
  ASSERT_FALSE(parents.empty()) << trace.Render();
  ASSERT_FALSE(children.empty()) << trace.Render();

  // Every child carries its node label and fits inside the matching
  // parent interval — the alignment clamps guarantee containment, not
  // just approximation.
  for (const QueryTrace::Span& child : children) {
    EXPECT_NE(child.name.find(" node="), std::string::npos) << child.name;
    const std::string parent_name =
        child.name.substr(0, child.name.find('/'));
    bool nested = false;
    for (const QueryTrace::Span& parent : parents) {
      if (parent.name != parent_name) continue;
      if (child.start_seconds >= parent.start_seconds &&
          child.start_seconds + child.duration_seconds <=
              parent.start_seconds + parent.duration_seconds) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << child.name << "\n" << trace.Render();
  }

  // Each answered shard RPC shows the node-side kernel, and the handle
  // span carries the clock-skew annotation.
  for (const QueryTrace::Span& parent : parents) {
    bool has_kernel = false;
    bool has_skew = false;
    for (const QueryTrace::Span& child : children) {
      if (child.name.rfind(parent.name + "/", 0) != 0) continue;
      if (child.name.rfind(parent.name + "/kernel", 0) == 0) {
        has_kernel = true;
      }
      if (child.name.find(" skew<=") != std::string::npos) has_skew = true;
    }
    EXPECT_TRUE(has_kernel) << parent.name << "\n" << trace.Render();
    EXPECT_TRUE(has_skew) << parent.name << "\n" << trace.Render();
  }
}

TEST(ObsIntegrationTest, ReplicationPublishIsTracedAndLagGaugesRender) {
  Rng rng(95);
  const Dataset data = MakeUniformSynthetic(60, rng);
  std::vector<std::unique_ptr<rpc::ShardNode>> nodes;
  std::vector<std::unique_ptr<rpc::InProcessTransport>> transports;
  std::vector<rpc::Transport*> raw;
  for (int i = 0; i < 2; ++i) {
    Dataset replica = data;
    nodes.push_back(std::make_unique<rpc::ShardNode>(
        replica.weights, std::move(replica.metric), 0.2));
    transports.push_back(
        std::make_unique<rpc::InProcessTransport>(nodes.back().get()));
    raw.push_back(transports.back().get());
  }
  // Registry and trace sink outlive the coordinator that registers into
  // them (registrations unregister on coordinator destruction).
  MetricRegistry registry;
  TraceBuffer replication_traces;
  rpc::Coordinator::Options options;
  options.replication_traces = &replication_traces;
  options.replication_trace_sample_every = 1;
  rpc::Coordinator coordinator(raw, options);
  coordinator.RegisterMetrics(&registry);

  const std::vector<engine::CorpusUpdate> updates = {
      engine::CorpusUpdate::SetWeight(3, 0.75)};
  coordinator.PublishEpoch(1, updates);

  // The publish fan-out was traced: one timeline with a per-target span.
  ASSERT_GE(replication_traces.added(), 1);
  const std::vector<CompletedTrace> recent = replication_traces.Recent();
  ASSERT_FALSE(recent.empty());
  bool saw_publish_span = false;
  for (const CompletedTrace& completed : recent) {
    if (completed.label.rfind("publish", 0) != 0) continue;
    for (const QueryTrace::Span& span : completed.spans) {
      if (span.name == "publish.node0") saw_publish_span = true;
    }
  }
  EXPECT_TRUE(saw_publish_span) << replication_traces.RenderTracez();

  // Both replicas acked version 1, so the per-target lag gauges exist
  // and read zero.
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("diverse_replica_acked_version{target=\"node0\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("diverse_replication_lag_epochs{target=\"node0\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("diverse_replication_lag_epochs{target=\"node1\"} 0"),
            std::string::npos)
      << text;
}

TEST(ObsIntegrationTest, TracedAndUntracedAnswersAreBitEqual) {
  MetricRegistry registry;
  Cluster traced_cluster = MakeCluster(/*n=*/100, /*num_nodes=*/2, &registry,
                                       /*seed=*/41);
  Cluster plain_cluster = MakeCluster(/*n=*/100, /*num_nodes=*/2, nullptr,
                                      /*seed=*/41);
  Rng rng(42);
  for (int i = 0; i < 5; ++i) {
    engine::Query query = MakeRemoteQuery(100, 5, 4, rng);
    QueryTrace trace;
    engine::Query traced_query = query;
    traced_query.trace = &trace;
    const engine::QueryResult with_trace =
        traced_cluster.engine->RunSync(traced_query);
    const engine::QueryResult without_trace =
        plain_cluster.engine->RunSync(query);
    ASSERT_TRUE(with_trace.ok);
    EXPECT_EQ(with_trace.elements, without_trace.elements);
    EXPECT_EQ(with_trace.objective, without_trace.objective);
    EXPECT_EQ(with_trace.corpus_version, without_trace.corpus_version);
    EXPECT_FALSE(trace.spans().empty());
  }
}

TEST(ObsIntegrationTest, SampledQueriesAreBitEqualAndFeedTheBuffer) {
  // trace_sample_every=1 turns every RunSync into a sampled run; results
  // must still match an engine with no tracing wired at all.
  Rng data_rng(81);
  const Dataset data = MakeUniformSynthetic(90, data_rng);

  TraceBuffer buffer(32, 4);
  engine::DiversificationEngine::Options sampled_options;
  sampled_options.num_workers = 1;
  sampled_options.trace_buffer = &buffer;
  sampled_options.trace_sample_every = 1;
  Dataset sampled_data = data;
  engine::DiversificationEngine sampled_engine(
      sampled_data.weights, std::move(sampled_data.metric), 0.2,
      sampled_options);

  Dataset plain_data = data;
  engine::DiversificationEngine plain_engine(
      plain_data.weights, std::move(plain_data.metric), 0.2);

  Rng rng(82);
  for (int i = 0; i < 6; ++i) {
    engine::SyntheticQueryConfig config;
    config.p = 4;
    config.universe = 90;
    const engine::Query query = engine::MakeSyntheticQuery(config, rng);
    const engine::QueryResult sampled = sampled_engine.RunSync(query);
    const engine::QueryResult plain = plain_engine.RunSync(query);
    ASSERT_TRUE(sampled.ok);
    EXPECT_EQ(sampled.elements, plain.elements);
    EXPECT_EQ(sampled.objective, plain.objective);
    EXPECT_EQ(sampled.corpus_version, plain.corpus_version);
  }

  // RunSync adds to the buffer before returning, so the count is exact.
  EXPECT_EQ(buffer.added(), 6);
  const std::vector<CompletedTrace> recent = buffer.Recent();
  ASSERT_EQ(recent.size(), 6u);
  bool saw_snapshot = false;
  for (const CompletedTrace& trace : recent) {
    EXPECT_EQ(trace.label, "greedy/single p=4");
    for (const QueryTrace::Span& span : trace.spans) {
      if (span.name == "snapshot") saw_snapshot = true;
    }
  }
  EXPECT_TRUE(saw_snapshot);
}

// Jobs of one worker batch run one after another on one snapshot. Each
// sampled job's timeline starts at its own enqueue: its queue span sits
// at offset 0 and nothing renders before it, however long the jobs ahead
// of it in the batch ran. That time is the "batch" span of every job but
// the first, starting where the snapshot span ends.
TEST(ObsIntegrationTest, SampledBatchJobsStartTheirTimelineAtEnqueue) {
  Rng data_rng(85);
  const Dataset data = MakeUniformSynthetic(120, data_rng);
  TraceBuffer buffer(32, 4);
  engine::DiversificationEngine::Options options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.trace_buffer = &buffer;
  options.trace_sample_every = 1;
  Dataset mine = data;
  auto engine = std::make_unique<engine::DiversificationEngine>(
      mine.weights, std::move(mine.metric), 0.2, options);

  Rng rng(86);
  std::vector<engine::Query> queries;
  for (int i = 0; i < 4; ++i) {
    engine::SyntheticQueryConfig config;
    config.p = 6;
    config.universe = 120;
    queries.push_back(engine::MakeSyntheticQuery(config, rng));
  }
  for (auto& future : engine->SubmitBatch(queries)) future.get();
  EXPECT_EQ(engine->stats().batches, 1);
  engine.reset();  // joins the worker: every trace is in the buffer

  const std::vector<CompletedTrace> recent = buffer.Recent();
  ASSERT_EQ(recent.size(), 4u);
  int waited = 0;
  for (const CompletedTrace& trace : recent) {
    ASSERT_GE(trace.spans.size(), 2u);
    EXPECT_EQ(trace.spans[0].name, "queue");
    EXPECT_EQ(trace.spans[0].start_seconds, 0.0);
    EXPECT_EQ(trace.spans[1].name, "snapshot");
    const double snapshot_end =
        trace.spans[1].start_seconds + trace.spans[1].duration_seconds;
    for (const QueryTrace::Span& span : trace.spans) {
      EXPECT_GE(span.start_seconds, 0.0) << span.name;
      if (span.name != "batch") continue;
      ++waited;
      EXPECT_NEAR(span.start_seconds, snapshot_end, 1e-9);
    }
  }
  EXPECT_EQ(waited, 3);
}

TEST(ObsIntegrationTest, EngineMetricsLandInTheRegistry) {
  MetricRegistry registry;
  Cluster cluster = MakeCluster(/*n=*/80, /*num_nodes=*/1, &registry,
                                /*seed=*/51);
  Rng rng(52);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.engine->RunSync(MakeRemoteQuery(80, 4, 2, rng)).ok);
  }
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("diverse_engine_queries_total 3"), std::string::npos);
  EXPECT_NE(text.find("diverse_engine_corpus_version 0"), std::string::npos);
  EXPECT_NE(text.find("diverse_router_remote_shards_total"),
            std::string::npos);
  EXPECT_NE(text.find("diverse_log_published_version"), std::string::npos);
  EXPECT_NE(text.find("diverse_engine_query_latency_seconds_bucket"),
            std::string::npos);
}

// The router counters reach the registry through the coordinator's own
// registrations, so after a run that takes every query path — a killed
// node (failed proactive catch-up, local fallback), its revival (proactive
// catch-up) and a silent restart (version mismatch) — each
// diverse_router_*_total line of the scrape equals its stats() field.
TEST(ObsIntegrationTest, RouterCountersInTheScrapeMatchCoordinatorStats) {
  MetricRegistry registry;
  Cluster cluster = MakeCluster(/*n=*/80, /*num_nodes=*/2, &registry,
                                /*seed=*/55);
  Rng rng(56);
  const auto run_query = [&] {
    ASSERT_TRUE(cluster.engine->RunSync(MakeRemoteQuery(80, 4, 4, rng)).ok);
  };
  cluster.transports[1]->set_down(true);
  const std::vector<engine::CorpusUpdate> updates = {
      engine::CorpusUpdate::SetWeight(3, 0.75)};
  cluster.coordinator->PublishEpoch(cluster.engine->ApplyUpdates(updates),
                                    updates);
  run_query();
  run_query();
  cluster.transports[1]->set_down(false);
  run_query();
  // A fresh replica at version 0 behind the same address, while the
  // coordinator's tracking says node 1 is current.
  Rng data_rng(55);
  Dataset data = MakeUniformSynthetic(80, data_rng);
  cluster.nodes.push_back(std::make_unique<rpc::ShardNode>(
      data.weights, std::move(data.metric), 0.2));
  cluster.transports[1]->set_node(cluster.nodes.back().get());
  run_query();

  const rpc::Coordinator::Stats stats = cluster.coordinator->stats();
  EXPECT_GT(stats.remote_shards, 0);
  EXPECT_GT(stats.local_fallbacks, 0);
  EXPECT_GT(stats.version_mismatches, 0);
  EXPECT_GT(stats.proactive_catchups, 0);
  const std::vector<std::pair<std::string, long long>> expected = {
      {"diverse_router_remote_shards_total", stats.remote_shards},
      {"diverse_router_local_fallbacks_total", stats.local_fallbacks},
      {"diverse_router_version_mismatches_total", stats.version_mismatches},
      {"diverse_router_proactive_catchups_total", stats.proactive_catchups},
  };
  const std::string text = RenderPrometheusText(registry);
  std::size_t router_lines = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.rfind("diverse_router_", 0) != 0) continue;
    ++router_lines;
    const std::size_t space = line.find(' ');
    const std::string name = line.substr(0, space);
    bool known = false;
    for (const auto& [metric, value] : expected) {
      if (metric != name) continue;
      known = true;
      EXPECT_EQ(line.substr(space + 1), std::to_string(value)) << line;
    }
    EXPECT_TRUE(known) << line;
  }
  EXPECT_EQ(router_lines, expected.size()) << text;
}

TEST(ObsIntegrationTest, ShardNodeIsScrapeableInBothFormats) {
  MetricRegistry registry;
  Cluster cluster = MakeCluster(/*n=*/80, /*num_nodes=*/1, &registry,
                                /*seed=*/61);
  Rng rng(62);
  ASSERT_TRUE(cluster.engine->RunSync(MakeRemoteQuery(80, 4, 2, rng)).ok);

  std::string prometheus;
  ASSERT_TRUE(rpc::ScrapeStats(cluster.transports[0].get(),
                               rpc::StatsFormat::kPrometheus, &prometheus));
  EXPECT_NE(prometheus.find("diverse_node_queries_total"),
            std::string::npos);
  EXPECT_NE(prometheus.find("diverse_node_corpus_version"),
            std::string::npos);
  EXPECT_NE(prometheus.find("diverse_node_kernel_latency_seconds_bucket"),
            std::string::npos);

  std::string json;
  ASSERT_TRUE(rpc::ScrapeStats(cluster.transports[0].get(),
                               rpc::StatsFormat::kJson, &json));
  EXPECT_NE(json.find("\"diverse_node_queries_total\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(ObsIntegrationTest, CorruptStatsRequestIsRejectedNotServed) {
  Rng rng(71);
  Dataset data = MakeUniformSynthetic(40, rng);
  rpc::ShardNode node(data.weights, std::move(data.metric), 0.2);
  rpc::StatsRequest request;
  request.format = rpc::StatsFormat::kPrometheus;
  std::vector<std::uint8_t> payload = rpc::Encode(request);
  payload[3] = 9;  // format byte out of the StatsFormat range
  const std::vector<std::uint8_t> reply = node.Handle(payload);
  rpc::StatsResponse response;
  EXPECT_FALSE(rpc::Decode(reply, &response));
  EXPECT_EQ(node.stats().rejected, 1);
}

}  // namespace
}  // namespace obs
}  // namespace diverse
