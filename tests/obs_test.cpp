// obs_test.cpp — the observability layer: span tracer and metrics registry.
//
// Covers span recording (nesting depth, per-thread attribution, the
// Chrome-trace rendering, the disabled fast path), metric primitives
// (counter, gauge, histogram bucket boundaries and quantiles), the
// Prometheus text rendering GET /metrics serves, the registry JSON
// snapshot dist workers dump as telemetry sidecars, and the sidecar merge
// (merge_telemetry / merge_job_telemetry). The tracer and registry are
// process-global, so every test restores the disabled state on exit.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dist/job_dir.h"
#include "eval/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scratch_dir.h"

namespace fsa::obs {
namespace {

namespace fs = std::filesystem;

/// Every tracer test starts from a clean slate and leaves tracing off.
struct TraceGuard {
  TraceGuard() {
    set_trace_enabled(true);
    clear_spans();
  }
  ~TraceGuard() {
    clear_spans();
    set_trace_enabled(false);
  }
};

std::vector<SpanRecord> spans_named(const std::string& name) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : snapshot_spans())
    if (s.name == name) out.push_back(s);
  return out;
}

// ---- tracer ------------------------------------------------------------------

TEST(Trace, DisabledRecordsNothing) {
  set_trace_enabled(false);
  clear_spans();
  const std::size_t before = span_count();
  {
    OBS_SPAN("obs_test.disabled");
    OBS_SPAN("obs_test.disabled_tagged", std::string("tag"));
  }
  EXPECT_EQ(span_count(), before);
}

TEST(Trace, RecordsNestedSpansWithDepth) {
  TraceGuard guard;
  {
    OBS_SPAN("obs_test.outer");
    {
      OBS_SPAN("obs_test.inner");
      { OBS_SPAN("obs_test.innermost"); }
    }
  }
  const auto outer = spans_named("obs_test.outer");
  const auto inner = spans_named("obs_test.inner");
  const auto innermost = spans_named("obs_test.innermost");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  ASSERT_EQ(innermost.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0u);
  EXPECT_EQ(inner[0].depth, 1u);
  EXPECT_EQ(innermost[0].depth, 2u);
  // All on one thread, and nesting implies containment in time.
  EXPECT_EQ(outer[0].tid, inner[0].tid);
  EXPECT_LE(outer[0].start_us, inner[0].start_us);
  EXPECT_GE(outer[0].start_us + outer[0].dur_us, inner[0].start_us + inner[0].dur_us);
}

TEST(Trace, ThreadsGetDistinctIdsAndDepthIsPerThread) {
  TraceGuard guard;
  { OBS_SPAN("obs_test.main_thread"); }
  std::thread worker([] {
    OBS_SPAN("obs_test.worker_thread");
    { OBS_SPAN("obs_test.worker_nested"); }
  });
  worker.join();
  const auto main_spans = spans_named("obs_test.main_thread");
  const auto worker_spans = spans_named("obs_test.worker_thread");
  const auto nested = spans_named("obs_test.worker_nested");
  ASSERT_EQ(main_spans.size(), 1u);
  ASSERT_EQ(worker_spans.size(), 1u);
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_NE(main_spans[0].tid, worker_spans[0].tid);
  EXPECT_EQ(worker_spans[0].tid, nested[0].tid);
  // The worker's depth counter is its own: its top-level span is depth 0
  // even though the main thread also opened spans.
  EXPECT_EQ(worker_spans[0].depth, 0u);
  EXPECT_EQ(nested[0].depth, 1u);
}

TEST(Trace, TagIsCapturedAndRenderedAsArgs) {
  TraceGuard guard;
  { OBS_SPAN("obs_test.tagged", std::string("method=fsa-l0 shard=3")); }
  const auto tagged = spans_named("obs_test.tagged");
  ASSERT_EQ(tagged.size(), 1u);
  EXPECT_EQ(tagged[0].tag, "method=fsa-l0 shard=3");

  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.tagged\""), std::string::npos);
  EXPECT_NE(json.find("method=fsa-l0 shard=3"), std::string::npos);
  // Chrome trace-event essentials: complete events with timestamps.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  // The document must be valid JSON (our own strict parser is the check).
  EXPECT_NO_THROW((void)eval::Json::parse(json));
}

TEST(Trace, WriteChromeTraceProducesParseableFile) {
  TraceGuard guard;
  { OBS_SPAN("obs_test.to_file"); }
  const std::string path = testutil::scratch_path("fsa_obs_trace_test.json");
  write_chrome_trace(path);
  const eval::Json doc = dist::read_json_file(path);
  EXPECT_TRUE(doc.has("traceEvents"));
  EXPECT_GE(doc.at("traceEvents").items().size(), 1u);
  fs::remove(path);
}

TEST(Trace, ClearSpansDiscardsHistory) {
  TraceGuard guard;
  { OBS_SPAN("obs_test.cleared"); }
  EXPECT_GE(span_count(), 1u);
  clear_spans();
  EXPECT_EQ(span_count(), 0u);
  EXPECT_TRUE(spans_named("obs_test.cleared").empty());
}

// ---- metric primitives -------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);

  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1       -> bucket 0
  h.observe(1.0);  // == bound   -> bucket 0 (inclusive upper bound)
  h.observe(1.5);  // (1, 2]     -> bucket 1
  h.observe(4.0);  // == bound   -> bucket 2
  h.observe(9.0);  // > last     -> +Inf overflow bucket
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 1);  // +Inf
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(Metrics, HistogramQuantilesInterpolate) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket 0
  for (int i = 0; i < 10; ++i) h.observe(15.0);   // bucket 1
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  // p50 lands exactly at the bucket-0/bucket-1 boundary.
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1e-9);
  // p75 is halfway through bucket 1: interpolates between 10 and 20.
  EXPECT_NEAR(h.quantile(0.75), 15.0, 1e-9);
  // Observations past every bound clamp to the highest finite bound.
  Histogram overflow({1.0});
  overflow.observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.99), 1.0);
  // Empty histogram answers 0, not NaN.
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(Metrics, BoundHelpers) {
  EXPECT_EQ(exponential_bounds(1.0, 2.0, 4), (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(linear_bounds(1.0, 1.0, 3), (std::vector<double>{1.0, 2.0, 3.0}));
}

// ---- registry ----------------------------------------------------------------

TEST(Metrics, RegistryGetOrCreateAndKindMismatch) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("obs_test_registry_counter");
  Counter& b = reg.counter("obs_test_registry_counter");
  EXPECT_EQ(&a, &b);  // same name -> same object
  EXPECT_THROW((void)reg.gauge("obs_test_registry_counter"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("obs_test_registry_counter", {1.0}), std::invalid_argument);
  a.reset();
}

TEST(Metrics, PrometheusTextFormat) {
  Registry& reg = Registry::global();
  reg.counter("obs_test_prom_total").reset();
  reg.counter("obs_test_prom_total").inc(3);
  reg.gauge("obs_test_prom_depth").set(2.0);
  Histogram& h = reg.histogram("obs_test_prom_ms", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(5.0);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE obs_test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_ms histogram"), std::string::npos);
  // Buckets render CUMULATIVE with an +Inf bucket, plus _sum and _count.
  EXPECT_NE(text.find("obs_test_prom_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ms_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ms_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ms_count 2"), std::string::npos);
}

TEST(Metrics, PrometheusLabeledFamiliesShareOneTypeLine) {
  Registry& reg = Registry::global();
  reg.counter("obs_test_labeled_total{worker=\"a\"}").reset();
  reg.counter("obs_test_labeled_total{worker=\"b\"}").reset();
  reg.counter("obs_test_labeled_total{worker=\"a\"}").inc();
  const std::string text = reg.prometheus_text();
  std::size_t type_lines = 0;
  for (std::size_t at = text.find("# TYPE obs_test_labeled_total counter");
       at != std::string::npos;
       at = text.find("# TYPE obs_test_labeled_total counter", at + 1))
    ++type_lines;
  EXPECT_EQ(type_lines, 1u);  // one family, two label variants
  EXPECT_NE(text.find("obs_test_labeled_total{worker=\"a\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test_labeled_total{worker=\"b\"} 0"), std::string::npos);
}

TEST(Metrics, JsonSnapshotRoundTripsThroughParser) {
  Registry& reg = Registry::global();
  reg.counter("obs_test_json_total").reset();
  reg.counter("obs_test_json_total").inc(7);
  const eval::Json doc = eval::Json::parse(reg.to_json().dump(2));
  EXPECT_EQ(doc.at("counters").get_int("obs_test_json_total", 0), 7);
  EXPECT_TRUE(doc.has("gauges"));
  EXPECT_TRUE(doc.has("histograms"));
}

// ---- telemetry merge ---------------------------------------------------------

eval::Json telemetry_doc(std::int64_t rows, double depth, std::vector<double> counts,
                         std::vector<double> bucket_bounds = {1.0, 2.0}) {
  eval::Json counters = eval::Json::object();
  counters.set("fsa_rows_total", eval::Json::number(rows));
  eval::Json gauges = eval::Json::object();
  gauges.set("fsa_queue_depth", eval::Json::number(depth));
  eval::Json hist = eval::Json::object();
  eval::Json bounds = eval::Json::array();
  for (const double b : bucket_bounds) bounds.push_back(eval::Json::number(b));
  hist.set("bounds", std::move(bounds));
  eval::Json arr = eval::Json::array();
  double total = 0.0, sum = 0.0;
  for (const double c : counts) {
    arr.push_back(eval::Json::number(c));
    total += c;
    sum += c;  // pretend every observation was 1.0
  }
  hist.set("counts", std::move(arr));
  hist.set("sum", eval::Json::number(sum));
  hist.set("count", eval::Json::number(total));
  eval::Json hists = eval::Json::object();
  hists.set("fsa_ms", std::move(hist));
  eval::Json doc = eval::Json::object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  doc.set("histograms", std::move(hists));
  return doc;
}

TEST(Telemetry, MergeAddsCountersMaxesGaugesAddsHistograms) {
  const eval::Json a = telemetry_doc(3, 2.0, {1.0, 0.0, 1.0});
  const eval::Json b = telemetry_doc(4, 5.0, {0.0, 2.0, 0.0});
  const eval::Json m = merge_telemetry(a, b);
  EXPECT_EQ(m.at("counters").get_int("fsa_rows_total", 0), 7);
  EXPECT_DOUBLE_EQ(m.at("gauges").get_number("fsa_queue_depth", 0.0), 5.0);
  const eval::Json& h = m.at("histograms").at("fsa_ms");
  EXPECT_DOUBLE_EQ(h.at("counts").at(0).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("counts").at(1).as_number(), 2.0);
  EXPECT_DOUBLE_EQ(h.at("counts").at(2).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.get_number("count", 0.0), 4.0);  // 2 observations per side
}

TEST(Telemetry, MergeKeepsFirstHistogramOnBoundsMismatch) {
  const eval::Json a = telemetry_doc(1, 0.0, {1.0, 0.0, 0.0});
  const eval::Json b = telemetry_doc(1, 0.0, {0.0, 1.0, 0.0}, {10.0, 20.0});  // different bounds
  const eval::Json m = merge_telemetry(a, b);
  EXPECT_DOUBLE_EQ(m.at("histograms").at("fsa_ms").at("counts").at(0).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(m.at("histograms").at("fsa_ms").at("counts").at(1).as_number(), 0.0);
}

TEST(Telemetry, MergeJobTelemetryFoldsSidecarsOutsideReduced) {
  const testutil::Scratch scratch("fsa_obs_merge_job");
  const std::string dir = scratch.sub("job");
  eval::Json manifest = eval::Json::object();
  manifest.set("shards", eval::Json::number(std::int64_t{3}));
  const dist::JobDir job = dist::JobDir::create(dir, "sweep", 3, manifest);

  // Sidecars on shards 0 and 2; shard 1 ran without FSA_METRICS.
  dist::write_json_atomic(job.telemetry_sidecar_path(0), telemetry_doc(2, 1.0, {1.0, 0.0, 0.0}));
  dist::write_json_atomic(job.telemetry_sidecar_path(2), telemetry_doc(5, 3.0, {0.0, 1.0, 0.0}));
  EXPECT_EQ(dist::merge_job_telemetry(job), 2);

  const eval::Json merged = dist::read_json_file(job.telemetry_path());
  EXPECT_EQ(merged.at("counters").get_int("fsa_rows_total", 0), 7);
  EXPECT_DOUBLE_EQ(merged.at("gauges").get_number("fsa_queue_depth", 0.0), 3.0);
  // reduced.json was never created — telemetry lives strictly beside it.
  std::error_code ec;
  EXPECT_FALSE(fs::is_regular_file(job.reduced_path(), ec));

  // No sidecars at all -> no telemetry.json, return 0.
  const std::string empty_dir = scratch.sub("none");
  const dist::JobDir none = dist::JobDir::create(empty_dir, "sweep", 2, manifest);
  EXPECT_EQ(dist::merge_job_telemetry(none), 0);
  EXPECT_FALSE(fs::is_regular_file(none.telemetry_path(), ec));
}

// ---- Json::remove (the reducer's convergence scrub) --------------------------

TEST(Telemetry, JsonRemoveDropsKeyAndIgnoresMissing) {
  eval::Json doc = eval::Json::object();
  doc.set("keep", eval::Json::number(std::int64_t{1}));
  doc.set("convergence", eval::Json::array());
  doc.remove("convergence");
  EXPECT_FALSE(doc.has("convergence"));
  EXPECT_TRUE(doc.has("keep"));
  doc.remove("convergence");  // removing twice is a no-op, not an error
  EXPECT_EQ(doc.dump(), "{\"keep\":1}");
}

}  // namespace
}  // namespace fsa::obs
