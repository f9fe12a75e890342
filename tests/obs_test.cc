#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/integrity.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "obs/flight_recorder.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_json_util.h"

namespace structura {
namespace {

using obs::MetricsRegistry;

// --- Metrics registry ----------------------------------------------------

TEST(MetricsTest, CounterAddAndValue) {
  MetricsRegistry r;
  obs::Counter* c = r.GetCounter("test.counter");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(MetricsTest, GetReturnsStableHandle) {
  MetricsRegistry r;
  obs::Counter* a = r.GetCounter("test.same");
  obs::Counter* b = r.GetCounter("test.same");
  EXPECT_EQ(a, b);
  EXPECT_NE(r.GetCounter("test.other"), a);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry r;
  obs::Gauge* g = r.GetGauge("test.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  MetricsRegistry r;
  obs::Histogram* h = r.GetHistogram("test.hist");
  h->Record(0);     // bucket 0
  h->Record(1);     // bucket 1
  h->Record(7);     // bucket 3: [4, 8)
  h->Record(1000);  // bucket 10: [512, 1024)
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_EQ(h->Sum(), 1008u);

  obs::MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hv = snap.histograms[0];
  EXPECT_EQ(hv.name, "test.hist");
  EXPECT_EQ(hv.count, 4u);
  EXPECT_EQ(hv.buckets[0], 1u);
  EXPECT_EQ(hv.buckets[1], 1u);
  EXPECT_EQ(hv.buckets[3], 1u);
  EXPECT_EQ(hv.buckets[10], 1u);
  EXPECT_DOUBLE_EQ(hv.Mean(), 252.0);
  // p50 falls in the second occupied bucket; p100 in the last.
  EXPECT_EQ(hv.Quantile(0.5), obs::BucketUpperBound(1));
  EXPECT_EQ(hv.Quantile(1.0), obs::BucketUpperBound(10));
  EXPECT_EQ(hv.Quantile(0.0), obs::BucketUpperBound(0));
}

TEST(MetricsTest, BucketUpperBounds) {
  EXPECT_EQ(obs::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::BucketUpperBound(1), 1u);
  EXPECT_EQ(obs::BucketUpperBound(4), 15u);
  EXPECT_EQ(obs::BucketUpperBound(64), ~uint64_t{0});
}

TEST(MetricsTest, SnapshotSortedByName) {
  MetricsRegistry r;
  r.GetCounter("test.b")->Increment();
  r.GetCounter("test.a")->Increment();
  r.GetCounter("test.c")->Increment();
  obs::MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "test.a");
  EXPECT_EQ(snap.counters[1].first, "test.b");
  EXPECT_EQ(snap.counters[2].first, "test.c");
}

TEST(MetricsTest, CallbackGauges) {
  MetricsRegistry r;
  int64_t live = 5;
  uint64_t id = r.RegisterGaugeFn("test.fn", [&live] { return live; });
  obs::MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 5);
  live = 9;
  EXPECT_EQ(r.Snapshot().gauges[0].second, 9);

  // Re-registration replaces the callback; the stale id can no longer
  // remove the successor's registration.
  uint64_t id2 = r.RegisterGaugeFn("test.fn", [] { return int64_t{77}; });
  ASSERT_NE(id, id2);
  r.UnregisterGaugeFn("test.fn", id);  // stale: must be a no-op
  ASSERT_EQ(r.Snapshot().gauges.size(), 1u);
  EXPECT_EQ(r.Snapshot().gauges[0].second, 77);
  r.UnregisterGaugeFn("test.fn", id2);
  EXPECT_TRUE(r.Snapshot().gauges.empty());
}

TEST(MetricsTest, KillSwitchGatesHistogramsNotCounters) {
  MetricsRegistry r;
  obs::Counter* c = r.GetCounter("test.gated.counter");
  obs::Histogram* h = r.GetHistogram("test.gated.hist");
  obs::SetMetricsEnabled(false);
  c->Increment();
  h->Record(100);
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(c->Value(), 1u) << "counters are never gated";
  EXPECT_EQ(h->Count(), 0u) << "histograms respect the kill-switch";
  h->Record(100);
  EXPECT_EQ(h->Count(), 1u);
}

TEST(MetricsTest, InternNameIsStable) {
  const char* a = obs::InternName("test.interned.name");
  const char* b = obs::InternName("test.interned.name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "test.interned.name");
  EXPECT_STRNE(obs::InternName("test.interned.other"), a);
}

uint64_t CounterIn(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(MetricsTest, OwnedRegistriesSumInAndFoldOnDestruction) {
  MetricsRegistry parent;
  parent.GetCounter("test.requests")->Add(1);
  auto a = std::make_unique<MetricsRegistry>(&parent);
  MetricsRegistry b(&parent);
  a->GetCounter("test.requests")->Add(10);
  b.GetCounter("test.requests")->Add(100);
  a->GetGauge("test.bytes")->Set(7);
  b.GetGauge("test.bytes")->Set(5);
  a->GetHistogram("test.latency_ns")->Record(3);
  b.GetHistogram("test.latency_ns")->Record(1000);

  // Counters and gauges add by name, histograms bucket by bucket; each
  // owner still reads back only its own numbers.
  obs::MetricsSnapshot live = parent.Snapshot();
  EXPECT_EQ(CounterIn(live, "test.requests"), 111u);
  ASSERT_EQ(live.gauges.size(), 1u);
  EXPECT_EQ(live.gauges[0].second, 12);
  ASSERT_EQ(live.histograms.size(), 1u);
  EXPECT_EQ(live.histograms[0].count, 2u);
  EXPECT_EQ(live.histograms[0].sum, 1003u);
  EXPECT_EQ(live.histograms[0].buckets[2], 1u);
  EXPECT_EQ(live.histograms[0].buckets[10], 1u);
  EXPECT_EQ(a->GetCounter("test.requests")->Value(), 10u);

  // Destroying an owner keeps its counts and histogram samples; its
  // gauge reading goes with it, its gauge name stays.
  a.reset();
  obs::MetricsSnapshot after = parent.Snapshot();
  EXPECT_EQ(CounterIn(after, "test.requests"), 111u);
  ASSERT_EQ(after.gauges.size(), 1u);
  EXPECT_EQ(after.gauges[0].first, "test.bytes");
  EXPECT_EQ(after.gauges[0].second, 5);
  ASSERT_EQ(after.histograms.size(), 1u);
  EXPECT_EQ(after.histograms[0].count, 2u);
  EXPECT_EQ(after.histograms[0].sum, 1003u);
}

// Owners come and go while their counters move and the parent is
// snapshotted: the parent's total never drops and ends exact. Run under
// TSan in the sanitizer CI leg.
TEST(MetricsHammerTest, OwnedRegistriesFoldWithoutLosingCounts) {
  MetricsRegistry parent;
  constexpr int kOwners = 40;
  constexpr int kOps = 2000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      uint64_t now = CounterIn(parent.Snapshot(), "test.owned");
      EXPECT_GE(now, last);
      last = now;
    }
  });
  for (int owner = 0; owner < kOwners; ++owner) {
    MetricsRegistry owned(&parent);
    obs::Counter* c = owned.GetCounter("test.owned");
    std::thread writer([c] {
      for (int i = 0; i < kOps; ++i) c->Increment();
    });
    writer.join();
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(CounterIn(parent.Snapshot(), "test.owned"),
            uint64_t{kOwners} * kOps);
}

// 16 threads hammer one counter + one histogram concurrently; totals
// must be exact. Run under TSan in the sanitizer CI leg.
TEST(MetricsHammerTest, ConcurrentCountersAreExact) {
  MetricsRegistry r;
  obs::Counter* c = r.GetCounter("test.hammer.counter");
  obs::Histogram* h = r.GetHistogram("test.hammer.hist");
  constexpr int kThreads = 16;
  constexpr int kOps = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(i));
      }
    });
  }
  // Concurrent snapshots must be race-free against the writers.
  for (int i = 0; i < 50; ++i) {
    obs::MetricsSnapshot snap = r.Snapshot();
    EXPECT_LE(snap.counters.size(), 1u);
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), uint64_t{kThreads} * kOps);
  EXPECT_EQ(h->Count(), uint64_t{kThreads} * kOps);
}

// --- Exposition ----------------------------------------------------------

TEST(ExpositionTest, Prometheus) {
  MetricsRegistry r;
  r.GetCounter("test.requests.total")->Add(3);
  r.GetGauge("test.queue.depth")->Set(4);
  r.GetHistogram("test.latency_ns")->Record(100);
  std::string out = obs::RenderPrometheus(r.Snapshot());
  EXPECT_NE(out.find("# TYPE test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(out.find("test_requests_total 3"), std::string::npos);
  EXPECT_NE(out.find("test_queue_depth 4"), std::string::npos);
  EXPECT_NE(out.find("test_latency_ns_count 1"), std::string::npos);
  EXPECT_NE(out.find("test_latency_ns_sum 100"), std::string::npos);
  EXPECT_NE(out.find("le=\"+Inf\""), std::string::npos);
}

TEST(ExpositionTest, Json) {
  MetricsRegistry r;
  r.GetCounter("test.requests.total")->Add(3);
  r.GetHistogram("test.latency_ns")->Record(100);
  std::string out = obs::RenderJson(r.Snapshot());
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"test.requests.total\":3"), std::string::npos);
  EXPECT_NE(out.find("\"histograms\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":1"), std::string::npos);
}

TEST(ExpositionTest, CompactGroupsByPrefix) {
  MetricsRegistry r;
  r.GetCounter("serve.requests.ok")->Add(7);
  r.GetCounter("serve.requests.shed")->Add(2);
  r.GetCounter("ie.runs")->Add(1);
  r.GetCounter("test.zero");  // zero-valued: omitted
  std::string out = obs::RenderCompact(r.Snapshot());
  EXPECT_NE(out.find("metrics[serve]"), std::string::npos);
  EXPECT_NE(out.find("requests.ok=7"), std::string::npos);
  EXPECT_NE(out.find("metrics[ie]"), std::string::npos);
  EXPECT_EQ(out.find("test.zero"), std::string::npos);
}

TEST(ExpositionTest, AllFormatsRenderFromOneSnapshot) {
  MetricsRegistry r;
  r.GetCounter("test.one")->Add(11);
  obs::MetricsSnapshot snap = r.Snapshot();
  std::string prom = obs::RenderPrometheus(snap);
  std::string json = obs::RenderJson(snap);
  std::string compact = obs::RenderCompact(snap);
  EXPECT_NE(prom.find("test_one 11"), std::string::npos);
  EXPECT_NE(json.find("\"test.one\":11"), std::string::npos);
  EXPECT_NE(compact.find("one=11"), std::string::npos);
}

TEST(ExpositionTest, SystemEndpointsAgree) {
  MetricsRegistry::Default().GetCounter("test.system.endpoint")->Add(5);
  std::string prom = core::System::MetricsPrometheus();
  std::string json = core::System::MetricsJson();
  EXPECT_NE(prom.find("test_system_endpoint 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.system.endpoint\":5"), std::string::npos);
}

/// "<field>=<value>" pairs of one pass ("recovery " or "; last scrub ")
/// of the StatusReport line "integrity: recovery ...; last scrub ...".
std::map<std::string, uint64_t> IntegrityLine(const std::string& report,
                                              const std::string& pass) {
  std::map<std::string, uint64_t> fields;
  size_t line = report.find("integrity: ");
  if (line == std::string::npos) return fields;
  size_t start = report.find(pass, line);
  if (start == std::string::npos) return fields;
  start += pass.size();
  size_t end = report.find_first_of(";\n", start);
  std::string text = report.substr(start, end - start);
  size_t pos = 0;
  while (pos < text.size()) {
    size_t space = text.find(' ', pos);
    if (space == std::string::npos) space = text.size();
    std::string pair = text.substr(pos, space - pos);
    size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      fields[pair.substr(0, eq)] = std::stoull(pair.substr(eq + 1));
    }
    pos = space + 1;
  }
  return fields;
}

/// Value of metric `name` in `text` after `prefix` + name + `sep`, or
/// -1 when absent.
int64_t ExposedValue(const std::string& text, const std::string& prefix,
                     const std::string& name, const std::string& sep) {
  size_t at = text.find(prefix + name + sep);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + prefix.size() + name.size() + sep.size()));
}

TEST(ExpositionTest, IntegrityGaugesMatchStatusReport) {
  std::string workspace =
      (std::filesystem::temp_directory_path() / "structura_obs_integrity")
          .string();
  std::filesystem::remove_all(workspace);
  core::System::Options options;
  options.workspace = workspace;
  {
    auto sys = core::System::Create(options);
    ASSERT_TRUE(sys.ok());
    text::DocumentCollection docs;
    text::Document doc;
    doc.id = 1;
    doc.title = "Page";
    doc.text = "Madison has a population of 233,209.";
    docs.docs.push_back(doc);
    ASSERT_TRUE((*sys)->IngestCrawl(docs).ok());
    rdbms::TableSchema schema;
    schema.table_name = "kv";
    schema.columns = {{"k", rdbms::ValueType::kString}};
    ASSERT_TRUE((*sys)->database()->CreateTable(schema).ok());
    auto txn = (*sys)->database()->Begin();
    ASSERT_TRUE(txn->Insert("kv", {rdbms::Value::Str("k")}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    // A torn WAL tail: reopening truncates and reports it, so the status
    // report prints its integrity line from the start.
    std::ofstream wal(workspace + "/db/wal.log",
                      std::ios::binary | std::ios::app);
    wal << "torn";
  }
  auto sys = core::System::Create(options);
  ASSERT_TRUE(sys.ok());

  // Every IntegrityCounters field, in StatusReport's integrity line and
  // as a gauge in both scrape formats, with one value.
  auto expect_parity = [&](const std::string& pass,
                           const std::string& line_pass) {
    std::string report = (*sys)->StatusReport();
    std::string json = core::System::MetricsJson();
    std::string prom = core::System::MetricsPrometheus();
    std::map<std::string, uint64_t> line = IntegrityLine(report, line_pass);
    ASSERT_EQ(line.size(), std::size(kIntegrityFields)) << report;
    for (const IntegrityField& f : kIntegrityFields) {
      std::string name = "integrity." + pass + "." + f.name;
      ASSERT_EQ(line.count(f.name), 1u) << f.name << "\n" << report;
      auto value = static_cast<int64_t>(line[f.name]);
      EXPECT_EQ(ExposedValue(json, "\"", name, "\":"), value) << name;
      std::string prom_name = "integrity_" + pass + "_" + f.name;
      EXPECT_EQ(ExposedValue(prom, "\n", prom_name, " "), value) << name;
    }
  };
  expect_parity("recovery", "recovery ");
  EXPECT_GT(IntegrityLine((*sys)->StatusReport(), "recovery ")
                .at("torn_tail_bytes"),
            0u);
  ASSERT_TRUE((*sys)->ScrubStorage().ok());
  expect_parity("recovery", "recovery ");
  expect_parity("scrub", "; last scrub ");
  sys->reset();
  std::filesystem::remove_all(workspace);
}

// --- Tracing -------------------------------------------------------------

TEST(TraceTest, RootAndNestedSpans) {
  uint64_t trace = obs::NextTraceId();
  {
    obs::TraceRequestScope root(trace, "test.root");
    {
      TRACE_SPAN("test.child");
      { TRACE_SPAN("test.grandchild"); }
    }
    TRACE_SPAN("test.sibling");
  }
  std::vector<obs::SpanView> spans =
      obs::TraceRecorder::Instance().Collect(trace);
  ASSERT_EQ(spans.size(), 4u);

  const obs::SpanView* root = nullptr;
  const obs::SpanView* child = nullptr;
  const obs::SpanView* grandchild = nullptr;
  const obs::SpanView* sibling = nullptr;
  for (const obs::SpanView& s : spans) {
    std::string name = s.name;
    if (name == "test.root") root = &s;
    if (name == "test.child") child = &s;
    if (name == "test.grandchild") grandchild = &s;
    if (name == "test.sibling") sibling = &s;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_EQ(grandchild->parent_id, child->span_id);
  EXPECT_EQ(sibling->parent_id, root->span_id);
}

TEST(TraceTest, RenderTreeShowsHierarchy) {
  uint64_t trace = obs::NextTraceId();
  {
    obs::TraceRequestScope root(trace, "test.tree.root");
    TRACE_SPAN("test.tree.inner");
  }
  std::string tree = obs::TraceRecorder::Instance().RenderTree(trace);
  EXPECT_NE(tree.find("test.tree.root"), std::string::npos);
  EXPECT_NE(tree.find("test.tree.inner"), std::string::npos);
  // Child is indented under the root.
  EXPECT_LT(tree.find("test.tree.root"), tree.find("test.tree.inner"));
}

TEST(TraceTest, NoSpansWithoutActiveTrace) {
  uint64_t before =
      MetricsRegistry::Default().GetCounter("obs.spans.recorded")->Value();
  { TRACE_SPAN("test.orphan"); }
  uint64_t after =
      MetricsRegistry::Default().GetCounter("obs.spans.recorded")->Value();
  EXPECT_EQ(before, after) << "spans outside a trace are not recorded";
}

TEST(TraceTest, KillSwitchDisablesRecording) {
  obs::SetTracingEnabled(false);
  uint64_t trace = obs::NextTraceId();
  {
    obs::TraceRequestScope root(trace, "test.disabled.root");
    TRACE_SPAN("test.disabled.child");
  }
  obs::SetTracingEnabled(true);
  EXPECT_TRUE(obs::TraceRecorder::Instance().Collect(trace).empty());
}

TEST(TraceTest, CrossThreadAdoption) {
  uint64_t trace = obs::NextTraceId();
  {
    obs::TraceRequestScope root(trace, "test.hop.root");
    obs::TraceHandle handle = obs::CurrentTrace();
    std::thread worker([handle] {
      obs::ScopedTraceContext adopt(handle);
      TRACE_SPAN("test.hop.worker");
    });
    worker.join();
  }
  std::vector<obs::SpanView> spans =
      obs::TraceRecorder::Instance().Collect(trace);
  ASSERT_EQ(spans.size(), 2u);
  bool found_worker = false;
  for (const obs::SpanView& s : spans) {
    if (std::string(s.name) == "test.hop.worker") {
      found_worker = true;
      EXPECT_NE(s.parent_id, 0u) << "worker span parents onto the root";
    }
  }
  EXPECT_TRUE(found_worker);
}

TEST(TraceTest, ConcurrentSpanRecordingReconciles) {
  uint64_t trace = obs::NextTraceId();
  constexpr int kThreads = 16;
  constexpr int kSpansPerThread = 1000;  // < ring capacity per thread
  obs::TraceHandle handle{trace, 0};
  // Barriers keep all threads alive until every one has recorded: a
  // thread that exited early would release its ring for a later thread
  // to reuse, overwriting slots this test wants to count exactly.
  std::atomic<int> started{0};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, handle] {
      obs::ScopedTraceContext adopt(handle);
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kSpansPerThread; ++i) {
        TRACE_SPAN("test.concurrent.span");
      }
      done.fetch_add(1);
      while (done.load() < kThreads) std::this_thread::yield();
    });
  }
  // Concurrent reads must be race-free against recording threads.
  for (int i = 0; i < 20; ++i) {
    obs::TraceRecorder::Instance().Collect(trace);
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::TraceRecorder::Instance().Collect(trace).size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST(TraceTest, SlowRequestCaptured) {
  obs::SlowRequestLog::Instance().Clear();
  obs::SetSlowRequestThresholdNanos(1);  // everything is "slow"
  ScopedLogCapture capture;              // swallow the kWarning dump
  uint64_t trace = obs::NextTraceId();
  {
    obs::TraceRequestScope root(trace, "test.slow.root");
    TRACE_SPAN("test.slow.child");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::SetSlowRequestThresholdNanos(0);
  std::vector<obs::SlowRequestLog::Entry> entries =
      obs::SlowRequestLog::Instance().Recent();
  ASSERT_FALSE(entries.empty());
  const obs::SlowRequestLog::Entry& e = entries.back();
  EXPECT_EQ(e.trace_id, trace);
  EXPECT_EQ(e.root_name, "test.slow.root");
  EXPECT_GT(e.duration_ns, 0u);
  EXPECT_NE(e.tree.find("test.slow.child"), std::string::npos);
  EXPECT_GE(capture.CountAtLevel(LogLevel::kWarning), 1u);
  obs::SlowRequestLog::Instance().Clear();
}

// --- Logging sink + counters --------------------------------------------

TEST(LoggingTest, CaptureSinkSeesLines) {
  ScopedLogCapture capture;
  STRUCTURA_LOG(kWarning) << "captured " << 42;
  STRUCTURA_LOG(kError) << "boom";
  std::vector<ScopedLogCapture::Line> lines = capture.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].level, LogLevel::kWarning);
  EXPECT_EQ(lines[0].message, "captured 42");
  EXPECT_EQ(lines[0].file, "obs_test.cc");
  EXPECT_EQ(capture.CountAtLevel(LogLevel::kError), 1u);
  EXPECT_EQ(capture.CountAtLevel(LogLevel::kInfo), 0u);
}

TEST(LoggingTest, LinesBumpRegistryCounters) {
  obs::Counter* warnings =
      MetricsRegistry::Default().GetCounter("log.lines.warning");
  uint64_t before = warnings->Value();
  ScopedLogCapture capture;  // keep stderr clean
  STRUCTURA_LOG(kWarning) << "counted";
  EXPECT_EQ(warnings->Value(), before + 1);
}

TEST(LoggingTest, CustomSinkReceivesAndRestores) {
  std::vector<std::string> seen;
  SetLogSink([&seen](LogLevel, const char*, int, const std::string& msg) {
    seen.push_back(msg);
  });
  STRUCTURA_LOG(kWarning) << "to custom sink";
  SetLogSink(nullptr);  // restore stderr default
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "to custom sink");
}

TEST(LoggingTest, LevelFilterStillApplies) {
  ScopedLogCapture capture;
  SetLogLevel(LogLevel::kError);
  STRUCTURA_LOG(kWarning) << "dropped";
  STRUCTURA_LOG(kError) << "kept";
  SetLogLevel(LogLevel::kInfo);
  std::vector<ScopedLogCapture::Line> lines = capture.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].message, "kept");
}

// --- ThreadPool gauges ---------------------------------------------------

TEST(ThreadPoolMetricsTest, PublishesAndUnpublishesGauges) {
  auto gauge_value = [](const std::string& name,
                        int64_t* out) -> bool {
    obs::MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) {
        *out = v;
        return true;
      }
    }
    return false;
  };

  {
    ThreadPool pool(2, /*max_queue=*/4);
    pool.PublishMetrics("obs_test");
    std::atomic<bool> release{false};
    std::atomic<int> running{0};
    for (int i = 0; i < 2; ++i) {
      pool.Post([&] {
        running.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      });
    }
    while (running.load() < 2) std::this_thread::yield();
    pool.Post([] {});  // queued behind the two busy workers

    int64_t v = -1;
    ASSERT_TRUE(gauge_value("threadpool.obs_test.active_workers", &v));
    EXPECT_EQ(v, 2);
    ASSERT_TRUE(gauge_value("threadpool.obs_test.queue_depth", &v));
    EXPECT_EQ(v, 1);
    ASSERT_TRUE(gauge_value("threadpool.obs_test.queue_high_water", &v));
    EXPECT_GE(v, 1);
    release.store(true);
    pool.WaitIdle();
  }
  // Pool destroyed: its gauges must be unregistered so snapshots cannot
  // call into freed memory.
  int64_t v = 0;
  EXPECT_FALSE(gauge_value("threadpool.obs_test.active_workers", &v));
  EXPECT_FALSE(gauge_value("threadpool.obs_test.queue_depth", &v));
}

TEST(ThreadPoolMetricsTest, StatsCountActiveWorkers) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> running{0};
  pool.Post([&] {
    running.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  });
  while (running.load() < 1) std::this_thread::yield();
  EXPECT_EQ(pool.stats().active_workers, 1u);
  release.store(true);
  pool.WaitIdle();
  EXPECT_EQ(pool.stats().active_workers, 0u);
}

// --- JSON exposition validity --------------------------------------------

using testutil::IsValidJson;

TEST(JsonExpositionTest, ValidatorSanity) {
  EXPECT_TRUE(IsValidJson("{\"a\":[1,2,{\"b\":\"c\\n\"}],\"d\":null}"));
  EXPECT_FALSE(IsValidJson("{\"a\":}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1"));
  EXPECT_FALSE(IsValidJson(std::string("\"a\x01b\"")));  // raw control char
  EXPECT_FALSE(IsValidJson("{\"a\":1}trailing"));
}

TEST(JsonExpositionTest, JsonEscapeHandlesHostileStrings) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::JsonEscape("a\nb"), "a\\u000ab");
  std::string ctrl = obs::JsonEscape(std::string("a\x01z"));
  EXPECT_TRUE(IsValidJson("\"" + ctrl + "\""));
}

TEST(JsonExpositionTest, MetricsJsonValidWithHostileNames) {
  MetricsRegistry r;
  r.GetCounter("evil\"counter\\name")->Add(3);
  r.GetGauge("evil\ngauge\x02name")->Set(-7);
  r.GetHistogram("evil\thist")->Record(42);
  std::string json = obs::RenderJson(r.Snapshot());
  EXPECT_TRUE(IsValidJson(json)) << json;
}

TEST(JsonExpositionTest, EventTailAndTrackerJsonValid) {
  obs::RecordEvent(obs::EventCategory::kWatchdog,
                   obs::EventCode::kWatchdogScrub, 1, 2, 3, "json check");
  EXPECT_TRUE(IsValidJson(obs::EventJournal::Instance().TailJson(64)));

  obs::ExpensiveRequestTracker::Instance().Clear();
  obs::CostVector cost;
  cost.v[static_cast<size_t>(obs::CostDim::kRowsScanned)] = 9;
  obs::ExpensiveRequestTracker::Instance().Record(77, "op\"name", 123, cost);
  EXPECT_TRUE(IsValidJson(obs::ExpensiveRequestTracker::Instance().ToJson()));
  EXPECT_TRUE(IsValidJson(cost.ToJson()));
  obs::ExpensiveRequestTracker::Instance().Clear();
}

// --- Event journal -------------------------------------------------------

TEST(EventJournalTest, RecordAndTailRoundTrip) {
  obs::EventJournal& j = obs::EventJournal::Instance();
  uint64_t base = j.recorded();
  obs::RecordEvent(obs::EventCategory::kBreaker,
                   obs::EventCode::kBreakerOpen, 7, 0, 0, "rt breaker");
  obs::RecordEvent(obs::EventCategory::kHealth,
                   obs::EventCode::kHealthDemote, 0, 2, 0, "rt health");
  EXPECT_EQ(j.recorded(), base + 2);

  std::vector<obs::EventView> tail = j.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  // Oldest first, contiguous sequence numbers.
  EXPECT_EQ(tail[0].seq, base);
  EXPECT_EQ(tail[1].seq, base + 1);
  EXPECT_EQ(tail[0].category, obs::EventCategory::kBreaker);
  EXPECT_EQ(tail[0].code, obs::EventCode::kBreakerOpen);
  EXPECT_EQ(tail[0].a, 7u);
  EXPECT_STREQ(tail[0].detail, "rt breaker");
  EXPECT_EQ(tail[1].category, obs::EventCategory::kHealth);
  EXPECT_EQ(tail[1].b, 2u);
  EXPECT_GT(tail[1].nanos, 0);
  EXPECT_GE(tail[1].nanos, tail[0].nanos);
}

TEST(EventJournalTest, StampsAmbientTraceId) {
  uint64_t trace = obs::NextTraceId();
  {
    obs::TraceRequestScope scope(trace, "event.journal.test");
    obs::RecordEvent(obs::EventCategory::kWal,
                     obs::EventCode::kWalStickyLatch, 1, 0, 0, "in trace");
  }
  obs::RecordEvent(obs::EventCategory::kWal, obs::EventCode::kWalStickyLatch,
                   2, 0, 0, "out of trace");
  std::vector<obs::EventView> tail = obs::EventJournal::Instance().Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].trace_id, trace);
  EXPECT_EQ(tail[1].trace_id, 0u);
}

TEST(EventJournalTest, KillSwitchDropsEvents) {
  obs::EventJournal& j = obs::EventJournal::Instance();
  obs::SetEventJournalEnabled(false);
  uint64_t base = j.recorded();
  obs::RecordEvent(obs::EventCategory::kBreaker,
                   obs::EventCode::kBreakerClose, 0, 0, 0, "dropped");
  EXPECT_EQ(j.recorded(), base);
  obs::SetEventJournalEnabled(true);
  obs::RecordEvent(obs::EventCategory::kBreaker,
                   obs::EventCode::kBreakerClose, 0, 0, 0, "kept");
  EXPECT_EQ(j.recorded(), base + 1);
}

TEST(EventJournalTest, WraparoundKeepsNewestRecords) {
  obs::EventJournal& j = obs::EventJournal::Instance();
  const size_t n = obs::EventJournal::kSlots + 300;
  for (size_t i = 0; i < n; ++i) {
    obs::RecordEvent(obs::EventCategory::kCheckpoint,
                     obs::EventCode::kCheckpointBegin, i, 0, 0, "wrap");
  }
  uint64_t last = j.recorded() - 1;
  std::vector<obs::EventView> tail = j.Tail(obs::EventJournal::kSlots);
  // Every slot holds a published record; all of them survive the wrap.
  ASSERT_EQ(tail.size(), obs::EventJournal::kSlots);
  // Newest record present, sequence contiguous from the oldest survivor.
  EXPECT_EQ(tail.back().seq, last);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, tail.back().seq - (tail.size() - 1 - i));
  }
  // A bounded tail returns only the newest records.
  std::vector<obs::EventView> bounded = j.Tail(16);
  ASSERT_EQ(bounded.size(), 16u);
  EXPECT_EQ(bounded.back().seq, last);
  EXPECT_EQ(bounded.front().seq, last - 15);
}

TEST(EventJournalTest, ConcurrentWritersAndReadersStayCoherent) {
  obs::EventJournal& j = obs::EventJournal::Instance();
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::EventView& e : j.Tail(obs::EventJournal::kSlots)) {
        // Published records must never be torn: name lookups stay in
        // range and the detail pointer is always dereferenceable.
        if (std::string(obs::EventCategoryName(e.category)) == "?" ||
            std::string(obs::EventCodeName(e.code)) == "?" ||
            e.detail == nullptr) {
          torn.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&j, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        j.Record(obs::EventCategory::kBrownout,
                 obs::EventCode::kBrownoutEngage,
                 static_cast<uint64_t>(w), static_cast<uint64_t>(i), 0,
                 "concurrent");
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  std::vector<obs::EventView> tail = j.Tail(obs::EventJournal::kSlots);
  EXPECT_EQ(tail.size(), obs::EventJournal::kSlots);
}

// --- Cost accounting -----------------------------------------------------

TEST(CostAccountingTest, ChargeOutsideContextIsNoop) {
  ASSERT_EQ(obs::CurrentCost(), nullptr);
  obs::ChargeCost(obs::CostDim::kRowsScanned, 100);  // must not crash
}

TEST(CostAccountingTest, ScopedContextChargesAndRestores) {
  obs::CostAccumulator acc;
  {
    obs::ScopedCostContext scope(&acc);
    EXPECT_EQ(obs::CurrentCost(), &acc);
    obs::ChargeCost(obs::CostDim::kRowsScanned, 5);
    obs::ChargeCost(obs::CostDim::kRowsScanned, 7);
    obs::ChargeCost(obs::CostDim::kSegmentBytesRead, 1024);
    {
      // Nested context diverts charges, then restores the outer one.
      obs::CostAccumulator inner;
      obs::ScopedCostContext nested(&inner);
      obs::ChargeCost(obs::CostDim::kRetries, 1);
      EXPECT_EQ(inner.Snapshot()[obs::CostDim::kRetries], 1u);
    }
    obs::ChargeCost(obs::CostDim::kWalBytesAppended, 64);
  }
  EXPECT_EQ(obs::CurrentCost(), nullptr);
  obs::CostVector cost = acc.Snapshot();
  EXPECT_EQ(cost[obs::CostDim::kRowsScanned], 12u);
  EXPECT_EQ(cost[obs::CostDim::kSegmentBytesRead], 1024u);
  EXPECT_EQ(cost[obs::CostDim::kWalBytesAppended], 64u);
  EXPECT_EQ(cost[obs::CostDim::kRetries], 0u);  // went to the nested acc
}

TEST(CostAccountingTest, CrossThreadChargesAccumulate) {
  obs::CostAccumulator acc;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&acc] {
      obs::ScopedCostContext scope(&acc);
      for (int i = 0; i < 1000; ++i) {
        obs::ChargeCost(obs::CostDim::kRowsScanned, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(acc.Snapshot()[obs::CostDim::kRowsScanned], 4000u);
}

TEST(CostAccountingTest, ScoreWeighsDimensions) {
  obs::CostVector cost;
  cost.v[static_cast<size_t>(obs::CostDim::kCpuNanos)] = 10;
  cost.v[static_cast<size_t>(obs::CostDim::kRowsScanned)] = 2;
  cost.v[static_cast<size_t>(obs::CostDim::kSegmentBytesRead)] = 3;
  cost.v[static_cast<size_t>(obs::CostDim::kWalBytesAppended)] = 4;
  cost.v[static_cast<size_t>(obs::CostDim::kExtractorCalls)] = 5;
  cost.v[static_cast<size_t>(obs::CostDim::kRetries)] = 6;
  EXPECT_EQ(cost.Score(), 10u + 2u * 1'000 + 3u * 10 + 4u * 100 +
                              5u * 10'000 + 6u * 1'000'000);
}

TEST(CostAccountingTest, KillSwitchStopsFrontendAccounting) {
  obs::SetCostAccountingEnabled(false);
  EXPECT_FALSE(obs::CostAccountingEnabled());
  obs::SetCostAccountingEnabled(true);
  EXPECT_TRUE(obs::CostAccountingEnabled());
}

TEST(ExpensiveRequestTrackerTest, KeepsTopKByScore) {
  obs::ExpensiveRequestTracker& tracker =
      obs::ExpensiveRequestTracker::Instance();
  tracker.Clear();
  // More entries than capacity, in a shuffled-ish score order.
  for (uint64_t i = 0; i < obs::ExpensiveRequestTracker::kKeep + 4; ++i) {
    obs::CostVector cost;
    cost.v[static_cast<size_t>(obs::CostDim::kCpuNanos)] =
        ((i * 7) % 12 + 1) * 1000;
    tracker.Record(/*trace_id=*/i + 1, "tracker.test",
                   static_cast<int64_t>(i), cost);
  }
  std::vector<obs::ExpensiveRequestTracker::Entry> top = tracker.TopK();
  ASSERT_EQ(top.size(), obs::ExpensiveRequestTracker::kKeep);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
  // The cheapest scores (1000..4000) must have been evicted: capacity 8
  // keeps 12000 down to 5000.
  EXPECT_EQ(top.back().score, 5000u);
  EXPECT_EQ(top.front().score, 12000u);

  // A new cheap request below the current minimum is rejected outright.
  obs::CostVector cheap;
  cheap.v[static_cast<size_t>(obs::CostDim::kCpuNanos)] = 1;
  tracker.Record(999, "tracker.test", 0, cheap);
  EXPECT_EQ(tracker.TopK().back().score, 5000u);
  tracker.Clear();
  EXPECT_TRUE(tracker.TopK().empty());
}

// --- Trace ring wraparound -----------------------------------------------

TEST(TraceRingWrapTest, WrapKeepsOnlyRingCapacity) {
  constexpr size_t kRing = obs::internal::ThreadRing::kSlots;
  uint64_t trace = obs::NextTraceId();
  {
    obs::TraceRequestScope scope(trace, "wrap.root");
    for (size_t i = 0; i < 3 * kRing; ++i) {
      TRACE_SPAN("wrap.child");
    }
  }
  // 3×ring child spans plus the root were recorded into one 4096-slot
  // ring; exactly one ring's worth survives, every record intact.
  std::vector<obs::SpanView> spans =
      obs::TraceRecorder::Instance().Collect(trace);
  EXPECT_EQ(spans.size(), kRing);
  size_t roots = 0;
  for (const obs::SpanView& s : spans) {
    EXPECT_EQ(s.trace_id, trace);
    std::string name = s.name;
    EXPECT_TRUE(name == "wrap.child" || name == "wrap.root") << name;
    if (name == "wrap.root") ++roots;
  }
  // The root closed last, so it must be among the survivors.
  EXPECT_EQ(roots, 1u);
}

TEST(TraceRingWrapTest, CrossThreadAdoptionSurvivesMidWrap) {
  constexpr size_t kRing = obs::internal::ThreadRing::kSlots;
  uint64_t trace = obs::NextTraceId();
  obs::TraceRequestScope scope(trace, "wrap.adopt.root");
  obs::TraceHandle handle = obs::CurrentTrace();

  std::thread worker([&] {
    {
      // First batch of adopted spans — doomed to be overwritten below.
      obs::ScopedTraceContext adopt(handle);
      for (int i = 0; i < 100; ++i) {
        TRACE_SPAN("wrap.adopt.early");
      }
    }
    {
      // Unrelated trace floods this thread's ring past a full lap.
      obs::TraceHandle filler{obs::NextTraceId(), 0};
      obs::ScopedTraceContext adopt(filler);
      for (size_t i = 0; i < kRing; ++i) {
        TRACE_SPAN("wrap.adopt.filler");
      }
    }
    {
      // Adopted spans recorded after the wrap must survive.
      obs::ScopedTraceContext adopt(handle);
      for (int i = 0; i < 50; ++i) {
        TRACE_SPAN("wrap.adopt.late");
      }
    }
  });
  worker.join();

  std::vector<obs::SpanView> spans =
      obs::TraceRecorder::Instance().Collect(trace);
  size_t early = 0, late = 0;
  for (const obs::SpanView& s : spans) {
    std::string name = s.name;
    if (name == "wrap.adopt.early") ++early;
    if (name == "wrap.adopt.late") ++late;
    // Adopted spans keep the root as parent context (parent id from the
    // handle), never a torn id from the filler trace.
    if (name == "wrap.adopt.early" || name == "wrap.adopt.late") {
      EXPECT_EQ(s.parent_id, handle.span_id);
    }
  }
  EXPECT_EQ(early, 0u);  // lapped by the filler trace
  EXPECT_EQ(late, 50u);
}

// --- Incident bundles ----------------------------------------------------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(IncidentManagerTest, DumpWritesSectionsAndManifest) {
  ScopedLogCapture capture;  // swallow the kWarning bundle announcement
  std::string dir =
      ::testing::TempDir() + "/structura_incident_dump_test";
  std::filesystem::remove_all(dir);
  obs::IncidentManager::Options options;
  options.dir = dir;
  obs::IncidentManager manager(options);
  manager.AddSection("alpha.txt", [] { return std::string("alpha body"); });
  manager.AddSection("beta.json", [] { return std::string("{\"b\":1}"); });

  uint64_t events_before = obs::EventJournal::Instance().recorded();
  std::string bundle = manager.MaybeDump("health_critical: test");
  ASSERT_FALSE(bundle.empty());
  EXPECT_EQ(manager.dumps(), 1u);
  EXPECT_EQ(manager.suppressed(), 0u);
  EXPECT_GE(manager.last_dump_nanos(), 0);

  EXPECT_EQ(ReadFileOrDie(bundle + "/alpha.txt"), "alpha body");
  EXPECT_EQ(ReadFileOrDie(bundle + "/beta.json"), "{\"b\":1}");
  std::string manifest = ReadFileOrDie(bundle + "/MANIFEST.json");
  EXPECT_TRUE(IsValidJson(manifest)) << manifest;
  EXPECT_NE(manifest.find("\"trigger\":\"health_critical: test\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"alpha.txt\""), std::string::npos);
  EXPECT_NE(manifest.find("\"beta.json\""), std::string::npos);

  // The dump itself lands in the event journal.
  EXPECT_EQ(obs::EventJournal::Instance().recorded(), events_before + 1);
  std::vector<obs::EventView> tail = obs::EventJournal::Instance().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].category, obs::EventCategory::kIncident);
  EXPECT_EQ(tail[0].code, obs::EventCode::kIncidentDump);
  std::filesystem::remove_all(dir);
}

TEST(IncidentManagerTest, CooldownSuppressesRepeatTriggers) {
  ScopedLogCapture capture;
  std::string dir =
      ::testing::TempDir() + "/structura_incident_cooldown_test";
  std::filesystem::remove_all(dir);
  SimulatedClock::Options clock_options;
  clock_options.auto_advance = false;
  SimulatedClock clock(clock_options);
  obs::IncidentManager::Options options;
  options.dir = dir;
  options.cooldown_ms = 1000;
  options.clock = &clock;
  obs::IncidentManager manager(options);
  manager.AddSection("s.txt", [] { return std::string("s"); });

  EXPECT_FALSE(manager.MaybeDump("first").empty());
  // Inside the cooldown window: suppressed, counted, no directory.
  EXPECT_TRUE(manager.MaybeDump("second").empty());
  clock.AdvanceMillis(999);
  EXPECT_TRUE(manager.MaybeDump("third").empty());
  EXPECT_EQ(manager.dumps(), 1u);
  EXPECT_EQ(manager.suppressed(), 2u);
  // One more millisecond crosses the window.
  clock.AdvanceMillis(1);
  EXPECT_FALSE(manager.MaybeDump("fourth").empty());
  EXPECT_EQ(manager.dumps(), 2u);

  size_t bundles = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory()) ++bundles;
  }
  EXPECT_EQ(bundles, 2u);
  std::filesystem::remove_all(dir);
}

TEST(IncidentManagerTest, EmptyDirDisablesDumping) {
  obs::IncidentManager manager(obs::IncidentManager::Options{});
  manager.AddSection("s.txt", [] { return std::string("s"); });
  EXPECT_TRUE(manager.MaybeDump("anything").empty());
  EXPECT_EQ(manager.dumps(), 0u);
  EXPECT_EQ(manager.suppressed(), 0u);
  EXPECT_EQ(manager.last_dump_nanos(), -1);
}

}  // namespace
}  // namespace structura
