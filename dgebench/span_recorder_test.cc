// Checks the span arithmetic on hand-built spans: nearest-rank
// percentiles, the p99/p90 choice, self time with nested, overlapping
// and clipped children, and the per-phase rollup. Exits non-zero on the
// first mismatch; the benchmark's build runs it before any measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "span_recorder.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "span_recorder_test:%d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

dgebench::Span MakeSpan(const char* name, int64_t start, int64_t end,
                        int32_t parent,
                        dgebench::Phase phase = dgebench::Phase::kMeasured) {
  dgebench::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.phase = phase;
  return s;
}

void TestPercentile() {
  using dgebench::Percentile;
  EXPECT(Percentile({}, 50) == 0);
  EXPECT(Percentile({7}, 50) == 7);
  EXPECT(Percentile({7}, 99) == 7);
  // Nearest rank: ceil(p/100 * n), 1-based, over the sorted sample.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(Percentile(v, 50) == 50);
  EXPECT(Percentile(v, 90) == 90);
  EXPECT(Percentile(v, 99) == 99);
  EXPECT(Percentile(v, 100) == 100);
  EXPECT(Percentile({1, 2, 3, 4}, 50) == 2);
  EXPECT(Percentile({1, 2, 3, 4}, 51) == 3);
  EXPECT(dgebench::TailPercentile(999) == 90);
  EXPECT(dgebench::TailPercentile(1000) == 99);
}

void TestSelfTimes() {
  std::vector<dgebench::Span> spans = {
      MakeSpan("call", 0, 100, -1),      // 0: root
      MakeSpan("handler", 10, 90, 0),    // 1: child of call
      MakeSpan("a", 20, 40, 1),          // 2: child of handler
      MakeSpan("b", 30, 60, 1),          // 3: overlaps a
      MakeSpan("c", 80, 120, 1),         // 4: runs past its parent
      MakeSpan("leaf", 25, 35, 2),       // 5: grandchild of handler
  };
  std::vector<int64_t> self = dgebench::SelfTimes(spans);
  EXPECT(self.size() == spans.size());
  EXPECT(self[0] == 100 - 80);              // handler covers 10..90
  EXPECT(self[1] == 80 - (40 + 10));        // a∪b = 20..60, c clipped to 80..90
  EXPECT(self[2] == 20 - 10);               // leaf covers 25..35
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 40);
  EXPECT(self[5] == 10);
  // Only direct children count: the grandchild is not subtracted twice.
  int64_t total = 0;
  for (int64_t s : self) total += s;
  EXPECT(total == 20 + 30 + 10 + 30 + 40 + 10);
}

void TestRollup() {
  using dgebench::Phase;
  std::vector<dgebench::Span> spans = {
      MakeSpan("setup", 0, 1'000'000'000, -1, Phase::kSetup),
      MakeSpan("ingest", 0, 400'000'000, 0, Phase::kSetup),
      MakeSpan("ingest", 1'000'000'000, 1'002'000'000, -1),
      MakeSpan("ingest", 2'000'000'000, 2'004'000'000, -1),
  };
  auto setup = dgebench::Rollup(spans, Phase::kSetup);
  auto measured = dgebench::Rollup(spans, Phase::kMeasured);
  EXPECT(setup.size() == 2);
  EXPECT(Near(setup["setup"].busy_s, 1.0));
  EXPECT(Near(setup["setup"].self_s, 0.6));
  EXPECT(Near(setup["ingest"].busy_s, 0.4));
  EXPECT(measured.size() == 1);
  EXPECT(measured["ingest"].duration_ms.size() == 2);
  EXPECT(Near(measured["ingest"].busy_s, 0.006));
  EXPECT(Near(dgebench::Percentile(measured["ingest"].duration_ms, 50), 2.0));
}

void TestRecorder() {
  dgebench::SpanRecorder off(false);
  {
    dgebench::SpanRecorder::Scope s(&off, "x");
    EXPECT(s.id() == -1);
  }
  EXPECT(off.spans().empty());

  dgebench::SpanRecorder rec(true);
  rec.set_phase(dgebench::Phase::kMeasured);
  rec.set_request(7);
  {
    dgebench::SpanRecorder::Scope outer(&rec, "outer");
    dgebench::SpanRecorder::Scope inner(&rec, "inner");
    rec.Rename(inner.id(), "renamed");
  }
  dgebench::SpanRecorder::Scope sibling(&rec, "sibling");
  std::vector<dgebench::Span> spans = rec.spans();
  EXPECT(spans.size() == 3);
  EXPECT(spans[0].parent == -1);
  EXPECT(spans[1].parent == 0);
  EXPECT(spans[1].name == "renamed");
  EXPECT(spans[1].request_id == 7);
  EXPECT(spans[2].parent == -1);  // opened after outer closed
  EXPECT(spans[0].end_ns >= spans[1].end_ns);
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTimes();
  TestRollup();
  TestRecorder();
  if (failures == 0) std::printf("span_recorder_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
