#ifndef STRUCTURA_OBS_TRACE_H_
#define STRUCTURA_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace structura::obs {

/// Request tracing: a trace id minted per request (serve::RequestContext
/// carries it), scoped spans recorded into lock-free per-thread ring
/// buffers, and a slow-request log that dumps the full span tree of any
/// request whose root span exceeds a threshold.
///
/// Span recording is a single write event at span *end*: the owning
/// thread fills a ring slot with relaxed atomic stores and publishes the
/// trace id last (release). Readers (slow-request dumps, tests) scan all
/// rings filtering by trace id; a slot being overwritten concurrently
/// can yield a stale *record* but never a torn field, and span names are
/// interned/static strings so the name pointer is always dereferenceable.
/// Target cost: ≤ 250 ns per span (bench_e17_observability_overhead).

/// Kill-switch: when disabled, span scopes cost two branch checks and
/// record nothing. Defaults to enabled.
void SetTracingEnabled(bool enabled);
bool TracingEnabled();

/// Root spans slower than this are dumped to the slow-request log (and
/// logged at kWarning). 0 disables slow-request capture. Default: 0.
void SetSlowRequestThresholdNanos(uint64_t nanos);
uint64_t SlowRequestThresholdNanos();

/// Mints a fresh non-zero trace id (process-unique).
uint64_t NextTraceId();

/// One completed span as read back out of the rings.
struct SpanView {
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_id = 0;  // 0 = root (or cross-thread orphan)
  const char* name = "";
  uint64_t start_ns = 0;  // steady-clock nanos
  uint64_t duration_ns = 0;
};

namespace internal {

/// A ring slot. All fields are relaxed atomics so concurrent ring scans
/// are data-race-free (TSan-clean); `trace_id` is the publication word.
struct SpanSlot {
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> duration_ns{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint32_t> span_id{0};
  std::atomic<uint32_t> parent_id{0};
};

struct ThreadRing {
  static constexpr size_t kSlots = 4096;
  std::array<SpanSlot, kSlots> slots;
  std::atomic<uint64_t> next{0};  // monotonic; slot = next % kSlots
  std::atomic<bool> in_use{false};
};

}  // namespace internal

/// Owns every thread ring ever created (rings are recycled, never
/// freed, so readers can scan them after their thread exits).
class TraceRecorder {
 public:
  static TraceRecorder& Instance();

  /// The calling thread's ring (acquired on first use).
  internal::ThreadRing* Ring();

  /// All completed spans recorded for `trace_id`, sorted by start time.
  /// Best-effort: spans may be missing if the ring wrapped.
  std::vector<SpanView> Collect(uint64_t trace_id) const;

  /// Renders `Collect(trace_id)` as an indented tree (children nested
  /// under parents by span id, orphans under the root by arrival order).
  std::string RenderTree(uint64_t trace_id) const;

 private:
  TraceRecorder() = default;
  internal::ThreadRing* AcquireRing();
  void ReleaseRing(internal::ThreadRing* ring);

  struct RingLease;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<internal::ThreadRing>> rings_;
};

/// Ambient per-thread trace state: which trace the current code is
/// working for, and the innermost open span (the parent of any new one).
struct TraceHandle {
  uint64_t trace_id = 0;
  uint32_t span_id = 0;

  bool active() const { return trace_id != 0; }
};

/// The calling thread's current handle ({0,0} when not tracing).
TraceHandle CurrentTrace();

/// Adopts `handle` as the calling thread's trace context — used to carry
/// a request's trace across a thread hop (morsels dispatched on a pool,
/// see query::RunMorsels). Restores the previous context on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceHandle& handle);
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
  ~ScopedTraceContext();

 private:
  TraceHandle saved_;
};

/// RAII span. Records {name, start, duration, parent} into the thread
/// ring at destruction when a trace is active; no-ops (cheaply) when
/// tracing is disabled or no trace id is set on this thread. `name`
/// MUST have process lifetime — a string literal or obs::InternName().
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

 private:
  const char* name_;
  uint64_t start_ns_ = 0;
  uint32_t span_id_ = 0;
  uint32_t parent_id_ = 0;
  bool active_ = false;
};

/// Opens the *root* span of a request on this thread: installs
/// `trace_id` as the ambient context and records a root span (parent 0)
/// on destruction. If the root's duration exceeds the slow-request
/// threshold, the full span tree is dumped to the SlowRequestLog.
class TraceRequestScope {
 public:
  TraceRequestScope(uint64_t trace_id, const char* root_name);
  TraceRequestScope(const TraceRequestScope&) = delete;
  TraceRequestScope& operator=(const TraceRequestScope&) = delete;
  ~TraceRequestScope();

 private:
  TraceHandle saved_;
  const char* name_;
  uint64_t trace_id_;
  uint64_t start_ns_ = 0;
  uint32_t span_id_ = 0;
  bool active_ = false;
};

/// Retains the last few slow-request dumps for inspection (tests, a
/// debug endpoint); each capture is also logged at kWarning.
class SlowRequestLog {
 public:
  struct Entry {
    uint64_t trace_id = 0;
    uint64_t duration_ns = 0;
    std::string root_name;
    std::string tree;  // RenderTree output at capture time
  };

  static SlowRequestLog& Instance();

  void Record(Entry entry);
  std::vector<Entry> Recent() const;  // newest last
  void Clear();

 private:
  static constexpr size_t kKeep = 16;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace structura::obs

/// Scoped span over the rest of the enclosing block:
///   TRACE_SPAN("query.eval");
/// The name must be a string literal or obs::InternName() result.
#define STRUCTURA_TRACE_CONCAT2(a, b) a##b
#define STRUCTURA_TRACE_CONCAT(a, b) STRUCTURA_TRACE_CONCAT2(a, b)
#define TRACE_SPAN(name)                        \
  ::structura::obs::ScopedSpan STRUCTURA_TRACE_CONCAT(_trace_span_, \
                                                      __LINE__)(name)

#endif  // STRUCTURA_OBS_TRACE_H_
