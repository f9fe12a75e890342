#ifndef STRUCTURA_OBS_FLIGHT_RECORDER_H_
#define STRUCTURA_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace structura::obs {

/// The system's flight recorder: a lock-free, fixed-size event journal
/// that remembers every state transition the system makes (breaker
/// open/half-open/close, health demote/promote, brownout engage/lift,
/// WAL sticky latch, checkpoint begin/end, watchdog scrub/heal,
/// read-only enter/exit, incident dumps), plus per-request resource
/// accounting (CostVector) and a top-K expensive-request tracker.
///
/// Recording follows the trace-ring protocol (obs/trace.h): one global
/// ring of slots whose fields are relaxed atomics with a publication
/// word stored last (release), so concurrent readers are data-race-free
/// and writers never take a lock. Target cost: ≤ 50 ns per event
/// (bench_e21_flight_recorder).

// ------------------------------------------------------------- events

/// Kill-switch: when disabled, RecordEvent costs one branch and records
/// nothing. Defaults to enabled — the recorder is meant to be always on.
void SetEventJournalEnabled(bool enabled);
bool EventJournalEnabled();

enum class EventCategory : uint8_t {
  kBreaker = 0,
  kHealth = 1,
  kBrownout = 2,
  kWal = 3,
  kCheckpoint = 4,
  kWatchdog = 5,
  kReadOnly = 6,
  kIncident = 7,
};

const char* EventCategoryName(EventCategory c);

enum class EventCode : uint8_t {
  kBreakerOpen = 0,      // a = breaker generation
  kBreakerHalfOpen = 1,  // a = breaker generation
  kBreakerClose = 2,     // a = breaker generation
  kHealthDemote = 3,     // a = old state, b = new state (HealthState ints)
  kHealthPromote = 4,    // a = old state, b = new state
  kBrownoutEngage = 5,   // a = priority tier
  kBrownoutLift = 6,     // a = priority tier
  kWalStickyLatch = 7,   // a = wal epoch
  kCheckpointBegin = 8,  // a = checkpoint seq
  kCheckpointEnd = 9,    // a = checkpoint seq, b = 1 when it failed
  kWatchdogScrub = 10,   // a = 1 when the scrub found damage
  kWatchdogHeal = 11,    // a = 1 when the heal failed
  kReadOnlyEnter = 12,
  kReadOnlyExit = 13,
  kIncidentDump = 14,    // a = incident seq
};

const char* EventCodeName(EventCode c);

/// One event as read back out of the journal.
struct EventView {
  uint64_t seq = 0;        // monotonic record number (journal-wide)
  int64_t nanos = 0;       // Clock stamp
  EventCategory category = EventCategory::kBreaker;
  EventCode code = EventCode::kBreakerOpen;
  uint64_t trace_id = 0;   // ambient trace when recorded in request context
  uint64_t a = 0, b = 0, c = 0;  // small typed payload (per EventCode)
  const char* detail = "";       // interned/static string
};

namespace internal {

/// A journal slot. All fields are relaxed atomics; `pub` (the record's
/// 1-based sequence number) is the publication word: stored 0 first
/// (invalidate), then the fields, then the sequence with release.
struct EventSlot {
  std::atomic<uint64_t> pub{0};
  std::atomic<int64_t> nanos{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<uint64_t> c{0};
  std::atomic<const char*> detail{nullptr};
  std::atomic<uint8_t> category{0};
  std::atomic<uint8_t> code{0};
};

}  // namespace internal

/// Process-wide fixed-size event journal. Record() is wait-free: one
/// fetch_add to claim a slot plus a handful of relaxed stores.
class EventJournal {
 public:
  static constexpr size_t kSlots = 8192;

  static EventJournal& Instance();

  /// Records one event. `detail` MUST have process lifetime (a string
  /// literal or obs::InternName()). The ambient trace id (if any) is
  /// stamped automatically.
  void Record(EventCategory category, EventCode code, uint64_t a = 0,
              uint64_t b = 0, uint64_t c = 0, const char* detail = "");

  /// The newest `max` published events, oldest first. Best-effort under
  /// concurrent writers: a record overwritten mid-read is skipped, never
  /// returned torn.
  std::vector<EventView> Tail(size_t max) const;

  /// JSON array-of-objects rendering of Tail(max):
  /// [{"seq":…,"nanos":…,"category":"…","code":"…","trace_id":…,
  ///   "a":…,"b":…,"c":…,"detail":"…"},…]
  std::string TailJson(size_t max) const;

  /// Total events ever recorded (including ones the ring has dropped).
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// Time source for event stamps. The journal is process-global, so
  /// the clock is too: System::Create installs its clock (tests with a
  /// SimulatedClock get deterministic stamps); nullptr resets to real
  /// time. Stamps are observational — no behavior keys off them.
  void SetClock(Clock* clock) {
    clock_.store(Clock::OrReal(clock), std::memory_order_release);
  }

 private:
  EventJournal() : clock_(Clock::Real()) {}

  std::array<internal::EventSlot, kSlots> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<Clock*> clock_;
};

/// Convenience free function; the named entry point every transition
/// site calls.
inline void RecordEvent(EventCategory category, EventCode code,
                        uint64_t a = 0, uint64_t b = 0, uint64_t c = 0,
                        const char* detail = "") {
  if (!EventJournalEnabled()) return;
  EventJournal::Instance().Record(category, code, a, b, c, detail);
}

// ----------------------------------------------------- cost accounting

/// Kill-switch for per-request resource accounting. When disabled,
/// charge helpers cost one thread-local load and the frontend skips
/// accumulator allocation and rollup. Defaults to enabled.
void SetCostAccountingEnabled(bool enabled);
bool CostAccountingEnabled();

enum class CostDim : uint8_t {
  kCpuNanos = 0,         // wall nanos spent in handler attempts
  kRowsScanned = 1,
  kSegmentBytesRead = 2,
  kWalBytesAppended = 3,
  kExtractorCalls = 4,
  kRetries = 5,
};

inline constexpr size_t kNumCostDims = 6;

const char* CostDimName(CostDim d);

/// What one request cost, across every layer it touched.
struct CostVector {
  std::array<uint64_t, kNumCostDims> v{};

  uint64_t operator[](CostDim d) const { return v[static_cast<size_t>(d)]; }

  /// Scalar cost for ranking: cpu nanos plus per-unit weights for the
  /// other dimensions (a row ≈ 1µs of attention, a segment byte ≈ 10ns,
  /// a WAL byte ≈ 100ns of durability budget, an extractor call ≈ 10µs,
  /// a retry ≈ 1ms of amplification).
  uint64_t Score() const;

  /// {"cpu_ns":…, "rows_scanned":…, …, "score":…}
  std::string ToJson() const;
};

/// Shared per-request accumulator: every layer a request touches adds
/// into it through the thread-local context. Charges are relaxed
/// fetch_adds so cross-thread hops (pool workers) are race-free.
class CostAccumulator {
 public:
  void Charge(CostDim d, uint64_t n) {
    v_[static_cast<size_t>(d)].fetch_add(n, std::memory_order_relaxed);
  }

  CostVector Snapshot() const {
    CostVector out;
    for (size_t i = 0; i < kNumCostDims; ++i) {
      out.v[i] = v_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::array<std::atomic<uint64_t>, kNumCostDims> v_{};
};

/// The calling thread's current accumulator (nullptr outside a request).
CostAccumulator* CurrentCost();

/// Installs `acc` as the calling thread's cost context for the scope —
/// the frontend wraps Execute() in one; pool hops that adopt a trace
/// (ScopedTraceContext; see query::RunMorsels) adopt the cost context
/// alongside it the same way. Restores the previous context on
/// destruction.
class ScopedCostContext {
 public:
  explicit ScopedCostContext(CostAccumulator* acc);
  ScopedCostContext(const ScopedCostContext&) = delete;
  ScopedCostContext& operator=(const ScopedCostContext&) = delete;
  ~ScopedCostContext();

 private:
  CostAccumulator* saved_;
};

/// Charges `n` units of `d` to the current request, if any. The single
/// call every instrumented layer (query eval, segment reads, WAL
/// appends, extractor invocations) makes; no-op outside request context
/// or when accounting is disabled.
void ChargeCost(CostDim d, uint64_t n);

// ------------------------------------------- expensive-request tracker

/// Keeps the K most expensive requests seen (by CostVector::Score),
/// with enough identity (trace id, operator, stamp) to render their
/// span trees at dump time. Mutex-guarded — Record() is one lock plus
/// a comparison against the current minimum, off the per-charge path
/// (the frontend calls it once per resolved request).
class ExpensiveRequestTracker {
 public:
  static constexpr size_t kKeep = 8;

  struct Entry {
    uint64_t trace_id = 0;
    const char* op = "";   // interned operator span name
    int64_t at_nanos = 0;  // clock stamp when the request started running
    CostVector cost;
    uint64_t score = 0;
  };

  static ExpensiveRequestTracker& Instance();

  void Record(uint64_t trace_id, const char* op, int64_t at_nanos,
              const CostVector& cost);

  /// Current top-K, most expensive first.
  std::vector<Entry> TopK() const;

  /// [{"trace_id":…,"op":"…","at_nanos":…,"cost":{…},"tree":"…"},…]
  /// Span trees are rendered lazily here (from the trace rings), so the
  /// serving hot path never pays for rendering.
  std::string ToJson() const;

  void Clear();

 private:
  ExpensiveRequestTracker() = default;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  // sorted descending by score
  /// Admission floor: once the tracker is full, requests scoring at or
  /// below the current minimum are rejected with one relaxed load, no
  /// lock. 0 = not full yet (every request takes the lock).
  std::atomic<uint64_t> floor_{0};
};

}  // namespace structura::obs

#endif  // STRUCTURA_OBS_FLIGHT_RECORDER_H_
