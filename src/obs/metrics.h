#ifndef STRUCTURA_OBS_METRICS_H_
#define STRUCTURA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace structura::obs {

/// Process-wide metric substrate: named counters, gauges, and
/// log-bucketed latency histograms. The hot paths (Counter::Add,
/// Histogram::Record) are sharded relaxed atomics — cheap enough to
/// live inside the serve and query inner loops (target ≤ 100 ns/op,
/// measured by bench_e17_observability_overhead). Registration and
/// lookup by name take a mutex; call sites cache the returned pointer
/// (handles are stable for the registry's lifetime).
///
/// Naming scheme (DESIGN.md 5.4): `<layer>.<component>.<metric>`, all
/// lowercase, '.'-separated — e.g. `serve.requests.issued`,
/// `query.keyword.latency_ns`, `wal.append_ns`. Durations are always
/// nanoseconds and end in `_ns`.

/// Kill-switch for *measurement* metrics (histograms). Correctness
/// counters (Counter) are never gated: the serving layer's accounting
/// invariants depend on them. Used by the overhead benchmark to compare
/// instrumented vs uninstrumented runs; defaults to enabled.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

namespace internal {
// One cache line per shard so concurrent writers do not bounce lines.
inline constexpr size_t kShards = 16;
struct alignas(64) PaddedAtomic {
  std::atomic<uint64_t> v{0};
};
/// Stable per-thread shard index (hashed thread id).
size_t ThreadShard();
}  // namespace internal

/// Monotonic counter. Add() is wait-free: one relaxed fetch_add on a
/// thread-sharded cache line.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) {
    shards_[internal::ThreadShard()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::array<internal::PaddedAtomic, internal::kShards> shards_;
};

/// Last-written-wins signed gauge.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Log₂-bucketed histogram over uint64 values (typically nanoseconds).
/// Bucket b holds values v with std::bit_width(v) == b, i.e. bucket 0 is
/// exactly {0} and bucket b ≥ 1 spans [2^(b-1), 2^b). Record() is two
/// relaxed fetch_adds plus one on a sharded sum line.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit_width(uint64) ∈ [0, 64]

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t v) {
    if (!MetricsEnabled()) return;
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    auto& shard = sums_[internal::ThreadShard()];
    shard.v.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t Count() const {
    uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }
  uint64_t Sum() const {
    uint64_t s = 0;
    for (const auto& x : sums_) s += x.v.load(std::memory_order_relaxed);
    return s;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  std::string name_;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::array<internal::PaddedAtomic, internal::kShards> sums_;
};

/// Inclusive upper bound of histogram bucket `b` (2^b − 1; bucket 0 → 0).
inline uint64_t BucketUpperBound(size_t b) {
  return b == 0 ? 0
         : b >= 64 ? ~uint64_t{0}
                   : (uint64_t{1} << b) - 1;
}

/// Point-in-time copy of every metric in a registry. All three
/// exposition formats (StatusReport text, Prometheus, JSON) render from
/// one of these, so they always agree.
struct MetricsSnapshot {
  struct HistogramValue {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, Histogram::kBuckets> buckets{};

    /// Upper bound of the bucket containing quantile `q` ∈ [0, 1].
    uint64_t Quantile(double q) const;
    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  std::vector<std::pair<std::string, uint64_t>> counters;  // sorted by name
  std::vector<std::pair<std::string, int64_t>> gauges;     // sorted by name
  std::vector<HistogramValue> histograms;                  // sorted by name
};

/// Named-metric registry. `Default()` is the process-wide instance every
/// built-in subsystem reports into; tests can construct private
/// registries for isolation. Get* registers on first use and returns a
/// stable pointer — callers cache it (e.g. in a member or a function-
/// local static) so the mutex is off the hot path.
///
/// **Owned registries.** A component whose numbers are its own keeps
/// them in a registry constructed with a parent (`Default()`) and reads
/// them back directly: one count per number, no baselines. The parent's
/// Snapshot() sums it in by name while it lives (counters and gauges
/// add, histograms add bucket by bucket); at its destruction its
/// counters and histograms fold into the parent, so no exposed
/// cumulative value drops, and its gauges leave only their name. The
/// owner stops writing before its registry dies; the parent outlives
/// it. An owned registry's callback gauges run under the parent's lock
/// and must not call into the parent.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  explicit MetricsRegistry(MetricsRegistry* parent);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Callback gauge, evaluated at Snapshot() time (e.g. live queue
  /// depth). Registering an existing name replaces its callback and
  /// returns a new id; UnregisterGaugeFn removes the entry only if `id`
  /// is still the current registration, so a stale owner (destroyed
  /// after its name was re-registered) cannot remove its successor.
  using GaugeFn = std::function<int64_t()>;
  uint64_t RegisterGaugeFn(const std::string& name, GaugeFn fn);
  void UnregisterGaugeFn(const std::string& name, uint64_t id);

  MetricsSnapshot Snapshot() const;

 private:
  struct FnGauge {
    uint64_t id = 0;
    GaugeFn fn;
  };

  /// Removes `child` from children_ and folds its counters and
  /// histograms into this registry (see the class comment).
  void Fold(MetricsRegistry* child);

  MetricsRegistry* const parent_ = nullptr;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, FnGauge> gauge_fns_;
  uint64_t next_gauge_fn_id_ = 1;
  /// Owned registries currently included in Snapshot().
  std::vector<MetricsRegistry*> children_;
};

/// RAII latency recorder: records elapsed nanoseconds into `h` at scope
/// exit. `h` must outlive the scope (registry handles always do).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* h)
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    h_->Record(ns < 0 ? 0 : static_cast<uint64_t>(ns));
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

/// Prometheus text exposition (metric names have '.' mapped to '_';
/// histograms emit cumulative `_bucket{le="..."}` series plus `_sum`
/// and `_count`).
std::string RenderPrometheus(const MetricsSnapshot& snap);

/// JSON exposition: {"counters":{...},"gauges":{...},"histograms":
/// {name:{"count":..,"sum":..,"buckets":[[upper_bound,count],...]}}}.
std::string RenderJson(const MetricsSnapshot& snap);

/// Compact human-readable rendering used by System::StatusReport():
/// non-zero counters and gauges grouped by top-level prefix, histograms
/// as count/mean/p50/p99 lines. Empty string when nothing is non-zero.
std::string RenderCompact(const MetricsSnapshot& snap);

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters become escape sequences. Every
/// hand-rolled JSON renderer in the tree (metrics, health, events,
/// incidents) uses this one implementation, so a metric or subsystem
/// name containing `"` can never produce unparseable output.
std::string JsonEscape(const std::string& s);

/// Interns `name` into process-lifetime storage and returns a stable
/// C string. Used for dynamic span names (trace slots hold `const
/// char*` that must outlive every reader). The pool never shrinks, so
/// only intern bounded vocabularies (operator names, view names).
const char* InternName(const std::string& name);

}  // namespace structura::obs

#endif  // STRUCTURA_OBS_METRICS_H_
