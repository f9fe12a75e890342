// The benchmark's own span recorder and the arithmetic that turns spans
// into per-layer metrics. Spans are recorded around the benchmark's calls
// into the program's public API (System, Frontend, Database), never
// inside the program. Recording is off in gated runs.
#ifndef DGEBENCH_SPAN_RECORDER_H_
#define DGEBENCH_SPAN_RECORDER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dgebench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Which part of a run a span belongs to. Answer checks are recorded
/// but belong to neither set-up nor the measured phase.
enum class Phase : uint8_t { kSetup = 0, kMeasured = 1, kCheck = 2 };

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 for a root
  uint64_t request_id = 0;
  Phase phase = Phase::kMeasured;
};

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

/// The tail percentile a class of `n` samples supports: p99 from 1000
/// samples on, p90 below that.
inline int TailPercentile(size_t n) { return n >= 1000 ? 99 : 90; }

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

/// Per-name rollup of a phase's spans.
struct SpanClass {
  std::vector<double> duration_ms;
  double busy_s = 0;  // sum of durations
  double self_s = 0;  // sum of self times
};

inline std::map<std::string, SpanClass> Rollup(const std::vector<Span>& spans,
                                               Phase phase) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanClass> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.phase != phase) continue;
    SpanClass& c = out[s.name];
    double d = static_cast<double>(s.end_ns - s.start_ns);
    c.duration_ms.push_back(d / 1e6);
    c.busy_s += d / 1e9;
    c.self_s += static_cast<double>(self[i]) / 1e9;
  }
  return out;
}

/// Records one span per public call. Calls nest on a single stack: the
/// client thread opens a Frontend::Call span and blocks until the
/// frontend worker has opened and closed the handler's span beneath it,
/// so at most one thread touches the stack at a time; the mutex makes
/// that hand-off explicit.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_phase(Phase phase) {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
  }
  void set_request(uint64_t request_id) {
    std::lock_guard<std::mutex> lock(mu_);
    request_id_ = request_id;
  }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Open(const char* name) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request_id = request_id_;
    s.phase = phase_;
    s.start_ns = NowNanos();
    spans_.push_back(std::move(s));
    int32_t id = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }

  void Close(int32_t id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = NowNanos();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Renames an open or closed span (used when the class of a call is
  /// known only after it returns, e.g. cache hit or miss).
  void Rename(int32_t id, const char* name) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].name = name;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  class Scope {
   public:
    Scope(SpanRecorder* r, const char* name) : r_(r), id_(r->Open(name)) {}
    ~Scope() { r_->Close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int32_t id() const { return id_; }

   private:
    SpanRecorder* r_;
    int32_t id_;
  };

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  Phase phase_ = Phase::kSetup;
  uint64_t request_id_ = 0;
};

}  // namespace dgebench

#endif  // DGEBENCH_SPAN_RECORDER_H_
