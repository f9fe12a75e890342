#ifndef STRUCTURA_SERVE_HEALTH_H_
#define STRUCTURA_SERVE_HEALTH_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace structura::serve {

/// Per-subsystem health: the tri-state every degradation decision keys
/// off. Order matters — comparisons use "worse = larger".
enum class HealthState { kHealthy = 0, kDegraded = 1, kCritical = 2 };

const char* HealthStateName(HealthState s);

/// One reading from a signal source: the state it votes for and a
/// human-readable reason (empty when healthy).
struct HealthSample {
  HealthState state = HealthState::kHealthy;
  std::string reason;
};

/// The system's health ledger: named subsystems (ie, query.structured,
/// query.keyword, storage.wal, storage.snapshots, serve, …), each fed by
/// one or more registered signal sources that derive a HealthSample
/// from existing telemetry (circuit-breaker states, IntegrityCounters,
/// queue gauges, fault-rate deltas). A subsystem's state is the worst
/// of its sources' states.
///
/// **Evaluation & hysteresis.** `Evaluate()` (called by the System
/// watchdog, or directly in tests) polls every signal and applies a
/// demote-fast / promote-slow state machine per source: a worse sample
/// takes effect immediately, but promotion back toward healthy requires
/// `promote_after` *consecutive* better samples — one lucky probe does
/// not clear an outage. Evaluations are serialized; signal fns run with
/// the model's lock released so they may freely take their own locks
/// (breaker mutexes, pool stats), but they MUST NOT call back into this
/// model (StateOf/Evaluate/…) or they deadlock against the drain logic.
///
/// **Detach discipline.** `Detach(id)` blocks until no evaluation is in
/// flight, so after it returns the signal fn is guaranteed never to run
/// again. Owners of state captured by a signal (e.g. a Frontend whose
/// breakers feed `query.*`) MUST detach in their destructor *before*
/// that state is torn down; the model itself must outlive every
/// registrant (it lives in System, registrants are created after and
/// destroyed before it).
///
/// Exposed as process-registry gauges `health.<subsystem>` (0/1/2) and
/// `health.overall`, counter `health.transitions`, and as JSON via
/// `ToJson()` / `System::HealthJson()`.
class HealthModel {
 public:
  struct Options {
    /// Consecutive improved samples needed before a source's state is
    /// promoted (toward healthy). Demotions are immediate.
    uint32_t promote_after = 2;
  };

  /// A signal source. Must be cheap (runs on the watchdog cadence),
  /// thread-safe, and must not call back into the HealthModel.
  using SignalFn = std::function<HealthSample()>;

  HealthModel() : HealthModel(Options{}) {}
  explicit HealthModel(Options options);
  HealthModel(const HealthModel&) = delete;
  HealthModel& operator=(const HealthModel&) = delete;

  /// Registers (or replaces) the signal `source` feeding `subsystem`.
  /// Returns a registration id for Detach. Replacing an existing
  /// (subsystem, source) pair detaches the old fn first (same drain
  /// guarantee as Detach).
  uint64_t Register(const std::string& subsystem, const std::string& source,
                    SignalFn fn);

  /// Removes a registration and blocks until any in-flight Evaluate()
  /// can no longer be running its fn. Safe to call with a stale id (
  /// no-op when the registration was already replaced). The source's
  /// last state is dropped from the ledger — a detached component no
  /// longer votes.
  void Detach(uint64_t id);

  /// Polls every signal once and folds the samples into the ledger.
  /// Serialized: concurrent calls queue behind each other.
  void Evaluate();

  /// Worst state over the subsystem's sources; kHealthy when unknown.
  HealthState StateOf(const std::string& subsystem) const;

  /// Reason of the worst-state source of the subsystem ("" if healthy).
  std::string ReasonOf(const std::string& subsystem) const;

  /// Worst state over every registered source.
  HealthState Overall() const;

  uint64_t evaluations() const;
  uint64_t transitions() const;

  struct SourceStatus {
    std::string subsystem;
    std::string source;
    HealthState state = HealthState::kHealthy;
    std::string reason;
    uint64_t transitions = 0;
  };
  /// Every source's current state, sorted by (subsystem, source).
  std::vector<SourceStatus> Snapshot() const;

  /// {"overall":"…","evaluations":N,"transitions":N,
  ///  "subsystems":{"ie":{"state":"…","sources":{"faults":
  ///  {"state":"…","reason":"…","transitions":N}}},…}}
  std::string ToJson() const;

 private:
  struct Entry {
    std::string subsystem;
    std::string source;
    SignalFn fn;
    HealthState state = HealthState::kHealthy;
    std::string reason;
    uint32_t improve_streak = 0;
    uint64_t transitions = 0;
  };

  /// Applies one sample to `e` under mutex_ (demote-fast/promote-slow).
  void ApplyLocked(Entry* e, const HealthSample& sample);
  void PublishGaugesLocked();

  Options options_;
  obs::Counter* transitions_counter_ =
      obs::MetricsRegistry::Default().GetCounter("health.transitions");

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  bool evaluating_ = false;
  std::map<uint64_t, Entry> entries_;
  uint64_t next_id_ = 1;
  uint64_t evaluations_ = 0;
  uint64_t transitions_ = 0;
};

}  // namespace structura::serve

#endif  // STRUCTURA_SERVE_HEALTH_H_
