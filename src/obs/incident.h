#ifndef STRUCTURA_OBS_INCIDENT_H_
#define STRUCTURA_OBS_INCIDENT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"

namespace structura::obs {

/// Automatic incident bundles: when a trigger fires (the System
/// watchdog observes a health demotion to critical, read-only entry, a
/// flapping breaker, or slow requests), MaybeDump writes one
/// self-contained directory — every registered section rendered at that
/// instant, plus a MANIFEST.json naming the trigger — under the
/// artifact directory. A Clock-driven cooldown rate-limits dumps so a
/// flapping subsystem cannot fill the disk; suppressed triggers are
/// counted, not queued.
///
/// The manager knows nothing about what it dumps: owners (core::System)
/// register named content providers (metrics snapshot, HealthJson,
/// event-journal tail, expensive-request span trees, StatusReport), so
/// obs stays free of upward dependencies.
class IncidentManager {
 public:
  struct Options {
    /// Where bundles land (one subdirectory per incident). Empty
    /// disables dumping entirely — MaybeDump returns "" and counts
    /// nothing.
    std::string dir;
    /// Minimum spacing between bundles, measured on `clock`.
    uint64_t cooldown_ms = 1000;
    /// nullptr = real time.
    Clock* clock = nullptr;
  };

  /// Renders one section of a bundle at dump time. Must be thread-safe.
  using ContentFn = std::function<std::string()>;

  explicit IncidentManager(Options options);
  IncidentManager(const IncidentManager&) = delete;
  IncidentManager& operator=(const IncidentManager&) = delete;

  /// Registers a section written into every bundle as `filename`.
  /// Call during setup, before triggers can fire.
  void AddSection(std::string filename, ContentFn fn);

  /// Writes a bundle for `trigger` unless disabled or still inside the
  /// cooldown window. Returns the bundle directory path, or "" when no
  /// bundle was written (disabled, cooling down, or the filesystem
  /// refused). Serialized: concurrent triggers queue behind the mutex
  /// and the losers land in the cooldown.
  std::string MaybeDump(const std::string& trigger);

  /// Bundles written / triggers suppressed by the cooldown.
  uint64_t dumps() const { return dumps_->Value(); }
  uint64_t suppressed() const { return suppressed_->Value(); }

  /// Journal-clock stamp of the last bundle, or -1 when none yet.
  int64_t last_dump_nanos() const;

  const std::string& dir() const { return options_.dir; }

 private:
  Options options_;
  Clock* clock_;

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, ContentFn>> sections_;
  int64_t last_dump_nanos_ = -1;
  uint64_t seq_ = 0;
  /// This manager's own counts, included in the process registry.
  MetricsRegistry metrics_{&MetricsRegistry::Default()};
  Counter* dumps_ = metrics_.GetCounter("obs.incidents.dumped");
  Counter* suppressed_ = metrics_.GetCounter("obs.incidents.suppressed");
};

}  // namespace structura::obs

#endif  // STRUCTURA_OBS_INCIDENT_H_
