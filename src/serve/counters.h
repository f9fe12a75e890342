#ifndef STRUCTURA_SERVE_COUNTERS_H_
#define STRUCTURA_SERVE_COUNTERS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/request_context.h"

namespace structura::serve {

/// Point-in-time snapshot of one frontend's serving counters, consumed
/// by System::StatusReport(). Read straight from the frontend's own
/// metrics registry (`serve.requests.*`), which the process registry
/// sums in while the frontend lives and keeps after it is gone.
/// Invariants the chaos test enforces (globally AND per priority tier):
///   admitted + shed + not_found == issued        (every Submit decided)
///   ok + deadline_exceeded + cancelled
///      + unavailable == resolved admitted        (every admitted ends)
///   root_spans == admitted                       (one root span each)
struct ServingCounters {
  /// Admission accounting for one priority tier
  /// (`serve.requests.tier.<tier>.*`). The same invariant holds per
  /// tier: admitted + shed + not_found == issued.
  struct Tier {
    uint64_t issued = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t not_found = 0;
  };

  uint64_t issued = 0;             // Submit() calls
  uint64_t admitted = 0;           // accepted onto the queue
  uint64_t shed = 0;               // refused at admission (queue/brownout)
  uint64_t not_found = 0;          // refused at admission (unknown operator)
  uint64_t ok = 0;                 // resolved OK
  uint64_t deadline_exceeded = 0;  // resolved kDeadlineExceeded
  uint64_t cancelled = 0;          // resolved kCancelled
  uint64_t unavailable = 0;        // resolved kUnavailable post-admission
  uint64_t shed_queued_wait = 0;   // of `unavailable`: stale in queue
  uint64_t breaker_rejected = 0;   // of `unavailable`: breaker open
  uint64_t read_only_refused = 0;  // of `unavailable`: write in brownout
  uint64_t shed_brownout = 0;      // of `shed`: brownout tier refusal
  uint64_t fallback_served = 0;    // answered by a fallback operator
  uint64_t degraded_answers = 0;   // of `ok`: flagged degraded
  uint64_t retries = 0;            // re-attempts charged to budgets
  uint64_t root_spans = 0;         // request root spans recorded
  uint64_t queue_high_water = 0;   // max queued tasks ever observed
  /// Indexed by Priority (interactive/batch/background).
  std::array<Tier, kNumPriorities> tiers{};
  /// (operator, breaker state name), in registration order.
  std::vector<std::pair<std::string, std::string>> breakers;

  /// One-line rendering used by StatusReport().
  std::string ToString() const;
};

}  // namespace structura::serve

#endif  // STRUCTURA_SERVE_COUNTERS_H_
