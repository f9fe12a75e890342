#ifndef STRUCTURA_COMMON_INTEGRITY_H_
#define STRUCTURA_COMMON_INTEGRITY_H_

#include <cstdint>
#include <string>

namespace structura {

/// Counters describing what storage recovery and scrubbing found —
/// the bit-rot analogue of the serving layer's ServingCounters.
/// Accumulated by WAL/checkpoint recovery, SegmentStore reopen, and the
/// Scrub() passes; surfaced by System::StatusReport() and as the
/// `integrity.{recovery,scrub}.<field>` gauges. Every field is named
/// once, in kIntegrityFields below; Merge, ToString and the gauges all
/// iterate that list.
struct IntegrityCounters {
  uint64_t records_verified = 0;   // records whose checksums validated
  uint64_t corrupt_records = 0;    // damaged frames / failed validations
  uint64_t salvaged_records = 0;   // valid records recovered past damage
  uint64_t lost_txns = 0;          // transactions dropped atomically
  uint64_t quarantined_segments = 0;  // segment files with mid-file damage
  uint64_t torn_tail_bytes = 0;    // trailing bytes truncated as torn
  uint64_t checkpoints_rejected = 0;  // checkpoint images failing their footer
  uint64_t stale_wal_records = 0;  // records of a superseded (pre-checkpoint)
                                   // log that resurrected and were dropped

  void Merge(const IntegrityCounters& other);

  /// True when any damage (as opposed to clean verification) was seen.
  bool AnyDamage() const {
    return corrupt_records > 0 || lost_txns > 0 ||
           quarantined_segments > 0 || torn_tail_bytes > 0 ||
           checkpoints_rejected > 0;
  }

  /// One-line rendering used by StatusReport().
  std::string ToString() const;
};

struct IntegrityField {
  const char* name;
  uint64_t IntegrityCounters::*value;
};

inline constexpr IntegrityField kIntegrityFields[] = {
    {"records_verified", &IntegrityCounters::records_verified},
    {"corrupt_records", &IntegrityCounters::corrupt_records},
    {"salvaged_records", &IntegrityCounters::salvaged_records},
    {"lost_txns", &IntegrityCounters::lost_txns},
    {"quarantined_segments", &IntegrityCounters::quarantined_segments},
    {"torn_tail_bytes", &IntegrityCounters::torn_tail_bytes},
    {"checkpoints_rejected", &IntegrityCounters::checkpoints_rejected},
    {"stale_wal_records", &IntegrityCounters::stale_wal_records},
};

}  // namespace structura

#endif  // STRUCTURA_COMMON_INTEGRITY_H_
