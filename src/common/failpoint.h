#ifndef STRUCTURA_COMMON_FAILPOINT_H_
#define STRUCTURA_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace structura {

/// Deterministic fault-injection framework. Durability- and
/// failure-sensitive code declares named failpoints (via
/// STRUCTURA_FAILPOINT or MaybeFail); tests arm them with a firing
/// policy and the code path observes an injected error Status exactly
/// where a real fault (full disk, killed worker, crashing extractor)
/// would surface one.
///
/// Well-known failpoint names wired through the system:
///   wal.append          rdbms::WriteAheadLog::Append, before the write
///   wal.append.torn     same site; fires a simulated torn tail (half the
///                       frame reaches the file, then "crash")
///   wal.flush           rdbms::WriteAheadLog::Flush
///   wal.frame           the framed WAL bytes about to be written;
///                       corruption specs silently damage them (bit-rot)
///   db.checkpoint.write rdbms::Database::Checkpoint, before the rename
///   checkpoint.write    the full checkpoint image (incl. footer) about
///                       to be written; corruption specs damage it
///   segment.record      a framed SegmentStore record about to be written
///   snapshot.append     storage::SnapshotStore::Append
///   snapshot.delta      a stored snapshot delta; corruption specs damage
///                       it after its content checksum was recorded
///   ie.extract          one (document, extractor) run; also evaluated as
///                       "ie.extract.<name>" to target a single operator
///   serve.op            before each serve::Frontend handler attempt;
///                       also evaluated as "serve.op.<name>"
///   env.open            SimulatedEnv::NewWritableFile (kIoError)
///   env.write           SimulatedEnv file append (kIoError, no bytes
///                       written)
///   env.write.enospc    same site, fails with kResourceExhausted
///   env.write.short     same site, power cut: half the bytes land,
///                       then kIoError and the file latches sticky
///   env.sync            SimulatedEnv file sync (kIoError)
///   env.rename          SimulatedEnv::RenameFile (kIoError)
///   env.syncdir         SimulatedEnv::SyncDir (kIoError)
class FailpointRegistry {
 public:
  /// Firing policy for one armed failpoint. Hit indices are 1-based and
  /// count evaluations made while the failpoint is armed.
  struct Spec {
    enum class Mode {
      kOff,
      kAlways,       // every hit fires
      kNth,          // exactly hit #n fires (n == 1: classic fail-once)
      kFrom,         // every hit >= n fires (models a crashed process)
      kProbability,  // each hit fires with probability p (seeded rng)
    };
    /// What a firing evaluation does at a corruption-capable site
    /// (MaybeCorrupt): kError injects an error Status like any other
    /// failpoint; kFlipByte / kZeroByte silently damage one byte of the
    /// payload at `corrupt_offset` (mod payload size) and let the write
    /// "succeed" — deterministic bit-rot.
    enum class Payload { kError, kFlipByte, kZeroByte };

    Mode mode = Mode::kOff;
    uint64_t n = 1;
    double probability = 0.0;
    uint64_t seed = 0;
    Payload payload = Payload::kError;
    uint64_t corrupt_offset = 0;

    static Spec Once() { return Nth(1); }
    static Spec Nth(uint64_t n) {
      Spec s;
      s.mode = Mode::kNth;
      s.n = n;
      return s;
    }
    static Spec From(uint64_t n) {
      Spec s;
      s.mode = Mode::kFrom;
      s.n = n;
      return s;
    }
    static Spec Always() {
      Spec s;
      s.mode = Mode::kAlways;
      return s;
    }
    static Spec WithProbability(double p, uint64_t seed) {
      Spec s;
      s.mode = Mode::kProbability;
      s.probability = p;
      s.seed = seed;
      return s;
    }
    /// Never fires; useful to count hits at a site (e.g. to size a
    /// crash sweep before running it).
    static Spec CountOnly() { return Nth(0); }
    /// On the nth evaluation, flip every bit of payload byte `offset`
    /// (mod payload size); the write itself succeeds.
    static Spec FlipByteAt(uint64_t nth, uint64_t offset) {
      Spec s = Nth(nth);
      s.payload = Payload::kFlipByte;
      s.corrupt_offset = offset;
      return s;
    }
    /// Like FlipByteAt but zeroes the byte.
    static Spec ZeroByteAt(uint64_t nth, uint64_t offset) {
      Spec s = Nth(nth);
      s.payload = Payload::kZeroByte;
      s.corrupt_offset = offset;
      return s;
    }
  };

  struct Counters {
    uint64_t hits = 0;   // evaluations while armed
    uint64_t fires = 0;  // evaluations that injected a failure
  };

  static FailpointRegistry& Instance();

  void Arm(const std::string& name, Spec spec);
  void Disarm(const std::string& name);
  void DisarmAll();

  bool IsArmed(const std::string& name) const;
  Counters GetCounters(const std::string& name) const;
  /// Every failpoint touched since the last DisarmAll, in name order.
  std::vector<std::pair<std::string, Counters>> Snapshot() const;

  /// True when at least one failpoint is armed anywhere in the process
  /// and injection is not suppressed on this thread. The disarmed fast
  /// path is one relaxed atomic load.
  static bool Active() {
    return armed_count_.load(std::memory_order_relaxed) > 0 &&
           suppression_depth_ == 0;
  }

  /// Slow path used by MaybeFail; call Active() first.
  Status Evaluate(std::string_view name);

  /// Slow path used by MaybeCorrupt: like Evaluate, but a firing spec
  /// whose payload is a corruption mode mutates `buf` in place and
  /// returns OK (the caller's write proceeds with damaged bytes).
  Status EvaluateCorrupt(std::string_view name, std::string* buf);

 private:
  friend class ScopedFailpointSuppression;

  FailpointRegistry() = default;

  struct Entry {
    Spec spec;
    Counters counters;
    Rng rng{0};
  };

  static std::atomic<int> armed_count_;
  // Inline, so no user reaches it through a TLS wrapper: GCC 12 with
  // -fsanitize=null reuses the wrapper's "init function absent" zero
  // flag as the address null check and reports a valid access as a
  // "load of null pointer".
  static inline thread_local int suppression_depth_ = 0;

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Evaluates the named failpoint: OK when disarmed (the common case,
/// one atomic load), an injected error Status when the armed policy
/// fires.
inline Status MaybeFail(std::string_view name) {
  if (!FailpointRegistry::Active()) return Status::OK();
  return FailpointRegistry::Instance().Evaluate(name);
}

/// Evaluates a corruption-capable failpoint over the bytes about to be
/// written. Disarmed: OK, bytes untouched (one atomic load). Armed with
/// a corruption spec: when the policy fires, one byte of `buf` is
/// deterministically flipped/zeroed and OK is returned — the write
/// "succeeds", modeling silent media corruption the reader must catch.
/// Armed with a plain error spec: behaves exactly like MaybeFail.
inline Status MaybeCorrupt(std::string_view name, std::string* buf) {
  if (!FailpointRegistry::Active()) return Status::OK();
  return FailpointRegistry::Instance().EvaluateCorrupt(name, buf);
}

/// Declares a failpoint inside a function returning Status or Result<T>:
/// propagates the injected error to the caller when it fires.
#define STRUCTURA_FAILPOINT(name) \
  STRUCTURA_RETURN_IF_ERROR(::structura::MaybeFail(name))

/// RAII arm/disarm: the failpoint is armed for the guard's lifetime.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, FailpointRegistry::Spec spec)
      : name_(std::move(name)) {
    FailpointRegistry::Instance().Arm(name_, spec);
  }
  ~ScopedFailpoint() { FailpointRegistry::Instance().Disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// RAII thread-local suppression: code in scope never observes injected
/// failures, even while failpoints stay armed. Used when exercising
/// recovery paths that share code with the faulted path (e.g. reopening
/// a database while a crash failpoint is still armed).
class ScopedFailpointSuppression {
 public:
  ScopedFailpointSuppression() { ++FailpointRegistry::suppression_depth_; }
  ~ScopedFailpointSuppression() { --FailpointRegistry::suppression_depth_; }
  ScopedFailpointSuppression(const ScopedFailpointSuppression&) = delete;
  ScopedFailpointSuppression& operator=(const ScopedFailpointSuppression&) =
      delete;
};

}  // namespace structura

#endif  // STRUCTURA_COMMON_FAILPOINT_H_
