#ifndef STRUCTURA_RDBMS_LOCK_MANAGER_H_
#define STRUCTURA_RDBMS_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"

namespace structura::rdbms {

using TxnId = uint64_t;

/// Hierarchical lock modes. Tables take intention locks (IS/IX) while the
/// rows beneath take S/X; scans take table-level S, which conflicts with
/// any writer's IX and thereby prevents phantoms.
enum class LockMode : uint8_t {
  kIntentionShared,
  kIntentionExclusive,
  kShared,
  kExclusive,
};

const char* LockModeName(LockMode mode);

/// True when a holder of `held` already has every right `wanted` grants.
bool LockCovers(LockMode held, LockMode wanted);

/// Standard multigranularity compatibility matrix.
bool LockCompatible(LockMode a, LockMode b);

/// Strict two-phase-locking lock table with wait-for-graph deadlock
/// detection. Resources are opaque strings (the database uses
/// "t:<table>" for table locks and "r:<table>:<rowid>" for row locks).
/// A transaction whose wait would close a cycle is aborted (it gets
/// kAborted back and must roll back).
class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Blocks until the lock is granted. Re-entrant: a held mode covering
  /// the request returns immediately; otherwise the request is treated as
  /// an upgrade. Returns kAborted on deadlock.
  Status Acquire(TxnId txn, const std::string& resource, LockMode mode);

  /// Releases every lock `txn` holds (strict 2PL: called once at
  /// commit/abort, by the thread running `txn`, never while `txn` waits
  /// in Acquire). Visits only the queues `txn` entered and erases those
  /// it leaves empty; returns the number of queues visited (test hook).
  size_t ReleaseAll(TxnId txn);

  /// Number of queues in the lock table. Every queue has at least one
  /// holder or waiter: a queue is erased when it empties (test hook).
  size_t ActiveResources() const;

  /// Human-readable dump of all non-empty queues and wait-for edges
  /// (diagnostics; also used by the system monitor).
  std::string DebugString() const;

 private:
  struct Request {
    TxnId txn;
    LockMode mode;
    bool granted = false;
  };
  struct Queue {
    std::list<Request> requests;
  };

  static bool Grantable(const Queue& q, const Request& req);
  /// Grants whatever became grantable; returns true if anything changed
  /// (callers must then notify, or promoted sleepers never wake).
  static bool PromoteWaiters(Queue& q);
  bool WouldDeadlock(TxnId start) const;

  mutable std::mutex mutex_;
  std::condition_variable released_;
  std::unordered_map<std::string, Queue> queues_;
  /// txn -> the resources whose queues it has a request in.
  std::unordered_map<TxnId, std::vector<std::string>> entered_;
  /// txn -> txns it is currently waiting for (rebuilt while waiting).
  std::unordered_map<TxnId, std::unordered_set<TxnId>> wait_for_;
};

}  // namespace structura::rdbms

#endif  // STRUCTURA_RDBMS_LOCK_MANAGER_H_
