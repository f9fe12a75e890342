#include "rdbms/lock_manager.h"

#include <string>
#include <vector>

namespace structura::rdbms {

const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kIntentionShared: return "IS";
    case LockMode::kIntentionExclusive: return "IX";
    case LockMode::kShared: return "S";
    case LockMode::kExclusive: return "X";
  }
  return "?";
}

bool LockCompatible(LockMode a, LockMode b) {
  using M = LockMode;
  switch (a) {
    case M::kIntentionShared:
      return b != M::kExclusive;
    case M::kIntentionExclusive:
      return b == M::kIntentionShared || b == M::kIntentionExclusive;
    case M::kShared:
      return b == M::kIntentionShared || b == M::kShared;
    case M::kExclusive:
      return false;
  }
  return false;
}

bool LockCovers(LockMode held, LockMode wanted) {
  using M = LockMode;
  if (held == wanted) return true;
  switch (held) {
    case M::kExclusive:
      return true;
    case M::kShared:
      return wanted == M::kIntentionShared;
    case M::kIntentionExclusive:
      return wanted == M::kIntentionShared;
    case M::kIntentionShared:
      return false;
  }
  return false;
}

bool LockManager::Grantable(const Queue& q, const Request& req) {
  // Only entries AHEAD of `req` matter: granted ones for correctness,
  // waiting ones for FIFO fairness (no overtaking an earlier conflicting
  // waiter). Entries behind `req` must never block it — treating them as
  // blockers lets a later arrival starve the queue head forever.
  // Invariant relied upon: a request is only ever granted when it is
  // compatible with everything ahead of it, so no conflicting *granted*
  // entry can sit behind `req`.
  for (const Request& other : q.requests) {
    if (&other == &req) break;
    if (other.txn == req.txn) continue;
    if (!LockCompatible(other.mode, req.mode)) return false;
  }
  return true;
}

bool LockManager::PromoteWaiters(Queue& q) {
  bool changed = false;
  for (Request& req : q.requests) {
    if (req.granted) continue;
    if (Grantable(q, req)) {
      req.granted = true;
      changed = true;
    } else {
      break;  // FIFO: nothing behind a still-blocked waiter is promoted
    }
  }
  return changed;
}

bool LockManager::WouldDeadlock(TxnId start) const {
  std::vector<TxnId> stack;
  std::unordered_set<TxnId> visited;
  auto it = wait_for_.find(start);
  if (it == wait_for_.end()) return false;
  for (TxnId t : it->second) stack.push_back(t);
  while (!stack.empty()) {
    TxnId cur = stack.back();
    stack.pop_back();
    if (cur == start) return true;
    if (!visited.insert(cur).second) continue;
    auto edge = wait_for_.find(cur);
    if (edge == wait_for_.end()) continue;
    for (TxnId t : edge->second) stack.push_back(t);
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, const std::string& resource,
                            LockMode mode) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Stays valid across released_.wait below: our own request keeps the
  // queue non-empty, and only an empty queue is ever erased.
  Queue& q = queues_[resource];

  // Re-entrancy / upgrade handling.
  bool upgrading = false;
  for (auto it = q.requests.begin(); it != q.requests.end(); ++it) {
    if (it->txn != txn || !it->granted) continue;
    if (LockCovers(it->mode, mode)) return Status::OK();
    // Upgrade: if no other holder conflicts with the stronger mode,
    // strengthen in place.
    bool conflict = false;
    for (const Request& other : q.requests) {
      if (other.txn != txn && other.granted &&
          !LockCompatible(other.mode, mode)) {
        conflict = true;
        break;
      }
    }
    if (!conflict) {
      it->mode = mode;
      return Status::OK();
    }
    // Otherwise KEEP the weaker hold (releasing it would break two-phase
    // locking: a writer could slip between our read and our write — a
    // lost update) and queue the stronger request with upgrade priority.
    // Two transactions upgrading the same resource form a wait-for cycle
    // through their retained S holds; the deadlock detector aborts one.
    upgrading = true;
    break;
  }

  std::list<Request>::iterator mine_it;
  if (upgrading) {
    // Upgrade priority: insert right after the last granted entry, ahead
    // of fresh waiters (which may themselves be blocked on our S hold).
    auto insert_pos = q.requests.begin();
    for (auto jt = q.requests.begin(); jt != q.requests.end(); ++jt) {
      if (jt->granted) insert_pos = std::next(jt);
    }
    mine_it = q.requests.insert(insert_pos, Request{txn, mode, false});
  } else {
    // Not upgrading means no request of ours is in this queue yet.
    q.requests.push_back(Request{txn, mode, false});
    mine_it = std::prev(q.requests.end());
    entered_[txn].push_back(resource);
  }
  Request& mine = *mine_it;
  while (true) {
    // `mine.granted` may have been set by a PromoteWaiters run while we
    // slept; it must win over re-deriving grantability, because newer
    // incompatible waiters queued *behind* us make Grantable() false
    // again even though we already hold the lock.
    if (mine.granted || Grantable(q, mine)) {
      mine.granted = true;
      wait_for_.erase(txn);
      // A compatible later waiter may also proceed now.
      if (PromoteWaiters(q)) released_.notify_all();
      return Status::OK();
    }
    std::unordered_set<TxnId>& edges = wait_for_[txn];
    edges.clear();
    for (const Request& other : q.requests) {
      if (&other == &mine) break;   // only entries ahead of us block us
      if (other.txn == txn) continue;  // our own retained weaker hold
      if (!LockCompatible(other.mode, mode)) edges.insert(other.txn);
    }
    if (WouldDeadlock(txn)) {
      wait_for_.erase(txn);
      q.requests.erase(mine_it);
      if (!upgrading) {
        // Our request was the one we entered this queue with (pushed
        // above by this same call), so it leaves our list again.
        entered_[txn].pop_back();
      }
      // The queue stays non-empty (whatever blocks us is ahead of us in
      // it), so it is not erased here.
      PromoteWaiters(q);
      released_.notify_all();
      return Status::Aborted("deadlock detected on " + resource);
    }
    released_.wait(lock);
  }
}

size_t LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mutex_);
  wait_for_.erase(txn);
  auto entered = entered_.find(txn);
  if (entered == entered_.end()) return 0;
  for (const std::string& resource : entered->second) {
    auto it = queues_.find(resource);
    it->second.requests.remove_if(
        [&](const Request& r) { return r.txn == txn; });
    if (it->second.requests.empty()) {
      queues_.erase(it);
    } else {
      PromoteWaiters(it->second);
    }
  }
  size_t visited = entered->second.size();
  entered_.erase(entered);
  released_.notify_all();
  return visited;
}

std::string LockManager::DebugString() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, q] : queues_) {
    out += name + ":";
    for (const Request& r : q.requests) {
      out += " txn" + std::to_string(r.txn);
      out += "/";
      out += LockModeName(r.mode);
      out += r.granted ? "(G)" : "(W)";
    }
    out += "\n";
  }
  for (const auto& [txn, edges] : wait_for_) {
    out += "wait_for txn" + std::to_string(txn) + " -> {";
    for (TxnId t : edges) out += " txn" + std::to_string(t);
    out += " }\n";
  }
  return out;
}

size_t LockManager::ActiveResources() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_.size();
}

}  // namespace structura::rdbms
