#ifndef STRUCTURA_QUERY_RESULT_CACHE_H_
#define STRUCTURA_QUERY_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "query/relation.h"

namespace structura::query {

/// A recorded (input name, epoch) pair — the version of one named input
/// a cached result was computed against.
using EpochVector = std::vector<std::pair<std::string, uint64_t>>;

/// Monotonic version counters for every named input a query can read.
/// The convention used across the system:
///   "table:<name>"  — bumped by the Database commit listener for every
///                     table a *committed* transaction touched (and on
///                     DDL). Aborted or durability-failed transactions
///                     never reach the listener, so they can never bump.
///   "view:<name>"   — bumped when a view is (re)created, refreshed, or
///                     schema-unified.
///   "docs"          — bumped when the document collection / keyword
///                     index is rebuilt by ingestion.
/// Bump is an O(1) counter increment: writers never walk the cache.
/// Cached entries carry the epochs they were computed at and are
/// validated lazily on lookup, so a stale hit is structurally
/// impossible no matter how lookups and bumps interleave.
class EpochMap {
 public:
  /// Current epoch for `name` (0 = never written since startup).
  uint64_t Get(const std::string& name) const;

  /// O(1) version bump; invalidates every cache entry that reads
  /// `name` (lazily, at their next lookup).
  void Bump(const std::string& name);

  /// Epoch vector for a set of input names. Callers snapshot BEFORE
  /// executing the query and pass the snapshot to Insert — a write
  /// committing mid-execution then leaves the entry recorded at the
  /// pre-write epoch, and the first lookup discards it.
  EpochVector Snapshot(const std::vector<std::string>& inputs) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, uint64_t> epochs_;
};

/// Bounded, epoch-validated cache of query results, keyed by canonical
/// plan fingerprint. Eviction is LRU under both an entry count and a
/// byte budget. Its counters and gauges,
/// query.cache.{hit,miss,evict,inval,reject,bytes,entries}, live in the
/// cache's own metrics registry (included in the process registry while
/// the cache lives); stats() reads the same counters.
class QueryResultCache {
 public:
  struct Options {
    size_t max_entries = 1024;
    size_t max_bytes = 8u << 20;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;      // LRU / budget evictions
    uint64_t invalidations = 0;  // entries dropped on epoch mismatch
    uint64_t rejected = 0;       // admission refused (size)
    size_t entries = 0;
    size_t bytes = 0;
  };

  QueryResultCache() : QueryResultCache(Options()) {}
  explicit QueryResultCache(Options opts);

  /// The version counters writers bump. Shared with the cache so
  /// validation and bumping agree on one source of truth.
  EpochMap& epochs() { return epochs_; }
  const EpochMap& epochs() const { return epochs_; }

  /// Returns the cached relation iff an entry exists AND every epoch it
  /// was computed at still matches the live map. A mismatching entry is
  /// erased on the spot (counted as an invalidation) and reported as a
  /// miss.
  std::optional<Relation> Lookup(const std::string& fingerprint);

  /// The cached-execution path every caller shares: snapshots the
  /// epochs of `inputs` (before running — see EpochMap::Snapshot), then
  /// serves `fingerprint` from the cache when current, else runs
  /// `compute` and admits its result at that snapshot.
  Result<Relation> GetOrCompute(
      const std::string& fingerprint, const std::vector<std::string>& inputs,
      const std::function<Result<Relation>()>& compute);

  /// Admits `result` under `fingerprint`, recorded at `at` (the epoch
  /// snapshot taken before execution — see EpochMap::Snapshot). An
  /// entry alone bigger than the whole byte budget is rejected. Replaces
  /// any previous entry for the same fingerprint.
  void Insert(const std::string& fingerprint, EpochVector at,
              Relation result);

  /// Drops every entry (counters and epochs are preserved).
  void Clear();

  Stats stats() const;

 private:
  struct Entry {
    std::string fingerprint;
    EpochVector at;
    Relation result;
    size_t bytes = 0;
  };

  /// Evicts from the LRU tail until budgets hold. Caller holds mutex_.
  void EvictLocked();
  /// Publishes bytes_ and the entry count as gauges. Caller holds mutex_.
  void PublishSizeLocked();

  Options options_;
  EpochMap epochs_;

  obs::MetricsRegistry metrics_{&obs::MetricsRegistry::Default()};
  obs::Counter* hits_ = metrics_.GetCounter("query.cache.hit");
  obs::Counter* misses_ = metrics_.GetCounter("query.cache.miss");
  obs::Counter* evictions_ = metrics_.GetCounter("query.cache.evict");
  obs::Counter* invalidations_ = metrics_.GetCounter("query.cache.inval");
  obs::Counter* rejected_ = metrics_.GetCounter("query.cache.reject");
  obs::Gauge* bytes_gauge_ = metrics_.GetGauge("query.cache.bytes");
  obs::Gauge* entries_gauge_ = metrics_.GetGauge("query.cache.entries");

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
};

}  // namespace structura::query

#endif  // STRUCTURA_QUERY_RESULT_CACHE_H_
