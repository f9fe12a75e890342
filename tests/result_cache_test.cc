// The epoch-versioned query result cache, unit-tested and then locked
// down by a property-based coherence sweep: under seeded random
// interleavings of committed writes, aborted transactions, DDL, and
// cached queries wired through a real rdbms::Database commit listener,
// a cache hit may NEVER reflect state older than the latest committed
// write, and an aborted transaction may never bump an epoch. The sweep
// (CacheSweepTest.*, ctest -L parallel) reproduces any failure from the
// printed STRUCTURA_CACHE_SEED; STRUCTURA_CACHE_ITERS scales it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query/relation.h"
#include "query/result_cache.h"
#include "rdbms/database.h"
#include "rdbms/schema.h"
#include "rdbms/value.h"

namespace structura::query {
namespace {

using rdbms::Database;
using rdbms::TableSchema;
using rdbms::Transaction;
using rdbms::ValueType;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

Relation OneCell(int64_t v) {
  Relation rel({"v"});
  rel.Append({Value::Int(v)}).ok();
  return rel;
}

TEST(ResultCacheTest, HitReturnsInsertedResult) {
  QueryResultCache cache;
  EXPECT_FALSE(cache.Lookup("q1").has_value());
  EpochVector at = cache.epochs().Snapshot({"table:t"});
  cache.Insert("q1", at, OneCell(7));
  auto hit = cache.Lookup("q1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->At(0, "v").as_int(), 7);
  QueryResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);  // the pre-insert lookup
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheTest, BumpInvalidatesLazily) {
  QueryResultCache cache;
  cache.Insert("q", cache.epochs().Snapshot({"table:t"}), OneCell(1));
  ASSERT_TRUE(cache.Lookup("q").has_value());
  cache.epochs().Bump("table:t");
  EXPECT_FALSE(cache.Lookup("q").has_value());
  QueryResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.entries, 0u);
  // An input the entry does not read leaves it valid.
  cache.Insert("q2", cache.epochs().Snapshot({"table:t"}), OneCell(2));
  cache.epochs().Bump("table:other");
  EXPECT_TRUE(cache.Lookup("q2").has_value());
}

TEST(ResultCacheTest, SnapshotBeforeExecutionCatchesMidRunWrites) {
  // The insert below records epochs snapshotted BEFORE a write landed
  // mid-"execution" — so the entry must be discarded at first lookup.
  QueryResultCache cache;
  EpochVector at = cache.epochs().Snapshot({"table:t"});
  cache.epochs().Bump("table:t");  // write commits while query runs
  cache.Insert("q", at, OneCell(42));
  EXPECT_FALSE(cache.Lookup("q").has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCacheTest, LruEvictsByEntryBudget) {
  QueryResultCache::Options opts;
  opts.max_entries = 2;
  QueryResultCache cache(opts);
  cache.Insert("a", {}, OneCell(1));
  cache.Insert("b", {}, OneCell(2));
  ASSERT_TRUE(cache.Lookup("a").has_value());  // a is now MRU
  cache.Insert("c", {}, OneCell(3));
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());  // LRU victim
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, ByteBudgetEvictsAndRejectsOversized) {
  QueryResultCache::Options opts;
  opts.max_bytes = 600;
  QueryResultCache cache(opts);
  Relation big({"s"});
  big.Append({Value::Str(std::string(10000, 'x'))}).ok();
  cache.Insert("big", {}, big);  // alone over budget
  EXPECT_FALSE(cache.Lookup("big").has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);
  cache.Insert("a", {}, OneCell(1));
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_LE(cache.stats().bytes, 600u);
}

TEST(ResultCacheTest, ClearDropsEntriesKeepsEpochs) {
  QueryResultCache cache;
  cache.epochs().Bump("table:t");
  cache.Insert("q", cache.epochs().Snapshot({"table:t"}), OneCell(1));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("q").has_value());
  EXPECT_EQ(cache.epochs().Get("table:t"), 1u);
}

TEST(ResultCacheTest, CommitListenerBumpsOnCommitOnly) {
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok());
  QueryResultCache cache;
  (*db)->SetCommitListener([&](const std::vector<std::string>& tables) {
    for (const std::string& t : tables) cache.epochs().Bump("table:" + t);
  });
  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {{"k", ValueType::kString}, {"n", ValueType::kInt}};
  ASSERT_TRUE((*db)->CreateTable(schema).ok());
  EXPECT_EQ(cache.epochs().Get("table:t"), 1u);  // DDL bumps
  {
    auto txn = (*db)->Begin();
    txn->Insert("t", {Value::Str("a"), Value::Int(1)}).value();
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(cache.epochs().Get("table:t"), 2u);  // committed write bumps
  {
    auto txn = (*db)->Begin();
    txn->Insert("t", {Value::Str("b"), Value::Int(2)}).value();
    ASSERT_TRUE(txn->Abort().ok());
  }
  EXPECT_EQ(cache.epochs().Get("table:t"), 2u);  // abort never bumps
  {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn->Commit().ok());  // empty commit: nothing touched
  }
  EXPECT_EQ(cache.epochs().Get("table:t"), 2u);
  (*db)->SetCommitListener(nullptr);
}

TEST(ResultCacheTest, ConcurrentLookupInsertBumpIsRaceFree) {
  // Hammer the cache from four threads; correctness here is "no data
  // race, internally consistent stats" (TSan does the heavy lifting).
  QueryResultCache::Options opts;
  opts.max_entries = 16;
  QueryResultCache cache(opts);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &stop, t] {
      std::mt19937_64 rng(t);
      while (!stop.load()) {
        std::string name = "q" + std::to_string(rng() % 32);
        switch (rng() % 3) {
          case 0:
            cache.Insert(name,
                         cache.epochs().Snapshot({"table:x"}),
                         OneCell(static_cast<int64_t>(rng() % 100)));
            break;
          case 1:
            cache.Lookup(name);
            break;
          default:
            cache.epochs().Bump("table:x");
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (std::thread& th : threads) th.join();
  QueryResultCache::Stats s = cache.stats();
  EXPECT_LE(s.entries, 16u);
}

// --------------------------------------------------------------- sweep

/// Property-based coherence: random interleavings of committed writes,
/// aborts, DDL, and cached queries against a real database wired to the
/// cache via the commit listener. Invariants, checked at every step:
///   1. a cache hit equals the model recomputed from committed state —
///      a hit can never be older than the latest committed write;
///   2. aborted transactions never move an epoch;
///   3. a miss recomputed from the database always matches the model
///      (the database and the mirror agree).
TEST(CacheSweepTest, RandomInterleavingsNeverServeStale) {
  const uint64_t base_seed = EnvU64("STRUCTURA_CACHE_SEED", 20260808);
  const uint64_t iters = EnvU64("STRUCTURA_CACHE_ITERS", 1000);
  for (uint64_t iter = 0; iter < iters; ++iter) {
    uint64_t seed = base_seed + iter;
    SCOPED_TRACE("STRUCTURA_CACHE_SEED=" + std::to_string(seed) +
                 " (iteration " + std::to_string(iter) + ")");
    std::mt19937_64 rng(seed);
    auto db = Database::Open({});
    ASSERT_TRUE(db.ok());
    QueryResultCache cache;
    (*db)->SetCommitListener(
        [&](const std::vector<std::string>& tables) {
          for (const std::string& t : tables) {
            cache.epochs().Bump("table:" + t);
          }
        });
    // Committed-state mirror: table -> sum of its committed ints.
    std::map<std::string, int64_t> mirror;
    const int kTables = 3;
    for (int t = 0; t < kTables; ++t) {
      TableSchema schema;
      schema.table_name = "t" + std::to_string(t);
      schema.columns = {{"n", ValueType::kInt}};
      ASSERT_TRUE((*db)->CreateTable(schema).ok());
      mirror[schema.table_name] = 0;
    }
    auto db_sum = [&](const std::string& table) {
      auto txn = (*db)->Begin();
      auto rows = txn->Scan(table);
      EXPECT_TRUE(rows.ok());
      int64_t sum = 0;
      for (const auto& [id, row] : *rows) sum += row[0].as_int();
      EXPECT_TRUE(txn->Commit().ok());
      return sum;
    };
    const int kSteps = 40;
    for (int step = 0; step < kSteps; ++step) {
      std::string table = "t" + std::to_string(rng() % kTables);
      switch (rng() % 4) {
        case 0: {  // committed write
          int64_t v = static_cast<int64_t>(rng() % 1000);
          auto txn = (*db)->Begin();
          txn->Insert(table, {Value::Int(v)}).value();
          ASSERT_TRUE(txn->Commit().ok());
          mirror[table] += v;
          break;
        }
        case 1: {  // aborted write: must not bump, must not change state
          uint64_t epoch_before = cache.epochs().Get("table:" + table);
          auto txn = (*db)->Begin();
          txn->Insert(table, {Value::Int(12345)}).value();
          ASSERT_TRUE(txn->Abort().ok());
          ASSERT_EQ(cache.epochs().Get("table:" + table), epoch_before)
              << "aborted txn bumped " << table;
          break;
        }
        default: {  // cached query
          std::string fingerprint = "sum:" + table;
          EpochVector at = cache.epochs().Snapshot({"table:" + table});
          if (auto hit = cache.Lookup(fingerprint)) {
            ASSERT_EQ(hit->At(0, "v").as_int(), mirror[table])
                << "STALE HIT on " << table << " at step " << step;
          } else {
            int64_t fresh = db_sum(table);
            ASSERT_EQ(fresh, mirror[table]);
            cache.Insert(fingerprint, std::move(at), OneCell(fresh));
          }
          break;
        }
      }
    }
    (*db)->SetCommitListener(nullptr);
  }
}

}  // namespace
}  // namespace structura::query
