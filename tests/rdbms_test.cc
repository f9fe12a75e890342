#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#define STRUCTURA_LSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STRUCTURA_LSAN_ACTIVE 1
#endif
#endif
#ifdef STRUCTURA_LSAN_ACTIVE
#include <sanitizer/lsan_interface.h>
#endif

#include <gtest/gtest.h>

#include "common/random.h"
#include "rdbms/database.h"
#include "rdbms/lock_manager.h"
#include "rdbms/value.h"
#include "rdbms/wal.h"

namespace structura::rdbms {
namespace {

std::string TempDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("structura_db_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

TableSchema CitySchema() {
  TableSchema schema;
  schema.table_name = "cities";
  schema.columns = {{"name", ValueType::kString},
                    {"population", ValueType::kInt},
                    {"avg_temp", ValueType::kDouble}};
  return schema;
}

Row MadisonRow() {
  return {Value::Str("Madison"), Value::Int(233209), Value::Double(45.2)};
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, TypeAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).as_int(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).as_double(), 1.5);
  EXPECT_EQ(Value::Str("x").as_string(), "x");
}

TEST(ValueTest, CrossNumericCompare) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::Str("a")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, SerializeRoundTrip) {
  for (const Value& v :
       {Value::Null(), Value::Int(-42), Value::Double(3.25),
        Value::Str("hello world"), Value::Str(""),
        Value::Str("with:colons:and|bars\nand newlines")}) {
    std::string blob;
    v.AppendTo(&blob);
    size_t pos = 0;
    auto parsed = Value::ParseFrom(blob, &pos);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(pos, blob.size());
    EXPECT_EQ(parsed->Compare(v), 0) << v.ToString();
    EXPECT_EQ(parsed->type(), v.type());
  }
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_NE(Value::Str("abc").Hash(), Value::Str("abd").Hash());
}

TEST(RowTest, SerializeRoundTrip) {
  Row row = MadisonRow();
  std::string blob;
  AppendRowTo(row, &blob);
  size_t pos = 0;
  auto parsed = ParseRowFrom(blob, &pos);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*parsed)[i].Compare(row[i]), 0);
  }
}

// ------------------------------------------------------------------ WAL

TEST(WalTest, AppendReadRoundTrip) {
  std::string dir = TempDir("wal1");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal.log";
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    LogRecord begin;
    begin.type = LogRecord::Type::kBegin;
    begin.txn = 9;
    ASSERT_TRUE((*wal)->Append(begin).ok());
    LogRecord insert;
    insert.type = LogRecord::Type::kInsert;
    insert.txn = 9;
    insert.table = "cities";
    insert.row_id = 4;
    insert.after = MadisonRow();
    ASSERT_TRUE((*wal)->Append(insert).ok());
    LogRecord commit;
    commit.type = LogRecord::Type::kCommit;
    commit.txn = 9;
    ASSERT_TRUE((*wal)->Append(commit).ok());
  }
  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->records.size(), 3u);
  EXPECT_TRUE(records->clean());
  EXPECT_EQ(records->records[1].table, "cities");
  EXPECT_EQ(records->records[1].row_id, 4u);
  EXPECT_EQ(records->records[1].after[0].ToString(), "Madison");
}

TEST(WalTest, TornTailIgnored) {
  std::string dir = TempDir("wal2");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal.log";
  {
    auto wal = WriteAheadLog::Open(path);
    LogRecord rec;
    rec.type = LogRecord::Type::kCommit;
    rec.txn = 1;
    ASSERT_TRUE((*wal)->Append(rec).ok());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "123456 9999\nnot a real record";
  }
  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->records.size(), 1u);
  // The garbage tail is reported, not silently swallowed.
  EXPECT_TRUE(records->frames.torn_tail);
  EXPECT_GT(records->frames.torn_tail_bytes, 0u);
}

TEST(WalTest, MissingFileIsEmptyHistory) {
  auto records = WriteAheadLog::ReadAll("/nonexistent/wal.log");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->records.empty());
  EXPECT_TRUE(records->clean());
}

// Writes `n` single-insert committed transactions' records to `path`.
void WriteCommittedRecords(const std::string& path, int n) {
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  for (int t = 1; t <= n; ++t) {
    LogRecord begin;
    begin.type = LogRecord::Type::kBegin;
    begin.txn = static_cast<TxnId>(t);
    ASSERT_TRUE((*wal)->Append(begin).ok());
    LogRecord insert;
    insert.type = LogRecord::Type::kInsert;
    insert.txn = static_cast<TxnId>(t);
    insert.table = "cities";
    insert.row_id = static_cast<RowId>(t);
    insert.after = MadisonRow();
    ASSERT_TRUE((*wal)->Append(insert).ok());
    LogRecord commit;
    commit.type = LogRecord::Type::kCommit;
    commit.txn = static_cast<TxnId>(t);
    ASSERT_TRUE((*wal)->Append(commit).ok());
  }
}

TEST(WalTest, TruncationMidRecordStopsAtDamage) {
  std::string dir = TempDir("wal_trunc");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal.log";
  WriteCommittedRecords(path, 3);  // 9 records
  // Chop into the middle of the final record, like a crash mid-write.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->records.size(), 8u);
  EXPECT_EQ(records->records.back().type, LogRecord::Type::kInsert);
  EXPECT_TRUE(records->frames.torn_tail);
  EXPECT_GT(records->frames.torn_tail_offset, 0u);
}

TEST(WalTest, CorruptChecksumStopsAtDamage) {
  std::string dir = TempDir("wal_corrupt");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal.log";
  WriteCommittedRecords(path, 3);
  // Flip one payload byte near the end: length still parses, the
  // checksum no longer matches, and everything from there is ignored.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('#');
  }
  auto records = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->records.size(), 8u);
  EXPECT_FALSE(records->clean());
}

TEST(DatabaseTest, RecoverReplaysValidPrefixAfterTornTail) {
  std::string dir = TempDir("torn_prefix");
  {
    auto db = Database::Open({dir});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
    auto t1 = (*db)->Begin();
    ASSERT_TRUE(t1->Insert("cities", MadisonRow()).ok());
    ASSERT_TRUE(t1->Commit().ok());
    auto t2 = (*db)->Begin();
    ASSERT_TRUE(
        t2->Insert("cities", {Value::Str("Gotham"), Value::Int(1),
                              Value::Double(0.0)})
            .ok());
    ASSERT_TRUE(t2->Commit().ok());
  }
  // Tear off the tail of the log: the damage lands inside txn 2's
  // commit record, so txn 2 loses its durability proof while txn 1's
  // prefix stays intact.
  std::string wal = dir + "/wal.log";
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 4);
  auto db = Database::Open({dir});
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto rows = txn->Scan("cities");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].second[0].ToString(), "Madison");
  ASSERT_TRUE(txn->Commit().ok());
}

// --------------------------------------------------------- LockManager

TEST(LockTest, CompatibilityMatrix) {
  using M = LockMode;
  EXPECT_TRUE(LockCompatible(M::kIntentionShared, M::kIntentionExclusive));
  EXPECT_TRUE(LockCompatible(M::kIntentionExclusive,
                             M::kIntentionExclusive));
  EXPECT_TRUE(LockCompatible(M::kShared, M::kShared));
  EXPECT_FALSE(LockCompatible(M::kShared, M::kIntentionExclusive));
  EXPECT_FALSE(LockCompatible(M::kExclusive, M::kExclusive));
  EXPECT_FALSE(LockCompatible(M::kExclusive, M::kIntentionShared));
}

TEST(LockTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, "r", LockMode::kShared).ok());
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(LockTest, ReentrantAndCovering) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  lm.ReleaseAll(1);
}

TEST(LockTest, UpgradeWhenSoleHolder) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  lm.ReleaseAll(1);
}

TEST(LockTest, ExclusiveBlocksUntilRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "r", LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    ASSERT_TRUE(lm.Acquire(2, "r", LockMode::kExclusive).ok());
    acquired.store(true);
    lm.ReleaseAll(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockTest, UpgradeRetainsSharedHold) {
  // The S hold must survive the upgrade wait (releasing it would allow
  // lost updates). T1 and T2 share S; T1's upgrade waits; a third
  // transaction's fresh X must stay behind T1's retained S either way.
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(2, "r", LockMode::kShared).ok());
  std::atomic<bool> t1_has_x{false};
  std::thread upgrader([&] {
    Status s = lm.Acquire(1, "r", LockMode::kExclusive);
    if (s.ok()) t1_has_x.store(true);
    lm.ReleaseAll(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(t1_has_x.load());  // blocked by T2's S
  lm.ReleaseAll(2);               // T2 commits
  upgrader.join();
  EXPECT_TRUE(t1_has_x.load());
}

TEST(LockTest, DualUpgradeDeadlockResolved) {
  // Both hold S and want X: a genuine deadlock through the retained
  // holds. Exactly one must be aborted; the other proceeds.
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "r", LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(2, "r", LockMode::kShared).ok());
  std::atomic<int> granted{0}, aborted{0};
  auto upgrade = [&](TxnId txn) {
    Status s = lm.Acquire(txn, "r", LockMode::kExclusive);
    if (s.ok()) {
      ++granted;
    } else {
      ++aborted;
    }
    lm.ReleaseAll(txn);
  };
  std::thread t1(upgrade, 1), t2(upgrade, 2);
  t1.join();
  t2.join();
  EXPECT_EQ(granted.load(), 1);
  EXPECT_EQ(aborted.load(), 1);
}

TEST(LockTest, DeadlockDetected) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(2, "b", LockMode::kExclusive).ok());
  std::atomic<int> aborted{0};
  std::thread t1([&] {
    Status s = lm.Acquire(1, "b", LockMode::kExclusive);
    if (!s.ok()) {
      ++aborted;
      lm.ReleaseAll(1);
    } else {
      lm.ReleaseAll(1);
    }
  });
  std::thread t2([&] {
    Status s = lm.Acquire(2, "a", LockMode::kExclusive);
    if (!s.ok()) {
      ++aborted;
      lm.ReleaseAll(2);
    } else {
      lm.ReleaseAll(2);
    }
  });
  t1.join();
  t2.join();
  // At least one of the two cyclic waiters must have been aborted, and
  // both threads terminated (no hang).
  EXPECT_GE(aborted.load(), 1);
}

TEST(LockTest, CommittedTransactionsLeaveNoQueues) {
  // Every row ever locked used to keep an empty queue, and each release
  // walked them all. Releasing now visits exactly the queues the
  // transaction entered and erases those it leaves empty.
  LockManager lm;
  for (TxnId txn = 1; txn <= 2000; ++txn) {
    ASSERT_TRUE(lm.Acquire(txn, "t:final", LockMode::kIntentionExclusive).ok());
    ASSERT_TRUE(lm.Acquire(txn, "r:final:" + std::to_string(txn),
                           LockMode::kExclusive)
                    .ok());
    // Re-entrant and covered requests enter no further queue.
    ASSERT_TRUE(lm.Acquire(txn, "t:final", LockMode::kIntentionShared).ok());
    EXPECT_EQ(lm.ReleaseAll(txn), 2u);
  }
  EXPECT_EQ(lm.ActiveResources(), 0u);
  EXPECT_EQ(lm.DebugString(), "");

  // k locks, k queues visited; the table empties behind them.
  const TxnId big = 5000;
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        lm.Acquire(big, "r:x:" + std::to_string(i), LockMode::kShared).ok());
  }
  ASSERT_TRUE(lm.Acquire(big, "r:x:3", LockMode::kExclusive).ok());  // upgrade
  ASSERT_TRUE(lm.Acquire(5001, "r:x:0", LockMode::kShared).ok());
  EXPECT_EQ(lm.ActiveResources(), 7u);
  EXPECT_EQ(lm.ReleaseAll(big), 7u);
  EXPECT_EQ(lm.ActiveResources(), 1u);  // 5001 still holds r:x:0
  EXPECT_EQ(lm.ReleaseAll(5001), 1u);
  EXPECT_EQ(lm.ActiveResources(), 0u);
  EXPECT_EQ(lm.ReleaseAll(5001), 0u);  // nothing left to release
}

TEST(LockTest, DeadlockVictimLeavesOnlyTheQueuesItHolds) {
  // T1 holds a and waits for b; T2 holds b and asks for a, closing the
  // cycle. T2 is refused, and the refused request takes nothing with it:
  // T2 then releases exactly b, T1 gets b, and the table empties.
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(2, "b", LockMode::kExclusive).ok());
  std::thread t1([&] {
    EXPECT_TRUE(lm.Acquire(1, "b", LockMode::kExclusive).ok());
    EXPECT_EQ(lm.ReleaseAll(1), 2u);
  });
  while (lm.DebugString().find("txn1/X(W)") == std::string::npos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status s = lm.Acquire(2, "a", LockMode::kExclusive);
  EXPECT_EQ(s.code(), StatusCode::kAborted) << s.ToString();
  EXPECT_EQ(lm.ActiveResources(), 2u);
  EXPECT_EQ(lm.ReleaseAll(2), 1u);
  t1.join();
  EXPECT_EQ(lm.ActiveResources(), 0u);
}

// ------------------------------------------------------------- Database

TEST(DatabaseTest, CreateInsertGet) {
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
  auto txn = (*db)->Begin();
  auto rid = txn->Insert("cities", MadisonRow());
  ASSERT_TRUE(rid.ok());
  auto row = txn->Get("cities", *rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].ToString(), "Madison");
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(DatabaseTest, TypeValidation) {
  auto db = Database::Open({});
  ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
  auto txn = (*db)->Begin();
  Row bad = {Value::Int(1), Value::Str("nope"), Value::Double(0)};
  EXPECT_FALSE(txn->Insert("cities", bad).ok());
  Row short_row = {Value::Str("x")};
  EXPECT_FALSE(txn->Insert("cities", short_row).ok());
  txn->Abort();
}

TEST(DatabaseTest, AbortRollsBack) {
  auto db = Database::Open({});
  ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
  RowId keep;
  {
    auto setup = (*db)->Begin();
    keep = *setup->Insert("cities", MadisonRow());
    ASSERT_TRUE(setup->Commit().ok());
  }
  {
    auto txn = (*db)->Begin();
    Row updated = MadisonRow();
    updated[1] = Value::Int(999);
    ASSERT_TRUE(txn->Update("cities", keep, updated).ok());
    ASSERT_TRUE(txn->Insert("cities", MadisonRow()).ok());
    ASSERT_TRUE(txn->Delete("cities", keep).ok());
    ASSERT_TRUE(txn->Abort().ok());
  }
  auto check = (*db)->Begin();
  auto rows = check->Scan("cities");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].second[1].as_int(), 233209);
  check->Commit();
}

TEST(DatabaseTest, DestructorAbortsOpenTxn) {
  auto db = Database::Open({});
  ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
  {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn->Insert("cities", MadisonRow()).ok());
    // No commit: destructor must roll back and release locks.
  }
  auto check = (*db)->Begin();
  EXPECT_EQ(check->Scan("cities")->size(), 0u);
  check->Commit();
}

TEST(DatabaseTest, RecoveryReplaysCommitted) {
  std::string dir = TempDir("recover1");
  RowId committed_row;
  {
    auto db = Database::Open({dir});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
    auto txn = (*db)->Begin();
    committed_row = *txn->Insert("cities", MadisonRow());
    ASSERT_TRUE(txn->Commit().ok());
    // In-flight transaction at "crash" time: must not survive.
    auto doomed = (*db)->Begin();
    Row other = {Value::Str("Ghost"), Value::Int(1), Value::Double(0)};
    ASSERT_TRUE(doomed->Insert("cities", other).ok());
    // Simulated crash: drop the Database without commit/checkpoint.
    doomed->Abort();  // destructor order safety; abort record may or may
                      // not be replayed — either way the data is gone
  }
  auto db = Database::Open({dir});
  ASSERT_TRUE(db.ok());
  Table* cities = (*db)->GetTable("cities");
  ASSERT_NE(cities, nullptr);
  auto txn = (*db)->Begin();
  auto rows = txn->Scan("cities");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].first, committed_row);
  EXPECT_EQ((*rows)[0].second[0].ToString(), "Madison");
  txn->Commit();
}

TEST(DatabaseTest, RecoveryWithoutAbortRecord) {
  std::string dir = TempDir("recover2");
  {
    auto db = Database::Open({dir});
    ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn->Insert("cities", MadisonRow()).ok());
    // Hard crash: no commit, no abort — the txn object leaks its state
    // into the WAL as BEGIN+INSERT only. Recovery must skip it.
    auto* leaked = txn.release();
    (void)leaked;  // intentionally never destroyed (simulated power cut)
#ifdef STRUCTURA_LSAN_ACTIVE
    __lsan_ignore_object(leaked);  // the leak is the point of the test
#endif
  }
  auto db = Database::Open({dir});
  auto txn = (*db)->Begin();
  EXPECT_EQ(txn->Scan("cities")->size(), 0u);
  txn->Commit();
}

TEST(DatabaseTest, CheckpointTruncatesWalAndRecovers) {
  std::string dir = TempDir("checkpoint1");
  {
    auto db = Database::Open({dir});
    ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
    ASSERT_TRUE((*db)->CreateIndex("cities", "name").ok());
    auto txn = (*db)->Begin();
    for (int i = 0; i < 20; ++i) {
      Row row = {Value::Str("City" + std::to_string(i)),
                 Value::Int(1000 + i), Value::Double(50)};
      ASSERT_TRUE(txn->Insert("cities", std::move(row)).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // Post-checkpoint activity lands in the fresh WAL.
    auto txn2 = (*db)->Begin();
    Row row = {Value::Str("PostCheckpoint"), Value::Int(7),
               Value::Double(1)};
    ASSERT_TRUE(txn2->Insert("cities", std::move(row)).ok());
    ASSERT_TRUE(txn2->Commit().ok());
  }
  auto db = Database::Open({dir});
  ASSERT_TRUE(db.ok());
  Table* cities = (*db)->GetTable("cities");
  ASSERT_NE(cities, nullptr);
  EXPECT_EQ(cities->LiveRowCount(), 21u);
  EXPECT_TRUE(cities->HasIndex("name"));
  auto txn = (*db)->Begin();
  auto hits = txn->IndexLookup("cities", "name",
                               Value::Str("PostCheckpoint"));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  txn->Commit();
}

TEST(DatabaseTest, IndexMaintainedAcrossMutations) {
  auto db = Database::Open({});
  ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
  ASSERT_TRUE((*db)->CreateIndex("cities", "population").ok());
  auto txn = (*db)->Begin();
  RowId a = *txn->Insert("cities", MadisonRow());
  Row oak = {Value::Str("Oakfield"), Value::Int(5000), Value::Double(40)};
  txn->Insert("cities", oak).value();
  Row updated = MadisonRow();
  updated[1] = Value::Int(5000);
  ASSERT_TRUE(txn->Update("cities", a, updated).ok());
  auto both = txn->IndexLookup("cities", "population", Value::Int(5000));
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->size(), 2u);
  ASSERT_TRUE(txn->Delete("cities", a).ok());
  auto one = txn->IndexLookup("cities", "population", Value::Int(5000));
  EXPECT_EQ(one->size(), 1u);
  txn->Commit();
}

TEST(LockTest, HighContentionNoLostWakeups) {
  // Regression for two missed-wakeup bugs: (1) a waiter promoted to
  // granted while asleep must not re-derive "blocked" from newer waiters
  // queued behind it; (2) Grantable must ignore waiters behind the
  // requester entirely, or the queue head starves.
  auto db_or = Database::Open({});
  Database* db = db_or->get();
  TableSchema schema;
  schema.table_name = "hot";
  schema.columns = {{"v", ValueType::kInt}};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  {
    auto txn = db->Begin();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(txn->Insert("hot", {Value::Int(0)}).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::atomic<long> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7 + t);
      for (int op = 0; op < 400; ++op) {
        auto txn = db->Begin();
        RowId row = rng.NextBounded(4);  // tiny hot set: max contention
        auto run = [&]() -> Status {
          STRUCTURA_ASSIGN_OR_RETURN(Row r, txn->Get("hot", row));
          STRUCTURA_RETURN_IF_ERROR(
              txn->Update("hot", row, {Value::Int(r[0].as_int() + 1)}));
          return txn->Commit();
        };
        if (run().ok()) {
          committed.fetch_add(1);
        } else if (txn->active()) {
          txn->Abort();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto txn = db->Begin();
  auto rows = txn->Scan("hot");
  ASSERT_TRUE(rows.ok());
  long total = 0;
  for (const auto& [id, row] : *rows) {
    total += row[0].as_int();
  }
  EXPECT_EQ(total, committed.load());
  EXPECT_GT(committed.load(), 0);
  txn->Commit();
}

TEST(DatabaseTest, IndexRangeScans) {
  auto db = Database::Open({});
  ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
  ASSERT_TRUE((*db)->CreateIndex("cities", "population").ok());
  auto txn = (*db)->Begin();
  for (int i = 0; i < 20; ++i) {
    Row row = {Value::Str("City" + std::to_string(i)),
               Value::Int(1000 * (i + 1)), Value::Double(50)};
    ASSERT_TRUE(txn->Insert("cities", std::move(row)).ok());
  }
  Value lo = Value::Int(5000), hi = Value::Int(9000);
  auto mid = txn->IndexRange("cities", "population", &lo, &hi);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->size(), 5u);  // 5000..9000 inclusive
  auto tail = txn->IndexRange("cities", "population", &hi, nullptr);
  EXPECT_EQ(tail->size(), 12u);  // 9000..20000
  auto all = txn->IndexRange("cities", "population", nullptr, nullptr);
  EXPECT_EQ(all->size(), 20u);
  EXPECT_FALSE(
      txn->IndexRange("cities", "avg_temp", nullptr, nullptr).ok());
  txn->Commit();
}

TEST(DatabaseTest, DropTableSurvivesRecovery) {
  std::string dir = TempDir("droptable");
  {
    auto db = Database::Open({dir});
    ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
    {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn->Insert("cities", MadisonRow()).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    ASSERT_TRUE((*db)->DropTable("cities").ok());
    EXPECT_EQ((*db)->GetTable("cities"), nullptr);
    EXPECT_FALSE((*db)->DropTable("cities").ok());
    // Recreate under the same name: a fresh empty table.
    ASSERT_TRUE((*db)->CreateTable(CitySchema()).ok());
  }
  auto db = Database::Open({dir});
  ASSERT_TRUE(db.ok());
  Table* cities = (*db)->GetTable("cities");
  ASSERT_NE(cities, nullptr);
  // The drop wiped the earlier committed row; the recreated table is
  // empty after replay.
  EXPECT_EQ(cities->LiveRowCount(), 0u);
}

TEST(DatabaseTest, ConcurrentTransfersConserveTotal) {
  auto db_or = Database::Open({});
  Database* db = db_or->get();
  TableSchema schema;
  schema.table_name = "accounts";
  schema.columns = {{"balance", ValueType::kInt}};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  constexpr int kAccounts = 8;
  constexpr int64_t kInitial = 100;
  {
    auto txn = db->Begin();
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(txn->Insert("accounts", {Value::Int(kInitial)}).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Several threads move money between random accounts; deadlock aborts
  // are retried. The invariant: total balance never changes.
  std::vector<std::thread> threads;
  std::atomic<int> aborts{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int op = 0; op < 50; ++op) {
        RowId from = rng.NextBounded(kAccounts);
        RowId to = rng.NextBounded(kAccounts);
        if (from == to) continue;
        auto txn = db->Begin();
        auto do_transfer = [&]() -> Status {
          STRUCTURA_ASSIGN_OR_RETURN(Row f, txn->Get("accounts", from));
          STRUCTURA_ASSIGN_OR_RETURN(Row g, txn->Get("accounts", to));
          STRUCTURA_RETURN_IF_ERROR(txn->Update(
              "accounts", from, {Value::Int(f[0].as_int() - 1)}));
          STRUCTURA_RETURN_IF_ERROR(
              txn->Update("accounts", to, {Value::Int(g[0].as_int() + 1)}));
          return txn->Commit();
        };
        Status s = do_transfer();
        if (!s.ok()) {
          ++aborts;
          if (txn->active()) txn->Abort();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto txn = db->Begin();
  auto rows = txn->Scan("accounts");
  ASSERT_TRUE(rows.ok());
  int64_t total = 0;
  for (const auto& [id, row] : *rows) total += row[0].as_int();
  EXPECT_EQ(total, kAccounts * kInitial);
  txn->Commit();
}

}  // namespace
}  // namespace structura::rdbms
