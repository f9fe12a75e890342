// Durability sweep: injects ENOSPC/EIO/short-write/failed-fsync faults
// at every env syscall site a durable store crosses (WAL commit path,
// checkpoint replacement, intermediate segment log, snapshot journal)
// and asserts the durability contract at each one:
//   - no acked-then-lost: every operation acknowledged OK before the
//     fault survives a reopen with a healthy env;
//   - no silent degradation: when a fault fired, some call returned a
//     non-OK Status (nothing swallowed the error);
//   - sticky failure: the first failed handle refuses all later work
//     with the original error until its owner explicitly reopens;
//   - clean recovery: after the explicit heal the store serves writes
//     again and the healed state survives another reopen.
// The faults come from SimulatedEnv's `env.*` failpoint sites (see
// common/sim_env.h); no power is cut here, so every byte the env let
// through stays on disk for the reopen.
// Run plain and under -DSTRUCTURA_SANITIZE=address.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/failpoint.h"
#include "common/sim_env.h"
#include "rdbms/database.h"
#include "rdbms/value.h"
#include "rdbms/wal.h"
#include "storage/segment_store.h"
#include "storage/snapshot_store.h"

namespace structura {
namespace {

using rdbms::Database;
using rdbms::DatabaseOptions;
using rdbms::LogRecord;
using rdbms::Row;
using rdbms::TableSchema;
using rdbms::Value;
using rdbms::ValueType;
using rdbms::WalOptions;
using rdbms::WalSyncPolicy;
using rdbms::WriteAheadLog;
using storage::SegmentStore;
using storage::SnapshotStore;
using FpSpec = FailpointRegistry::Spec;

std::string TempDir(const std::string& tag) {
  // Per-process suffix: ctest -j runs tests from this binary in parallel
  // processes, and several tests share a tag.
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("structura_durable_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TableSchema KvSchema() {
  TableSchema schema;
  schema.table_name = "kv";
  schema.columns = {{"name", ValueType::kString},
                    {"val", ValueType::kInt}};
  return schema;
}

// ----------------------------------------------- WAL commit-path sweep

/// One run of the commit workload: 6 single-insert transactions against
/// a database whose WAL writes through `env`. `acked` collects the
/// values whose Commit() returned OK — the set that must survive any
/// reopen; `any_error` records whether any call surfaced a failure.
struct TrialOutcome {
  std::vector<int64_t> acked;
  bool any_error = false;
};

TrialOutcome RunCommitWorkload(const std::string& dir, Env* env) {
  TrialOutcome out;
  DatabaseOptions dopts;
  dopts.dir = dir;
  dopts.wal.env = env;
  auto db = Database::Open(dopts);
  if (!db.ok()) {
    out.any_error = true;
    return out;
  }
  if (!(*db)->CreateTable(KvSchema()).ok()) {
    out.any_error = true;
    return out;
  }
  for (int64_t t = 1; t <= 6; ++t) {
    auto txn = (*db)->Begin();
    auto row = txn->Insert(
        "kv", {Value::Str("k" + std::to_string(t)), Value::Int(t)});
    if (!row.ok()) {
      out.any_error = true;
      (void)txn->Abort();  // abort against a failed WAL may itself fail
      continue;
    }
    if (Status committed = txn->Commit(); committed.ok()) {
      out.acked.push_back(t);
    } else {
      out.any_error = true;
    }
  }
  return out;
}

/// Values present in the kv table after a reopen with the real env.
std::set<int64_t> RecoveredValues(const std::string& dir) {
  std::set<int64_t> present;
  auto db = Database::Open({dir});
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return present;
  if ((*db)->GetTable("kv") == nullptr) return present;
  auto txn = (*db)->Begin();
  auto rows = txn->Scan("kv");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (rows.ok()) {
    for (const auto& [rid, row] : *rows) present.insert(row[1].as_int());
  }
  (void)txn->Abort();
  return present;
}

/// Sweeps one env failpoint site across every hit the commit workload
/// makes: trial i fails exactly the i-th syscall and then checks the
/// acked-commits-survive and no-silent-degradation contracts.
void SweepWalSite(const std::string& site) {
  uint64_t hits = 0;
  {
    // Sizing run: CountOnly never fires but counts how many times the
    // clean workload crosses this site.
    std::string dir = TempDir("wal_sweep_size");
    SimulatedEnv senv;
    ScopedFailpoint fp(site, FpSpec::CountOnly());
    TrialOutcome out = RunCommitWorkload(dir, &senv);
    ASSERT_FALSE(out.any_error) << site;
    ASSERT_EQ(out.acked.size(), 6u) << site;
    hits = FailpointRegistry::Instance().GetCounters(site).hits;
    ASSERT_GT(hits, 0u) << site << " never evaluated";
    std::filesystem::remove_all(dir);
  }
  for (uint64_t i = 1; i <= hits; ++i) {
    SCOPED_TRACE(site + " fault at hit " + std::to_string(i));
    std::string dir = TempDir("wal_sweep_trial");
    SimulatedEnv senv;
    TrialOutcome out;
    uint64_t fires = 0;
    {
      ScopedFailpoint fp(site, FpSpec::Nth(i));
      out = RunCommitWorkload(dir, &senv);
      fires = FailpointRegistry::Instance().GetCounters(site).fires;
    }
    if (fires > 0) {
      // No silent degradation: the injected failure surfaced as a
      // Status somewhere, and the env ledger recorded it.
      EXPECT_TRUE(out.any_error);
      EXPECT_GE(senv.io_failures(), 1u);
      EXPECT_FALSE(senv.last_io_error().empty());
    }
    // No acked-then-lost: every commit acknowledged before (or after)
    // the fault is present after recovery. Unacked commits MAY also be
    // present — a failed fsync is ambiguous, the record can have
    // reached disk — but an acked one missing is a durability bug.
    std::set<int64_t> present = RecoveredValues(dir);
    for (int64_t t : out.acked) {
      EXPECT_TRUE(present.count(t))
          << "acked commit " << t << " lost after recovery";
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(DurabilitySweepTest, WalCommitsSurviveEveryWriteFault) {
  SweepWalSite("env.write");
}

TEST(DurabilitySweepTest, WalCommitsSurviveEveryFullDiskFault) {
  SweepWalSite("env.write.enospc");
}

TEST(DurabilitySweepTest, WalCommitsSurviveEveryPowerCutShortWrite) {
  SweepWalSite("env.write.short");
}

TEST(DurabilitySweepTest, WalCommitsSurviveEveryFsyncFault) {
  SweepWalSite("env.sync");
}

// ------------------------------------------------- checkpoint replacement

TEST(DurabilitySweepTest, CheckpointFaultLeavesOldStateAuthoritative) {
  std::string dir = TempDir("ckpt");
  SimulatedEnv senv;
  DatabaseOptions dopts;
  dopts.dir = dir;
  dopts.wal.env = &senv;
  auto db = Database::Open(dopts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
  auto commit = [&](int64_t t) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(
        txn->Insert("kv", {Value::Str("k" + std::to_string(t)),
                           Value::Int(t)})
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
  };
  commit(1);
  ASSERT_TRUE((*db)->Checkpoint().ok());
  commit(2);

  // The atomic tmp+rename+dir-sync replacement fails at the rename: the
  // tmp image is complete-looking but must never be trusted, and the
  // old checkpoint + WAL stay authoritative.
  {
    ScopedFailpoint fp("env.rename", FpSpec::Always());
    Status s = (*db)->Checkpoint();
    EXPECT_FALSE(s.ok());
  }
  commit(3);  // the database keeps serving writes; the WAL was not reset

  // Same story when the directory fsync making the rename durable fails.
  {
    ScopedFailpoint fp("env.syncdir", FpSpec::Always());
    Status s = (*db)->Checkpoint();
    EXPECT_FALSE(s.ok());
  }
  commit(4);

  // Retry with the device healthy: the checkpoint lands.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  commit(5);
  db->reset();

  std::set<int64_t> present = RecoveredValues(dir);
  for (int64_t t = 1; t <= 5; ++t) {
    EXPECT_TRUE(present.count(t)) << "commit " << t << " lost";
  }
  std::filesystem::remove_all(dir);
}

// --------------------------------------------- intermediate segment log

/// Sweeps a fault site across every syscall of an 8-append + Sync
/// segment-store workload, then checks sticky refusal, readable acked
/// records, explicit heal, and reopen recovery.
void SweepSegmentSite(const std::string& site) {
  uint64_t hits = 0;
  {
    std::string dir = TempDir("seg_sweep_size");
    SimulatedEnv senv;
    SegmentStore::Options sopts;
    sopts.env = &senv;
    ScopedFailpoint fp(site, FpSpec::CountOnly());
    auto store = SegmentStore::Open(dir, sopts);
    ASSERT_TRUE(store.ok());
    for (int j = 0; j < 8; ++j) {
      ASSERT_TRUE((*store)->Append("record " + std::to_string(j)).ok());
    }
    ASSERT_TRUE((*store)->Sync().ok());
    hits = FailpointRegistry::Instance().GetCounters(site).hits;
    ASSERT_GT(hits, 0u) << site << " never evaluated";
    std::filesystem::remove_all(dir);
  }
  for (uint64_t i = 1; i <= hits; ++i) {
    SCOPED_TRACE(site + " fault at hit " + std::to_string(i));
    std::string dir = TempDir("seg_sweep_trial");
    SimulatedEnv senv;
    SegmentStore::Options sopts;
    sopts.env = &senv;
    std::vector<std::pair<uint64_t, std::string>> acked;
    bool any_error = false;
    uint64_t fires = 0;
    {
      ScopedFailpoint fp(site, FpSpec::Nth(i));
      auto store_or = SegmentStore::Open(dir, sopts);
      ASSERT_TRUE(store_or.ok());  // a fresh dir needs no faulted reads
      std::unique_ptr<SegmentStore> store = std::move(store_or).value();
      for (int j = 0; j < 8; ++j) {
        std::string payload = "record " + std::to_string(j);
        if (auto n = store->Append(payload); n.ok()) {
          acked.emplace_back(*n, payload);
        } else {
          any_error = true;
        }
      }
      if (!store->Sync().ok()) any_error = true;
      fires = FailpointRegistry::Instance().GetCounters(site).fires;
      if (fires > 0) {
        EXPECT_TRUE(any_error);
        EXPECT_TRUE(store->Failed());
        EXPECT_GE(senv.io_failures(), 1u);
      }
      // Acked records stay readable off the failed store (reads serve
      // the durable prefix; only appends are refused).
      for (const auto& [n, payload] : acked) {
        auto rec = store->Read(n);
        ASSERT_TRUE(rec.ok()) << "acked record " << n << " unreadable";
        EXPECT_EQ(*rec, payload);
      }
    }
    // Heal (failpoint disarmed — the device recovered) and append more.
    {
      auto store_or = SegmentStore::Open(dir, sopts);
      // Reopen after the heal below is the real durability check; this
      // reopen exercises torn-tail truncation of the failed segment.
      ASSERT_TRUE(store_or.ok());
      std::unique_ptr<SegmentStore> store = std::move(store_or).value();
      ASSERT_GE(store->NumRecords(), acked.size());
      if (store->Failed()) {
        ASSERT_TRUE(store->ReopenActive().ok());
      }
      ASSERT_TRUE(store->Append("post-heal sentinel").ok());
      ASSERT_TRUE(store->Sync().ok());
    }
    // Final reopen with a clean env: every acked record and the
    // sentinel survived.
    auto store = SegmentStore::Open(dir);
    ASSERT_TRUE(store.ok());
    std::set<std::string> present;
    for (auto it = (*store)->Scan(); it.Valid(); it.Next()) {
      present.insert(it.record());
    }
    for (const auto& [n, payload] : acked) {
      EXPECT_TRUE(present.count(payload))
          << "acked record '" << payload << "' lost";
    }
    EXPECT_TRUE(present.count("post-heal sentinel"));
    std::filesystem::remove_all(dir);
  }
}

TEST(DurabilitySweepTest, SegmentStoreSurvivesEveryWriteFault) {
  SweepSegmentSite("env.write");
}

TEST(DurabilitySweepTest, SegmentStoreSurvivesEveryPowerCutShortWrite) {
  SweepSegmentSite("env.write.short");
}

TEST(DurabilitySweepTest, SegmentStoreSurvivesEveryFsyncFault) {
  SweepSegmentSite("env.sync");
}

// ------------------------------------------------------ snapshot journal

TEST(DurabilitySweepTest, SnapshotJournalWriteFaultRefusesWithoutMutation) {
  std::string dir = TempDir("snap_write");
  SimulatedEnv senv;
  SnapshotStore store;
  ASSERT_TRUE(store.AttachJournal(dir, &senv).ok());
  ASSERT_TRUE(store.Append(1, "version zero").ok());
  ASSERT_TRUE(store.Append(1, "version one").ok());
  ASSERT_TRUE(store.Sync().ok());

  {
    ScopedFailpoint fp("env.write", FpSpec::Always());
    auto v = store.Append(1, "version two");
    ASSERT_FALSE(v.ok());
    // Journal-before-memory: the refused append mutated nothing.
    EXPECT_EQ(*store.LatestVersion(1), 1u);
    EXPECT_TRUE(store.Failed());
    // Sticky: a second attempt is refused by the latched handle.
    EXPECT_FALSE(store.Append(1, "version two").ok());
    // Reads keep serving.
    EXPECT_EQ(*store.Get(1, 0), "version zero");
    EXPECT_EQ(*store.Get(1, 1), "version one");
  }
  EXPECT_GE(senv.io_failures(), 1u);

  // Heal: the journal is atomically rewritten from memory.
  ASSERT_TRUE(store.ReopenJournal().ok());
  EXPECT_FALSE(store.Failed());
  ASSERT_TRUE(store.Append(1, "version two").ok());
  ASSERT_TRUE(store.Sync().ok());

  // A fresh store replays every acked version from the journal.
  SnapshotStore reopened;
  ASSERT_TRUE(reopened.AttachJournal(dir, nullptr).ok());
  EXPECT_EQ(reopened.recovery_report().AnyDamage(), false);
  ASSERT_EQ(*reopened.LatestVersion(1), 2u);
  EXPECT_EQ(*reopened.Get(1, 0), "version zero");
  EXPECT_EQ(*reopened.Get(1, 1), "version one");
  EXPECT_EQ(*reopened.Get(1, 2), "version two");
  std::filesystem::remove_all(dir);
}

TEST(DurabilitySweepTest, SnapshotJournalFsyncFaultHealsByRewrite) {
  std::string dir = TempDir("snap_sync");
  SimulatedEnv senv;
  SnapshotStore store;
  ASSERT_TRUE(store.AttachJournal(dir, &senv).ok());
  ASSERT_TRUE(store.Append(1, "alpha").ok());
  ASSERT_TRUE(store.Append(2, "beta").ok());

  {
    ScopedFailpoint fp("env.sync", FpSpec::Always());
    EXPECT_FALSE(store.Sync().ok());
    EXPECT_TRUE(store.Failed());
    // The sticky handle refuses appends even after the device recovers
    // below — a failed fsync may have dropped dirty pages, so only an
    // explicit reopen may trust the file again.
    EXPECT_FALSE(store.Append(1, "gamma").ok());
  }
  EXPECT_FALSE(store.Append(1, "gamma").ok());

  ASSERT_TRUE(store.ReopenJournal().ok());
  ASSERT_TRUE(store.Append(1, "gamma").ok());
  ASSERT_TRUE(store.Sync().ok());

  SnapshotStore reopened;
  ASSERT_TRUE(reopened.AttachJournal(dir, nullptr).ok());
  ASSERT_EQ(*reopened.LatestVersion(1), 1u);
  EXPECT_EQ(*reopened.Get(1, 0), "alpha");
  EXPECT_EQ(*reopened.Get(1, 1), "gamma");
  EXPECT_EQ(*reopened.Get(2, 0), "beta");
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- sticky-file contract

TEST(DurabilitySweepTest, WritableFileFirstFailureLatchesForever) {
  std::string dir = TempDir("sticky");
  SimulatedEnv senv;
  auto file = senv.NewWritableFile(dir + "/f.log", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());

  Status first;
  {
    ScopedFailpoint fp("env.sync", FpSpec::Once());
    first = (*file)->Sync();
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.code(), StatusCode::kIoError);
  }
  // Failpoint disarmed — the device is fine — but the handle stays
  // failed with the ORIGINAL error: retrying an fsync that failed and
  // believing its OK would acknowledge bytes that never reached disk.
  EXPECT_TRUE((*file)->failed());
  Status later = (*file)->Append("world");
  EXPECT_FALSE(later.ok());
  EXPECT_EQ(later.code(), first.code());
  EXPECT_EQ(later.message(), first.message());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_EQ((*file)->sticky_status().message(), first.message());

  // The ledger saw exactly one unrecoverable failure (the latch), not
  // one per refused retry; the device itself still probes writable.
  EXPECT_EQ(senv.io_failures(), 1u);
  EXPECT_FALSE(senv.last_io_error().empty());
  EXPECT_TRUE(senv.ProbeWrite(dir).ok());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- WAL error-code contract

TEST(DurabilitySweepTest, WalAppendSurfacesIoErrorNotStreamState) {
  // Regression for the pre-env failure mode where a failed stream write
  // surfaced as a generic internal error (or not at all): the WAL must
  // return kIoError/kResourceExhausted from the syscall that failed and
  // latch sticky.
  std::string dir = TempDir("wal_ioerr");
  SimulatedEnv senv;
  WalOptions wopts;
  wopts.env = &senv;
  auto wal = WriteAheadLog::Open(dir + "/wal.log", wopts);
  ASSERT_TRUE(wal.ok());
  LogRecord rec;
  rec.type = LogRecord::Type::kBegin;
  rec.txn = 1;
  ASSERT_TRUE((*wal)->Append(rec).ok());

  {
    ScopedFailpoint fp("env.write", FpSpec::Always());
    Status s = (*wal)->Append(rec);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  EXPECT_TRUE((*wal)->Failed());
  EXPECT_EQ((*wal)->FailedStatus().code(), StatusCode::kIoError);
  // Sticky with the failpoint gone: the log refuses, it does not retry.
  EXPECT_EQ((*wal)->Append(rec).code(), StatusCode::kIoError);

  // A full disk surfaces as kResourceExhausted, distinguishable from a
  // dying device.
  SimulatedEnv senv2;
  WalOptions wopts2;
  wopts2.env = &senv2;
  auto wal2 = WriteAheadLog::Open(dir + "/wal2.log", wopts2);
  ASSERT_TRUE(wal2.ok());
  {
    ScopedFailpoint fp("env.write.enospc", FpSpec::Always());
    Status s = (*wal2)->Append(rec);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- refused writes leave no trace

TEST(DurabilitySweepTest, RefusedStatementLeavesNoTraceAfterHealCheckpoint) {
  // A statement whose WAL append is refused must not leave its physical
  // mutation behind: the client was told it failed, so neither the
  // in-memory table nor the post-heal checkpoint may contain it.
  std::string dir = TempDir("refused_stmt");
  SimulatedEnv senv;
  DatabaseOptions dopts;
  dopts.dir = dir;
  dopts.wal.env = &senv;
  auto db = Database::Open(dopts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
  {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn->Insert("kv", {Value::Str("k1"), Value::Int(1)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  rdbms::RowId update_target = 0;
  {
    auto txn = (*db)->Begin();
    auto rid = txn->Insert("kv", {Value::Str("k2"), Value::Int(2)});
    ASSERT_TRUE(rid.ok());
    update_target = *rid;
    ASSERT_TRUE(txn->Commit().ok());
  }

  {
    ScopedFailpoint fp("env.write", FpSpec::Always());
    auto txn = (*db)->Begin();
    // Insert refused: the physically inserted row must be reverted.
    EXPECT_FALSE(
        txn->Insert("kv", {Value::Str("k3"), Value::Int(3)}).ok());
    (void)txn->Abort();
    // Update refused: the before-image must be restored.
    auto txn2 = (*db)->Begin();
    EXPECT_FALSE(
        txn2->Update("kv", update_target,
                     {Value::Str("k2"), Value::Int(99)})
            .ok());
    (void)txn2->Abort();
    // Delete refused: the row must be reinstated.
    auto txn3 = (*db)->Begin();
    EXPECT_FALSE(txn3->Delete("kv", update_target).ok());
    (void)txn3->Abort();
  }
  EXPECT_TRUE((*db)->WalFailed());

  // Heal: the checkpoint captures the in-memory state and resets the
  // WAL. If any refused statement left a trace, it becomes durable
  // here — the bug this test pins down.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_FALSE((*db)->WalFailed());
  db->reset();

  std::set<int64_t> present = RecoveredValues(dir);
  EXPECT_TRUE(present.count(1));
  EXPECT_TRUE(present.count(2));   // delete was refused: row survives
  EXPECT_FALSE(present.count(3));  // insert was refused: no orphan row
  EXPECT_FALSE(present.count(99));  // update was refused: old value stands
  std::filesystem::remove_all(dir);
}

// --------------------------------------- durable tickets beat sticky errors

TEST(DurabilitySweepTest, AlreadyDurableCommitNotRefusedByLaterStickyError) {
  // A commit whose record is already fsynced must be acknowledged even
  // after a LATER operation latched the file sticky: refusing it would
  // roll back in memory a transaction a crash would then resurrect
  // from the log.
  std::string dir = TempDir("durable_ticket");
  SimulatedEnv senv;
  WalOptions wopts;
  wopts.env = &senv;
  auto wal = WriteAheadLog::Open(dir + "/wal.log", wopts);
  ASSERT_TRUE(wal.ok());
  LogRecord rec;
  rec.type = LogRecord::Type::kCommit;
  rec.txn = 1;
  auto t1 = (*wal)->AppendRecord(rec);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE((*wal)->WaitDurable(*t1).ok());  // fsynced: durable

  rec.txn = 2;
  Result<uint64_t> t2 = Status::Internal("not appended");
  {
    ScopedFailpoint fp("env.sync", FpSpec::Always());
    t2 = (*wal)->AppendRecord(rec);
    ASSERT_TRUE(t2.ok());  // the append landed; only the fsync fails
    EXPECT_FALSE((*wal)->WaitDurable(*t2).ok());
  }
  EXPECT_TRUE((*wal)->Failed());
  // Ticket 1 is covered by the durable LSN: acknowledged despite the
  // sticky latch. Ticket 2 never reached disk: still refused.
  EXPECT_TRUE((*wal)->WaitDurable(*t1).ok());
  EXPECT_FALSE((*wal)->WaitDurable(*t2).ok());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- checkpoint quiesces writers

TEST(DurabilitySweepTest, CheckpointWaitsOutInFlightTransactions) {
  // Checkpoint must not capture another transaction's uncommitted rows:
  // it takes shared table locks, so it blocks until in-flight writers
  // commit or abort, and an aborted transaction's rows never become
  // durable.
  std::string dir = TempDir("ckpt_quiesce");
  DatabaseOptions dopts;
  dopts.dir = dir;
  auto db = Database::Open(dopts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
  {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn->Insert("kv", {Value::Str("k1"), Value::Int(1)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn->Insert("kv", {Value::Str("k2"), Value::Int(2)}).ok());

  std::atomic<bool> done{false};
  Status ckpt_status;
  std::thread checkpointer([&] {
    ckpt_status = (*db)->Checkpoint();
    done.store(true);
  });
  // The checkpoint must be parked behind the writer's IX lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load())
      << "checkpoint completed while a writer was in flight";

  ASSERT_TRUE(txn->Abort().ok());
  checkpointer.join();
  ASSERT_TRUE(ckpt_status.ok()) << ckpt_status.ToString();
  db->reset();

  // The aborted row is in neither the checkpoint nor the (reset) WAL.
  std::set<int64_t> present = RecoveredValues(dir);
  EXPECT_TRUE(present.count(1));
  EXPECT_FALSE(present.count(2))
      << "checkpoint durably captured an uncommitted row";
  std::filesystem::remove_all(dir);
}

// --------------------------------------- heal survives bit-rotted versions

TEST(DurabilitySweepTest, SnapshotHealSurvivesCorruptVersion) {
  // One bit-rotted version must not wedge the heal: the journal rewrite
  // substitutes the last-good ancestor for the dead delta (logged and
  // counted) instead of failing every ReopenJournal and leaving the
  // system permanently read-only.
  std::string dir = TempDir("snap_heal_rot");
  SimulatedEnv senv;
  SnapshotStore store;
  ASSERT_TRUE(store.AttachJournal(dir, &senv).ok());
  ASSERT_TRUE(store.Append(1, "alpha").ok());
  {
    // Silent bit-rot in version 1's stored delta; the append acks.
    ScopedFailpoint rot("snapshot.delta", FpSpec::FlipByteAt(1, 3));
    ASSERT_TRUE(store.Append(1, "alpha and beta").ok());
  }
  ASSERT_TRUE(store.Append(2, "other page").ok());
  ASSERT_TRUE(store.Sync().ok());
  ASSERT_FALSE(store.Get(1, 1).ok());  // the rot is real

  {
    ScopedFailpoint fp("env.sync", FpSpec::Always());
    EXPECT_FALSE(store.Sync().ok());
  }
  EXPECT_TRUE(store.Failed());

  // Heal succeeds despite the unreconstructable version...
  ASSERT_TRUE(store.ReopenJournal().ok());
  EXPECT_FALSE(store.Failed());
  // ...the damaged slot now serves the last-good content cleanly, with
  // numbering intact...
  ASSERT_EQ(*store.LatestVersion(1), 1u);
  EXPECT_EQ(*store.Get(1, 0), "alpha");
  EXPECT_EQ(*store.Get(1, 1), "alpha");  // substituted last-good
  EXPECT_EQ(*store.Get(2, 0), "other page");
  // ...and the page accepts appends again.
  ASSERT_TRUE(store.Append(1, "gamma").ok());
  ASSERT_TRUE(store.Sync().ok());

  SnapshotStore reopened;
  ASSERT_TRUE(reopened.AttachJournal(dir, nullptr).ok());
  EXPECT_FALSE(reopened.recovery_report().AnyDamage());
  ASSERT_EQ(*reopened.LatestVersion(1), 2u);
  EXPECT_EQ(*reopened.Get(1, 1), "alpha");
  EXPECT_EQ(*reopened.Get(1, 2), "gamma");
  std::filesystem::remove_all(dir);
}

// ------------------------------------- journal order == acked version order

TEST(DurabilitySweepTest, RefusedSnapshotAppendNeverReachesJournal) {
  // An append that fails its delta build must leave no journal entry:
  // otherwise a restart replays the refused write, shifting every later
  // acknowledged version of the page by one.
  std::string dir = TempDir("snap_stage");
  SimulatedEnv senv;
  SnapshotStore store;
  ASSERT_TRUE(store.AttachJournal(dir, &senv).ok());
  ASSERT_TRUE(store.Append(1, "alpha").ok());
  {
    ScopedFailpoint rot("snapshot.delta", FpSpec::FlipByteAt(1, 3));
    ASSERT_TRUE(store.Append(1, "alpha and beta").ok());
  }
  // Version 1 is rotted in memory, so the next delta build fails and
  // the append is refused — before anything reaches the journal.
  EXPECT_FALSE(store.Append(1, "gamma").ok());
  EXPECT_EQ(*store.LatestVersion(1), 1u);
  EXPECT_FALSE(store.Failed());  // a refused append is not a disk failure
  ASSERT_TRUE(store.Sync().ok());

  // Restart: exactly the acknowledged versions come back, and the
  // journal's pristine copy even heals the in-memory rot.
  SnapshotStore reopened;
  ASSERT_TRUE(reopened.AttachJournal(dir, nullptr).ok());
  EXPECT_FALSE(reopened.recovery_report().AnyDamage());
  ASSERT_EQ(*reopened.LatestVersion(1), 1u);
  EXPECT_EQ(*reopened.Get(1, 0), "alpha");
  EXPECT_EQ(*reopened.Get(1, 1), "alpha and beta");
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- group commit pass

TEST(DurabilitySweepTest, GroupCommitAckedRecordsSurviveReopen) {
  std::string dir = TempDir("group_commit");
  std::string path = dir + "/wal.log";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    WalOptions wopts;
    wopts.sync_policy = WalSyncPolicy::kGroupCommit;
    wopts.group_commit_window_us = 200;
    auto wal_or = WriteAheadLog::Open(path, wopts);
    ASSERT_TRUE(wal_or.ok());
    WriteAheadLog* wal = wal_or->get();
    // The two-phase commit shape: append under a shared mutex (the
    // database's wal mutex in production), wait for the shared fsync
    // outside it so concurrent commits coalesce.
    std::mutex append_mutex;
    std::atomic<int> acked{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kThreads; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kPerThread; ++i) {
          LogRecord rec;
          rec.type = LogRecord::Type::kCommit;
          rec.txn = static_cast<rdbms::TxnId>(w * kPerThread + i + 1);
          uint64_t ticket = 0;
          {
            std::lock_guard<std::mutex> lock(append_mutex);
            auto t = wal->AppendRecord(rec);
            ASSERT_TRUE(t.ok());
            ticket = *t;
          }
          ASSERT_TRUE(wal->WaitDurable(ticket).ok());
          acked.fetch_add(1);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    ASSERT_EQ(acked.load(), kThreads * kPerThread);
  }
  // Every acknowledged commit is on disk, cleanly framed.
  auto result = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clean());
  ASSERT_EQ(result->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  std::set<rdbms::TxnId> txns;
  for (const LogRecord& r : result->records) txns.insert(r.txn);
  EXPECT_EQ(txns.size(), static_cast<size_t>(kThreads * kPerThread));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace structura
