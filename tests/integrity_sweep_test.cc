// Storage-integrity sweep: flips (or zeroes) single bytes across every
// offset of the on-disk WAL and segment files and asserts the salvage
// contract everywhere: no crash, no error from recovery, no wrong
// reads, and committed transactions whose frames lie outside the
// damaged region survive. Also exercises the failpoint-driven
// corruption sites (wal.frame, checkpoint.write, segment.record,
// snapshot.delta) end-to-end through recovery, Scrub, and
// System::StatusReport, and a byte flipped in a live snapshot journal
// through scrub, watchdog heal and restart.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/recordio.h"
#include "core/system.h"
#include "rdbms/database.h"
#include "rdbms/value.h"
#include "rdbms/wal.h"
#include "storage/segment_store.h"
#include "storage/snapshot_store.h"

namespace structura {
namespace {

using rdbms::Database;
using rdbms::LogRecord;
using rdbms::Row;
using rdbms::RowId;
using rdbms::TableSchema;
using rdbms::TxnId;
using rdbms::Value;
using rdbms::ValueType;
using rdbms::WriteAheadLog;
using storage::SegmentStore;
using storage::SnapshotStore;
using FpSpec = FailpointRegistry::Spec;

std::string TempDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("structura_integrity_" + tag))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TableSchema KvSchema() {
  TableSchema schema;
  schema.table_name = "kv";
  schema.columns = {{"name", ValueType::kString},
                    {"val", ValueType::kInt}};
  return schema;
}

// ------------------------------------------------- WAL byte-flip sweep

/// Writes `n` committed single-insert transactions (3 records each).
void WriteCommittedTxns(const std::string& path, int n) {
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
    insert.table = "kv";
    insert.row_id = static_cast<RowId>(t);
    insert.after = {Value::Str("name" + std::to_string(t)),
                    Value::Int(t)};
    ASSERT_TRUE((*wal)->Append(insert).ok());
    LogRecord commit;
    commit.type = LogRecord::Type::kCommit;
    commit.txn = static_cast<TxnId>(t);
    ASSERT_TRUE((*wal)->Append(commit).ok());
  }
}

/// True when `sub` is an order-preserving subsequence of `full`,
/// comparing (txn, type, row_id).
bool IsSubsequence(const std::vector<LogRecord>& sub,
                   const std::vector<LogRecord>& full) {
  size_t j = 0;
  for (const LogRecord& r : sub) {
    while (j < full.size() &&
           !(full[j].txn == r.txn && full[j].type == r.type &&
             full[j].row_id == r.row_id)) {
      ++j;
    }
    if (j == full.size()) return false;
    ++j;
  }
  return true;
}

TEST(IntegritySweepTest, WalSingleByteFlipLosesExactlyOneFrame) {
  std::string dir = TempDir("wal_flip");
  std::string path = dir + "/wal.log";
  WriteCommittedTxns(path, 6);  // 18 records
  std::string pristine = ReadFile(path);
  auto baseline = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->records.size(), 18u);
  ASSERT_TRUE(baseline->clean());

  std::string scratch = dir + "/scratch.log";
  for (size_t off = 0; off < pristine.size(); ++off) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ 0xFF);
    WriteFile(scratch, damaged);
    auto result = WriteAheadLog::ReadAll(scratch);
    ASSERT_TRUE(result.ok()) << "flip at offset " << off;
    // CRC32C catches every single-byte change, so exactly the frame
    // containing the flipped byte is lost — never more, never a wrong
    // decode.
    EXPECT_EQ(result->records.size(), 17u) << "flip at offset " << off;
    EXPECT_FALSE(result->clean()) << "flip at offset " << off;
    EXPECT_TRUE(IsSubsequence(result->records, baseline->records))
        << "flip at offset " << off;
  }
}

TEST(IntegritySweepTest, WalZeroedRangeSpanningFrameBoundary) {
  std::string dir = TempDir("wal_zero_span");
  std::string path = dir + "/wal.log";
  WriteCommittedTxns(path, 6);
  std::string pristine = ReadFile(path);

  // Locate frame boundaries with the framing reader itself.
  std::vector<uint64_t> offsets;
  FrameReader reader(pristine);
  while (std::optional<FrameReader::Frame> f = reader.Next()) {
    offsets.push_back(f->offset);
  }
  ASSERT_EQ(offsets.size(), 18u);

  // Zero a range straddling the boundary between frames 7 and 8: both
  // frames are damaged, everything else is salvaged.
  uint64_t boundary = offsets[8];
  for (uint64_t i = boundary - 3; i < boundary + 3; ++i) {
    pristine[static_cast<size_t>(i)] = '\0';
  }
  WriteFile(path, pristine);
  auto result = WriteAheadLog::ReadAll(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 16u);
  EXPECT_GE(result->frames.damaged_regions, 1u);
  EXPECT_GE(result->frames.frames_salvaged, 1u);
}

// -------------------------------------------- database byte-flip sweep

TEST(IntegritySweepTest, DatabaseSurvivesEveryWalByteFlip) {
  std::string seed_dir = TempDir("db_flip_seed");
  {
    auto db = Database::Open({seed_dir});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
    for (int t = 1; t <= 4; ++t) {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn->Insert("kv", {Value::Str("k" + std::to_string(t)),
                                     Value::Int(t)})
                      .ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  std::string pristine = ReadFile(seed_dir + "/wal.log");
  std::string trial_dir = TempDir("db_flip_trial");

  for (size_t off = 0; off < pristine.size(); ++off) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ 0xFF);
    WriteFile(trial_dir + "/wal.log", damaged);
    auto db = Database::Open({trial_dir});
    // Salvage recovery never fails on single-byte damage...
    ASSERT_TRUE(db.ok()) << "flip at offset " << off << ": "
                         << db.status().ToString();
    EXPECT_TRUE((*db)->recovery_report().AnyDamage())
        << "flip at offset " << off;
    rdbms::Table* table = (*db)->GetTable("kv");
    if (table == nullptr) {
      // ...but a flip inside the CREATE TABLE frame legitimately loses
      // the table (its DDL is gone); recovery still succeeds.
      continue;
    }
    // Exactly one of the four transactions owns the damaged frame; the
    // other three must survive with correct contents — no wrong reads.
    auto txn = (*db)->Begin();
    auto rows = txn->Scan("kv");
    ASSERT_TRUE(rows.ok()) << "flip at offset " << off;
    EXPECT_EQ(rows->size(), 3u) << "flip at offset " << off;
    for (const auto& [rid, row] : *rows) {
      ASSERT_EQ(row.size(), 2u);
      int64_t val = row[1].as_int();
      EXPECT_EQ(row[0].ToString(), "k" + std::to_string(val))
          << "flip at offset " << off;
      EXPECT_GE(val, 1);
      EXPECT_LE(val, 4);
    }
    ASSERT_TRUE(txn->Abort().ok());
  }
}

// ------------------------------------------------ segment store sweep

TEST(IntegritySweepTest, SegmentStoreSurvivesEverySingleByteFlip) {
  std::string seed_dir = TempDir("seg_flip_seed");
  std::vector<std::string> payloads;
  {
    auto store = SegmentStore::Open(seed_dir);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 8; ++i) {
      payloads.push_back("segment record " + std::to_string(i) +
                         std::string(10 + i, 'x'));
      ASSERT_TRUE((*store)->Append(payloads.back()).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  std::string seg_path = seed_dir + "/seg-000000.log";
  std::string pristine = ReadFile(seg_path);
  std::string trial_dir = TempDir("seg_flip_trial");

  for (size_t off = 0; off < pristine.size(); ++off) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ 0xFF);
    WriteFile(trial_dir + "/seg-000000.log", damaged);
    auto store = SegmentStore::Open(trial_dir);
    ASSERT_TRUE(store.ok()) << "flip at offset " << off;
    EXPECT_EQ((*store)->NumRecords(), 7u) << "flip at offset " << off;
    EXPECT_TRUE((*store)->recovery_report().AnyDamage())
        << "flip at offset " << off;
    // Surviving records read back exactly; none is silently wrong.
    std::vector<std::string> read_back;
    for (uint64_t i = 0; i < (*store)->NumRecords(); ++i) {
      auto rec = (*store)->Read(i);
      ASSERT_TRUE(rec.ok()) << "flip at offset " << off << " record " << i;
      read_back.push_back(std::move(*rec));
    }
    size_t j = 0;
    for (const std::string& rec : read_back) {
      while (j < payloads.size() && payloads[j] != rec) ++j;
      ASSERT_LT(j, payloads.size())
          << "flip at offset " << off << " produced unknown record";
      ++j;
    }
  }
}

TEST(IntegritySweepTest, SegmentMidFileDamageQuarantinesSegment) {
  std::string dir = TempDir("seg_quarantine");
  {
    auto store = SegmentStore::Open(dir);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          (*store)->Append("payload " + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  std::string path = dir + "/seg-000000.log";
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  WriteFile(path, bytes);

  auto store = SegmentStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->recovery_report().quarantined_segments, 1u);
  EXPECT_GE((*store)->recovery_report().salvaged_records, 1u);
  IntegrityCounters scrub;
  ASSERT_TRUE((*store)->Scrub(&scrub).ok());
  EXPECT_EQ(scrub.quarantined_segments, 1u);
  EXPECT_GE(scrub.corrupt_records, 1u);
  EXPECT_EQ(scrub.records_verified, 4u);
}

// --------------------------------------- failpoint-driven corruption

TEST(IntegritySweepTest, InjectedWalFrameCorruptionDropsOneTxn) {
  std::string dir = TempDir("fp_wal_frame");
  {
    auto db = Database::Open({dir});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
    {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn->Insert("kv", {Value::Str("k1"), Value::Int(1)}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    // Flip a byte of the next framed WAL write: the kBegin of txn 2
    // (hits count from arming).
    ScopedFailpoint fp("wal.frame", FpSpec::FlipByteAt(1, 9));
    {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn->Insert("kv", {Value::Str("k2"), Value::Int(2)}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  auto db = Database::Open({dir});
  ASSERT_TRUE(db.ok());
  const IntegrityCounters& report = (*db)->recovery_report();
  EXPECT_GE(report.corrupt_records, 1u);
  EXPECT_GE(report.salvaged_records, 1u);
  EXPECT_EQ(report.lost_txns, 1u);
  auto txn = (*db)->Begin();
  auto rows = txn->Scan("kv");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);  // txn 2 dropped atomically
  EXPECT_EQ((*rows)[0].second[0].ToString(), "k1");
}

TEST(IntegritySweepTest, CorruptCheckpointFallsBackToWalReplay) {
  std::string dir = TempDir("fp_checkpoint");
  {
    auto db = Database::Open({dir});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
    {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn->Insert("kv", {Value::Str("k1"), Value::Int(1)}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    {
      // Silently damage the checkpoint image as it is written.
      ScopedFailpoint fp("checkpoint.write", FpSpec::FlipByteAt(1, 12));
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
    // Post-checkpoint work lands in the (now fresh) WAL.
    TableSchema t2;
    t2.table_name = "post";
    t2.columns = {{"name", ValueType::kString}, {"val", ValueType::kInt}};
    ASSERT_TRUE((*db)->CreateTable(t2).ok());
    {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(
          txn->Insert("post", {Value::Str("p1"), Value::Int(7)}).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  auto db = Database::Open({dir});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->recovery_report().checkpoints_rejected, 1u);
  // The corrupt checkpoint was rejected, not half-loaded; recovery fell
  // back to replaying the WAL, which holds everything after the
  // checkpoint.
  ASSERT_NE((*db)->GetTable("post"), nullptr);
  auto txn = (*db)->Begin();
  auto rows = txn->Scan("post");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].second[0].ToString(), "p1");

  IntegrityCounters scrub;
  ASSERT_TRUE((*db)->Scrub(&scrub).ok());
  EXPECT_GE(scrub.checkpoints_rejected, 1u);
}

TEST(IntegritySweepTest, SnapshotChecksumCatchesCorruptedDelta) {
  SnapshotStore store;
  std::string v0 = "line a\nline b\nline c\n";
  std::string v1 = "line a\nline B\nline c\nline d\n";
  ASSERT_TRUE(store.Append(7, v0).ok());
  {
    ScopedFailpoint fp("snapshot.delta", FpSpec::FlipByteAt(1, 2));
    ASSERT_TRUE(store.Append(7, v1).ok());
  }
  EXPECT_EQ(*store.Get(7, 0), v0);
  // Reconstruction of the damaged version is refused, never wrong text.
  auto damaged = store.Get(7, 1);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption);

  IntegrityCounters scrub;
  ASSERT_TRUE(store.Scrub(&scrub).ok());
  EXPECT_EQ(scrub.records_verified, 1u);
  EXPECT_EQ(scrub.corrupt_records, 1u);
}

// ---------------------------------------------------- system-level scrub

TEST(IntegritySweepTest, SystemScrubStorageSurfacesCountersInStatus) {
  std::string workspace = TempDir("system_scrub");
  auto sys = core::System::Create({workspace});
  ASSERT_TRUE(sys.ok());
  text::DocumentCollection docs;
  text::Document doc;
  doc.id = 1;
  doc.title = "Page";
  doc.text = "Madison has a population of 233,209.";
  docs.docs.push_back(doc);
  ASSERT_TRUE((*sys)->IngestCrawl(docs).ok());
  ASSERT_TRUE((*sys)->database()->CreateTable(KvSchema()).ok());
  {
    auto txn = (*sys)->database()->Begin();
    ASSERT_TRUE(txn->Insert("kv", {Value::Str("k"), Value::Int(1)}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  // Clean pass first: everything verifies, nothing is damaged.
  auto clean = (*sys)->ScrubStorage();
  ASSERT_TRUE(clean.ok());
  EXPECT_GT(clean->records_verified, 0u);
  EXPECT_FALSE(clean->AnyDamage());

  // Inject bit-rot into the snapshot store through a second crawl of
  // the page (its stored delta is damaged), then scrub again.
  docs.docs[0].text = "Madison has a population of 269,840.";
  {
    ScopedFailpoint fp("snapshot.delta", FpSpec::FlipByteAt(1, 2));
    ASSERT_TRUE((*sys)->IngestCrawl(docs).ok());
  }
  auto scrub = (*sys)->ScrubStorage();
  ASSERT_TRUE(scrub.ok());
  EXPECT_GE(scrub->corrupt_records, 1u);
  EXPECT_TRUE(scrub->AnyDamage());

  std::string report = (*sys)->StatusReport();
  EXPECT_NE(report.find("integrity:"), std::string::npos) << report;
  EXPECT_NE(report.find("last scrub"), std::string::npos) << report;
  EXPECT_NE(report.find("corrupt_records=1"), std::string::npos) << report;
}

// A byte flipped in the live snapshot journal leaves every version in
// memory intact, so only a scrub that reads the file back can see it —
// and until the file is rewritten, a restart drops every page version
// past the damage.
TEST(IntegritySweepTest, WatchdogHealsSnapshotJournalBitRot) {
  core::System::Options sopts;
  sopts.workspace = TempDir("journal_rot");
  text::DocumentCollection docs;
  for (uint64_t id = 1; id <= 20; ++id) {
    text::Document doc;
    doc.id = id;
    doc.title = "Page " + std::to_string(id);
    doc.text = doc.title + " has a population of " +
               std::to_string(1000 * id) + ".\nIt lies on a river.\n";
    docs.docs.push_back(doc);
  }
  {
    auto sys_or = core::System::Create(sopts);
    ASSERT_TRUE(sys_or.ok()) << sys_or.status().ToString();
    std::unique_ptr<core::System> sys = std::move(sys_or).value();
    ASSERT_TRUE(sys->IngestCrawl(docs).ok());

    const std::string journal =
        sopts.workspace + "/snapshots/snapshots.journal";
    std::string bytes = ReadFile(journal);
    ASSERT_FALSE(bytes.empty());
    const size_t mid = bytes.size() / 2;
    {
      std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(mid));
      f.put(static_cast<char>(bytes[mid] ^ 0x5A));
      ASSERT_TRUE(f.good()) << journal;
    }

    auto damaged = sys->ScrubStorage();
    ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
    EXPECT_GE(damaged->corrupt_records, 1u) << damaged->ToString();
    sys->health().Evaluate();
    EXPECT_EQ(sys->health().StateOf("storage.snapshots"),
              serve::HealthState::kDegraded)
        << sys->HealthJson();

    // The watchdog rewrites the journal from memory (HealStorage), then
    // its next scrub finds the file clean and promotes the subsystem.
    core::System::WatchdogOptions wopts;
    wopts.interval_ms = 5;
    wopts.scrub_cooldown_ms = 20;
    wopts.heal_cooldown_ms = 20;
    sys->StartWatchdog(wopts);
    for (int attempt = 0;
         attempt < 400 &&
         (sys->WatchdogAutoHeals() == 0 ||
          sys->health().StateOf("storage.snapshots") !=
              serve::HealthState::kHealthy);
         ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    sys->StopWatchdog();
    EXPECT_GE(sys->WatchdogAutoHeals(), 1u);
    EXPECT_EQ(sys->health().StateOf("storage.snapshots"),
              serve::HealthState::kHealthy)
        << sys->HealthJson();

    auto clean = sys->ScrubStorage();
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_FALSE(clean->AnyDamage()) << clean->ToString();
  }

  // A restart replays the rewritten journal: every page, no damage.
  auto reopened = core::System::Create(sopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  SnapshotStore& snapshots = (*reopened)->snapshots();
  EXPECT_FALSE(snapshots.recovery_report().AnyDamage())
      << snapshots.recovery_report().ToString();
  EXPECT_EQ(snapshots.recovery_report().records_verified, 20u);
  EXPECT_EQ(snapshots.NumPages(), 20u);
  for (const text::Document& doc : docs.docs) {
    auto text = snapshots.Get(doc.id, 0);
    ASSERT_TRUE(text.ok()) << "page " << doc.id << ": "
                           << text.status().ToString();
    EXPECT_EQ(*text, doc.text);
  }
  reopened->reset();
  std::filesystem::remove_all(sopts.workspace);
}

}  // namespace
}  // namespace structura
