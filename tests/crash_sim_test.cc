// Deterministic crash simulation: a seeded workload drives the full
// System (DDL + transactions + checkpoints + snapshot ingest) plus a
// segment log of its own (appends + fsyncs) over one SimulatedEnv,
// power is cut at every sync boundary
// (and at randomized mid-write points in the long sweep), the machine
// "reboots" into a fresh System over the surviving bytes, and an
// oracle checks the durability contract:
//   - every acknowledged-durable operation is present after recovery;
//   - no refused write resurrects (strict mode, where every unsynced
//     byte is lost);
//   - snapshot versions recover as a monotonic prefix;
//   - the checkpoint or the WAL is authoritative — never a torn hybrid.
// Every failure reproduces from the printed STRUCTURA_SIM_SEED /
// STRUCTURA_SIM_CUT alone; when STRUCTURA_ARTIFACT_DIR is set, failing
// runs also drop a repro file there. SimEnvFaultTest.* covers the env's
// `env.*` device-fault sites.

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/env.h"
#include "common/failpoint.h"
#include "common/sim_env.h"
#include "core/system.h"
#include "rdbms/database.h"
#include "rdbms/value.h"
#include "rdbms/wal.h"
#include "serve/circuit_breaker.h"
#include "storage/segment_store.h"
#include "storage/snapshot_store.h"

namespace structura {
namespace {

using rdbms::Database;
using rdbms::DatabaseOptions;
using rdbms::Row;
using rdbms::RowId;
using rdbms::TableSchema;
using rdbms::Transaction;
using rdbms::Value;
using rdbms::ValueType;
using CutFlavor = SimulatedEnv::CutFlavor;

std::string TempDir(const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("structura_sim_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

/// "N:before" / "N:after" from STRUCTURA_SIM_CUT, for replaying one
/// boundary of the sweep in isolation.
bool EnvCut(uint64_t* n, CutFlavor* flavor) {
  const char* s = std::getenv("STRUCTURA_SIM_CUT");
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  *n = std::strtoull(s, &end, 10);
  *flavor = (end != nullptr && std::string(end) == ":after")
                ? CutFlavor::kAfterSync
                : CutFlavor::kBeforeSync;
  return *n != 0;
}

void MaybeDumpArtifact(const std::string& name, const std::string& body) {
  const char* dir = std::getenv("STRUCTURA_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(std::string(dir) + "/" + name);
  out << body;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TableSchema KvSchema() {
  TableSchema schema;
  schema.table_name = "kv";
  schema.columns = {{"name", ValueType::kString},
                    {"val", ValueType::kInt}};
  return schema;
}

/// Where the workload keeps its segment log, beside the System's own
/// stores in the same workspace.
std::string SegmentDir(const std::string& dir) {
  return dir + "/intermediate";
}

// ------------------------------------------------------- the workload

/// What the workload was *promised*: the durable-acked state the crash
/// must preserve. WAL commits and DDL are durable at ack (the sync
/// policy fsyncs before acknowledging); snapshot/segment appends are
/// durable once a later Sync() of their store acked.
struct DurableModel {
  bool kv_created = false;
  std::set<std::string> acked_tables;  // auxiliary DDL that acked

  std::map<std::string, int64_t> rows;  // durable kv content
  std::map<std::string, RowId> row_ids;
  /// Keys whose statement already refused before Commit could write a
  /// commit record: no trace of them can legally survive.
  std::set<std::string> hard_refused;
  /// Keys whose Commit() itself refused: the commit record may sit in
  /// the unsynced tail, so under lossy (non-strict) crashes the txn is
  /// allowed to resurrect. Strict mode still requires absence.
  std::set<std::string> ambiguous;

  std::map<uint64_t, std::map<uint32_t, std::string>> snap_durable;
  std::map<uint64_t, std::map<uint32_t, std::string>> snap_pending;
  std::vector<std::string> seg_durable;
  std::vector<std::string> seg_pending;

  int ops_attempted = 0;
};

constexpr int kWorkloadOps = 220;

/// Runs the seeded workload against a fresh System and segment log on
/// `dir` through `env`. Returns the durable-acked model; once the
/// simulated power dies mid-run every later call simply refuses, which
/// the model records like any other refusal.
DurableModel RunWorkload(const std::string& dir, SimulatedEnv* env,
                         Clock* clock, uint64_t seed) {
  DurableModel m;
  core::System::Options opts;
  opts.workspace = dir;
  opts.env = env;
  opts.clock = clock;
  auto sys = core::System::Create(opts);
  if (!sys.ok()) return m;
  Database* db = (*sys)->database();
  storage::SegmentStore::Options seg_options;
  seg_options.env = env;
  auto segs = storage::SegmentStore::Open(SegmentDir(dir), seg_options);
  if (!segs.ok()) return m;

  if (db->CreateTable(KvSchema()).ok()) m.kv_created = true;
  ++m.ops_attempted;

  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  auto snap_sync = [&] {
    if ((*sys)->snapshots().Sync().ok()) {
      for (auto& [page, vers] : m.snap_pending) {
        for (auto& [ver, content] : vers) {
          m.snap_durable[page][ver] = content;
        }
      }
      m.snap_pending.clear();
    }
  };
  auto seg_sync = [&] {
    if ((*segs)->Sync().ok()) {
      m.seg_durable.insert(m.seg_durable.end(), m.seg_pending.begin(),
                           m.seg_pending.end());
      m.seg_pending.clear();
    }
  };

  for (int i = 0; i < kWorkloadOps; ++i) {
    ++m.ops_attempted;
    const uint64_t pick = rng() % 100;
    if (pick < 50) {
      // Insert transaction.
      const std::string key = "k" + std::to_string(i);
      const int64_t val = static_cast<int64_t>(rng() % 100000);
      std::unique_ptr<Transaction> txn = db->Begin();
      auto row = txn->Insert("kv", {Value::Str(key), Value::Int(val)});
      if (!row.ok()) {
        m.hard_refused.insert(key);
        (void)txn->Abort();
      } else if (txn->Commit().ok()) {
        m.rows[key] = val;
        m.row_ids[key] = *row;
      } else {
        m.ambiguous.insert(key);
      }
    } else if (pick < 62 && !m.row_ids.empty()) {
      // Update one durable row.
      auto it = m.row_ids.begin();
      std::advance(it, rng() % m.row_ids.size());
      const std::string key = it->first;
      const int64_t val = static_cast<int64_t>(rng() % 100000);
      std::unique_ptr<Transaction> txn = db->Begin();
      Status s = txn->Update("kv", it->second,
                             {Value::Str(key), Value::Int(val)});
      if (!s.ok()) {
        (void)txn->Abort();
      } else if (txn->Commit().ok()) {
        m.rows[key] = val;
      } else {
        m.ambiguous.insert(key);
      }
    } else if (pick < 68 && !m.row_ids.empty()) {
      // Delete one durable row.
      auto it = m.row_ids.begin();
      std::advance(it, rng() % m.row_ids.size());
      const std::string key = it->first;
      std::unique_ptr<Transaction> txn = db->Begin();
      Status s = txn->Delete("kv", it->second);
      if (!s.ok()) {
        (void)txn->Abort();
      } else if (txn->Commit().ok()) {
        m.rows.erase(key);
        m.row_ids.erase(key);
      } else {
        m.ambiguous.insert(key);
      }
    } else if (pick < 74) {
      // Aborted transaction: must never surface, crash or not.
      const std::string key = "aborted" + std::to_string(i);
      std::unique_ptr<Transaction> txn = db->Begin();
      (void)txn->Insert("kv", {Value::Str(key), Value::Int(1)});
      (void)txn->Abort();
      m.hard_refused.insert(key);
    } else if (pick < 84) {
      // Snapshot page version + journal fsync.
      const uint64_t page = rng() % 8;
      const std::string content =
          "page" + std::to_string(page) + "@op" + std::to_string(i);
      auto ver = (*sys)->snapshots().Append(page, content);
      if (ver.ok()) m.snap_pending[page][*ver] = content;
      snap_sync();
    } else if (pick < 92) {
      // Segment record + fsync.
      const std::string rec = "seg-record-" + std::to_string(i);
      if ((*segs)->Append(rec).ok()) {
        m.seg_pending.push_back(rec);
      }
      seg_sync();
    } else if (pick < 96) {
      (void)db->Checkpoint();  // acked or refused, durable state is same
    } else {
      // Auxiliary DDL.
      const std::string name = "aux" + std::to_string(i);
      TableSchema schema;
      schema.table_name = name;
      schema.columns = {{"x", ValueType::kInt}};
      if (db->CreateTable(schema).ok()) m.acked_tables.insert(name);
    }
  }
  return m;
}

// --------------------------------------------------------- the oracle

/// Reopens a fresh System and segment log over the post-crash bytes
/// (real env, real clock) and checks the recovered state against the
/// durable model.
/// `strict` means the crash dropped every unsynced byte, so recovery
/// must match the model *exactly*; otherwise unsynced tails may have
/// survived and only the one-sided guarantees are checked.
void VerifyRecovered(const std::string& dir, const DurableModel& m,
                     bool strict) {
  core::System::Options opts;
  opts.workspace = dir;
  auto sys = core::System::Create(opts);
  ASSERT_TRUE(sys.ok()) << "recovery failed: " << sys.status().ToString();
  Database* db = (*sys)->database();

  for (const std::string& name : m.acked_tables) {
    EXPECT_NE(db->GetTable(name), nullptr)
        << "acked table " << name << " lost";
  }
  if (m.kv_created) {
    ASSERT_NE(db->GetTable("kv"), nullptr) << "acked table kv lost";
    std::unique_ptr<Transaction> txn = db->Begin();
    auto scan = txn->Scan("kv");
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    std::map<std::string, int64_t> got;
    for (const auto& [id, row] : *scan) {
      got[row[0].as_string()] = row[1].as_int();
    }
    (void)txn->Abort();
    for (const auto& [key, val] : m.rows) {
      if (!strict && m.ambiguous.count(key) > 0) continue;
      auto it = got.find(key);
      EXPECT_TRUE(it != got.end() && it->second == val)
          << "acked row lost or wrong: " << key << "=" << val;
    }
    for (const auto& [key, val] : got) {
      if (m.rows.count(key) > 0) continue;
      if (strict) {
        ADD_FAILURE() << "refused write resurrected: " << key;
      } else {
        // Lossy crashes may keep the commit record of a refused txn;
        // only statements that never wrote one are held absent.
        EXPECT_EQ(m.hard_refused.count(key), 0u)
            << "refused write resurrected: " << key;
      }
    }
    if (strict) {
      EXPECT_EQ(got.size(), m.rows.size());
    }
  } else if (strict) {
    EXPECT_EQ(db->GetTable("kv"), nullptr);
  }

  // Snapshots: durable versions present and exact; versions recover as
  // a monotonic journal prefix, so the latest version can only sit
  // between the durable ack and the last attempted append.
  storage::SnapshotStore& snaps = (*sys)->snapshots();
  for (const auto& [page, vers] : m.snap_durable) {
    auto latest = snaps.LatestVersion(page);
    ASSERT_TRUE(latest.ok()) << "snapshot page " << page << " lost";
    const uint32_t durable_latest = vers.rbegin()->first;
    EXPECT_GE(*latest, durable_latest)
        << "snapshot page " << page << " regressed";
    if (strict) {
      EXPECT_EQ(*latest, durable_latest)
          << "unsynced snapshot version survived a strict crash";
    }
    for (const auto& [ver, content] : vers) {
      auto got = snaps.Get(page, ver);
      ASSERT_TRUE(got.ok())
          << "snapshot " << page << " v" << ver << " lost";
      EXPECT_EQ(*got, content);
    }
  }
  if (strict) {
    EXPECT_EQ(snaps.NumPages(), m.snap_durable.size());
  }

  // Segments: the durable-acked records are an exact prefix.
  auto seg_store = storage::SegmentStore::Open(SegmentDir(dir));
  ASSERT_TRUE(seg_store.ok())
      << "segment recovery failed: " << seg_store.status().ToString();
  storage::SegmentStore* segs = seg_store->get();
  ASSERT_GE(segs->NumRecords(), m.seg_durable.size());
  if (strict) {
    EXPECT_EQ(segs->NumRecords(), m.seg_durable.size());
  }
  for (size_t i = 0; i < m.seg_durable.size(); ++i) {
    auto rec = segs->Read(i);
    ASSERT_TRUE(rec.ok()) << "segment record " << i << " lost";
    EXPECT_EQ(*rec, m.seg_durable[i]);
  }
}

std::string ModelSummary(const DurableModel& m) {
  std::string out = "ops=" + std::to_string(m.ops_attempted) +
                    " rows=" + std::to_string(m.rows.size()) +
                    " aux_tables=" + std::to_string(m.acked_tables.size()) +
                    " seg_durable=" + std::to_string(m.seg_durable.size());
  size_t snap_count = 0;
  for (const auto& [page, vers] : m.snap_durable) snap_count += vers.size();
  out += " snap_durable=" + std::to_string(snap_count);
  return out;
}

// ----------------------------------------------- strict boundary sweep

/// One strict power-cut trial: run the workload until the cut fires,
/// lose every unsynced byte, recover, check the oracle.
void StrictCutTrial(uint64_t seed, uint64_t cut, CutFlavor flavor) {
  const std::string repro =
      "STRUCTURA_SIM_SEED=" + std::to_string(seed) +
      " STRUCTURA_SIM_CUT=" + std::to_string(cut) +
      (flavor == CutFlavor::kAfterSync ? ":after" : ":before");
  SCOPED_TRACE(repro);
  const std::string dir = TempDir("sweep");
  SimulatedClock clock;
  SimulatedEnv env;
  env.CutAtSync(cut, flavor);
  DurableModel model = RunWorkload(dir, &env, &clock, seed);
  SimulatedEnv::CrashOptions crash;
  crash.seed = seed ^ (cut * 2 + (flavor == CutFlavor::kAfterSync));
  SimulatedEnv::CrashReport report = env.CrashAndRecover(crash);
  VerifyRecovered(dir, model, /*strict=*/true);
  if (::testing::Test::HasFailure()) {
    MaybeDumpArtifact(
        "crash_sim_seed" + std::to_string(seed) + "_cut" +
            std::to_string(cut) + ".txt",
        repro + "\n" + report.ToString() + "\n" + ModelSummary(model) + "\n");
  }
  std::filesystem::remove_all(dir);
}

TEST(CrashSimTest, PowerCutSweepAtEverySyncBoundary) {
  const uint64_t seed = EnvU64("STRUCTURA_SIM_SEED", 20260808);

  // Clean run: measures the sweep space and sanity-checks the driver.
  const std::string dir = TempDir("clean");
  SimulatedClock clock;
  SimulatedEnv env;
  DurableModel clean = RunWorkload(dir, &env, &clock, seed);
  const uint64_t total_syncs = env.SyncCount();
  ASSERT_GE(clean.ops_attempted, 200) << "workload too small to sweep";
  ASSERT_GT(total_syncs, 100u) << "workload exercised too few fsyncs";
  ASSERT_TRUE(env.PendingHazards().empty())
      << "quiescent system left durability hazards: "
      << env.PendingHazards().front();
  // The clean run must itself recover to exactly its own model.
  SimulatedEnv::CrashOptions crash;
  crash.seed = seed;
  env.CrashAndRecover(crash);
  VerifyRecovered(dir, clean, /*strict=*/true);
  std::filesystem::remove_all(dir);

  uint64_t replay_cut = 0;
  CutFlavor replay_flavor = CutFlavor::kBeforeSync;
  if (EnvCut(&replay_cut, &replay_flavor)) {
    // Replay exactly one boundary (the printed repro line).
    StrictCutTrial(seed, replay_cut, replay_flavor);
    return;
  }
  for (uint64_t cut = 1; cut <= total_syncs; ++cut) {
    for (CutFlavor flavor : {CutFlavor::kBeforeSync, CutFlavor::kAfterSync}) {
      StrictCutTrial(seed, cut, flavor);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ------------------------------------------- randomized mid-write sweep

/// Long randomized sweep (ctest label: sim): cuts at arbitrary env
/// operations — mid-transaction, mid-checkpoint, mid-append — with
/// lossy survival probabilities and torn writes, then checks the
/// one-sided durability guarantees. CI runs this leg with a
/// time-derived STRUCTURA_SIM_SEED; any failure prints the exact seed
/// to replay.
TEST(SimSweepTest, RandomizedOpCutsWithTornWrites) {
  const uint64_t base_seed = EnvU64("STRUCTURA_SIM_SEED", 424242);
  const uint64_t rounds = EnvU64("STRUCTURA_SIM_ROUNDS", 10);
  for (uint64_t r = 0; r < rounds; ++r) {
    const uint64_t seed = base_seed + r * 0x9e3779b9ULL;
    SCOPED_TRACE("STRUCTURA_SIM_SEED=" + std::to_string(seed) +
                 " STRUCTURA_SIM_ROUNDS=1");
    // Clean probe measures this seed's op count (deterministic).
    const std::string probe_dir = TempDir("probe");
    {
      SimulatedClock clock;
      SimulatedEnv env;
      RunWorkload(probe_dir, &env, &clock, seed);
      const uint64_t total_ops = env.OpCount();
      std::filesystem::remove_all(probe_dir);
      ASSERT_GT(total_ops, 0u);

      std::mt19937_64 rng(seed);
      const uint64_t cut = 1 + rng() % total_ops;
      const std::string dir = TempDir("randcut");
      SimulatedClock cut_clock;
      SimulatedEnv cut_env;
      cut_env.CutAtOp(cut);
      DurableModel model = RunWorkload(dir, &cut_env, &cut_clock, seed);
      SimulatedEnv::CrashOptions crash;
      crash.seed = seed;
      crash.unsynced_survival = 0.5;
      crash.unfenced_meta_survival = 0.5;
      crash.torn_writes = true;
      SimulatedEnv::CrashReport report = cut_env.CrashAndRecover(crash);
      VerifyRecovered(dir, model, /*strict=*/false);
      if (::testing::Test::HasFailure()) {
        MaybeDumpArtifact("crash_sim_rand_seed" + std::to_string(seed) +
                              ".txt",
                          "STRUCTURA_SIM_SEED=" + std::to_string(seed) +
                              " STRUCTURA_SIM_ROUNDS=1\ncut_op=" +
                              std::to_string(cut) + "\n" + report.ToString() +
                              "\n" + ModelSummary(model) + "\n");
        return;
      }
      std::filesystem::remove_all(dir);
    }
  }
}

// ------------------------------------------------ rename-fence hazards

TEST(CrashSimTest, AtomicReplaceLeavesNoHazards) {
  const std::string dir = TempDir("atomic");
  SimulatedEnv env;
  const std::string path = dir + "/state";
  ASSERT_TRUE(AtomicReplaceFile(&env, path, "v1").ok());
  EXPECT_TRUE(env.PendingHazards().empty());
  ASSERT_TRUE(AtomicReplaceFile(&env, path, "v2").ok());
  EXPECT_TRUE(env.PendingHazards().empty());
  // Strict crash right after: the replacement was fully fenced.
  env.PowerCut();
  env.CrashAndRecover({});
  EXPECT_EQ(FileBytes(path), "v2");
  std::filesystem::remove_all(dir);
}

TEST(CrashSimTest, RenameWithoutSyncDirIsFlaggedAndRevertsOnCrash) {
  const std::string dir = TempDir("rename");
  SimulatedEnv env;
  const std::string path = dir + "/state";
  ASSERT_TRUE(AtomicReplaceFile(&env, path, "old").ok());

  // The undisciplined sequence: write a replacement and rename it over
  // the live file with no directory fence.
  const std::string tmp = dir + "/state.new";
  {
    auto file = env.NewWritableFile(tmp, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("new").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  ASSERT_TRUE(env.RenameFile(tmp, path).ok());

  // The hazard is visible before any crash happens...
  std::vector<std::string> hazards = env.PendingHazards();
  ASSERT_FALSE(hazards.empty());
  bool rename_flagged = false;
  for (const std::string& h : hazards) {
    if (h.find("rename") != std::string::npos) rename_flagged = true;
  }
  EXPECT_TRUE(rename_flagged) << hazards.front();

  // ...and a strict crash indeed reverts to the old file.
  env.PowerCut();
  SimulatedEnv::CrashReport report = env.CrashAndRecover({});
  EXPECT_FALSE(report.hazards.empty());
  EXPECT_GT(report.meta_ops_reverted, 0u);
  EXPECT_EQ(FileBytes(path), "old");
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::filesystem::remove_all(dir);
}

// --------------------------------------- torn checkpoint tmp, per byte

/// Cuts the power inside the checkpoint image write and tears the
/// interrupted write at every byte offset. At every tear point the old
/// checkpoint plus the un-truncated WAL stay authoritative: recovery
/// never reads the torn tmp, never loses an acked row, never applies a
/// hybrid of old and new images.
TEST(CrashSimTest, CheckpointTornAtEveryByteKeepsOldImageAuthoritative) {
  // Probe run: find the op index of the checkpoint tmp append and the
  // image size. The workload is fixed, so indices are reproducible.
  std::map<std::string, int64_t> expected;
  uint64_t append_op = 0;
  size_t image_size = 0;
  {
    const std::string dir = TempDir("ckpt_probe");
    SimulatedEnv env;
    DatabaseOptions dopts;
    dopts.dir = dir;
    dopts.wal.env = &env;
    auto db = Database::Open(dopts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
    for (int64_t i = 0; i < 5; ++i) {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(
          txn->Insert("kv", {Value::Str("base" + std::to_string(i)),
                             Value::Int(i)})
              .ok());
      ASSERT_TRUE(txn->Commit().ok());
      expected["base" + std::to_string(i)] = i;
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    for (int64_t i = 0; i < 3; ++i) {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn->Insert("kv", {Value::Str("post" + std::to_string(i)),
                                     Value::Int(100 + i)})
                      .ok());
      ASSERT_TRUE(txn->Commit().ok());
      expected["post" + std::to_string(i)] = 100 + i;
    }
    // The second checkpoint's tmp append is the first env op after
    // this point: op N+1 opens the tmp file, op N+2 appends the image.
    append_op = env.OpCount() + 2;
    ASSERT_TRUE((*db)->Checkpoint().ok());
    image_size = std::filesystem::file_size(dir + "/checkpoint");
    ASSERT_GT(image_size, 0u);
    std::filesystem::remove_all(dir);
  }

  // Replay, cutting the power inside the tmp append and tearing it at
  // every byte (stride keeps wall time bounded; offsets 0, 1, the
  // sector boundary, and the final byte are always covered).
  std::vector<size_t> tears = {0, 1, 511, 512, image_size - 1, image_size};
  for (size_t b = 2; b < image_size; b += 7) tears.push_back(b);
  for (size_t tear : tears) {
    if (tear > image_size) continue;
    SCOPED_TRACE("tear=" + std::to_string(tear));
    const std::string dir = TempDir("ckpt_tear");
    SimulatedEnv env;
    DatabaseOptions dopts;
    dopts.dir = dir;
    dopts.wal.env = &env;
    {
      auto db = Database::Open(dopts);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
      for (int64_t i = 0; i < 5; ++i) {
        auto txn = (*db)->Begin();
        ASSERT_TRUE(
            txn->Insert("kv", {Value::Str("base" + std::to_string(i)),
                               Value::Int(i)})
                .ok());
        ASSERT_TRUE(txn->Commit().ok());
      }
      ASSERT_TRUE((*db)->Checkpoint().ok());
      for (int64_t i = 0; i < 3; ++i) {
        auto txn = (*db)->Begin();
        ASSERT_TRUE(
            txn->Insert("kv", {Value::Str("post" + std::to_string(i)),
                               Value::Int(100 + i)})
                .ok());
        ASSERT_TRUE(txn->Commit().ok());
      }
      env.CutAtOp(append_op);
      EXPECT_FALSE((*db)->Checkpoint().ok());
    }
    SimulatedEnv::CrashOptions crash;
    crash.seed = tear;
    crash.forced_tear_bytes = static_cast<int64_t>(tear);
    // Let the tmp's directory entry survive so the torn file is really
    // on disk at recovery — the strictest variant of the hazard.
    crash.unfenced_meta_survival = 1.0;
    env.CrashAndRecover(crash);

    auto db = Database::Open(dopts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->recovery_report().checkpoints_rejected, 0u)
        << "recovery read the torn tmp image";
    std::unique_ptr<Transaction> txn = (*db)->Begin();
    auto scan = txn->Scan("kv");
    ASSERT_TRUE(scan.ok());
    std::map<std::string, int64_t> got;
    for (const auto& [id, row] : *scan) {
      got[row[0].as_string()] = row[1].as_int();
    }
    (void)txn->Abort();
    EXPECT_EQ(got, expected);
    std::filesystem::remove_all(dir);
  }
}

// ------------------------------------------------- stale-WAL detection

/// The crash window between "new checkpoint durable" and "WAL
/// truncation durable": if the old log resurrects, recovery must
/// recognise it as superseded (via the checkpoint epoch marker) rather
/// than replay it over the checkpoint.
TEST(CrashSimTest, ResurrectedPreCheckpointWalIsDetectedAsStale) {
  const std::string dir = TempDir("stale");
  SimulatedEnv env;
  DatabaseOptions dopts;
  dopts.dir = dir;
  dopts.wal.env = &env;
  std::map<std::string, int64_t> expected;
  uint64_t reset_sync = 0;
  {
    auto db = Database::Open(dopts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(KvSchema()).ok());
    for (int64_t i = 0; i < 4; ++i) {
      auto txn = (*db)->Begin();
      auto key = "row" + std::to_string(i);
      ASSERT_TRUE(txn->Insert("kv", {Value::Str(key), Value::Int(i)}).ok());
      ASSERT_TRUE(txn->Commit().ok());
      expected[key] = i;
    }
    // Delete one row so a naive replay of the stale log would redo a
    // Delete of a row the checkpoint no longer contains.
    {
      auto txn = (*db)->Begin();
      std::unique_ptr<Transaction> scan_txn = (*db)->Begin();
      auto rows = scan_txn->Scan("kv");
      ASSERT_TRUE(rows.ok());
      RowId victim = 0;
      for (const auto& [id, row] : *rows) {
        if (row[0].as_string() == "row0") victim = id;
      }
      (void)scan_txn->Abort();
      ASSERT_TRUE(txn->Delete("kv", victim).ok());
      ASSERT_TRUE(txn->Commit().ok());
      expected.erase("row0");
    }
    // Cut the power on the WAL-truncation fsync inside Checkpoint():
    // the new checkpoint is already durable, the truncation is not —
    // the crash resurrects the full pre-checkpoint log.
    // Sync order inside Checkpoint(): tmp Sync, dir SyncDir, wal-reset
    // SyncDir, wal-reset truncate Sync — cut on that last one.
    reset_sync = env.SyncCount() + 4;
    env.CutAtSync(reset_sync, CutFlavor::kBeforeSync);
    EXPECT_FALSE((*db)->Checkpoint().ok());
  }
  SimulatedEnv::CrashOptions crash;
  crash.seed = 7;
  env.CrashAndRecover(crash);

  auto db = Database::Open(dopts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GT((*db)->recovery_report().stale_wal_records, 0u)
      << "recovery did not flag the resurrected pre-checkpoint log";
  std::unique_ptr<Transaction> txn = (*db)->Begin();
  auto scan = txn->Scan("kv");
  ASSERT_TRUE(scan.ok());
  std::map<std::string, int64_t> got;
  for (const auto& [id, row] : *scan) {
    got[row[0].as_string()] = row[1].as_int();
  }
  (void)txn->Abort();
  EXPECT_EQ(got, expected);

  // And the healed log accepts new commits that survive another cycle.
  {
    auto txn2 = (*db)->Begin();
    ASSERT_TRUE(txn2->Insert("kv", {Value::Str("after"), Value::Int(9)}).ok());
    ASSERT_TRUE(txn2->Commit().ok());
  }
  db->reset();
  auto db2 = Database::Open(dopts);
  ASSERT_TRUE(db2.ok());
  std::unique_ptr<Transaction> txn3 = (*db2)->Begin();
  auto scan2 = txn3->Scan("kv");
  ASSERT_TRUE(scan2.ok());
  bool found = false;
  for (const auto& [id, row] : *scan2) {
    if (row[0].as_string() == "after") found = true;
  }
  (void)txn3->Abort();
  EXPECT_TRUE(found);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- device faults (env.*)

/// The file-level sites fire through the env, latch the handle sticky
/// with the injected error, and land in the env's ledger exactly once.
TEST(SimEnvFaultTest, FileSitesFireLatchStickyAndReachTheLedger) {
  struct Site {
    const char* name;
    StatusCode code;
    bool on_sync;              // the site guards Sync, not Append
    const char* left_on_disk;  // real bytes once the fault fired
  };
  const Site kSites[] = {
      {"env.write", StatusCode::kIoError, false, "head|"},
      {"env.write.enospc", StatusCode::kResourceExhausted, false, "head|"},
      {"env.write.short", StatusCode::kIoError, false, "head|payl"},
      {"env.sync", StatusCode::kIoError, true, "head|"},
  };
  const std::string dir = TempDir("env_file_sites");
  for (size_t i = 0; i < std::size(kSites); ++i) {
    const Site& site = kSites[i];
    SCOPED_TRACE(site.name);
    SimulatedEnv env;
    const std::string path = dir + "/file" + std::to_string(i);
    auto file = env.NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("head|").ok());
    Status first;
    {
      ScopedFailpoint fp(site.name, FailpointRegistry::Spec::Once());
      first = site.on_sync ? (*file)->Sync() : (*file)->Append("payload!");
    }
    EXPECT_EQ(first.code(), site.code) << first.ToString();
    EXPECT_NE(first.message().find(site.name), std::string::npos);
    // The device is healthy again; the handle is not.
    EXPECT_TRUE((*file)->failed());
    EXPECT_EQ((*file)->Append("more").message(), first.message());
    EXPECT_EQ(FileBytes(path), site.left_on_disk);
    EXPECT_EQ(env.io_failures(), 1u);
    EXPECT_NE(env.last_io_error().find(site.name), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

/// The env-level sites fire, change nothing on disk or in the crash
/// ledger, and land in the env's i/o-failure ledger.
TEST(SimEnvFaultTest, EnvSitesFireAndReachTheLedger) {
  const std::string dir = TempDir("env_meta_sites");
  const std::string path = dir + "/file";
  SimulatedEnv env;
  {
    ScopedFailpoint fp("env.open", FailpointRegistry::Spec::Once());
    EXPECT_EQ(env.NewWritableFile(path, /*truncate=*/true).status().code(),
              StatusCode::kIoError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(env.io_failures(), 1u);
  ASSERT_TRUE(env.NewWritableFile(path, /*truncate=*/true).ok());
  {
    ScopedFailpoint fp("env.syncdir", FailpointRegistry::Spec::Once());
    EXPECT_EQ(env.SyncDir(dir).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(env.io_failures(), 2u);
  EXPECT_EQ(env.PendingHazards().size(), 1u);  // the create stays unfenced
  ASSERT_TRUE(env.SyncDir(dir).ok());
  {
    ScopedFailpoint fp("env.rename", FailpointRegistry::Spec::Once());
    EXPECT_EQ(env.RenameFile(path, dir + "/moved").code(),
              StatusCode::kIoError);
  }
  EXPECT_EQ(env.io_failures(), 3u);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(dir + "/moved"));
  EXPECT_TRUE(env.PendingHazards().empty());
  std::filesystem::remove_all(dir);
}

/// A short write is the torn tail of a power cut: after the crash the
/// file is the synced prefix plus at most the torn half of the failed
/// append — never the whole payload, never a byte written after it.
TEST(SimEnvFaultTest, ShortWriteThenCrashLeavesAtMostTheTornHalf) {
  const std::string dir = TempDir("short_crash");
  const std::string path = dir + "/log";
  std::string payload;
  for (int i = 0; i < 64; ++i) payload += static_cast<char>('A' + i % 26);
  const std::string torn = "synced|" + payload.substr(0, 32);
  bool saw_prefix_only = false, saw_whole_half = false;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimulatedEnv env;
    {
      auto file = env.NewWritableFile(path, /*truncate=*/true);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append("synced|").ok());
      ASSERT_TRUE((*file)->Sync().ok());
      ASSERT_TRUE(env.SyncDir(dir).ok());
      ScopedFailpoint fp("env.write.short", FailpointRegistry::Spec::Once());
      EXPECT_FALSE((*file)->Append(payload).ok());
      EXPECT_FALSE((*file)->Append("after the tear").ok());
    }
    ASSERT_EQ(FileBytes(path), torn);
    SimulatedEnv::CrashOptions opts;
    opts.seed = seed;
    opts.unsynced_survival = 0.5;
    opts.torn_writes = true;
    env.CrashAndRecover(opts);
    const std::string got = FileBytes(path);
    ASSERT_GE(got.size(), std::string("synced|").size());
    EXPECT_EQ(got, torn.substr(0, got.size()));
    saw_prefix_only |= got == "synced|";
    saw_whole_half |= got == torn;
  }
  EXPECT_TRUE(saw_prefix_only);
  EXPECT_TRUE(saw_whole_half);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ simulated-time wiring

TEST(CrashSimTest, SimulatedClockDrivesBreakerCooldownDeterministically) {
  SimulatedClock::Options copts;
  copts.auto_advance = false;
  SimulatedClock clock(copts);
  serve::CircuitBreaker::Options bopts;
  bopts.failure_threshold = 1;
  bopts.open_ms = 100;
  bopts.clock = &clock;
  serve::CircuitBreaker breaker(bopts);

  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  clock.AdvanceMillis(99);
  EXPECT_FALSE(breaker.Allow()) << "cooldown expired one tick early";
  clock.AdvanceMillis(2);
  EXPECT_TRUE(breaker.Allow()) << "cooldown never expired on sim time";
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kClosed);
}

TEST(CrashSimTest, SimulatedClockSkipsGroupCommitWindow) {
  const std::string dir = TempDir("group");
  SimulatedClock clock;  // auto-advance
  rdbms::WalOptions wopts;
  wopts.sync_policy = rdbms::WalSyncPolicy::kGroupCommit;
  wopts.group_commit_window_us = 30'000'000;  // 30s of simulated linger
  wopts.clock = &clock;
  auto wal = rdbms::WriteAheadLog::Open(dir + "/wal.log", wopts);
  ASSERT_TRUE(wal.ok());
  const int64_t before = clock.NowNanos();
  rdbms::LogRecord rec;
  rec.type = rdbms::LogRecord::Type::kCommit;
  rec.txn = 1;
  ASSERT_TRUE((*wal)->Append(rec).ok());  // waits out the window
  // The 30-second window elapsed on the simulated clock, not ours.
  EXPECT_GE(clock.NowNanos() - before, int64_t{30} * 1'000'000'000);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace structura
