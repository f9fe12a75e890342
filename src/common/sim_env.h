#ifndef STRUCTURA_COMMON_SIM_ENV_H_
#define STRUCTURA_COMMON_SIM_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"

namespace structura {

/// Crash-simulation Env in the FoundationDB mold: deterministic power
/// cuts with POSIX crash semantics, every outcome reproducible from a
/// single seed.
///
/// The env interposes on every write-side operation and keeps, per
/// file, the *durability ledger* a real kernel keeps implicitly:
///
///  - the synced prefix (bytes covered by a successful Sync) vs. the
///    unsynced buffered tail (each Append since, recorded separately
///    so a crash can drop an arbitrary suffix of them);
///  - whether an O_TRUNC truncation has been fsynced yet (until then a
///    crash may resurrect the pre-truncate image);
///  - directory-entry durability: a create, rename, or remove counts
///    as durable only once `SyncDir` covered its parent directory.
///    Until then it sits in a pending-op journal and a crash may undo
///    it — a rename reverts to the old destination file, a create
///    vanishes, a remove resurrects.
///
/// Because the repo's read paths (recovery, scans) read real files
/// directly, writes are passed through to the real directory while the
/// ledger shadows them; `CrashAndRecover` then *rewrites the real
/// files to the computed surviving image*, which is exactly the
/// page-cache model: reads before the crash see buffered bytes, reads
/// after it see only what was made durable.
///
/// Power cuts are scheduled by operation index (`CutAtOp`) or sync
/// index (`CutAtSync`), or fired immediately (`PowerCut`). Once the
/// power is off every operation fails with kIoError until
/// `CrashAndRecover` turns the machine back on over the surviving
/// bytes. An Append killed by the cut is the "interrupted write": its
/// payload was in flight and may survive torn.
///
/// Files mutated outside the env (recovery-time truncations, direct
/// filesystem calls) are adopted at the next env touch with their
/// current real content as the durable baseline.
///
/// Device faults short of a power cut come from failpoints evaluated
/// once an operation passed the power gate. `env.open`, `env.write`,
/// `env.sync`, `env.rename` and `env.syncdir` fail their operation
/// with kIoError and change nothing; `env.write.enospc` fails an
/// append with kResourceExhausted (full disk); `env.write.short` lets
/// half the bytes reach the file as an unsynced write, then fails with
/// kIoError — the file latches sticky, so the torn bytes stay its
/// tail. Every injected failure lands in THIS env's i/o-failure ledger.
class SimulatedEnv : public Env {
 public:
  /// `base` performs the real I/O under the simulation (defaults to
  /// Env::Default()); it must outlive this env.
  explicit SimulatedEnv(Env* base = nullptr);

  // --- Env interface -------------------------------------------------
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& dir) override;
  Status RemoveFile(const std::string& path) override;

  // --- power-cut scheduling ------------------------------------------

  /// Cut power when the `n`-th (1-based) env operation starts: that
  /// operation fails and everything after it is refused. Operations
  /// are opens, appends, syncs, renames, dir-syncs, and removes.
  void CutAtOp(uint64_t n);

  enum class CutFlavor {
    /// The `n`-th sync itself fails — nothing it covered is durable.
    kBeforeSync,
    /// The `n`-th sync completes (and is acknowledged), then the power
    /// dies before anything else happens.
    kAfterSync,
  };
  /// Cut power at the `n`-th (1-based) durability point (file Sync or
  /// SyncDir).
  void CutAtSync(uint64_t n, CutFlavor flavor);

  /// Immediate power loss.
  void PowerCut();

  bool PoweredOff() const;
  /// Env operations / durability points executed so far. A clean
  /// no-cut run measures the sweep space: every index in
  /// [1, SyncCount()] is a sync boundary to crash at.
  uint64_t OpCount() const;
  uint64_t SyncCount() const;

  // --- crash & recovery ----------------------------------------------

  struct CrashOptions {
    uint64_t seed = 0;
    /// Per-write chance that the next buffered-but-unsynced write
    /// reached disk anyway. Survival is a per-file *prefix* of the
    /// unsynced writes (the kernel flushes in order within a file);
    /// independent draws across files model cross-file reordering.
    /// 0.0 = strict: every unsynced byte is lost.
    double unsynced_survival = 0.0;
    /// Per-op chance that an unfenced metadata op (create / rename /
    /// remove awaiting SyncDir) hit the journal anyway. Also a prefix,
    /// per directory. 0.0 = strict: every unfenced op is undone.
    double unfenced_meta_survival = 0.0;
    /// When true, the first *lost* write of a file may survive
    /// partially: a seeded prefix, cut at a random byte or (seeded
    /// coin) a 512-byte sector boundary.
    bool torn_writes = false;
    /// Exact surviving byte count for the interrupted write (the
    /// Append the power cut killed), for byte-by-byte torn-tail
    /// sweeps. -1 = seeded per `torn_writes`. Applies only when every
    /// write before it survived.
    int64_t forced_tear_bytes = -1;
  };

  struct CrashReport {
    uint64_t files_tracked = 0;
    uint64_t writes_dropped = 0;
    uint64_t writes_survived = 0;
    uint64_t writes_torn = 0;
    uint64_t truncates_reverted = 0;
    uint64_t meta_ops_reverted = 0;
    uint64_t meta_ops_survived = 0;
    /// Durability hazards pending at the moment of the crash (see
    /// PendingHazards()).
    std::vector<std::string> hazards;
    std::string ToString() const;
  };

  /// Simulates the power loss outcome: computes each file's surviving
  /// image under `opts` (seeded, deterministic), rewrites the real
  /// files to match, forgets all tracking, and turns the power back
  /// on. Call after a cut fired (or it calls PowerCut() itself).
  /// The old System must be torn down first; recovery then opens a
  /// fresh one over the surviving bytes.
  CrashReport CrashAndRecover(const CrashOptions& opts);

  /// Human-readable list of operations that would not survive a crash
  /// right now: renames, creates, and removes not yet fenced by a
  /// SyncDir of their parent directory. A well-disciplined quiescent
  /// system has none; `AtomicReplaceFile` leaves none behind.
  std::vector<std::string> PendingHazards() const;

 private:
  friend class SimWritableFile;

  struct FileState {
    /// Content guaranteed by the last successful Sync (assuming any
    /// pending truncate also made it to disk).
    std::string durable;
    /// Appends since, in order; a crash keeps a prefix of these.
    std::vector<std::string> unsynced;
    /// The last unsynced write was killed mid-flight by the cut; it
    /// can survive only torn, never whole.
    bool last_write_interrupted = false;
    /// An O_TRUNC happened after the last Sync; if the crash loses it
    /// the file reverts to `pre_truncate` and all unsynced writes are
    /// void (their offsets presumed the truncation).
    bool truncate_pending = false;
    std::string pre_truncate;
  };

  enum class MetaKind { kCreate, kRename, kRemove };
  struct MetaOp {
    MetaKind kind;
    std::string path;  // created/removed path, or rename destination
    std::string from;  // rename source
    /// Prior state of the destination (rename) or the removed file,
    /// for revert. nullopt: the destination did not exist.
    std::optional<FileState> saved;
    /// Parent directories whose SyncDir must all land before the op is
    /// durable.
    std::vector<std::string> dirs;
  };

  enum class Gate { kProceed, kAlreadyOff, kCutNow };

  /// Counts the op and decides its fate under the armed cut. Call with
  /// mu_ held.
  Gate EnterOpLocked();
  /// As EnterOpLocked but also counts a durability point and applies
  /// kBeforeSync cuts.
  Gate EnterSyncLocked();
  /// Applies a pending kAfterSync cut once the sync completed.
  void LeaveSyncLocked();
  Status PowerLossError() const;
  /// Why an operation that went through `gate` is refused: the power
  /// loss, else the injected fault when failpoint `site` fires, else OK.
  Status RefusalLocked(Gate gate, const char* site) const;

  /// Tracked state for `path`, adopting the real file's bytes as the
  /// durable baseline if the env has not seen it before. nullopt: no
  /// such file on disk either.
  std::optional<FileState> TakeStateLocked(const std::string& path);

  // WritableFile backends (called via SimWritableFile).
  Status FileAppend(const std::string& path, WritableFile* base,
                    std::string_view data);
  Status FileSync(const std::string& path, WritableFile* base);
  Status FileFlush(WritableFile* base);
  Status FileClose(WritableFile* base);

  std::vector<std::string> PendingHazardsLocked() const;

  Env* base_;
  mutable std::mutex mu_;
  /// Ordered map so crash computation iterates files deterministically.
  std::map<std::string, FileState> files_;
  std::vector<MetaOp> journal_;
  bool powered_off_ = false;
  uint64_t op_count_ = 0;
  uint64_t sync_count_ = 0;
  uint64_t cut_at_op_ = 0;  // 0 = unarmed
  uint64_t cut_at_sync_ = 0;
  CutFlavor cut_flavor_ = CutFlavor::kBeforeSync;
};

}  // namespace structura

#endif  // STRUCTURA_COMMON_SIM_ENV_H_
