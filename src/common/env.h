#ifndef STRUCTURA_COMMON_ENV_H_
#define STRUCTURA_COMMON_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"

namespace structura {

class Env;

/// A durable, append-only file handle in the LevelDB-Env / SQLite-VFS
/// mold. Every call returns Status so a full disk or a failing device
/// surfaces exactly where the syscall failed instead of being swallowed
/// by stream state nobody checks.
///
/// Durability contract:
///  - Append pushes bytes to the OS (implementations are unbuffered, so
///    readers opening the file see appended bytes immediately).
///  - Flush pushes any userspace buffering to the OS. It is NOT a
///    durability point.
///  - Sync is the durability point: it returns OK only after
///    fsync/fdatasync reported the bytes stable.
///
/// Sticky failure (the fsyncgate rule): after ANY operation fails, the
/// file is permanently failed — every later call returns the first
/// error without touching the file descriptor. A failed fsync may have
/// dropped dirty pages from the page cache, so retrying the sync and
/// believing its OK would acknowledge data that never reached disk.
/// Recovery is explicit: the owner opens a fresh file (typically after
/// a checkpoint made the failed tail redundant). The first failure is
/// reported to the owning Env's i/o-failure ledger, which feeds the
/// `storage.disk` health signal.
///
/// Calls are internally serialized; Sync from one thread may overlap
/// Append from another (group commit syncs while appenders queue).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  Status Append(std::string_view data);
  Status Flush();
  Status Sync();
  /// Flush + close. The handle is failed afterwards ("file closed"), so
  /// accidental use-after-close surfaces as an error, not a crash.
  Status Close();

  /// True once any operation has failed (or the file was closed).
  bool failed() const;
  /// The first error observed, or OK. After Close() on a healthy file:
  /// a "file closed" error.
  Status sticky_status() const;

  const std::string& path() const { return path_; }

 protected:
  WritableFile(std::string path, Env* env)
      : path_(std::move(path)), env_(env) {}

  virtual Status DoAppend(std::string_view data) = 0;
  virtual Status DoFlush() = 0;
  virtual Status DoSync() = 0;
  virtual Status DoClose() = 0;

 private:
  /// Runs `op` under the file mutex unless already failed; latches the
  /// first failure and reports it to the env ledger.
  template <typename Op>
  Status Run(Op op);

  std::string path_;
  Env* env_;
  mutable std::mutex mutex_;
  Status sticky_;
  bool latched_ = false;
};

/// The storage I/O environment: how the system touches the filesystem.
/// Production code uses Env::Default() (a PosixEnv); tests wrap it in a
/// SimulatedEnv (common/sim_env.h), which injects power cuts and, at
/// the `env.*` failpoint sites, ENOSPC/EIO/short writes at the syscall
/// boundary. The env also keeps an i/o-failure ledger — a count and
/// last message of every unrecoverable failure its files and operations
/// reported — which the `storage.disk` health signal polls.
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide PosixEnv singleton.
  static Env* Default();

  /// Opens `path` for writing: truncate=true starts empty, false
  /// appends to whatever is there.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;

  /// Atomically renames `from` to `to` (same filesystem). NOT durable
  /// by itself — callers must SyncDir the parent directory afterwards
  /// for the rename to survive a power cut.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// fsyncs a directory so completed renames/creates in it are durable.
  virtual Status SyncDir(const std::string& dir) = 0;

  virtual Status RemoveFile(const std::string& path) = 0;

  // --- i/o-failure ledger -------------------------------------------

  /// Records one unrecoverable i/o failure (called by files latching
  /// sticky state and by failed env-level operations).
  void ReportIoFailure(const std::string& path, const Status& status);
  /// Total unrecoverable failures reported to this env.
  uint64_t io_failures() const {
    return io_failures_.load(std::memory_order_relaxed);
  }
  std::string last_io_error() const;

  /// Active probe: writes, syncs, and removes a small scratch file
  /// under `dir`. OK means the device currently accepts durable
  /// writes; the error says why not. Used by the `storage.disk` health
  /// signal to distinguish "one file died" from "the disk is gone".
  Status ProbeWrite(const std::string& dir);

 private:
  mutable std::mutex ledger_mutex_;
  std::atomic<uint64_t> io_failures_{0};
  std::string last_io_error_;
};

/// Crash-safe whole-file replacement: write `path`.tmp, fsync it,
/// rename over `path`, fsync the parent directory. At every
/// intermediate crash point the old file is intact and authoritative.
/// When `pre_rename_failpoint` is non-null it is evaluated after the
/// tmp write but before the durability steps, modeling a crash that
/// leaves a complete-looking tmp file which must never be trusted.
Status AtomicReplaceFile(Env* env, const std::string& path,
                         std::string_view contents,
                         const char* pre_rename_failpoint = nullptr);

}  // namespace structura

#endif  // STRUCTURA_COMMON_ENV_H_
