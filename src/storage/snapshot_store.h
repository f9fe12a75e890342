#ifndef STRUCTURA_STORAGE_SNAPSHOT_STORE_H_
#define STRUCTURA_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/integrity.h"
#include "common/status.h"
#include "storage/diff.h"

namespace structura::storage {

/// Version-store for re-crawled documents, in the spirit of the paper's
/// "store daily snapshots in a device such as Subversion, which only
/// stores the diff across snapshots" (Section 4). Version 0 of a page is
/// stored in full; each later version is a line delta against its
/// predecessor. Reads reconstruct by replaying deltas, with periodic full
/// "keyframes" bounding reconstruction cost.
class SnapshotStore {
 public:
  struct Options {
    /// Store a full copy every `keyframe_interval` versions so Get cost
    /// stays bounded (like SVN skip-deltas, simplified).
    uint32_t keyframe_interval = 16;
  };

  SnapshotStore() : SnapshotStore(Options{}) {}
  explicit SnapshotStore(Options options) : options_(options) {}

  /// Attaches a durable journal at `dir`/snapshots.journal (the
  /// directory is created if needed). Any existing journal is replayed
  /// into memory first — a torn tail from a crash is truncated away,
  /// and entries past mid-file damage are dropped (reported in
  /// recovery_report()) so version numbering stays consistent with
  /// what was acknowledged. Every subsequent Append is journaled
  /// (page id + full content, CRC-framed) before it mutates memory;
  /// Sync() is the durability point. nullptr env = Env::Default().
  /// Call once, before any Append.
  Status AttachJournal(const std::string& dir, Env* env = nullptr);

  /// Durability point for journaled appends (no-op when detached).
  Status Sync();

  /// True once a journal write/sync failed: appends are being refused
  /// with the sticky error — reads keep serving. ReopenJournal() heals.
  bool Failed() const {
    return attached_ && (journal_ == nullptr || journal_->failed());
  }

  /// Heals a failed journal by atomically rewriting it from the
  /// in-memory state (every page, every version) and opening a fresh
  /// handle. A version whose delta chain no longer reconstructs (bit
  /// rot) is rewritten — on disk and in memory — from its newest clean
  /// ancestor (GetWithFallback semantics, a full copy of the last-good
  /// content), so one corrupt version cannot wedge the heal; a page
  /// with no clean version at all is truncated at the damage (memory
  /// and journal together, keeping version numbering aligned). Both
  /// cases are logged and counted
  /// (`storage.snapshot.heal_{degraded,dropped}_versions`).
  Status ReopenJournal();

  /// What AttachJournal's replay found (zeros for a clean journal).
  const IntegrityCounters& recovery_report() const { return recovery_; }

  /// Appends `content` as the next version of `page_id`. Versions must be
  /// added in order starting at 0. When a journal is attached the entry
  /// is journaled first; a failed journal refuses the append (sticky).
  Result<uint32_t> Append(uint64_t page_id, const std::string& content);

  /// Reconstructs a specific version. The result is verified against the
  /// CRC32C recorded at Append time, so a damaged delta chain yields
  /// kCorruption instead of silently wrong text.
  Result<std::string> Get(uint64_t page_id, uint32_t version) const;

  /// A Get() that survived corruption by falling back. `degraded` is
  /// the contract: when true, `content` is NOT the requested version
  /// but the newest *older* version that still verifies, `version` says
  /// which one, and `reason` says why — last-good data clearly labeled
  /// beats an error for read paths that can tolerate staleness.
  struct ReadResult {
    std::string content;
    uint32_t version = 0;
    bool degraded = false;
    std::string reason;
  };

  /// Like Get(), but when the requested version fails its checksum the
  /// read walks back toward version 0 and serves the newest older
  /// version that still reconstructs cleanly, marked degraded (counter
  /// `storage.snapshot.fallback_reads`). Unknown page/version is still
  /// kNotFound; a page with no clean version at all is kCorruption —
  /// the store never fabricates content.
  Result<ReadResult> GetWithFallback(uint64_t page_id,
                                     uint32_t version) const;

  /// Reconstructs and re-verifies every stored version, folding findings
  /// into `counters` (records_verified / corrupt_records, one per
  /// version). With a journal attached it then flushes the journal and
  /// reads the file back as a restart would: each damaged region, and a
  /// torn tail, adds a corrupt record, and `*journal_damaged` (when
  /// given) says whether any was found — ReopenJournal() rewrites the
  /// file from memory.
  Status Scrub(IntegrityCounters* counters,
               bool* journal_damaged = nullptr) const;

  /// Latest version number for a page, or error when unknown.
  Result<uint32_t> LatestVersion(uint64_t page_id) const;

  /// Bytes this store holds (full texts + serialized deltas). Compare
  /// against `FullCopyBytes` to measure the diff-storage saving.
  size_t StoredBytes() const { return stored_bytes_; }

  /// Bytes a naive store-every-version-in-full design would hold.
  size_t FullCopyBytes() const { return full_copy_bytes_; }

  size_t NumPages() const { return pages_.size(); }

 private:
  struct VersionEntry {
    bool is_full = false;
    std::string full;       // when is_full
    std::string delta;      // serialized Delta, when !is_full
    uint32_t content_crc = 0;  // CRC32C of the reconstructed content
  };
  struct Page {
    std::vector<VersionEntry> versions;
  };

  /// Replays one journal payload ("<page_id> <content>") into memory.
  Status ApplyJournalEntry(std::string_view payload);

  Options options_;
  std::unordered_map<uint64_t, Page> pages_;
  size_t stored_bytes_ = 0;
  size_t full_copy_bytes_ = 0;

  /// Durable journal state (inert until AttachJournal).
  bool attached_ = false;
  Env* env_ = nullptr;
  std::string journal_path_;
  std::unique_ptr<WritableFile> journal_;
  IntegrityCounters recovery_;
};

}  // namespace structura::storage

#endif  // STRUCTURA_STORAGE_SNAPSHOT_STORE_H_
