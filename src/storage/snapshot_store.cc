#include "storage/snapshot_store.h"

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/recordio.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace structura::storage {
namespace {

/// Journal payload: "<page_id> <content>"; content may hold any bytes.
std::string EncodeJournalEntry(uint64_t page_id,
                               const std::string& content) {
  std::string out =
      StrFormat("%llu ", static_cast<unsigned long long>(page_id));
  out += content;
  return out;
}

}  // namespace

Status SnapshotStore::ApplyJournalEntry(std::string_view payload) {
  size_t space = payload.find(' ');
  if (space == std::string_view::npos) {
    return Status::Corruption("bad snapshot journal entry");
  }
  int64_t page_id = 0;
  if (!ParseInt64(std::string(payload.substr(0, space)), &page_id) ||
      page_id < 0) {
    return Status::Corruption("bad snapshot journal page id");
  }
  std::string content(payload.substr(space + 1));
  Result<uint32_t> applied =
      Append(static_cast<uint64_t>(page_id), content);
  return applied.ok() ? Status::OK() : applied.status();
}

Status SnapshotStore::AttachJournal(const std::string& dir, Env* env) {
  if (attached_) {
    return Status::FailedPrecondition("journal already attached");
  }
  env_ = env != nullptr ? env : Env::Default();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot dir: " + ec.message());
  }
  journal_path_ = dir + "/snapshots.journal";
  recovery_ = IntegrityCounters{};
  // Replay whatever survived. Version numbers are implicit in entry
  // order, so entries AFTER the first damaged region are dropped —
  // applying them would renumber versions relative to what was
  // acknowledged before the crash. Recovery must not trip armed
  // failpoints meant for foreground traffic.
  uint64_t keep_end = 0;
  {
    std::ifstream in(journal_path_, std::ios::binary);
    if (in) {
      std::string data((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      ScopedFailpointSuppression shield;
      FrameReader reader(data);
      while (std::optional<FrameReader::Frame> frame = reader.Next()) {
        if (frame->after_damage) break;
        Status applied = ApplyJournalEntry(frame->payload);
        if (!applied.ok()) {
          ++recovery_.corrupt_records;
          break;
        }
        ++recovery_.records_verified;
        keep_end = frame->offset + kFrameHeaderBytes + frame->payload.size();
      }
      const FrameScanReport& report = reader.report();
      if (report.damaged_regions > 0) {
        recovery_.corrupt_records += report.damaged_regions;
        STRUCTURA_LOG(kWarning)
            << "snapshot journal " << journal_path_
            << ": dropping entries past first damaged region (offset "
            << report.first_damage_offset << ")";
      }
      recovery_.torn_tail_bytes += report.torn_tail_bytes;
      if (data.size() > keep_end) {
        // Truncate damage and torn tails so future appends extend a
        // fully-valid prefix.
        std::filesystem::resize_file(journal_path_, keep_end, ec);
        if (ec) {
          return Status::Internal("cannot truncate snapshot journal: " +
                                  ec.message());
        }
      }
    }
  }
  STRUCTURA_ASSIGN_OR_RETURN(
      journal_, env_->NewWritableFile(journal_path_, /*truncate=*/false));
  // A first-attach creates the journal file; until its parent
  // directory is fsynced that is only a buffered directory entry, and
  // a crash could drop the whole file even with every entry synced.
  STRUCTURA_RETURN_IF_ERROR(env_->SyncDir(dir));
  attached_ = true;
  return Status::OK();
}

Status SnapshotStore::Sync() {
  if (!attached_) return Status::OK();
  if (journal_ == nullptr) {
    return Status::IoError("snapshot journal unavailable: " + journal_path_);
  }
  return journal_->Sync();
}

Status SnapshotStore::ReopenJournal() {
  if (!attached_) {
    return Status::FailedPrecondition("no snapshot journal attached");
  }
  // Rebuild the full journal from memory. Bit-rot may have made some
  // versions unreconstructable — a heal runs in exactly that state —
  // so a damaged version is rewritten from the newest older version
  // that still verifies (the same last-good contract GetWithFallback
  // gives readers) instead of failing the whole rewrite, which would
  // wedge every heal attempt and leave the system read-only even after
  // the disk recovers. A version with no clean ancestor at all
  // truncates its page there, in memory and journal together, so the
  // implicit order-is-version numbering stays aligned across restarts.
  // Everything degraded or dropped is counted and logged.
  journal_.reset();
  static obs::Counter* degraded_rewrites =
      obs::MetricsRegistry::Default().GetCounter(
          "storage.snapshot.heal_degraded_versions");
  static obs::Counter* dropped_versions =
      obs::MetricsRegistry::Default().GetCounter(
          "storage.snapshot.heal_dropped_versions");
  std::string image;
  for (auto& [page_id, page] : pages_) {
    for (uint32_t v = 0; v < page.versions.size(); ++v) {
      Result<ReadResult> content = GetWithFallback(page_id, v);
      if (!content.ok()) {
        size_t drop = page.versions.size() - v;
        dropped_versions->Add(drop);
        STRUCTURA_LOG(kWarning)
            << "snapshot heal: page " << page_id
            << " has no clean version at or below " << v << "; dropping "
            << drop << " version(s): " << content.status().ToString();
        for (uint32_t d = v; d < page.versions.size(); ++d) {
          const VersionEntry& e = page.versions[d];
          stored_bytes_ -=
              e.is_full ? e.full.size() : e.delta.size();
        }
        page.versions.resize(v);
        break;
      }
      if (content->degraded) {
        degraded_rewrites->Increment();
        STRUCTURA_LOG(kWarning)
            << "snapshot heal: page " << page_id << " version " << v
            << " rewritten degraded (" << content->reason << ")";
        // Repair memory to match the rewritten journal: replace the
        // unreconstructable entry with a full copy of the last-good
        // content — exactly what a restart replaying the new journal
        // would yield — so later versions of the page re-verify and
        // appends flow again instead of tripping over the dead delta.
        VersionEntry& ve = page.versions[v];
        stored_bytes_ -= ve.is_full ? ve.full.size() : ve.delta.size();
        ve.is_full = true;
        ve.full = content->content;
        ve.delta.clear();
        ve.content_crc = Crc32c(ve.full);
        stored_bytes_ += ve.full.size();
      }
      AppendFrame(EncodeJournalEntry(page_id, content->content), &image);
    }
  }
  for (auto it = pages_.begin(); it != pages_.end();) {
    it = it->second.versions.empty() ? pages_.erase(it) : std::next(it);
  }
  STRUCTURA_RETURN_IF_ERROR(AtomicReplaceFile(env_, journal_path_, image));
  STRUCTURA_ASSIGN_OR_RETURN(
      journal_, env_->NewWritableFile(journal_path_, /*truncate=*/false));
  return Status::OK();
}

Result<uint32_t> SnapshotStore::Append(uint64_t page_id,
                                       const std::string& content) {
  STRUCTURA_FAILPOINT("snapshot.append");
  // Stage the whole version entry BEFORE journaling: the delta build
  // can fail (a corrupt predecessor refuses to reconstruct), and an
  // entry that reached the journal but never reached memory would
  // shift every later acknowledged version of the page by one on
  // replay — an acked version N reading back as different content.
  // Once the entry is staged, the in-memory append cannot fail, so
  // journal order stays identical to acknowledged version order.
  auto it = pages_.find(page_id);
  uint32_t version =
      it == pages_.end() ? 0
                         : static_cast<uint32_t>(it->second.versions.size());

  VersionEntry entry;
  entry.content_crc = Crc32c(content);
  bool keyframe = options_.keyframe_interval > 0 &&
                  version % options_.keyframe_interval == 0;
  if (version == 0 || keyframe) {
    entry.is_full = true;
    entry.full = content;
  } else {
    // Reconstruct the previous version to diff against. Appends are
    // sequential, so this walks at most keyframe_interval deltas.
    Result<std::string> prev = Get(page_id, version - 1);
    if (!prev.ok()) return prev.status();
    Delta delta = ComputeDelta(*prev, content);
    entry.is_full = false;
    entry.delta = delta.Serialize();
    // A pathological edit can make the delta bigger than the content;
    // store full in that case (standard delta-store practice).
    if (entry.delta.size() >= content.size()) {
      entry.is_full = true;
      entry.full = content;
      entry.delta.clear();
    }
  }
  // Deterministic bit-rot injection over whichever representation was
  // stored; the checksum above was taken first, so Get() detects it.
  // The journal below carries the pristine content either way.
  std::string* stored = entry.is_full ? &entry.full : &entry.delta;
  STRUCTURA_RETURN_IF_ERROR(MaybeCorrupt("snapshot.delta", stored));

  if (attached_) {
    // Journal before memory: an entry that fails to reach the OS is
    // refused outright (sticky), never acknowledged-then-lost.
    if (journal_ == nullptr) {
      return Status::IoError("snapshot journal unavailable: " +
                             journal_path_);
    }
    if (journal_->failed()) return journal_->sticky_status();
    STRUCTURA_RETURN_IF_ERROR(
        journal_->Append(FrameRecord(EncodeJournalEntry(page_id, content))));
  }

  full_copy_bytes_ += content.size();
  stored_bytes_ += entry.is_full ? entry.full.size() : entry.delta.size();
  pages_[page_id].versions.push_back(std::move(entry));
  return version;
}

Result<std::string> SnapshotStore::Get(uint64_t page_id,
                                       uint32_t version) const {
  auto it = pages_.find(page_id);
  if (it == pages_.end()) {
    return Status::NotFound("unknown page id");
  }
  const Page& page = it->second;
  if (version >= page.versions.size()) {
    return Status::NotFound("unknown version");
  }
  // Find the nearest full entry at or before `version`.
  uint32_t base = version;
  while (!page.versions[base].is_full) {
    if (base == 0) return Status::Corruption("version 0 is not full");
    --base;
  }
  std::string text = page.versions[base].full;
  for (uint32_t v = base + 1; v <= version; ++v) {
    Result<Delta> delta = Delta::Deserialize(page.versions[v].delta);
    if (!delta.ok()) return delta.status();
    Result<std::string> next = ApplyDelta(text, *delta);
    if (!next.ok()) return next.status();
    text = std::move(*next);
  }
  if (Crc32c(text) != page.versions[version].content_crc) {
    return Status::Corruption("snapshot reconstruction mismatch");
  }
  return text;
}

Result<SnapshotStore::ReadResult> SnapshotStore::GetWithFallback(
    uint64_t page_id, uint32_t version) const {
  Result<std::string> primary = Get(page_id, version);
  if (primary.ok()) {
    ReadResult r;
    r.content = std::move(primary).value();
    r.version = version;
    return r;
  }
  if (primary.status().code() == StatusCode::kNotFound) {
    return primary.status();
  }
  static obs::Counter* fallback_reads =
      obs::MetricsRegistry::Default().GetCounter(
          "storage.snapshot.fallback_reads");
  // The requested version is damaged: serve the newest older version
  // that still verifies, clearly labeled as stale.
  for (uint32_t v = version; v-- > 0;) {
    Result<std::string> older = Get(page_id, v);
    if (!older.ok()) continue;
    fallback_reads->Increment();
    ReadResult r;
    r.content = std::move(older).value();
    r.version = v;
    r.degraded = true;
    r.reason = "version " + std::to_string(version) +
               " corrupt; served last-good version " + std::to_string(v);
    return r;
  }
  return Status::Corruption("no clean version of page available: " +
                            primary.status().message());
}

Status SnapshotStore::Scrub(IntegrityCounters* counters,
                            bool* journal_damaged) const {
  for (const auto& [page_id, page] : pages_) {
    for (uint32_t v = 0; v < page.versions.size(); ++v) {
      if (Get(page_id, v).ok()) {
        ++counters->records_verified;
      } else {
        ++counters->corrupt_records;
      }
    }
  }
  if (!attached_) return Status::OK();
  // Memory can be clean while the file a restart replays is not: read
  // the journal back too. A failed handle has nothing left to flush.
  if (journal_ != nullptr && !journal_->failed()) {
    STRUCTURA_RETURN_IF_ERROR(journal_->Flush());
  }
  std::ifstream in(journal_path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  FrameReader reader(data);
  while (reader.Next()) {
  }
  const FrameScanReport& report = reader.report();
  uint64_t damage = report.damaged_regions + (report.torn_tail ? 1 : 0);
  counters->corrupt_records += damage;
  counters->torn_tail_bytes += report.torn_tail_bytes;
  if (journal_damaged != nullptr) *journal_damaged = damage > 0;
  return Status::OK();
}

Result<uint32_t> SnapshotStore::LatestVersion(uint64_t page_id) const {
  auto it = pages_.find(page_id);
  if (it == pages_.end() || it->second.versions.empty()) {
    return Status::NotFound("unknown page id");
  }
  return static_cast<uint32_t>(it->second.versions.size() - 1);
}

}  // namespace structura::storage
