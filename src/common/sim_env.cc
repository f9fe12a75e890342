#include "common/sim_env.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>

#include "common/failpoint.h"

namespace structura {
namespace {

/// Converts a fired failpoint status into an injected i/o error,
/// keeping the failpoint's own message (site name + hit count) for
/// test assertions.
Status InjectedIo(const Status& fired) {
  return Status::IoError("injected i/o error: " + fired.message());
}

/// Parent directory by the same rule AtomicReplaceFile uses, so the
/// dir a caller SyncDirs is string-identical to the dir the pending-op
/// journal recorded.
std::string Parent(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

std::string NormalizeDir(const std::string& dir) {
  std::string d = dir;
  while (d.size() > 1 && d.back() == '/') d.pop_back();
  return d;
}

std::optional<std::string> ReadRealFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteRealFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
}

std::string JoinDirs(const std::vector<std::string>& dirs) {
  std::string out;
  for (const std::string& d : dirs) {
    if (!out.empty()) out += ", ";
    out += d;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// SimWritableFile
// ---------------------------------------------------------------------

class SimWritableFile : public WritableFile {
 public:
  SimWritableFile(std::string path, SimulatedEnv* env,
                  std::unique_ptr<WritableFile> base)
      : WritableFile(std::move(path), env),
        sim_(env),
        base_(std::move(base)) {}

 protected:
  Status DoAppend(std::string_view data) override {
    return sim_->FileAppend(path(), base_.get(), data);
  }
  Status DoFlush() override { return sim_->FileFlush(base_.get()); }
  Status DoSync() override { return sim_->FileSync(path(), base_.get()); }
  Status DoClose() override { return sim_->FileClose(base_.get()); }

 private:
  SimulatedEnv* sim_;
  std::unique_ptr<WritableFile> base_;
};

// ---------------------------------------------------------------------
// SimulatedEnv: gating and bookkeeping
// ---------------------------------------------------------------------

SimulatedEnv::SimulatedEnv(Env* base)
    : base_(base != nullptr ? base : Env::Default()) {}

Status SimulatedEnv::PowerLossError() const {
  return Status::IoError("simulated power loss (after op " +
                         std::to_string(op_count_) + ", sync " +
                         std::to_string(sync_count_) + ")");
}

Status SimulatedEnv::RefusalLocked(Gate gate, const char* site) const {
  if (gate != Gate::kProceed) return PowerLossError();
  Status fired = MaybeFail(site);
  return fired.ok() ? fired : InjectedIo(fired);
}

SimulatedEnv::Gate SimulatedEnv::EnterOpLocked() {
  if (powered_off_) return Gate::kAlreadyOff;
  ++op_count_;
  if (cut_at_op_ != 0 && op_count_ == cut_at_op_) {
    powered_off_ = true;
    return Gate::kCutNow;
  }
  return Gate::kProceed;
}

SimulatedEnv::Gate SimulatedEnv::EnterSyncLocked() {
  Gate gate = EnterOpLocked();
  if (gate != Gate::kProceed) return gate;
  ++sync_count_;
  if (cut_at_sync_ != 0 && sync_count_ == cut_at_sync_ &&
      cut_flavor_ == CutFlavor::kBeforeSync) {
    powered_off_ = true;
    return Gate::kCutNow;
  }
  return Gate::kProceed;
}

void SimulatedEnv::LeaveSyncLocked() {
  if (cut_at_sync_ != 0 && sync_count_ == cut_at_sync_ &&
      cut_flavor_ == CutFlavor::kAfterSync) {
    powered_off_ = true;
  }
}

void SimulatedEnv::CutAtOp(uint64_t n) {
  std::lock_guard<std::mutex> guard(mu_);
  cut_at_op_ = n;
}

void SimulatedEnv::CutAtSync(uint64_t n, CutFlavor flavor) {
  std::lock_guard<std::mutex> guard(mu_);
  cut_at_sync_ = n;
  cut_flavor_ = flavor;
}

void SimulatedEnv::PowerCut() {
  std::lock_guard<std::mutex> guard(mu_);
  powered_off_ = true;
}

bool SimulatedEnv::PoweredOff() const {
  std::lock_guard<std::mutex> guard(mu_);
  return powered_off_;
}

uint64_t SimulatedEnv::OpCount() const {
  std::lock_guard<std::mutex> guard(mu_);
  return op_count_;
}

uint64_t SimulatedEnv::SyncCount() const {
  std::lock_guard<std::mutex> guard(mu_);
  return sync_count_;
}

std::optional<SimulatedEnv::FileState> SimulatedEnv::TakeStateLocked(
    const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end()) {
    FileState st = std::move(it->second);
    files_.erase(it);
    return st;
  }
  std::optional<std::string> real = ReadRealFile(path);
  if (!real.has_value()) return std::nullopt;
  FileState st;
  st.durable = std::move(*real);
  return st;
}

// ---------------------------------------------------------------------
// Env interface
// ---------------------------------------------------------------------

Result<std::unique_ptr<WritableFile>> SimulatedEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (Status s = RefusalLocked(EnterOpLocked(), "env.open"); !s.ok()) {
      ReportIoFailure(path, s);
      return s;
    }
    auto it = files_.find(path);
    if (it != files_.end()) {
      if (truncate) {
        FileState& st = it->second;
        if (!st.truncate_pending) {
          st.pre_truncate = std::move(st.durable);
          st.truncate_pending = true;
        }
        st.durable.clear();
        st.unsynced.clear();
        st.last_write_interrupted = false;
      }
    } else {
      // First touch: adopt whatever is really on disk as the durable
      // baseline (covers files written before the sim attached and
      // recovery-time out-of-band truncations).
      std::optional<std::string> real = ReadRealFile(path);
      FileState st;
      if (real.has_value()) {
        if (truncate) {
          st.truncate_pending = true;
          st.pre_truncate = std::move(*real);
        } else {
          st.durable = std::move(*real);
        }
      } else {
        journal_.push_back(MetaOp{MetaKind::kCreate, path, "", std::nullopt,
                                  {Parent(path)}});
      }
      files_[path] = std::move(st);
    }
  }
  STRUCTURA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                             base_->NewWritableFile(path, truncate));
  return std::unique_ptr<WritableFile>(
      new SimWritableFile(path, this, std::move(base)));
}

Status SimulatedEnv::RenameFile(const std::string& from,
                                const std::string& to) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (Status s = RefusalLocked(EnterOpLocked(), "env.rename"); !s.ok()) {
      ReportIoFailure(to, s);
      return s;
    }
    std::optional<FileState> from_state = TakeStateLocked(from);
    if (from_state.has_value()) {
      MetaOp op{MetaKind::kRename, to, from, TakeStateLocked(to), {}};
      op.dirs.push_back(Parent(from));
      if (Parent(to) != Parent(from)) op.dirs.push_back(Parent(to));
      files_[to] = std::move(*from_state);
      journal_.push_back(std::move(op));
    }
    // No source on disk either: fall through and let the base env
    // produce the real error.
  }
  return base_->RenameFile(from, to);
}

Status SimulatedEnv::SyncDir(const std::string& dir) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (Status s = RefusalLocked(EnterSyncLocked(), "env.syncdir");
        !s.ok()) {
      ReportIoFailure(dir, s);
      return s;
    }
    const std::string d = NormalizeDir(dir);
    for (MetaOp& op : journal_) {
      op.dirs.erase(std::remove_if(op.dirs.begin(), op.dirs.end(),
                                   [&d](const std::string& od) {
                                     return NormalizeDir(od) == d;
                                   }),
                    op.dirs.end());
    }
    journal_.erase(std::remove_if(journal_.begin(), journal_.end(),
                                  [](const MetaOp& op) {
                                    return op.dirs.empty();
                                  }),
                   journal_.end());
    LeaveSyncLocked();
  }
  // The real directory fsync is skipped: durability lives entirely in
  // the simulated ledger (CrashAndRecover rewrites the real files from
  // it), and a real fsync per fence would dominate sweep wall-time.
  // Only the error surface of a missing directory is preserved.
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    Status s = Status::IoError("open dir " + dir + ": no such directory");
    ReportIoFailure(dir, s);
    return s;
  }
  return Status::OK();
}

Status SimulatedEnv::RemoveFile(const std::string& path) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (EnterOpLocked() != Gate::kProceed) return PowerLossError();
    std::optional<FileState> st = TakeStateLocked(path);
    if (st.has_value()) {
      journal_.push_back(MetaOp{MetaKind::kRemove, path, "", std::move(st),
                                {Parent(path)}});
    }
  }
  return base_->RemoveFile(path);
}

// ---------------------------------------------------------------------
// WritableFile backends
// ---------------------------------------------------------------------

Status SimulatedEnv::FileAppend(const std::string& path, WritableFile* base,
                                std::string_view data) {
  Status torn;
  {
    std::lock_guard<std::mutex> guard(mu_);
    Gate gate = EnterOpLocked();
    if (gate == Gate::kCutNow) {
      // The interrupted write: its payload was handed to the device as
      // the power died, so a crash may keep a torn prefix of it — but
      // never the whole thing acknowledged.
      auto it = files_.find(path);
      if (it != files_.end()) {
        it->second.unsynced.emplace_back(data);
        it->second.last_write_interrupted = true;
      }
      return PowerLossError();
    }
    if (gate == Gate::kAlreadyOff) return PowerLossError();
    if (Status fired = MaybeFail("env.write.enospc"); !fired.ok()) {
      return Status::ResourceExhausted("injected ENOSPC: " +
                                       fired.message());
    }
    if (Status fired = MaybeFail("env.write"); !fired.ok()) {
      return InjectedIo(fired);
    }
    if (Status fired = MaybeFail("env.write.short"); !fired.ok()) {
      // Power cut mid-write: a prefix reaches the file, then the
      // "device" dies. The sticky latch guarantees nothing is ever
      // appended after the torn bytes, so they stay the file's tail —
      // exactly what recovery-time torn-tail truncation expects.
      data = data.substr(0, data.size() / 2);
      torn = Status::IoError("injected power cut (short write): " +
                             fired.message());
    }
    auto it = files_.find(path);
    if (it != files_.end()) it->second.unsynced.emplace_back(data);
  }
  Status s = base->Append(data);
  return torn.ok() ? s : torn;
}

Status SimulatedEnv::FileSync(const std::string& path, WritableFile* base) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    STRUCTURA_RETURN_IF_ERROR(RefusalLocked(EnterSyncLocked(), "env.sync"));
  }
  // Flush, not fsync: bytes must reach the OS (the repo's read paths
  // read the real files), but durability is the ledger's call — the
  // crash rewrites the file to the surviving image regardless. This
  // keeps a many-thousand-run sweep out of the disk's fsync latency.
  Status s = base->Flush();
  std::lock_guard<std::mutex> guard(mu_);
  if (s.ok()) {
    auto it = files_.find(path);
    if (it != files_.end()) {
      FileState& st = it->second;
      for (const std::string& w : st.unsynced) st.durable += w;
      st.unsynced.clear();
      st.truncate_pending = false;
      st.pre_truncate.clear();
      st.last_write_interrupted = false;
    }
  }
  LeaveSyncLocked();
  return s;
}

Status SimulatedEnv::FileFlush(WritableFile* base) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (powered_off_) return PowerLossError();
  }
  return base->Flush();
}

Status SimulatedEnv::FileClose(WritableFile* base) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (powered_off_) return PowerLossError();
  }
  return base->Close();
}

// ---------------------------------------------------------------------
// Crash computation
// ---------------------------------------------------------------------

std::vector<std::string> SimulatedEnv::PendingHazardsLocked() const {
  std::vector<std::string> out;
  for (const MetaOp& op : journal_) {
    std::string fence = " awaiting SyncDir(" + JoinDirs(op.dirs) + ")";
    switch (op.kind) {
      case MetaKind::kCreate:
        out.push_back("create " + op.path + fence + " — vanishes on crash");
        break;
      case MetaKind::kRename:
        out.push_back("rename " + op.from + " -> " + op.path + fence +
                      " — reverts on crash");
        break;
      case MetaKind::kRemove:
        out.push_back("remove " + op.path + fence +
                      " — resurrects on crash");
        break;
    }
  }
  return out;
}

std::vector<std::string> SimulatedEnv::PendingHazards() const {
  std::lock_guard<std::mutex> guard(mu_);
  return PendingHazardsLocked();
}

std::string SimulatedEnv::CrashReport::ToString() const {
  std::ostringstream out;
  out << "crash: " << files_tracked << " file(s); writes "
      << writes_survived << " survived / " << writes_dropped << " dropped / "
      << writes_torn << " torn; " << truncates_reverted
      << " truncate(s) reverted; meta ops " << meta_ops_survived
      << " survived / " << meta_ops_reverted << " reverted; "
      << hazards.size() << " hazard(s) pending";
  return out.str();
}

SimulatedEnv::CrashReport SimulatedEnv::CrashAndRecover(
    const CrashOptions& opts) {
  std::lock_guard<std::mutex> guard(mu_);
  powered_off_ = true;
  CrashReport report;
  report.hazards = PendingHazardsLocked();

  std::mt19937_64 rng(opts.seed ^ 0x9e3779b97f4a7c15ULL);
  auto survives = [&rng](double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };

  // Every real path the crash may rewrite or delete.
  std::set<std::string> touched;
  for (const auto& [path, st] : files_) touched.insert(path);
  for (const MetaOp& op : journal_) {
    touched.insert(op.path);
    if (!op.from.empty()) touched.insert(op.from);
  }

  // Metadata phase. A journaling filesystem commits directory ops in
  // order, so within a directory the surviving unfenced ops form a
  // prefix; directories are independent (cross-file reorder). The
  // non-surviving suffix is undone newest-first so stacked ops
  // (create tmp → rename tmp over file) unwind correctly.
  std::vector<bool> op_survives(journal_.size(), false);
  std::set<std::string> broken_dirs;
  for (size_t i = 0; i < journal_.size(); ++i) {
    const std::string dir = Parent(journal_[i].path);
    if (broken_dirs.count(dir) == 0 &&
        survives(opts.unfenced_meta_survival)) {
      op_survives[i] = true;
    } else {
      broken_dirs.insert(dir);
    }
  }
  for (size_t i = journal_.size(); i-- > 0;) {
    if (op_survives[i]) {
      ++report.meta_ops_survived;
      continue;
    }
    ++report.meta_ops_reverted;
    MetaOp& op = journal_[i];
    switch (op.kind) {
      case MetaKind::kCreate:
        files_.erase(op.path);
        break;
      case MetaKind::kRename: {
        auto it = files_.find(op.path);
        if (it != files_.end()) {
          FileState moved = std::move(it->second);
          files_.erase(it);
          files_[op.from] = std::move(moved);
        }
        if (op.saved.has_value()) {
          files_[op.path] = std::move(*op.saved);
        }
        break;
      }
      case MetaKind::kRemove:
        if (op.saved.has_value()) files_[op.path] = std::move(*op.saved);
        break;
    }
  }

  // Data phase: per file (deterministic order — files_ is an ordered
  // map), resolve the pending truncate, keep a seeded prefix of the
  // unsynced writes, maybe tear the first lost one.
  report.files_tracked = files_.size();
  for (auto& [path, st] : files_) {
    std::string content;
    if (st.truncate_pending && !survives(opts.unsynced_survival)) {
      // The truncation never reached disk; writes issued after it
      // assumed the truncated offsets and are void with it.
      content = st.pre_truncate;
      ++report.truncates_reverted;
      report.writes_dropped += st.unsynced.size();
    } else {
      content = st.durable;
      const size_t n = st.unsynced.size();
      // The interrupted write can never survive whole.
      const size_t limit =
          st.last_write_interrupted && n > 0 ? n - 1 : n;
      size_t k = 0;
      while (k < limit && survives(opts.unsynced_survival)) ++k;
      for (size_t i = 0; i < k; ++i) content += st.unsynced[i];
      report.writes_survived += k;
      report.writes_dropped += n - k;
      if (k < n) {
        const std::string& w = st.unsynced[k];
        const bool interrupted_last =
            st.last_write_interrupted && k == n - 1;
        int64_t tear = -1;
        if (interrupted_last && opts.forced_tear_bytes >= 0) {
          tear = std::min<int64_t>(opts.forced_tear_bytes,
                                   static_cast<int64_t>(w.size()));
        } else if (opts.torn_writes && !w.empty()) {
          tear = std::uniform_int_distribution<int64_t>(
              0, static_cast<int64_t>(w.size()))(rng);
          // Seeded coin: device loses whole sectors, not bytes.
          if (rng() % 2 == 0) tear -= tear % 512;
        }
        if (tear > 0) {
          content.append(w.data(), static_cast<size_t>(tear));
          ++report.writes_torn;
        }
      }
    }
    WriteRealFile(path, content);
    touched.erase(path);
  }
  // Tracked at the crash but absent from the surviving image
  // (unfenced creates, rename sources): gone.
  for (const std::string& path : touched) std::remove(path.c_str());

  files_.clear();
  journal_.clear();
  powered_off_ = false;
  op_count_ = 0;
  sync_count_ = 0;
  cut_at_op_ = 0;
  cut_at_sync_ = 0;
  return report;
}

}  // namespace structura
