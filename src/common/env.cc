#include "common/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace structura {
namespace {

/// Maps an errno from a failed storage syscall to a Status: a full disk
/// is kResourceExhausted (retryable once space is freed), everything
/// else is kIoError.
Status ErrnoStatus(const char* what, const std::string& path, int err) {
  std::string msg = std::string(what) + " " + path + ": " +
                    std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) {
    return Status::ResourceExhausted(std::move(msg));
  }
  return Status::IoError(std::move(msg));
}

}  // namespace

// ---------------------------------------------------------------------
// WritableFile sticky wrapper
// ---------------------------------------------------------------------

template <typename Op>
Status WritableFile::Run(Op op) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (latched_) return sticky_;
  Status s = op();
  if (!s.ok()) {
    // First failure: latch it. Never retry past a failed write/sync —
    // the kernel may have dropped the dirty pages, so a later "OK"
    // would be a lie (fsyncgate).
    latched_ = true;
    sticky_ = s;
    if (env_ != nullptr) env_->ReportIoFailure(path_, s);
  }
  return s;
}

Status WritableFile::Append(std::string_view data) {
  return Run([&] { return DoAppend(data); });
}

Status WritableFile::Flush() {
  return Run([&] { return DoFlush(); });
}

Status WritableFile::Sync() {
  return Run([&] { return DoSync(); });
}

Status WritableFile::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (latched_) return sticky_;
  Status s = DoFlush();
  if (s.ok()) s = DoClose();
  // Closed files are failed files as far as callers go: later ops get
  // an error instead of writing through a dead descriptor.
  latched_ = true;
  if (!s.ok()) {
    sticky_ = s;
    if (env_ != nullptr) env_->ReportIoFailure(path_, s);
    return s;
  }
  sticky_ = Status::IoError("file closed: " + path_);
  return Status::OK();
}

bool WritableFile::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return latched_;
}

Status WritableFile::sticky_status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sticky_;
}

// ---------------------------------------------------------------------
// PosixEnv
// ---------------------------------------------------------------------

namespace {

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, Env* env, int fd)
      : WritableFile(std::move(path), env), fd_(fd) {}

  ~PosixWritableFile() override {
    // Best-effort descriptor cleanup; Close() is the checked path.
    if (fd_ >= 0) ::close(fd_);
  }

 protected:
  Status DoAppend(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path(), errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status DoFlush() override {
    return Status::OK();  // unbuffered: bytes are already with the OS
  }

  Status DoSync() override {
#if defined(__linux__)
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync", path(), errno);
#else
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path(), errno);
#endif
    return Status::OK();
  }

  Status DoClose() override {
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path(), errno);
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
    flags |= truncate ? O_TRUNC : O_APPEND;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      Status s = ErrnoStatus("open", path, errno);
      ReportIoFailure(path, s);
      return s;
    }
    return std::unique_ptr<WritableFile>(
        new PosixWritableFile(path, this, fd));
  }

  Status RenameFile(const std::string& from,
                    const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      Status s = ErrnoStatus("rename", from + " -> " + to, errno);
      ReportIoFailure(to, s);
      return s;
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      Status s = ErrnoStatus("open dir", dir, errno);
      ReportIoFailure(dir, s);
      return s;
    }
    int rc = ::fsync(fd);
    int err = errno;
    ::close(fd);
    // Some filesystems refuse fsync on a directory fd; that is the
    // platform's best effort, not a storage failure.
    if (rc != 0 && err != EINVAL && err != ENOTSUP) {
      Status s = ErrnoStatus("fsync dir", dir, err);
      ReportIoFailure(dir, s);
      return s;
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound("no file: " + path);
      return ErrnoStatus("unlink", path, errno);
    }
    return Status::OK();
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();  // leaked: process lifetime
  return env;
}

void Env::ReportIoFailure(const std::string& path, const Status& status) {
  io_failures_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  last_io_error_ = path + ": " + status.ToString();
}

std::string Env::last_io_error() const {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  return last_io_error_;
}

Status Env::ProbeWrite(const std::string& dir) {
  const std::string probe_path = dir + "/.disk.probe";
  STRUCTURA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             NewWritableFile(probe_path, /*truncate=*/true));
  STRUCTURA_RETURN_IF_ERROR(file->Append("structura disk probe\n"));
  STRUCTURA_RETURN_IF_ERROR(file->Sync());
  STRUCTURA_RETURN_IF_ERROR(file->Close());
  // Cleanup is best-effort: a probe file left behind is harmless.
  RemoveFile(probe_path);
  return Status::OK();
}

// ---------------------------------------------------------------------
// AtomicReplaceFile
// ---------------------------------------------------------------------

Status AtomicReplaceFile(Env* env, const std::string& path,
                         std::string_view contents,
                         const char* pre_rename_failpoint) {
  const std::string tmp = path + ".tmp";
  STRUCTURA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             env->NewWritableFile(tmp, /*truncate=*/true));
  STRUCTURA_RETURN_IF_ERROR(file->Append(contents));
  if (pre_rename_failpoint != nullptr) {
    // A crash here leaves a complete-looking tmp file; because the
    // rename below never ran, the old file is still authoritative.
    STRUCTURA_FAILPOINT(pre_rename_failpoint);
  }
  STRUCTURA_RETURN_IF_ERROR(file->Sync());
  STRUCTURA_RETURN_IF_ERROR(file->Close());
  STRUCTURA_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  // The rename is durable only once the parent directory is synced.
  size_t slash = path.rfind('/');
  std::string parent = slash == std::string::npos ? std::string(".")
                                                  : path.substr(0, slash);
  return env->SyncDir(parent);
}

}  // namespace structura
