#ifndef STRUCTURA_COMMON_CANCELLATION_H_
#define STRUCTURA_COMMON_CANCELLATION_H_

#include <atomic>
#include <memory>

#include "common/deadline.h"
#include "common/status.h"

namespace structura {

/// Shareable view of a cancellation flag. Copies are cheap (one shared
/// pointer) and `cancelled()` is a single relaxed atomic load, so long
/// loops can poll it per iteration. A default-constructed token is never
/// cancelled, letting every interruptible function take one
/// unconditionally.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Owner side of a cancellation flag: the caller keeps the source, hands
/// tokens to the work it dispatches, and flips the flag to request
/// cooperative teardown. Cancellation is sticky — there is no reset; use
/// a fresh source per request.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }
  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The pair every cooperative check-point needs: "has the caller given
/// up, and is there time left?" Long loops call `Check()` every few
/// hundred iterations and propagate the non-OK Status; the defaults
/// (infinite deadline, null token) make an `Interrupt` argument safe to
/// thread through code whose callers don't care.
///
/// Cancellation is reported before deadline expiry: an explicit
/// cancellation is the stronger caller intent.
struct Interrupt {
  Deadline deadline;
  CancellationToken token;

  Status Check() const;
};

}  // namespace structura

#endif  // STRUCTURA_COMMON_CANCELLATION_H_
