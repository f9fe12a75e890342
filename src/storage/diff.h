#ifndef STRUCTURA_STORAGE_DIFF_H_
#define STRUCTURA_STORAGE_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace structura::storage {

/// One edit-script operation over lines of the base text.
struct DiffOp {
  enum class Kind : uint8_t {
    kCopy,    // copy `count` lines from the base
    kSkip,    // skip `count` base lines (deletion)
    kInsert,  // insert `lines`
  };
  Kind kind = Kind::kCopy;
  uint32_t count = 0;
  std::vector<std::string> lines;  // only for kInsert
};

/// A line-based delta from `base` to `target`.
struct Delta {
  std::vector<DiffOp> ops;

  std::string Serialize() const;
  static Result<Delta> Deserialize(const std::string& data);
};

/// Computes a line-based delta using LCS when the inputs are small enough,
/// falling back to common prefix/suffix trimming for very large inputs.
Delta ComputeDelta(const std::string& base, const std::string& target);

/// Applies `delta` to `base`; fails with kCorruption when the script does
/// not fit the base (wrong base version).
Result<std::string> ApplyDelta(const std::string& base, const Delta& delta);

}  // namespace structura::storage

#endif  // STRUCTURA_STORAGE_DIFF_H_
