#include "storage/diff.h"

#include <algorithm>

#include "common/strings.h"

namespace structura::storage {
namespace {

/// Splits text into lines, each keeping its '\n' terminator (the final
/// line may lack one). Concatenating the pieces reproduces the input
/// byte-for-byte, which makes delta round-trips exact.
std::vector<std::string> SplitLinesKeepEnds(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start + 1));
    start = nl + 1;
  }
  return lines;
}

constexpr size_t kMaxLcsCells = 4u << 20;  // 4M DP cells

}  // namespace

std::string Delta::Serialize() const {
  std::string out;
  for (const DiffOp& op : ops) {
    switch (op.kind) {
      case DiffOp::Kind::kCopy:
        out += StrFormat("C %u\n", op.count);
        break;
      case DiffOp::Kind::kSkip:
        out += StrFormat("S %u\n", op.count);
        break;
      case DiffOp::Kind::kInsert:
        out += StrFormat("I %zu\n", op.lines.size());
        for (const std::string& line : op.lines) {
          out += StrFormat("%zu:", line.size());
          out += line;
          out += '\n';
        }
        break;
    }
  }
  return out;
}

Result<Delta> Delta::Deserialize(const std::string& data) {
  Delta delta;
  size_t pos = 0;
  auto read_line = [&](std::string* line) -> bool {
    if (pos >= data.size()) return false;
    size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) nl = data.size();
    *line = data.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  };
  std::string line;
  while (pos < data.size()) {
    if (!read_line(&line) || line.size() < 3) {
      return Status::Corruption("truncated delta op");
    }
    char kind = line[0];
    int64_t count = 0;
    if (!ParseInt64(line.substr(2), &count) || count < 0) {
      return Status::Corruption("bad delta count");
    }
    DiffOp op;
    op.count = static_cast<uint32_t>(count);
    if (kind == 'C') {
      op.kind = DiffOp::Kind::kCopy;
    } else if (kind == 'S') {
      op.kind = DiffOp::Kind::kSkip;
    } else if (kind == 'I') {
      op.kind = DiffOp::Kind::kInsert;
      for (int64_t i = 0; i < count; ++i) {
        // "<len>:" prefix, then len raw bytes, then '\n'.
        size_t colon = data.find(':', pos);
        if (colon == std::string::npos) {
          return Status::Corruption("bad insert entry");
        }
        int64_t len = 0;
        if (!ParseInt64(data.substr(pos, colon - pos), &len) || len < 0) {
          return Status::Corruption("bad insert length");
        }
        pos = colon + 1;
        if (pos + static_cast<size_t>(len) > data.size()) {
          return Status::Corruption("insert overruns delta");
        }
        op.lines.push_back(data.substr(pos, len));
        pos += len + 1;  // skip trailing separator newline
      }
    } else {
      return Status::Corruption("unknown delta op kind");
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

Delta ComputeDelta(const std::string& base, const std::string& target) {
  std::vector<std::string> a = SplitLinesKeepEnds(base);
  std::vector<std::string> b = SplitLinesKeepEnds(target);

  // Trim common prefix and suffix; they become leading/trailing copies.
  size_t prefix = 0;
  while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) {
    ++prefix;
  }
  size_t suffix = 0;
  while (suffix < a.size() - prefix && suffix < b.size() - prefix &&
         a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix]) {
    ++suffix;
  }
  const size_t am = a.size() - prefix - suffix;
  const size_t bm = b.size() - prefix - suffix;

  Delta delta;
  auto push_copy = [&](uint32_t n) {
    if (n == 0) return;
    if (!delta.ops.empty() && delta.ops.back().kind == DiffOp::Kind::kCopy) {
      delta.ops.back().count += n;
    } else {
      DiffOp op;
      op.kind = DiffOp::Kind::kCopy;
      op.count = n;
      delta.ops.push_back(op);
    }
  };
  auto push_skip = [&](uint32_t n) {
    if (n == 0) return;
    if (!delta.ops.empty() && delta.ops.back().kind == DiffOp::Kind::kSkip) {
      delta.ops.back().count += n;
    } else {
      DiffOp op;
      op.kind = DiffOp::Kind::kSkip;
      op.count = n;
      delta.ops.push_back(op);
    }
  };
  auto push_insert = [&](const std::string& line) {
    if (delta.ops.empty() ||
        delta.ops.back().kind != DiffOp::Kind::kInsert) {
      DiffOp op;
      op.kind = DiffOp::Kind::kInsert;
      delta.ops.push_back(op);
    }
    delta.ops.back().lines.push_back(line);
    delta.ops.back().count = static_cast<uint32_t>(
        delta.ops.back().lines.size());
  };

  push_copy(static_cast<uint32_t>(prefix));

  if (am * bm <= kMaxLcsCells && am > 0 && bm > 0) {
    // LCS DP over the middle section.
    std::vector<std::vector<uint32_t>> dp(am + 1,
                                          std::vector<uint32_t>(bm + 1, 0));
    for (size_t i = am; i-- > 0;) {
      for (size_t j = bm; j-- > 0;) {
        if (a[prefix + i] == b[prefix + j]) {
          dp[i][j] = dp[i + 1][j + 1] + 1;
        } else {
          dp[i][j] = std::max(dp[i + 1][j], dp[i][j + 1]);
        }
      }
    }
    size_t i = 0, j = 0;
    while (i < am && j < bm) {
      if (a[prefix + i] == b[prefix + j]) {
        push_copy(1);
        ++i;
        ++j;
      } else if (dp[i + 1][j] >= dp[i][j + 1]) {
        push_skip(1);
        ++i;
      } else {
        push_insert(b[prefix + j]);
        ++j;
      }
    }
    push_skip(static_cast<uint32_t>(am - i));
    for (; j < bm; ++j) push_insert(b[prefix + j]);
  } else {
    // Middle replacement fallback for very large inputs.
    push_skip(static_cast<uint32_t>(am));
    for (size_t j = 0; j < bm; ++j) push_insert(b[prefix + j]);
  }

  push_copy(static_cast<uint32_t>(suffix));
  return delta;
}

Result<std::string> ApplyDelta(const std::string& base,
                               const Delta& delta) {
  std::vector<std::string> a = SplitLinesKeepEnds(base);
  std::string out;
  size_t i = 0;
  for (const DiffOp& op : delta.ops) {
    switch (op.kind) {
      case DiffOp::Kind::kCopy:
        if (i + op.count > a.size()) {
          return Status::Corruption("delta copy past end of base");
        }
        for (uint32_t k = 0; k < op.count; ++k) out += a[i++];
        break;
      case DiffOp::Kind::kSkip:
        if (i + op.count > a.size()) {
          return Status::Corruption("delta skip past end of base");
        }
        i += op.count;
        break;
      case DiffOp::Kind::kInsert:
        for (const std::string& line : op.lines) out += line;
        break;
    }
  }
  if (i != a.size()) {
    return Status::Corruption("delta did not consume entire base");
  }
  return out;
}

}  // namespace structura::storage
