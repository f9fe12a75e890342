#include "query/relation.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace structura::query {

const Value Relation::kNull = Value::Null();

int Relation::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status Relation::Append(Row row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu vs %zu columns", row.size(),
                  columns_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

const Value& Relation::At(size_t row, const std::string& column) const {
  int idx = ColumnIndex(column);
  if (idx < 0 || row >= rows_.size()) return kNull;
  return rows_[row][static_cast<size_t>(idx)];
}

std::string Relation::ToString(size_t max_rows) const {
  // Compute column widths.
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  size_t shown = std::min(max_rows, rows_.size());
  std::vector<std::vector<std::string>> rendered(shown);
  for (size_t r = 0; r < shown; ++r) {
    rendered[r].resize(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      rendered[r][c] = rows_[r][c].ToString();
      widths[c] = std::max(widths[c], rendered[r][c].size());
    }
  }
  std::string out;
  for (size_t c = 0; c < columns_.size(); ++c) {
    out += StrFormat("%-*s", static_cast<int>(widths[c] + 2),
                     columns_[c].c_str());
  }
  out += '\n';
  for (size_t c = 0; c < columns_.size(); ++c) {
    out += std::string(widths[c], '-') + "  ";
  }
  out += '\n';
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      out += StrFormat("%-*s", static_cast<int>(widths[c] + 2),
                       rendered[r][c].c_str());
    }
    out += '\n';
  }
  if (rows_.size() > shown) {
    out += StrFormat("... (%zu more rows)\n", rows_.size() - shown);
  }
  return out;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kContains: return "CONTAINS";
    case CompareOp::kLike: return "LIKE";
  }
  return "?";
}

namespace {

/// Numeric view of a value that also accepts numeric-looking strings
/// ("233,209", "31") — extracted values arrive as surface text, and the
/// user layer should still be able to average them.
bool NumericValue(const Value& v, double* out) {
  if (v.ToNumber(out)) return true;
  if (v.type() != rdbms::ValueType::kString) return false;
  std::string cleaned;
  for (char c : v.as_string()) {
    if (c != ',') cleaned += c;
  }
  return ParseDouble(cleaned, out);
}

/// SQL-ish LIKE with '%' wildcards (no '_'); case-sensitive.
bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Dynamic programming over pattern segments split by '%'.
  std::vector<std::string> parts = Split(pattern, '%');
  size_t pos = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    if (part.empty()) continue;
    if (i == 0) {
      if (text.compare(0, part.size(), part) != 0) return false;
      pos = part.size();
    } else {
      size_t found = text.find(part, pos);
      if (found == std::string::npos) return false;
      pos = found + part.size();
    }
  }
  // Without a trailing '%', the last part must anchor at the end.
  if (!pattern.empty() && pattern.back() != '%' && !parts.empty()) {
    const std::string& last = parts.back();
    if (text.size() < last.size() ||
        text.compare(text.size() - last.size(), last.size(), last) != 0) {
      return false;
    }
  }
  return true;
}

/// Interrupt cadence of Filter's and Project's serial loops: before the
/// first row and every kSerialCheckEvery rows after it.
constexpr size_t kSerialCheckEvery = 512;

}  // namespace

Status RunMorsels(const Morsels& ms, const Interrupt& intr,
                  const ExecutorOptions& opts,
                  const std::function<Status(size_t)>& body) {
  if (ms.count == 0) return Status::OK();
  if (!opts.Parallel() || ms.count == 1) {
    for (size_t i = 0; i < ms.count; ++i) {
      STRUCTURA_RETURN_IF_ERROR(intr.Check());
      STRUCTURA_RETURN_IF_ERROR(body(i));
    }
    return Status::OK();
  }
  std::vector<Status> status(ms.count);
  ParallelForOptions pf;
  // Re-queue after every morsel, so work posted to the same pool (the
  // serve path) interleaves with a long scan instead of waiting it out.
  pf.grain = 1;
  pf.max_workers = opts.parallelism;
  // Morsels run on pool workers: they adopt the caller's trace and cost
  // context, so their spans and charges land on the calling request.
  const obs::TraceHandle trace = obs::CurrentTrace();
  obs::CostAccumulator* cost = obs::CurrentCost();
  ParallelFor(*opts.pool, ms.count, pf, [&](size_t i) {
    obs::ScopedTraceContext adopt_trace(trace);
    obs::ScopedCostContext adopt_cost(cost);
    Status s = intr.Check();
    status[i] = s.ok() ? body(i) : s;
  });
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

bool Condition::Eval(const Value& v) const {
  // Numeric coercion: comparing a numeric literal against a string value
  // (or vice versa) compares numerically when the string parses.
  bool literal_is_number =
      literal.type() == rdbms::ValueType::kInt ||
      literal.type() == rdbms::ValueType::kDouble;
  if (literal_is_number && v.type() == rdbms::ValueType::kString) {
    double lhs, rhs;
    if (NumericValue(v, &lhs) && literal.ToNumber(&rhs)) {
      switch (op) {
        case CompareOp::kEq: return lhs == rhs;
        case CompareOp::kNe: return lhs != rhs;
        case CompareOp::kLt: return lhs < rhs;
        case CompareOp::kLe: return lhs <= rhs;
        case CompareOp::kGt: return lhs > rhs;
        case CompareOp::kGe: return lhs >= rhs;
        default: break;  // CONTAINS/LIKE fall through to text semantics
      }
    }
  }
  switch (op) {
    case CompareOp::kEq:
      return v.Compare(literal) == 0;
    case CompareOp::kNe:
      return v.Compare(literal) != 0;
    case CompareOp::kLt:
      return v.Compare(literal) < 0;
    case CompareOp::kLe:
      return v.Compare(literal) <= 0;
    case CompareOp::kGt:
      return v.Compare(literal) > 0;
    case CompareOp::kGe:
      return v.Compare(literal) >= 0;
    case CompareOp::kContains:
      return v.ToString().find(literal.ToString()) != std::string::npos;
    case CompareOp::kLike:
      return LikeMatch(v.ToString(), literal.ToString());
  }
  return false;
}

std::string Condition::ToString() const {
  std::string lit = literal.type() == rdbms::ValueType::kString
                        ? "\"" + literal.ToString() + "\""
                        : literal.ToString();
  return column + " " + CompareOpName(op) + " " + lit;
}

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "COUNT";
    case AggFn::kSum: return "SUM";
    case AggFn::kAvg: return "AVG";
    case AggFn::kMin: return "MIN";
    case AggFn::kMax: return "MAX";
  }
  return "?";
}

Result<Relation> Filter(const Relation& in,
                        const std::vector<Condition>& conditions,
                        const Interrupt& intr, const ExecutorOptions& opts) {
  std::vector<int> cols;
  cols.reserve(conditions.size());
  for (const Condition& c : conditions) {
    int idx = in.ColumnIndex(c.column);
    if (idx < 0) return Status::InvalidArgument("no column " + c.column);
    cols.push_back(idx);
  }
  auto keep = [&](const Row& row) {
    for (size_t i = 0; i < conditions.size(); ++i) {
      if (!conditions[i].Eval(row[static_cast<size_t>(cols[i])])) {
        return false;
      }
    }
    return true;
  };
  Relation out(in.columns());
  if (!opts.Parallel()) {
    const std::vector<Row>& rows = in.rows();
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r % kSerialCheckEvery == 0) {
        STRUCTURA_RETURN_IF_ERROR(intr.Check());
      }
      if (keep(rows[r])) {
        Status s = out.Append(rows[r]);
        if (!s.ok()) return s;
      }
    }
    return out;
  }
  // Parallel: each morsel collects its survivors; concatenating the
  // buffers in morsel order reproduces the serial row order exactly.
  Morsels ms(in.rows().size(), opts.morsel_rows);
  std::vector<std::vector<Row>> parts(ms.count);
  STRUCTURA_RETURN_IF_ERROR(RunMorsels(ms, intr, opts, [&](size_t i) {
    for (size_t r = ms.begin(i); r < ms.end(i); ++r) {
      const Row& row = in.rows()[r];
      if (keep(row)) parts[i].push_back(row);
    }
    return Status::OK();
  }));
  for (std::vector<Row>& part : parts) {
    for (Row& row : part) {
      Status s = out.Append(std::move(row));
      if (!s.ok()) return s;
    }
  }
  return out;
}

Result<Relation> Project(const Relation& in,
                         const std::vector<std::string>& columns,
                         const Interrupt& intr, const ExecutorOptions& opts) {
  std::vector<int> idx;
  for (const std::string& c : columns) {
    int i = in.ColumnIndex(c);
    if (i < 0) return Status::InvalidArgument("no column " + c);
    idx.push_back(i);
  }
  auto project = [&](const Row& row) {
    Row projected;
    projected.reserve(idx.size());
    for (int i : idx) projected.push_back(row[static_cast<size_t>(i)]);
    return projected;
  };
  Relation out(columns);
  if (!opts.Parallel()) {
    const std::vector<Row>& rows = in.rows();
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r % kSerialCheckEvery == 0) {
        STRUCTURA_RETURN_IF_ERROR(intr.Check());
      }
      Status s = out.Append(project(rows[r]));
      if (!s.ok()) return s;
    }
    return out;
  }
  Morsels ms(in.rows().size(), opts.morsel_rows);
  std::vector<std::vector<Row>> parts(ms.count);
  STRUCTURA_RETURN_IF_ERROR(RunMorsels(ms, intr, opts, [&](size_t i) {
    parts[i].reserve(ms.end(i) - ms.begin(i));
    for (size_t r = ms.begin(i); r < ms.end(i); ++r) {
      parts[i].push_back(project(in.rows()[r]));
    }
    return Status::OK();
  }));
  for (std::vector<Row>& part : parts) {
    for (Row& row : part) {
      Status s = out.Append(std::move(row));
      if (!s.ok()) return s;
    }
  }
  return out;
}

Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::string& left_col,
                          const std::string& right_col,
                          const std::string& right_prefix,
                          const Interrupt& intr, const ExecutorOptions& opts) {
  int li = left.ColumnIndex(left_col);
  int ri = right.ColumnIndex(right_col);
  if (li < 0) return Status::InvalidArgument("no column " + left_col);
  if (ri < 0) return Status::InvalidArgument("no column " + right_col);

  std::vector<std::string> out_columns = left.columns();
  for (const std::string& c : right.columns()) {
    bool collision = false;
    for (const std::string& lc : left.columns()) {
      if (lc == c) {
        collision = true;
        break;
      }
    }
    out_columns.push_back(collision ? right_prefix + c : c);
  }

  // Build on the smaller side conceptually; here build on right. The
  // build stays serial (one shared hash table); probing is read-only
  // and morsel-parallel over the left side.
  std::unordered_map<uint64_t, std::vector<size_t>> table;
  for (size_t r = 0; r < right.rows().size(); ++r) {
    table[right.rows()[r][static_cast<size_t>(ri)].Hash()].push_back(r);
  }
  auto probe = [&](const Row& lrow, std::vector<Row>* dst) {
    const Value& key = lrow[static_cast<size_t>(li)];
    auto it = table.find(key.Hash());
    if (it == table.end()) return;
    for (size_t r : it->second) {
      const Row& rrow = right.rows()[r];
      if (rrow[static_cast<size_t>(ri)].Compare(key) != 0) continue;
      Row joined = lrow;
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      dst->push_back(std::move(joined));
    }
  };
  Relation out(out_columns);
  Morsels ms(left.rows().size(), opts.morsel_rows);
  std::vector<std::vector<Row>> parts(ms.count);
  STRUCTURA_RETURN_IF_ERROR(RunMorsels(ms, intr, opts, [&](size_t i) {
    for (size_t r = ms.begin(i); r < ms.end(i); ++r) {
      probe(left.rows()[r], &parts[i]);
    }
    return Status::OK();
  }));
  for (std::vector<Row>& part : parts) {
    for (Row& row : part) {
      Status s = out.Append(std::move(row));
      if (!s.ok()) return s;
    }
  }
  return out;
}

namespace {

struct AggAccum {
  double sum = 0;
  size_t count = 0;
  Value min = Value::Null();
  Value max = Value::Null();
  Row group_values;
};

/// Group key (concatenated value renderings) -> one accumulator per
/// AggSpec. std::map keeps output order deterministic.
using GroupMap = std::map<std::string, std::vector<AggAccum>>;

/// Accumulates rows [begin, end) into a fresh partial-state map — the
/// per-morsel half of the aggregation. This is the ONLY code that folds
/// individual rows, on both the serial and parallel paths.
GroupMap AggregatePartial(const Relation& in, size_t begin, size_t end,
                          const std::vector<int>& group_idx,
                          const std::vector<int>& agg_idx, size_t num_aggs) {
  GroupMap partial;
  for (size_t r = begin; r < end; ++r) {
    const Row& row = in.rows()[r];
    std::string key;
    for (int gi : group_idx) {
      key += row[static_cast<size_t>(gi)].ToString();
      key += '\x1f';
    }
    auto [it, inserted] = partial.try_emplace(key);
    if (inserted) {
      it->second.resize(num_aggs);
      Row gv;
      for (int gi : group_idx) gv.push_back(row[static_cast<size_t>(gi)]);
      for (AggAccum& a : it->second) a.group_values = gv;
      if (it->second.empty()) {
        // No aggregates requested: still track group values.
        AggAccum a;
        a.group_values = std::move(gv);
        it->second.push_back(std::move(a));
      }
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      AggAccum& acc = it->second[a];
      if (agg_idx[a] < 0) {
        ++acc.count;  // COUNT(*)
        continue;
      }
      const Value& v = row[static_cast<size_t>(agg_idx[a])];
      if (v.is_null()) continue;
      ++acc.count;
      double num;
      if (NumericValue(v, &num)) acc.sum += num;
      if (acc.min.is_null() || v.Compare(acc.min) < 0) acc.min = v;
      if (acc.max.is_null() || v.Compare(acc.max) > 0) acc.max = v;
    }
  }
  return partial;
}

/// Merges `from` (a later morsel) into `into`. Ties on min/max keep the
/// earlier morsel's value, matching the strict-< / strict-> updates of
/// the row fold; sums add later partials on the right, so the float
/// reduction tree is fixed by the morsel boundaries alone.
void MergeAggPartial(GroupMap* into, GroupMap&& from) {
  for (auto& [key, accs] : from) {
    auto [it, inserted] = into->try_emplace(key);
    if (inserted) {
      it->second = std::move(accs);
      continue;
    }
    for (size_t a = 0; a < accs.size(); ++a) {
      AggAccum& dst = it->second[a];
      AggAccum& src = accs[a];
      dst.sum += src.sum;
      dst.count += src.count;
      if (!src.min.is_null() &&
          (dst.min.is_null() || src.min.Compare(dst.min) < 0)) {
        dst.min = std::move(src.min);
      }
      if (!src.max.is_null() &&
          (dst.max.is_null() || src.max.Compare(dst.max) > 0)) {
        dst.max = std::move(src.max);
      }
    }
  }
}

}  // namespace

Result<Relation> Aggregate(const Relation& in,
                           const std::vector<std::string>& group_columns,
                           const std::vector<AggSpec>& aggs,
                           const Interrupt& intr, const ExecutorOptions& opts) {
  std::vector<int> group_idx;
  for (const std::string& c : group_columns) {
    int i = in.ColumnIndex(c);
    if (i < 0) return Status::InvalidArgument("no column " + c);
    group_idx.push_back(i);
  }
  std::vector<int> agg_idx;
  for (const AggSpec& a : aggs) {
    if (a.fn == AggFn::kCount && a.column.empty()) {
      agg_idx.push_back(-1);
      continue;
    }
    int i = in.ColumnIndex(a.column);
    if (i < 0) return Status::InvalidArgument("no column " + a.column);
    agg_idx.push_back(i);
  }

  // Per-morsel partials merged in morsel order — the same computation
  // tree whether the morsels ran serially or on the pool, which is what
  // makes parallel float sums byte-identical to serial ones.
  Morsels ms(in.rows().size(), opts.morsel_rows);
  std::vector<GroupMap> parts(ms.count);
  STRUCTURA_RETURN_IF_ERROR(RunMorsels(ms, intr, opts, [&](size_t i) {
    parts[i] = AggregatePartial(in, ms.begin(i), ms.end(i), group_idx,
                                agg_idx, aggs.size());
    return Status::OK();
  }));
  GroupMap per_agg;
  for (GroupMap& part : parts) MergeAggPartial(&per_agg, std::move(part));

  std::vector<std::string> out_columns = group_columns;
  for (const AggSpec& a : aggs) {
    out_columns.push_back(
        a.output_name.empty()
            ? StrFormat("%s(%s)", AggFnName(a.fn),
                        a.column.empty() ? "*" : a.column.c_str())
            : a.output_name);
  }
  Relation out(out_columns);
  for (const auto& [key, accs] : per_agg) {
    Row row = accs.empty() ? Row{} : accs.front().group_values;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggAccum& acc = accs[a];
      switch (aggs[a].fn) {
        case AggFn::kCount:
          row.push_back(Value::Int(static_cast<int64_t>(acc.count)));
          break;
        case AggFn::kSum:
          row.push_back(Value::Double(acc.sum));
          break;
        case AggFn::kAvg:
          row.push_back(acc.count == 0
                            ? Value::Null()
                            : Value::Double(acc.sum /
                                            static_cast<double>(acc.count)));
          break;
        case AggFn::kMin:
          row.push_back(acc.min);
          break;
        case AggFn::kMax:
          row.push_back(acc.max);
          break;
      }
    }
    Status s = out.Append(std::move(row));
    if (!s.ok()) return s;
  }
  return out;
}

Result<Relation> OrderBy(const Relation& in, const std::string& column,
                         bool descending) {
  int idx = in.ColumnIndex(column);
  if (idx < 0) return Status::InvalidArgument("no column " + column);
  // Numeric coercion, mirroring Condition::Eval: numeric-looking strings
  // ("989,646") sort as numbers, so extracted values order sensibly.
  auto compare = [](const Value& x, const Value& y) {
    double xn, yn;
    if (NumericValue(x, &xn) && NumericValue(y, &yn)) {
      if (xn < yn) return -1;
      if (xn > yn) return 1;
      return 0;
    }
    return x.Compare(y);
  };
  std::vector<size_t> order(in.rows().size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int c = compare(in.rows()[a][static_cast<size_t>(idx)],
                    in.rows()[b][static_cast<size_t>(idx)]);
    return descending ? c > 0 : c < 0;
  });
  Relation out(in.columns());
  for (size_t i : order) {
    Status s = out.Append(in.rows()[i]);
    if (!s.ok()) return s;
  }
  return out;
}

Relation Limit(const Relation& in, size_t n) {
  Relation out(in.columns());
  for (size_t i = 0; i < std::min(n, in.rows().size()); ++i) {
    out.Append(in.rows()[i]);
  }
  return out;
}

Relation Distinct(const Relation& in) {
  std::set<std::string> seen;
  Relation out(in.columns());
  for (const Row& row : in.rows()) {
    std::string key;
    for (const Value& v : row) {
      v.AppendTo(&key);
    }
    if (seen.insert(key).second) out.Append(row);
  }
  return out;
}

}  // namespace structura::query
