#ifndef STRUCTURA_QUERY_RELATION_H_
#define STRUCTURA_QUERY_RELATION_H_

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "rdbms/schema.h"
#include "rdbms/value.h"

namespace structura {
class ThreadPool;
}

namespace structura::query {

using rdbms::Row;
using rdbms::Value;

/// An in-memory relation: named columns over value rows. The working
/// currency of the user layer and the SDL executor (rdbms::Table is the
/// durable final store; Relation is the pipe between operators).
class Relation {
 public:
  Relation() = default;
  explicit Relation(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  int ColumnIndex(const std::string& name) const;

  /// Appends a row (arity must match).
  Status Append(Row row);

  /// Hands the rows over without copying them; the relation keeps its
  /// columns and is left with no rows.
  std::vector<Row> TakeRows() && { return std::exchange(rows_, {}); }

  /// Value accessor by column name; Null for unknown columns.
  const Value& At(size_t row, const std::string& column) const;

  /// Pretty-printed table (for examples and the CLI surface).
  std::string ToString(size_t max_rows = 20) const;

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  static const Value kNull;
};

/// Comparison operator of a predicate condition.
enum class CompareOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kContains,  // substring on the string rendering
  kLike,      // SQL-ish pattern with '%' wildcards
};

const char* CompareOpName(CompareOp op);

/// One `column <op> literal` condition.
struct Condition {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;

  bool Eval(const Value& v) const;
  std::string ToString() const;
};

/// Aggregate functions supported by Aggregate().
enum class AggFn : uint8_t { kCount, kSum, kAvg, kMin, kMax };

const char* AggFnName(AggFn fn);

struct AggSpec {
  AggFn fn = AggFn::kCount;
  std::string column;      // ignored for COUNT(*) (empty)
  std::string output_name; // result column name
};

// --- Execution options -------------------------------------------------

/// Morsel-execution knobs shared by every scan-shaped operator
/// (filter/project/join-probe/aggregate) and the EXTRACT doc loop.
///
/// Determinism contract: results are a pure function of the input and
/// of `morsel_rows` — never of `parallelism`. Operators that merely
/// collect rows concatenate per-morsel buffers in morsel order, which
/// is trivially the serial row order; Aggregate computes per-morsel
/// partial states and merges them in morsel order on BOTH paths, so the
/// floating-point reduction tree (the only order-sensitive part) is
/// fixed by `morsel_rows` alone and parallel output is byte-identical
/// to serial output.
struct ExecutorOptions {
  /// Worker fan-out. <= 1 (or a null pool) selects the serial path.
  size_t parallelism = 1;
  /// Rows per morsel. Part of the result contract for float aggregates
  /// (see above) — serial and parallel runs being compared must use the
  /// same value.
  size_t morsel_rows = 1024;
  /// Pool morsels are dispatched on when parallelism > 1. Not owned.
  ThreadPool* pool = nullptr;

  bool Parallel() const { return parallelism > 1 && pool != nullptr; }
};

/// Fixed-size partitioning of [0, n) into morsels.
struct Morsels {
  size_t n = 0;
  size_t size = 1;
  size_t count = 0;
  Morsels(size_t items, size_t morsel_size)
      : n(items),
        size(std::max<size_t>(1, morsel_size)),
        count(items == 0 ? 0 : (items + size - 1) / size) {}
  size_t begin(size_t i) const { return i * size; }
  size_t end(size_t i) const { return std::min(n, (i + 1) * size); }
};

/// The one morsel dispatcher every parallel operator uses: runs
/// `body(morsel)` for every morsel — sequentially, or dispatched over
/// opts.pool when the options select the parallel path, with each
/// worker adopting the caller's trace and cost context. `intr` is
/// polled before each morsel on both paths. The first failure by morsel
/// index wins, so the reported status does not depend on scheduling.
Status RunMorsels(const Morsels& ms, const Interrupt& intr,
                  const ExecutorOptions& opts,
                  const std::function<Status(size_t)>& body);

// --- Operators (each returns a new Relation) ---------------------------

/// Rows satisfying every condition (conjunction). The scan polls `intr`
/// before the first row and every few hundred rows after it (serial), or
/// before each morsel (parallel), and returns kDeadlineExceeded /
/// kCancelled instead of finishing; the default interrupt never fires.
Result<Relation> Filter(const Relation& in,
                        const std::vector<Condition>& conditions,
                        const Interrupt& intr = Interrupt{},
                        const ExecutorOptions& opts = {});

/// Keeps `columns`, in the given order.
Result<Relation> Project(const Relation& in,
                         const std::vector<std::string>& columns,
                         const Interrupt& intr = Interrupt{},
                         const ExecutorOptions& opts = {});

/// Hash equi-join on left_col == right_col. Right columns are prefixed
/// with `right_prefix` when names collide. The build side stays serial
/// (it mutates one hash table); the probe side is morsel-parallel.
Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::string& left_col,
                          const std::string& right_col,
                          const std::string& right_prefix = "r_",
                          const Interrupt& intr = Interrupt{},
                          const ExecutorOptions& opts = {});

/// Group by `group_columns` (may be empty: single global group) and
/// compute aggregates. Null values are skipped by SUM/AVG/MIN/MAX and
/// counted only by COUNT(column) when non-null. Both serial and
/// parallel paths accumulate per-morsel partials merged in morsel
/// order — see ExecutorOptions for the determinism contract.
Result<Relation> Aggregate(const Relation& in,
                           const std::vector<std::string>& group_columns,
                           const std::vector<AggSpec>& aggs,
                           const Interrupt& intr = Interrupt{},
                           const ExecutorOptions& opts = {});

/// Stable sort by column (ascending unless `descending`).
Result<Relation> OrderBy(const Relation& in, const std::string& column,
                         bool descending = false);

/// First `n` rows.
Relation Limit(const Relation& in, size_t n);

/// Distinct rows (exact match on all columns).
Relation Distinct(const Relation& in);

}  // namespace structura::query

#endif  // STRUCTURA_QUERY_RELATION_H_
