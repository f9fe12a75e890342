#ifndef STRUCTURA_LANG_EXECUTOR_H_
#define STRUCTURA_LANG_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "hi/task.h"
#include "ie/extractor.h"
#include "ii/matcher.h"
#include "rdbms/database.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "lang/plan.h"
#include "query/relation.h"
#include "query/result_cache.h"
#include "text/document.h"

namespace structura::lang {

/// Per-context extractor fault ledger (see
/// ExecutionContext::extractor_error_budget). Its one lock is taken by
/// the EXTRACT workers, and by the System's StatusReport,
/// QuarantinedExtractors and `ie` health signal. A copy holds the
/// source's contents under a lock of its own, so every ExecutionContext
/// copy (e.g. one per request) keeps its own quarantine state.
class ExtractorFaultLedger {
 public:
  struct Contents {
    std::map<std::string, size_t> faults;  // extractor -> faults so far
    std::set<std::string> quarantined;
  };

  ExtractorFaultLedger() = default;
  ExtractorFaultLedger(const ExtractorFaultLedger& other)
      : contents_(other.Read()) {}

  bool IsQuarantined(const std::string& extractor) const {
    std::lock_guard<std::mutex> lock(mu_);
    return contents_.quarantined.count(extractor) > 0;
  }
  /// Charges one fault to `extractor`, quarantining it once its faults
  /// reach `budget`.
  void RecordFault(const std::string& extractor, size_t budget) {
    std::lock_guard<std::mutex> lock(mu_);
    if (++contents_.faults[extractor] >= budget) {
      contents_.quarantined.insert(extractor);
    }
  }
  Contents Read() const {
    std::lock_guard<std::mutex> lock(mu_);
    return contents_;
  }

 private:
  mutable std::mutex mu_;
  Contents contents_;
};

/// Everything a plan needs to run: the corpus, operator registries, the
/// view namespace, and an optional human-review channel.
struct ExecutionContext {
  const text::DocumentCollection* docs = nullptr;

  /// Extractor registry: SDL name -> operator (non-owning).
  std::map<std::string, const ie::Extractor*> extractors;
  /// SDL name -> LIKE pattern of attributes the extractor can produce;
  /// feeds the optimizer's pruning rule.
  std::map<std::string, std::string> extractor_attributes;

  /// Matcher registry for RESOLVE ENTITIES.
  std::map<std::string, const ii::SimilarityMatcher*> matchers;

  /// View namespace (materialized results of CREATE VIEW statements).
  std::map<std::string, query::Relation> views;

  /// Stored EXTRACT definitions, keyed by view name; REFRESH VIEW re-runs
  /// them over `dirty_docs` only.
  std::map<std::string, ExtractAst> view_definitions;

  /// Documents changed since the last crawl ingest (maintained by the
  /// System facade). REFRESH VIEW touches only these.
  std::set<text::DocId> dirty_docs;

  /// Final structured store for MATERIALIZE VIEW ... INTO (optional;
  /// non-owning).
  rdbms::Database* db = nullptr;

  /// Human-review channel for WITH HUMAN REVIEW: gets a yes/no task,
  /// returns true for "yes". Unset = reviews silently approve.
  std::function<bool(const hi::Task&)> review_fn;

  /// Morsel-execution knobs for scan-shaped operators and the EXTRACT
  /// doc loop. Defaults select the serial path; the System facade wires
  /// in its query pool when Options::query_parallelism > 1.
  query::ExecutorOptions exec;

  /// Cooperative interrupt polled between morsels and operators. The
  /// default never fires; callers that want deadline/cancellation
  /// semantics for a run set it beforehand.
  Interrupt interrupt;

  /// Epoch-versioned result cache (non-owning; null = caching off).
  /// SELECT results over pure relational plans are keyed by canonical
  /// plan fingerprint and validated against the epoch snapshot of the
  /// views they read; view (re)creation bumps "view:<name>" here.
  query::QueryResultCache* cache = nullptr;

  /// Gate consulted before any cache lookup or insert; unset = always
  /// allowed. The System wires degraded-mode policy (read-only
  /// brownout, critical health) and per-request no-cache bypass here.
  std::function<bool()> cache_gate;

  /// Execution counters (reset by the caller as needed).
  size_t docs_scanned = 0;
  size_t extractor_runs = 0;      // (doc, extractor) invocations
  size_t review_questions = 0;

  /// Graceful degradation (generation is incremental and best-effort):
  /// a (doc, extractor) run whose `ie.extract` failpoint fires counts as
  /// a fault against that operator; once an operator's faults reach
  /// `extractor_error_budget` it is quarantined — skipped for the rest
  /// of the session while the program continues with the remaining
  /// extractors. Counters survive across statements so the System can
  /// report the degradation.
  size_t extractor_error_budget = 3;
  ExtractorFaultLedger extractor_faults;

  OptimizerCatalog Catalog() const {
    OptimizerCatalog c;
    c.extractor_attributes = extractor_attributes;
    return c;
  }
};

/// Executes a logical plan, producing a relation. Extraction relations
/// have columns: doc, title, category, subject, attribute, value,
/// confidence, extractor.
Result<query::Relation> ExecutePlan(const PlanNode& plan,
                                    ExecutionContext* ctx);

/// Cost estimate for a plan: documents the scan will touch and the total
/// extractor work (sum of per-doc cost units across extractors). Used by
/// EXPLAIN to show what the optimizer bought.
struct PlanCost {
  double docs_scanned = 0;
  double extractor_cost = 0;  // cost units (Extractor::CostPerDoc sums)

  std::string ToString() const;
};
PlanCost EstimatePlanCost(const PlanNode& plan,
                          const ExecutionContext& ctx);

/// The statement-level driver: parses, (optionally) optimizes, executes,
/// and maintains the view namespace across statements.
class Interpreter {
 public:
  struct Options {
    bool optimize = true;
  };

  struct StatementResult {
    std::string text;            // EXPLAIN output or a short status line
    query::Relation relation;    // SELECT result (empty otherwise)
    bool has_relation = false;
  };

  Interpreter(ExecutionContext* ctx, Options options)
      : ctx_(ctx), options_(options) {}
  explicit Interpreter(ExecutionContext* ctx)
      : Interpreter(ctx, Options()) {}

  /// Runs a whole program; returns one result per statement.
  Result<std::vector<StatementResult>> Run(const std::string& program);

  /// Runs a program and returns the last statement's relation (the usual
  /// shape: several CREATE VIEWs then one SELECT).
  Result<query::Relation> Query(const std::string& program);

 private:
  Result<StatementResult> RunStatement(const Statement& stmt);
  Result<StatementResult> RunRefresh(const RefreshAst& refresh);
  Result<StatementResult> RunMaterialize(const MaterializeAst& mat);

  ExecutionContext* ctx_;
  Options options_;
};

}  // namespace structura::lang

#endif  // STRUCTURA_LANG_EXECUTOR_H_
