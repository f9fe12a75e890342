#include "lang/executor.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/strings.h"
#include "ii/resolution.h"
#include "ii/union_find.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace structura::lang {
namespace {

/// Documents per morsel in the EXTRACT loop, where per-item cost is an
/// extractor call rather than a row visit.
constexpr size_t kMorselDocs = 8;

/// Span name per plan node type (string literals: process-lifetime, as
/// the trace ring requires). Recursive ExecutePlan() calls nest, so a
/// trace of one query renders as its plan tree.
const char* PlanSpanName(PlanNode::Type t) {
  switch (t) {
    case PlanNode::Type::kScanDocs: return "query.eval.scan_docs";
    case PlanNode::Type::kExtract: return "query.eval.extract";
    case PlanNode::Type::kViewRef: return "query.eval.view_ref";
    case PlanNode::Type::kFilter: return "query.eval.filter";
    case PlanNode::Type::kProject: return "query.eval.project";
    case PlanNode::Type::kJoin: return "query.eval.join";
    case PlanNode::Type::kDistinct: return "query.eval.distinct";
    case PlanNode::Type::kAggregate: return "query.eval.aggregate";
    case PlanNode::Type::kResolve: return "query.eval.resolve";
    case PlanNode::Type::kOrderBy: return "query.eval.order_by";
    case PlanNode::Type::kLimit: return "query.eval.limit";
  }
  return "query.eval.unknown";
}

obs::Counter* PlanNodesCounter() {
  static obs::Counter* nodes =
      obs::MetricsRegistry::Default().GetCounter("query.eval.nodes");
  return nodes;
}

const std::vector<std::string>& ExtractionColumns() {
  static const std::vector<std::string>& cols =
      *new std::vector<std::string>{"doc",   "title",      "category",
                                    "subject", "attribute", "value",
                                    "confidence", "extractor"};
  return cols;
}

Result<query::Relation> ExecuteExtract(const PlanNode& plan,
                                       ExecutionContext* ctx) {
  if (ctx->docs == nullptr) {
    return Status::FailedPrecondition("no document collection bound");
  }
  if (plan.children.size() != 1 ||
      plan.children[0]->type != PlanNode::Type::kScanDocs) {
    return Status::Internal("Extract expects a ScanDocs child");
  }
  const std::string& category = plan.children[0]->category_filter;

  std::vector<const ie::Extractor*> ops;
  for (const std::string& name : plan.extractors) {
    auto it = ctx->extractors.find(name);
    if (it == ctx->extractors.end()) {
      return Status::NotFound("unknown extractor: " + name);
    }
    ops.push_back(it->second);
  }

  std::set<text::DocId> restriction(plan.children[0]->doc_restriction.begin(),
                                    plan.children[0]->doc_restriction.end());
  // Select the docs to extract from up front (cheap, serial); the
  // expensive extractor work then runs a morsel of documents at a time
  // through RunMorsels (inline at parallelism 1, on the pool otherwise),
  // with per-morsel row buffers merged in doc order, so output order
  // does not depend on parallelism.
  std::vector<size_t> selected;
  for (size_t d = 0; d < ctx->docs->docs.size(); ++d) {
    const text::Document& doc = ctx->docs->docs[d];
    if (!restriction.empty() && restriction.count(doc.id) == 0) continue;
    if (!category.empty()) {
      bool match = false;
      for (const std::string& c : doc.categories) {
        if (c == category) match = true;
      }
      if (!match) continue;
    }
    selected.push_back(d);
  }

  auto extract_doc = [&](const text::Document& doc,
                         std::vector<query::Row>* rows, size_t* runs) {
    std::string doc_category =
        doc.categories.empty() ? "" : doc.categories.front();
    for (size_t op_index = 0; op_index < ops.size(); ++op_index) {
      const std::string& op_name = plan.extractors[op_index];
      if (ctx->extractor_faults.IsQuarantined(op_name)) continue;
      Status injected = MaybeFail("ie.extract");
      if (injected.ok()) injected = MaybeFail("ie.extract." + op_name);
      if (!injected.ok()) {
        // A failing extractor degrades the answer, never the program:
        // charge the fault, quarantine past the budget, move on.
        static obs::Counter* fault_counter =
            obs::MetricsRegistry::Default().GetCounter("ie.extract.faults");
        fault_counter->Increment();
        ctx->extractor_faults.RecordFault(op_name,
                                          ctx->extractor_error_budget);
        continue;
      }
      const ie::Extractor* op = ops[op_index];
      ++*runs;
      obs::ChargeCost(obs::CostDim::kExtractorCalls, 1);
      for (const ie::ExtractedFact& fact : op->Extract(doc)) {
        if (plan.min_confidence >= 0 &&
            fact.confidence < plan.min_confidence) {
          continue;
        }
        query::Row row;
        row.push_back(query::Value::Int(static_cast<int64_t>(fact.doc)));
        row.push_back(query::Value::Str(doc.title));
        row.push_back(query::Value::Str(doc_category));
        row.push_back(query::Value::Str(fact.subject));
        row.push_back(query::Value::Str(fact.attribute));
        row.push_back(query::Value::Str(fact.value));
        row.push_back(query::Value::Double(fact.confidence));
        row.push_back(query::Value::Str(fact.extractor));
        rows->push_back(std::move(row));
      }
    }
  };

  query::Morsels ms(selected.size(), kMorselDocs);
  std::vector<std::vector<query::Row>> parts(ms.count);
  std::vector<size_t> runs(ms.count, 0);
  STRUCTURA_RETURN_IF_ERROR(query::RunMorsels(
      ms, ctx->interrupt, ctx->exec, [&](size_t m) {
        for (size_t i = ms.begin(m); i < ms.end(m); ++i) {
          extract_doc(ctx->docs->docs[selected[i]], &parts[m], &runs[m]);
        }
        return Status::OK();
      }));
  ctx->docs_scanned += selected.size();
  query::Relation out(ExtractionColumns());
  for (size_t m = 0; m < ms.count; ++m) {
    ctx->extractor_runs += runs[m];
    for (query::Row& row : parts[m]) {
      STRUCTURA_RETURN_IF_ERROR(out.Append(std::move(row)));
    }
  }
  return out;
}

Result<query::Relation> ExecuteResolve(const PlanNode& plan,
                                       ExecutionContext* ctx,
                                       const query::Relation& input) {
  const ResolveAst& spec = plan.resolve;
  auto matcher_it = ctx->matchers.find(spec.matcher);
  if (matcher_it == ctx->matchers.end()) {
    return Status::NotFound("unknown matcher: " + spec.matcher);
  }
  int col = input.ColumnIndex(spec.column);
  if (col < 0) {
    return Status::InvalidArgument("no column " + spec.column +
                                   " in RESOLVE input");
  }

  // Distinct surfaces, in first-seen order; mention_of[r] is row r's.
  std::vector<ii::MentionRecord> mentions;
  std::vector<size_t> mention_of;
  mention_of.reserve(input.size());
  std::unordered_map<std::string, size_t> surface_index;
  for (const query::Row& row : input.rows()) {
    auto [it, fresh] = surface_index.try_emplace(
        row[static_cast<size_t>(col)].ToString(), mentions.size());
    if (fresh) {
      ii::MentionRecord m;
      m.id = mentions.size();
      m.surface = it->first;
      mentions.push_back(std::move(m));
    }
    mention_of.push_back(it->second);
  }

  ii::ResolutionOptions opts;
  opts.matcher = matcher_it->second;
  opts.threshold = spec.threshold;
  ii::ResolutionResult res = ii::ResolveEntities(mentions, opts);

  // Human review: re-check the least confident merges; a "no" vetoes the
  // pair and clustering is recomputed without it.
  if (spec.review_budget > 0 && !res.merged_pairs.empty()) {
    std::vector<ii::ScoredPair> pairs = res.merged_pairs;
    std::sort(pairs.begin(), pairs.end(),
              [](const ii::ScoredPair& a, const ii::ScoredPair& b) {
                return a.score < b.score;  // least confident first
              });
    std::set<std::pair<size_t, size_t>> vetoed;
    int budget = spec.review_budget;
    for (const ii::ScoredPair& p : pairs) {
      if (budget <= 0) break;
      --budget;
      ++ctx->review_questions;
      bool yes = true;
      if (ctx->review_fn) {
        hi::Task task = hi::MakeVerifyMatchTask(
            ctx->review_questions, mentions[p.a].surface,
            mentions[p.b].surface, p.score, /*ref=*/0);
        yes = ctx->review_fn(task);
      }
      if (!yes) vetoed.emplace(p.a, p.b);
    }
    if (!vetoed.empty()) {
      ii::UnionFind uf(mentions.size());
      for (const ii::ScoredPair& p : res.merged_pairs) {
        if (vetoed.count({p.a, p.b}) == 0) uf.Union(p.a, p.b);
      }
      for (size_t i = 0; i < mentions.size(); ++i) {
        res.cluster_of[i] = uf.Find(i);
      }
    }
  }

  // Canonical surface per cluster, indexed by representative: the
  // longest surface (most specific variant, e.g. "David Smith" over
  // "D. Smith"); ties lexicographic.
  std::vector<const std::string*> canonical(mentions.size(), nullptr);
  for (size_t i = 0; i < mentions.size(); ++i) {
    const std::string*& best = canonical[res.cluster_of[i]];
    const std::string& s = mentions[i].surface;
    if (best == nullptr || s.size() > best->size() ||
        (s.size() == best->size() && s < *best)) {
      best = &s;
    }
  }

  std::vector<std::string> out_cols = input.columns();
  out_cols.push_back("entity");
  query::Relation out(out_cols);
  for (size_t r = 0; r < input.size(); ++r) {
    query::Row extended = input.rows()[r];
    extended.push_back(
        query::Value::Str(*canonical[res.cluster_of[mention_of[r]]]));
    STRUCTURA_RETURN_IF_ERROR(out.Append(std::move(extended)));
  }
  return out;
}

/// The stored relation a view reference names.
Result<const query::Relation*> StoredView(const PlanNode& plan,
                                          ExecutionContext* ctx) {
  auto it = ctx->views.find(plan.view);
  if (it == ctx->views.end()) {
    return Status::NotFound("unknown view: " + plan.view);
  }
  return &it->second;
}

/// An operator's input. A view reference is read in place, under its
/// own span and node count; any other child executes into `*owned`.
Result<const query::Relation*> Input(const PlanNode& child,
                                     ExecutionContext* ctx,
                                     query::Relation* owned) {
  if (child.type == PlanNode::Type::kViewRef) {
    obs::ScopedSpan span(PlanSpanName(child.type));
    PlanNodesCounter()->Increment();
    return StoredView(child, ctx);
  }
  STRUCTURA_ASSIGN_OR_RETURN(*owned, ExecutePlan(child, ctx));
  return owned;
}

/// Caching policy: only plans made of pure relational nodes are
/// cacheable. Extraction mutates quarantine/fault bookkeeping (its
/// results depend on state no epoch tracks) and RESOLVE can consult a
/// human reviewer — replaying either from a cache would change
/// semantics, so both are executed fresh every time.
bool PlanIsCacheable(const PlanNode& plan) {
  switch (plan.type) {
    case PlanNode::Type::kScanDocs:
    case PlanNode::Type::kExtract:
    case PlanNode::Type::kResolve:
      return false;
    default:
      break;
  }
  for (const PlanPtr& child : plan.children) {
    if (!PlanIsCacheable(*child)) return false;
  }
  return true;
}

}  // namespace

Result<query::Relation> ExecutePlan(const PlanNode& plan,
                                    ExecutionContext* ctx) {
  obs::ScopedSpan span(PlanSpanName(plan.type));
  PlanNodesCounter()->Increment();
  // Every operator below reads its input through Input(): a stored view
  // in place, anything else from the child's own execution.
  query::Relation owned;
  switch (plan.type) {
    case PlanNode::Type::kScanDocs:
      return Status::Internal("ScanDocs cannot execute standalone");
    case PlanNode::Type::kExtract:
      return ExecuteExtract(plan, ctx);
    case PlanNode::Type::kViewRef: {
      // A bare view reference hands back a copy the caller owns.
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* view,
                                 StoredView(plan, ctx));
      return *view;
    }
    case PlanNode::Type::kFilter: {
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* in,
                                 Input(*plan.children[0], ctx, &owned));
      return query::Filter(*in, plan.conditions, ctx->interrupt, ctx->exec);
    }
    case PlanNode::Type::kProject: {
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* in,
                                 Input(*plan.children[0], ctx, &owned));
      return query::Project(*in, plan.columns, ctx->interrupt, ctx->exec);
    }
    case PlanNode::Type::kJoin: {
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* left,
                                 Input(*plan.children[0], ctx, &owned));
      query::Relation owned_right;
      STRUCTURA_ASSIGN_OR_RETURN(
          const query::Relation* right,
          Input(*plan.children[1], ctx, &owned_right));
      return query::HashJoin(*left, *right, plan.join_left_col,
                             plan.join_right_col, "r_", ctx->interrupt,
                             ctx->exec);
    }
    case PlanNode::Type::kDistinct: {
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* in,
                                 Input(*plan.children[0], ctx, &owned));
      return query::Distinct(*in);
    }
    case PlanNode::Type::kAggregate: {
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* in,
                                 Input(*plan.children[0], ctx, &owned));
      return query::Aggregate(*in, plan.columns, plan.aggs, ctx->interrupt,
                              ctx->exec);
    }
    case PlanNode::Type::kResolve: {
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* in,
                                 Input(*plan.children[0], ctx, &owned));
      return ExecuteResolve(plan, ctx, *in);
    }
    case PlanNode::Type::kOrderBy: {
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* in,
                                 Input(*plan.children[0], ctx, &owned));
      return query::OrderBy(*in, plan.order_column, plan.descending);
    }
    case PlanNode::Type::kLimit: {
      STRUCTURA_ASSIGN_OR_RETURN(const query::Relation* in,
                                 Input(*plan.children[0], ctx, &owned));
      return query::Limit(*in, plan.limit);
    }
  }
  return Status::Internal("unknown plan node");
}

std::string PlanCost::ToString() const {
  return StrFormat("docs=%.0f extractor_cost=%.0f", docs_scanned,
                   extractor_cost);
}

PlanCost EstimatePlanCost(const PlanNode& plan,
                          const ExecutionContext& ctx) {
  PlanCost cost;
  if (plan.type == PlanNode::Type::kExtract && !plan.children.empty() &&
      plan.children[0]->type == PlanNode::Type::kScanDocs) {
    const PlanNode& scan = *plan.children[0];
    double docs = 0;
    if (ctx.docs != nullptr) {
      for (const text::Document& d : ctx.docs->docs) {
        if (!scan.doc_restriction.empty()) {
          bool in = false;
          for (text::DocId id : scan.doc_restriction) {
            if (id == d.id) in = true;
          }
          if (!in) continue;
        }
        if (!scan.category_filter.empty()) {
          bool match = false;
          for (const std::string& c : d.categories) {
            if (c == scan.category_filter) match = true;
          }
          if (!match) continue;
        }
        ++docs;
      }
    }
    double per_doc = 0;
    for (const std::string& name : plan.extractors) {
      auto it = ctx.extractors.find(name);
      per_doc += it == ctx.extractors.end() ? 1.0
                                            : it->second->CostPerDoc();
    }
    cost.docs_scanned = docs;
    cost.extractor_cost = docs * per_doc;
    return cost;
  }
  for (const PlanPtr& child : plan.children) {
    PlanCost sub = EstimatePlanCost(*child, ctx);
    cost.docs_scanned += sub.docs_scanned;
    cost.extractor_cost += sub.extractor_cost;
  }
  return cost;
}

Result<Interpreter::StatementResult> Interpreter::RunStatement(
    const Statement& stmt) {
  if (stmt.kind == Statement::Kind::kRefresh) {
    return RunRefresh(std::get<RefreshAst>(stmt.body));
  }
  if (stmt.kind == Statement::Kind::kMaterialize) {
    return RunMaterialize(std::get<MaterializeAst>(stmt.body));
  }
  STRUCTURA_ASSIGN_OR_RETURN(PlanPtr plan, BuildPlan(stmt));
  std::string naive_text = plan->ToString();
  OptimizerReport report;
  if (options_.optimize) {
    plan = Optimize(std::move(plan), ctx_->Catalog(), &report);
  }
  StatementResult result;
  if (stmt.explain) {
    result.text = "naive plan:\n" + naive_text;
    if (options_.optimize) {
      result.text += "optimized plan:\n" + plan->ToString();
      result.text += "rewrites: " + report.ToString() + "\n";
      // Re-derive the naive plan for a cost comparison.
      Result<PlanPtr> naive_plan = BuildPlan(stmt);
      if (naive_plan.ok()) {
        PlanCost before = EstimatePlanCost(**naive_plan, *ctx_);
        PlanCost after = EstimatePlanCost(*plan, *ctx_);
        if (before.extractor_cost > 0 || after.extractor_cost > 0) {
          result.text += "estimated cost: naive " + before.ToString() +
                         " -> optimized " + after.ToString() + "\n";
        }
      }
    }
    return result;
  }
  // Result caching for pure SELECTs: key by canonical plan fingerprint,
  // validated against the epoch snapshot of every view the plan reads.
  bool use_cache = stmt.kind == Statement::Kind::kSelect &&
                   ctx_->cache != nullptr && PlanIsCacheable(*plan) &&
                   (!ctx_->cache_gate || ctx_->cache_gate());
  auto execute = [&] { return ExecutePlan(*plan, ctx_); };
  STRUCTURA_ASSIGN_OR_RETURN(
      query::Relation rel,
      use_cache ? ctx_->cache->GetOrCompute(PlanFingerprint(*plan),
                                            CollectPlanInputs(*plan), execute)
                : execute());
  if (stmt.kind == Statement::Kind::kCreateView) {
    ctx_->views[stmt.view_name] = std::move(rel);
    // Remember EXTRACT definitions so REFRESH VIEW can re-run them
    // incrementally over changed pages.
    if (std::holds_alternative<ExtractAst>(stmt.body)) {
      ctx_->view_definitions[stmt.view_name] =
          std::get<ExtractAst>(stmt.body);
    }
    // The view's contents changed: retire every cached result reading
    // it (O(1) — entries are validated lazily at lookup).
    if (ctx_->cache != nullptr) {
      ctx_->cache->epochs().Bump("view:" + stmt.view_name);
    }
    result.text = StrFormat("view %s created (%zu rows)",
                            stmt.view_name.c_str(),
                            ctx_->views[stmt.view_name].size());
  } else {
    result.relation = std::move(rel);
    result.has_relation = true;
    result.text = StrFormat("%zu rows", result.relation.size());
  }
  return result;
}

Result<Interpreter::StatementResult> Interpreter::RunRefresh(
    const RefreshAst& refresh) {
  auto def_it = ctx_->view_definitions.find(refresh.view);
  if (def_it == ctx_->view_definitions.end()) {
    return Status::NotFound("view " + refresh.view +
                            " has no stored EXTRACT definition");
  }
  auto view_it = ctx_->views.find(refresh.view);
  if (view_it == ctx_->views.end()) {
    return Status::NotFound("unknown view: " + refresh.view);
  }
  StatementResult result;
  if (ctx_->dirty_docs.empty()) {
    result.text =
        StrFormat("view %s unchanged (no dirty documents)",
                  refresh.view.c_str());
    return result;
  }
  // Build the stored definition's plan, restricted to dirty documents.
  Statement fake;
  fake.kind = Statement::Kind::kCreateView;
  fake.view_name = refresh.view;
  fake.body = def_it->second;
  STRUCTURA_ASSIGN_OR_RETURN(PlanPtr plan, BuildPlan(fake));
  if (options_.optimize) {
    plan = Optimize(std::move(plan), ctx_->Catalog(), nullptr);
  }
  // Attach the restriction to the plan's ScanDocs leaf.
  PlanNode* node = plan.get();
  while (node->type != PlanNode::Type::kScanDocs) {
    if (node->children.empty()) {
      return Status::Internal("refresh plan lacks a ScanDocs leaf");
    }
    node = node->children[0].get();
  }
  node->doc_restriction.assign(ctx_->dirty_docs.begin(),
                               ctx_->dirty_docs.end());
  STRUCTURA_ASSIGN_OR_RETURN(query::Relation fresh,
                             ExecutePlan(*plan, ctx_));
  // Merge: keep rows of unchanged docs, replace rows of dirty docs. Both
  // are moved, not copied; every check runs before the stored rows are
  // taken, so no error leaves the view emptied.
  query::Relation& stored = view_it->second;
  int doc_col = stored.ColumnIndex("doc");
  if (doc_col < 0) {
    return Status::Internal("extraction view lacks doc column");
  }
  if (fresh.columns().size() != stored.columns().size()) {
    return Status::Internal(
        StrFormat("refreshed rows have %zu columns, view %s has %zu",
                  fresh.columns().size(), refresh.view.c_str(),
                  stored.columns().size()));
  }
  query::Relation merged(stored.columns());
  size_t replaced = 0;
  size_t fresh_rows = fresh.size();
  for (query::Row& row : std::move(stored).TakeRows()) {
    const query::Value& v = row[static_cast<size_t>(doc_col)];
    text::DocId doc = v.type() == rdbms::ValueType::kInt
                          ? static_cast<text::DocId>(v.as_int())
                          : 0;
    if (ctx_->dirty_docs.count(doc) > 0) {
      ++replaced;
      continue;
    }
    (void)merged.Append(std::move(row));  // arity checked above
  }
  for (query::Row& row : std::move(fresh).TakeRows()) {
    (void)merged.Append(std::move(row));
  }
  result.text = StrFormat(
      "view %s refreshed: %zu stale rows dropped, %zu fresh rows from "
      "%zu changed docs (%zu total)",
      refresh.view.c_str(), replaced, fresh_rows,
      ctx_->dirty_docs.size(), merged.size());
  stored = std::move(merged);
  if (ctx_->cache != nullptr) {
    ctx_->cache->epochs().Bump("view:" + refresh.view);
  }
  return result;
}

Result<Interpreter::StatementResult> Interpreter::RunMaterialize(
    const MaterializeAst& mat) {
  if (ctx_->db == nullptr) {
    return Status::FailedPrecondition(
        "no database bound to the execution context");
  }
  auto view_it = ctx_->views.find(mat.view);
  if (view_it == ctx_->views.end()) {
    return Status::NotFound("unknown view: " + mat.view);
  }
  const query::Relation& rel = view_it->second;

  // Infer column types: int if every non-null value is an integer,
  // double if numeric, else string.
  rdbms::TableSchema schema;
  schema.table_name = mat.table;
  for (size_t c = 0; c < rel.columns().size(); ++c) {
    bool any = false, all_int = true, all_numeric = true;
    for (const query::Row& row : rel.rows()) {
      const query::Value& v = row[c];
      if (v.is_null()) continue;
      any = true;
      if (v.type() != rdbms::ValueType::kInt) all_int = false;
      if (v.type() != rdbms::ValueType::kInt &&
          v.type() != rdbms::ValueType::kDouble) {
        all_numeric = false;
      }
    }
    rdbms::Column col;
    col.name = rel.columns()[c];
    col.type = !any                ? rdbms::ValueType::kString
               : all_int           ? rdbms::ValueType::kInt
               : all_numeric       ? rdbms::ValueType::kDouble
                                   : rdbms::ValueType::kString;
    schema.columns.push_back(std::move(col));
  }
  if (ctx_->db->GetTable(mat.table) == nullptr) {
    STRUCTURA_RETURN_IF_ERROR(ctx_->db->CreateTable(schema).status());
  }
  std::unique_ptr<rdbms::Transaction> txn = ctx_->db->Begin();
  for (const query::Row& row : rel.rows()) {
    STRUCTURA_RETURN_IF_ERROR(txn->Insert(mat.table, row).status());
  }
  STRUCTURA_RETURN_IF_ERROR(txn->Commit());
  StatementResult result;
  result.text = StrFormat("materialized %zu rows from %s into table %s",
                          rel.size(), mat.view.c_str(),
                          mat.table.c_str());
  return result;
}

Result<std::vector<Interpreter::StatementResult>> Interpreter::Run(
    const std::string& program) {
  STRUCTURA_ASSIGN_OR_RETURN(std::vector<Statement> stmts, Parse(program));
  std::vector<StatementResult> out;
  for (const Statement& stmt : stmts) {
    STRUCTURA_ASSIGN_OR_RETURN(StatementResult r, RunStatement(stmt));
    out.push_back(std::move(r));
  }
  return out;
}

Result<query::Relation> Interpreter::Query(const std::string& program) {
  STRUCTURA_ASSIGN_OR_RETURN(std::vector<StatementResult> results,
                             Run(program));
  for (size_t i = results.size(); i-- > 0;) {
    if (results[i].has_relation) return std::move(results[i].relation);
  }
  return Status::InvalidArgument("program produced no relation");
}

}  // namespace structura::lang
