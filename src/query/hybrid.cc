#include "query/hybrid.h"

#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace structura::query {

namespace {

/// Runs the structured side: the set of qualifying document ids.
Result<std::set<int64_t>> QualifyingDocs(const Relation& facts,
                                         const std::vector<Condition>& conds,
                                         const Interrupt& intr,
                                         const ExecutorOptions& opts) {
  STRUCTURA_ASSIGN_OR_RETURN(Relation qualifying,
                             Filter(facts, conds, intr, opts));
  int doc_col = qualifying.ColumnIndex("doc");
  if (doc_col < 0) {
    return Status::InvalidArgument("facts relation lacks a doc column");
  }
  std::set<int64_t> doc_ids;
  for (const Row& row : qualifying.rows()) {
    const Value& v = row[static_cast<size_t>(doc_col)];
    if (v.type() == rdbms::ValueType::kInt) doc_ids.insert(v.as_int());
  }
  return doc_ids;
}

}  // namespace

Result<std::vector<SearchHit>> HybridSearch(const KeywordIndex& index,
                                            const Relation& facts,
                                            const HybridQuery& query,
                                            size_t k, const Interrupt& intr,
                                            const ExecutorOptions& opts) {
  TRACE_SPAN("query.hybrid");
  static obs::Counter* searches =
      obs::MetricsRegistry::Default().GetCounter("query.hybrid.searches");
  static obs::Histogram* latency = obs::MetricsRegistry::Default().GetHistogram(
      "query.hybrid.latency_ns");
  searches->Increment();
  obs::ScopedLatency record_latency(latency);
  // 1. Structured side: the set of qualifying documents.
  STRUCTURA_ASSIGN_OR_RETURN(
      std::set<int64_t> doc_ids,
      QualifyingDocs(facts, query.structured, intr, opts));

  // 2. IR side: rank broadly, then keep qualifying docs. Over-fetch so
  // filtering still leaves k results when possible.
  STRUCTURA_ASSIGN_OR_RETURN(
      std::vector<SearchHit> hits,
      index.Search(query.keywords, k * 10 + 50, intr));
  std::vector<SearchHit> out;
  for (const SearchHit& hit : hits) {
    if (doc_ids.count(static_cast<int64_t>(hit.doc)) == 0) continue;
    out.push_back(hit);
    if (out.size() >= k) break;
  }
  return out;
}

}  // namespace structura::query
