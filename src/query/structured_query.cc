#include "query/structured_query.h"

#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace structura::query {

std::string StructuredQuery::ToSql() const {
  std::string out = "SELECT ";
  std::vector<std::string> items;
  for (const std::string& g : group_by) items.push_back(g);
  for (const AggSpec& a : aggregates) {
    items.push_back(StrFormat("%s(%s)", AggFnName(a.fn),
                              a.column.empty() ? "*" : a.column.c_str()));
  }
  if (items.empty()) {
    if (select.empty()) {
      items.push_back("*");
    } else {
      items = select;
    }
  }
  out += Join(items, ", ");
  out += " FROM " + source_view;
  if (!where.empty()) {
    out += " WHERE ";
    std::vector<std::string> conds;
    for (const Condition& c : where) conds.push_back(c.ToString());
    out += Join(conds, " AND ");
  }
  if (!group_by.empty()) {
    out += " GROUP BY " + Join(group_by, ", ");
  }
  if (!order_by.empty()) {
    out += " ORDER BY " + order_by + (descending ? " DESC" : "");
  }
  if (limit > 0) out += StrFormat(" LIMIT %zu", limit);
  return out;
}

std::string StructuredQuery::ToFormText() const {
  std::string out = "+----------------------------------------+\n";
  out += StrFormat("| Query over: %-26s |\n", source_view.c_str());
  for (const Condition& c : where) {
    out += StrFormat("|   where %-30s |\n", c.ToString().c_str());
  }
  for (const AggSpec& a : aggregates) {
    out += StrFormat("|   compute %-28s |\n",
                     StrFormat("%s of %s", AggFnName(a.fn),
                               a.column.empty() ? "*" : a.column.c_str())
                         .c_str());
  }
  if (!group_by.empty()) {
    out += StrFormat("|   per %-32s |\n", Join(group_by, ", ").c_str());
  }
  out += "+----------------------------------------+";
  return out;
}

Result<Relation> ExecuteStructuredQuery(const StructuredQuery& q,
                                        const Relation& source,
                                        const Interrupt& intr,
                                        const ExecutorOptions& opts) {
  TRACE_SPAN("query.structured");
  static obs::Counter* queries =
      obs::MetricsRegistry::Default().GetCounter("query.structured.queries");
  static obs::Histogram* latency = obs::MetricsRegistry::Default().GetHistogram(
      "query.structured.latency_ns");
  queries->Increment();
  obs::ScopedLatency record_latency(latency);
  obs::ChargeCost(obs::CostDim::kRowsScanned, source.size());
  STRUCTURA_RETURN_IF_ERROR(intr.Check());
  // Each stage reads the one before it; the first reads `source` in
  // place, so `source` is copied only when no stage runs at all.
  Relation current;
  const Relation* in = &source;
  if (!q.where.empty()) {
    STRUCTURA_ASSIGN_OR_RETURN(current, Filter(*in, q.where, intr, opts));
    in = &current;
  }
  STRUCTURA_RETURN_IF_ERROR(intr.Check());
  if (!q.aggregates.empty() || !q.group_by.empty()) {
    STRUCTURA_ASSIGN_OR_RETURN(
        current, Aggregate(*in, q.group_by, q.aggregates, intr, opts));
    in = &current;
  } else if (!q.select.empty()) {
    STRUCTURA_ASSIGN_OR_RETURN(current, Project(*in, q.select, intr, opts));
    in = &current;
  }
  STRUCTURA_RETURN_IF_ERROR(intr.Check());
  if (!q.order_by.empty()) {
    STRUCTURA_ASSIGN_OR_RETURN(current,
                               OrderBy(*in, q.order_by, q.descending));
    in = &current;
  }
  if (q.limit > 0) {
    current = Limit(*in, q.limit);
    in = &current;
  }
  if (in == &source) return source;
  return current;
}

}  // namespace structura::query
