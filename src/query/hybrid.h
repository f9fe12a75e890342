#ifndef STRUCTURA_QUERY_HYBRID_H_
#define STRUCTURA_QUERY_HYBRID_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/keyword_index.h"
#include "query/relation.h"

namespace structura::query {

/// A hybrid DB+IR query (the "DB and IR: both sides now" direction the
/// paper cites as its predecessor): free-text relevance plus structured
/// predicates over the facts extracted from each document.
struct HybridQuery {
  std::string keywords;
  /// Conjunctive conditions evaluated per fact row; a document qualifies
  /// when at least one of its fact rows satisfies all conditions.
  std::vector<Condition> structured;
};

/// Ranks documents by BM25 over `keywords`, keeping only documents whose
/// extracted facts (a relation with a "doc" column) satisfy the
/// structured predicates. `facts` must contain every column referenced
/// by the conditions.
/// `intr` is polled through both sides (structured filter scan and BM25
/// scoring); evaluation stops with kDeadlineExceeded / kCancelled.
/// `opts` applies to the structured filter scan.
Result<std::vector<SearchHit>> HybridSearch(
    const KeywordIndex& index, const Relation& facts,
    const HybridQuery& query, size_t k,
    const Interrupt& intr = Interrupt{}, const ExecutorOptions& opts = {});

}  // namespace structura::query

#endif  // STRUCTURA_QUERY_HYBRID_H_
