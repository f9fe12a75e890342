#ifndef STRUCTURA_QUERY_KEYWORD_INDEX_H_
#define STRUCTURA_QUERY_KEYWORD_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "text/document.h"

namespace structura::query {

/// One keyword-search hit.
struct SearchHit {
  text::DocId doc = 0;
  double score = 0;
  std::string title;
};

/// Classic inverted index with BM25 ranking — the "current IR-like
/// systems" baseline the paper contrasts against (Section 2): great at
/// finding the Madison page, structurally unable to average its monthly
/// temperatures.
class KeywordIndex {
 public:
  /// Indexes a document (markup stripped, tokens lowercased).
  void AddDocument(const text::Document& doc);

  /// Must be called after the last AddDocument and before Search.
  void Finalize();

  /// Top-k BM25 results for a free-text query.
  std::vector<SearchHit> Search(const std::string& query, size_t k) const;

  /// Interruptible variant: the scoring loop polls `intr` between terms
  /// and every few thousand postings, returning kDeadlineExceeded /
  /// kCancelled instead of scoring to completion.
  Result<std::vector<SearchHit>> Search(const std::string& query, size_t k,
                                        const Interrupt& intr) const;

  size_t VocabularySize() const { return postings_.size(); }

 private:
  struct Posting {
    uint32_t doc_index;
    uint32_t term_freq;
  };

  std::unordered_map<std::string, std::vector<Posting>> postings_;
  std::vector<uint32_t> doc_lengths_;
  std::vector<text::DocId> doc_ids_;
  std::vector<std::string> titles_;
  double avg_doc_length_ = 0;
};

/// Builds a result snippet for `doc`: the sentence (markup stripped)
/// containing the most query terms, truncated to `max_chars`. Falls back
/// to the document's opening text when no term matches.
std::string MakeSnippet(const text::Document& doc,
                        const std::string& query, size_t max_chars = 160);

}  // namespace structura::query

#endif  // STRUCTURA_QUERY_KEYWORD_INDEX_H_
