#ifndef STRUCTURA_QUERY_TRANSLATOR_H_
#define STRUCTURA_QUERY_TRANSLATOR_H_

#include <string>
#include <vector>

#include "common/cancellation.h"
#include "query/relation.h"
#include "query/structured_query.h"

namespace structura::query {

/// One candidate translation of a keyword query, ranked by how much of
/// the query it explains.
struct QueryForm {
  StructuredQuery query;
  double score = 0;
  std::string description;  // one-line gloss shown with the form
};

/// Translates ordinary users' keyword queries into candidate structured
/// queries over a fact view (columns: subject / attribute / value ...).
/// This is the exploitation problem the paper predicts the field will hit
/// (Section 3.3): "how to enable ordinary users to easily ask structured
/// queries over the derived structured data". The translator mines its
/// vocabulary from the data itself: known subjects, known attributes,
/// attribute synonyms, aggregate words, and month names (which map to
/// the temp_MM attribute family).
class KeywordTranslator {
 public:
  struct Options {
    std::string fact_view = "facts";
    std::string subject_column = "subject";
    std::string attribute_column = "attribute";
    std::string value_column = "value";
    size_t max_candidates = 5;
  };

  KeywordTranslator() : KeywordTranslator(Options()) {}
  explicit KeywordTranslator(Options options)
      : options_(std::move(options)) {}

  /// Learns subjects and attributes present in `facts`.
  void BuildVocabulary(const Relation& facts);

  /// Ranked candidate structured queries for `keywords`.
  std::vector<QueryForm> Translate(const std::string& keywords) const;

  /// Interruptible variant: the subject-matching loop (linear in the
  /// learned vocabulary) polls `intr` and returns kDeadlineExceeded /
  /// kCancelled instead of finishing translation.
  Result<std::vector<QueryForm>> Translate(const std::string& keywords,
                                           const Interrupt& intr) const;

  size_t NumSubjects() const { return subjects_.size(); }

 private:
  struct SubjectEntry {
    std::string canonical;
    std::vector<std::string> tokens;  // lowercased
  };

  Options options_;
  std::vector<SubjectEntry> subjects_;
  std::vector<std::string> attributes_;
  std::vector<std::pair<std::string, std::string>> synonyms_;
};

}  // namespace structura::query

#endif  // STRUCTURA_QUERY_TRANSLATOR_H_
