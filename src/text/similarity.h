#ifndef STRUCTURA_TEXT_SIMILARITY_H_
#define STRUCTURA_TEXT_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace structura::text {

/// Classic edit distance (insert/delete/substitute, unit costs).
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// 1 - distance / max(len); 1.0 for identical strings, in [0, 1].
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// The LevenshteinSimilarity of two strings at edit distance `distance`
/// whose longer one has `longest` > 0 characters. Non-increasing in
/// `distance` (rounded division and subtraction are monotone), so the
/// least distance two lengths allow bounds every score they can reach.
double LevenshteinScore(size_t distance, size_t longest);

/// Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler: Jaro boosted by common-prefix weight (p = 0.1, max 4).
/// The paper's entity-resolution examples ("David Smith" vs "D. Smith")
/// motivate a prefix-sensitive measure.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Jaccard overlap of the two token multiset supports (set semantics).
double TokenJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b);

/// Jaccard over character n-grams of the raw strings (default trigrams).
double NgramJaccard(std::string_view a, std::string_view b, size_t n = 3);

/// Corpus-level TF-IDF model. Build once from tokenized documents, then
/// compare any two token vectors by cosine similarity in the weighted
/// space. Unknown terms get IDF of log(N + 1).
class TfIdfModel {
 public:
  /// Accumulates document frequencies from one document's tokens.
  void AddDocument(const std::vector<std::string>& tokens);

  /// Must be called after all AddDocument calls and before Cosine.
  void Finalize();

  /// Cosine similarity of the TF-IDF vectors of `a` and `b`, in [0, 1].
  double Cosine(const std::vector<std::string>& a,
                const std::vector<std::string>& b) const;

  /// IDF weight of `term` under this corpus.
  double Idf(const std::string& term) const;

  size_t num_documents() const { return num_docs_; }

 private:
  std::unordered_map<std::string, uint32_t> doc_freq_;
  size_t num_docs_ = 0;
  bool finalized_ = false;
};

}  // namespace structura::text

#endif  // STRUCTURA_TEXT_SIMILARITY_H_
