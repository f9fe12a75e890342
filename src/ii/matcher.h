#ifndef STRUCTURA_II_MATCHER_H_
#define STRUCTURA_II_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace structura::ii {

/// A surface mention awaiting entity resolution ("David Smith" on page 12,
/// "D. Smith" on page 40 — the paper's running example of semantic
/// heterogeneity, Section 3.2).
struct MentionRecord {
  uint64_t id = 0;          // caller-assigned (e.g. fact id)
  std::string surface;
  std::string context;      // optional: nearby text, for context-aware scores
};

/// Mention-index pairs, each (a, b) with a < b.
using CandidatePairs = std::vector<std::pair<size_t, size_t>>;

/// Pairwise similarity in [0, 1] between two mentions, plus the choice of
/// which pairs are worth scoring — the matcher owns the score, so only it
/// knows which pairs cannot reach a threshold.
class SimilarityMatcher {
 public:
  virtual ~SimilarityMatcher() = default;
  virtual std::string name() const = 0;
  virtual double Score(const MentionRecord& a,
                       const MentionRecord& b) const = 0;

  /// The pairs ResolveEntities scores at `threshold`, in any order,
  /// repeats allowed. The default is capped token blocking: mentions
  /// sharing a normalized token, or a token's initial, except in blocks
  /// of more than 512 members. It is lossy — a pair that shares only
  /// oversized blocks is never scored, whatever its score.
  virtual CandidatePairs Candidates(const std::vector<MentionRecord>& mentions,
                                    double threshold) const;
};

/// Jaro-Winkler over raw surfaces.
class JaroWinklerMatcher : public SimilarityMatcher {
 public:
  std::string name() const override { return "jaro_winkler"; }
  double Score(const MentionRecord& a,
               const MentionRecord& b) const override;
};

/// Normalized Levenshtein over raw surfaces.
class LevenshteinMatcher : public SimilarityMatcher {
 public:
  std::string name() const override { return "levenshtein"; }
  double Score(const MentionRecord& a,
               const MentionRecord& b) const override;

  /// Exact: identical surfaces pair by hash, and distinct surfaces pair
  /// only while their lengths allow a score >= `threshold` (see
  /// text::LevenshteinScore). Every pair left out provably scores below
  /// `threshold`, so the merges equal those of scoring every pair.
  CandidatePairs Candidates(const std::vector<MentionRecord>& mentions,
                            double threshold) const override;
};

/// Name-aware matcher handling the heterogeneity the corpus (and real
/// text) contains:
///  - "Smith, David"  -> token reorder around the comma
///  - "D. Smith"      -> single-letter tokens match words by initial
///  - "City of X"     -> leading stop-tokens ("city", "of", "the") dropped
///  - "Madison, Wisconsin" vs "Madison" -> containment of token sets
/// Score: matched token fraction of the smaller normalized token set,
/// averaged with Jaro-Winkler as a tiebreaker.
class NameMatcher : public SimilarityMatcher {
 public:
  std::string name() const override { return "name"; }
  double Score(const MentionRecord& a,
               const MentionRecord& b) const override;

  /// Normalization used by the matcher (exposed for tests/blocking):
  /// lowercase, comma-reorder, stop-token removal.
  static std::vector<std::string> NormalizeTokens(const std::string& s);
};

}  // namespace structura::ii

#endif  // STRUCTURA_II_MATCHER_H_
