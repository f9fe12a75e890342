#ifndef STRUCTURA_II_RESOLUTION_H_
#define STRUCTURA_II_RESOLUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ii/matcher.h"

namespace structura::ii {

/// Entity-resolution configuration. With `use_blocking` only the
/// matcher's candidate pairs are scored (SimilarityMatcher::Candidates:
/// exact for levenshtein, capped token blocking otherwise); without it
/// every pair is scored — quadratic, and the reference the tests compare
/// the candidate generators against.
struct ResolutionOptions {
  const SimilarityMatcher* matcher = nullptr;  // required
  double threshold = 0.8;
  bool use_blocking = true;
};

/// One scored candidate pair (above or below threshold, as recorded).
struct ScoredPair {
  size_t a = 0;  // mention indexes
  size_t b = 0;
  double score = 0;
};

struct ResolutionResult {
  /// cluster_of[i] = representative mention index of i's cluster.
  std::vector<size_t> cluster_of;
  size_t num_clusters = 0;
  /// Number of pairwise similarity computations performed (work metric).
  size_t pairs_scored = 0;
  /// Pairs that scored above threshold and were merged.
  std::vector<ScoredPair> merged_pairs;
};

/// Clusters `mentions` into entities: union-find over the pairs scoring
/// >= threshold, scored in ascending (a, b) order.
ResolutionResult ResolveEntities(const std::vector<MentionRecord>& mentions,
                                 const ResolutionOptions& options);

/// Top-k most similar mentions to `query` among `mentions` (excluding
/// itself) — the candidate list the paper argues humans can verify far
/// more easily than they could generate (Section 3.3).
std::vector<ScoredPair> TopKCandidates(
    const std::vector<MentionRecord>& mentions, size_t query,
    const SimilarityMatcher& matcher, size_t k);

}  // namespace structura::ii

#endif  // STRUCTURA_II_RESOLUTION_H_
