#include "ii/resolution.h"

#include <algorithm>

#include "ii/union_find.h"

namespace structura::ii {

ResolutionResult ResolveEntities(const std::vector<MentionRecord>& mentions,
                                 const ResolutionOptions& options) {
  ResolutionResult result;
  UnionFind uf(mentions.size());
  auto score = [&](size_t a, size_t b) {
    double s = options.matcher->Score(mentions[a], mentions[b]);
    ++result.pairs_scored;
    if (s >= options.threshold) {
      uf.Union(a, b);
      result.merged_pairs.push_back(ScoredPair{a, b, s});
    }
  };

  if (options.use_blocking) {
    // Ascending (a, b), the order the exhaustive loop visits: the same
    // merges then union in the same order, so a generator that keeps
    // every merging pair reproduces merged_pairs and cluster_of exactly.
    CandidatePairs candidates =
        options.matcher->Candidates(mentions, options.threshold);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const auto& [a, b] : candidates) score(a, b);
  } else {
    for (size_t a = 0; a < mentions.size(); ++a) {
      for (size_t b = a + 1; b < mentions.size(); ++b) score(a, b);
    }
  }

  result.cluster_of.resize(mentions.size());
  for (size_t i = 0; i < mentions.size(); ++i) {
    result.cluster_of[i] = uf.Find(i);
  }
  result.num_clusters = uf.NumSets();
  return result;
}

std::vector<ScoredPair> TopKCandidates(
    const std::vector<MentionRecord>& mentions, size_t query,
    const SimilarityMatcher& matcher, size_t k) {
  std::vector<ScoredPair> scored;
  scored.reserve(mentions.size());
  for (size_t i = 0; i < mentions.size(); ++i) {
    if (i == query) continue;
    scored.push_back(
        ScoredPair{query, i, matcher.Score(mentions[query], mentions[i])});
  }
  std::partial_sort(scored.begin(),
                    scored.begin() + std::min(k, scored.size()),
                    scored.end(),
                    [](const ScoredPair& x, const ScoredPair& y) {
                      return x.score > y.score;
                    });
  scored.resize(std::min(k, scored.size()));
  return scored;
}

}  // namespace structura::ii
