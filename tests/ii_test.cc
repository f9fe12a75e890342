// Entity resolution: matchers, the candidate generators behind
// ResolveEntities, union-find and schema matching. The seeded oracle
// sweep (ResolveOracleSweepTest.*, ctest label `oracle`) checks the exact
// Levenshtein generator against the exhaustive path; a failure prints
// the STRUCTURA_ORACLE_SEED that replays it, and STRUCTURA_ORACLE_ITERS
// scales the iteration count.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "core/eval.h"
#include "ii/matcher.h"
#include "ii/resolution.h"
#include "ii/schema_matcher.h"
#include "ii/union_find.h"

namespace structura::ii {
namespace {

MentionRecord M(uint64_t id, const std::string& s) {
  MentionRecord m;
  m.id = id;
  m.surface = s;
  return m;
}

/// One random insertion, deletion or substitution.
void RandomEdit(std::mt19937_64& rng, const std::string& alphabet,
                std::string* s) {
  const char c = alphabet[rng() % alphabet.size()];
  const uint64_t op = rng() % 3;
  if (op == 0 || s->empty()) {
    s->insert(s->begin() + static_cast<long>(rng() % (s->size() + 1)), c);
  } else if (op == 1) {
    s->erase(rng() % s->size(), 1);
  } else {
    (*s)[rng() % s->size()] = c;
  }
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));  // already connected
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.NumSets(), 3u);
  EXPECT_EQ(uf.SetSize(1), 3u);
}

TEST(UnionFindTest, TransitivityProperty) {
  UnionFind uf(100);
  for (size_t i = 0; i + 2 < 100; i += 3) {
    uf.Union(i, i + 1);
    uf.Union(i + 1, i + 2);
  }
  for (size_t i = 0; i + 2 < 100; i += 3) {
    EXPECT_TRUE(uf.Connected(i, i + 2));
  }
}

TEST(NameMatcherTest, PaperExamples) {
  NameMatcher matcher;
  // "the two different names 'David Smith' and 'D. Smith' ... may in
  // fact refer to the same person" (Section 3.2).
  EXPECT_GE(matcher.Score(M(1, "David Smith"), M(2, "D. Smith")), 0.8);
  EXPECT_GE(matcher.Score(M(1, "David Smith"), M(2, "Smith, David")),
            0.8);
  EXPECT_GE(matcher.Score(M(1, "Madison"), M(2, "City of Madison")), 0.8);
  EXPECT_GE(matcher.Score(M(1, "Madison"), M(2, "Madison, Wisconsin")),
            0.8);
  // Different people stay apart.
  EXPECT_LT(matcher.Score(M(1, "David Smith"), M(2, "Sarah Johnson")),
            0.5);
  EXPECT_LT(matcher.Score(M(1, "Madison"), M(2, "Oakfield")), 0.5);
}

TEST(NameMatcherTest, NormalizeTokens) {
  EXPECT_EQ(NameMatcher::NormalizeTokens("City of Madison"),
            (std::vector<std::string>{"madison"}));
  EXPECT_EQ(NameMatcher::NormalizeTokens("Smith, David"),
            (std::vector<std::string>{"smith", "david"}));
  EXPECT_EQ(NameMatcher::NormalizeTokens("Madison, Wisconsin"),
            (std::vector<std::string>{"madison", "wisconsin"}));
}

TEST(MatcherTest, SymmetryProperty) {
  NameMatcher name;
  JaroWinklerMatcher jw;
  LevenshteinMatcher lev;
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"David Smith", "D. Smith"},
      {"Madison", "Madison, Wisconsin"},
      {"abc", "xyz"},
      {"", "x"}};
  for (const SimilarityMatcher* m :
       std::initializer_list<const SimilarityMatcher*>{&name, &jw, &lev}) {
    for (const auto& [a, b] : pairs) {
      double ab = m->Score(M(1, a), M(2, b));
      double ba = m->Score(M(1, b), M(2, a));
      EXPECT_NEAR(ab, ba, 1e-12) << m->name() << ": " << a << "/" << b;
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
    }
  }
}

TEST(ResolutionTest, ClustersVariantsTogether) {
  std::vector<MentionRecord> mentions = {
      M(0, "David Smith"), M(1, "D. Smith"),     M(2, "Smith, David"),
      M(3, "Sarah Johnson"), M(4, "S. Johnson"), M(5, "Madison")};
  NameMatcher matcher;
  ResolutionOptions options;
  options.matcher = &matcher;
  options.threshold = 0.8;
  ResolutionResult result = ResolveEntities(mentions, options);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[2]);
  EXPECT_EQ(result.cluster_of[3], result.cluster_of[4]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[3]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[5]);
  EXPECT_EQ(result.num_clusters, 3u);
}

TEST(ResolutionTest, BlockingMatchesExhaustiveResults) {
  // Generate realistic mention variants from the corpus.
  corpus::CorpusOptions options;
  options.num_cities = 8;
  options.num_people = 15;
  options.num_companies = 0;
  options.news_pages = 6;
  options.seed = 77;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);
  std::vector<MentionRecord> mentions;
  std::vector<corpus::EntityId> entities;
  for (const corpus::MentionTruth& m : truth.mentions) {
    mentions.push_back(M(mentions.size(), m.surface));
    entities.push_back(m.entity);
  }
  NameMatcher matcher;
  ResolutionOptions blocked, exhaustive;
  blocked.matcher = exhaustive.matcher = &matcher;
  blocked.threshold = exhaustive.threshold = 0.8;
  blocked.use_blocking = true;
  exhaustive.use_blocking = false;
  ResolutionResult rb = ResolveEntities(mentions, blocked);
  ResolutionResult re = ResolveEntities(mentions, exhaustive);
  // Blocking does far less work...
  EXPECT_LT(rb.pairs_scored, re.pairs_scored);
  // ...and loses little accuracy (same or nearly same F1).
  core::Score sb = core::ScoreClustering(entities, rb.cluster_of);
  core::Score se = core::ScoreClustering(entities, re.cluster_of);
  EXPECT_GE(sb.f1(), se.f1() - 0.05);
  // Initial-style variants ("D. Smith") are genuinely ambiguous across
  // people sharing a surname, so automatic-only F1 plateaus well below
  // 1.0 — exactly the gap the paper argues human intervention closes.
  EXPECT_GT(se.f1(), 0.55);
}

TEST(ResolutionTest, ThresholdControlsMerging) {
  std::vector<MentionRecord> mentions = {M(0, "Madison"),
                                         M(1, "Madisen")};
  JaroWinklerMatcher matcher;
  ResolutionOptions strict;
  strict.matcher = &matcher;
  strict.threshold = 0.99;
  EXPECT_EQ(ResolveEntities(mentions, strict).num_clusters, 2u);
  ResolutionOptions loose;
  loose.matcher = &matcher;
  loose.threshold = 0.85;
  EXPECT_EQ(ResolveEntities(mentions, loose).num_clusters, 1u);
}

/// A threshold printed to the last bit (17 significant digits), so a
/// failure names which neighbour of a boundary it was.
std::string ThresholdLabel(double t) {
  char label[48];
  std::snprintf(label, sizeof(label), "threshold %.17g", t);
  return label;
}

ResolutionResult Resolve(const std::vector<MentionRecord>& mentions,
                         const SimilarityMatcher& matcher, double threshold,
                         bool use_candidates) {
  ResolutionOptions options;
  options.matcher = &matcher;
  options.threshold = threshold;
  options.use_blocking = use_candidates;
  return ResolveEntities(mentions, options);
}

/// `got` decides everything the exhaustive `ref` decides: the merged
/// pairs (indexes and score bits, in order), the clusters and their
/// count — having scored no more pairs.
void ExpectSameResolution(const ResolutionResult& ref,
                          const ResolutionResult& got) {
  ASSERT_EQ(got.merged_pairs.size(), ref.merged_pairs.size());
  for (size_t k = 0; k < ref.merged_pairs.size(); ++k) {
    const ScoredPair& r = ref.merged_pairs[k];
    const ScoredPair& g = got.merged_pairs[k];
    ASSERT_EQ(g.a, r.a) << "merge " << k;
    ASSERT_EQ(g.b, r.b) << "merge " << k;
    ASSERT_EQ(std::bit_cast<uint64_t>(g.score),
              std::bit_cast<uint64_t>(r.score))
        << "merge " << k;
  }
  ASSERT_EQ(got.cluster_of, ref.cluster_of);
  ASSERT_EQ(got.num_clusters, ref.num_clusters);
  ASSERT_LE(got.pairs_scored, ref.pairs_scored);
}

TEST(ResolutionTest, LevenshteinCandidatesKeepPairsOnTheBoundary) {
  // One edit apart at 20 characters scores exactly 1 - 1/20: by
  // deletion (20 vs 19 characters), by substitution (equal lengths).
  const std::string s20 = "abcdefghijklmnopqrst";
  std::vector<MentionRecord> mentions = {
      M(0, s20), M(1, s20.substr(0, 19)), M(2, "abcdefghijklmnopqrsX"),
      M(3, s20), M(4, ""),                M(5, "")};
  LevenshteinMatcher lev;
  const double edge = 1.0 - 1.0 / 20.0;
  const double inf = std::numeric_limits<double>::infinity();
  for (double t : {edge, std::nextafter(edge, -inf), std::nextafter(edge, inf),
                   1.0, std::nextafter(1.0, inf), 0.0, -1.0}) {
    SCOPED_TRACE(ThresholdLabel(t));
    ExpectSameResolution(Resolve(mentions, lev, t, false),
                         Resolve(mentions, lev, t, true));
  }
  // At the edge all four long surfaces merge; the empty ones pair alone.
  EXPECT_EQ(Resolve(mentions, lev, edge, true).num_clusters, 2u);
  // One ulp above it only identical surfaces merge, and only they are
  // scored: {0, 3} and {4, 5}.
  ResolutionResult above =
      Resolve(mentions, lev, std::nextafter(edge, inf), true);
  EXPECT_EQ(above.num_clusters, 4u);
  EXPECT_EQ(above.pairs_scored, 2u);
  // Above 1 nothing can merge, so nothing is scored.
  EXPECT_EQ(Resolve(mentions, lev, std::nextafter(1.0, inf), true)
                .pairs_scored,
            0u);
}

TEST(ResolutionTest, LevenshteinCandidatesMatchExhaustiveOnCorpus) {
  corpus::CorpusOptions options;
  options.num_cities = 30;
  options.num_people = 60;
  options.num_companies = 15;
  options.news_pages = 20;
  options.seed = 11;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);
  // Distinct surfaces, as RESOLVE hands them over: the planted mentions
  // and a one-typo copy of each.
  std::vector<MentionRecord> mentions;
  std::set<std::string> seen;
  std::mt19937_64 rng(11);
  for (const corpus::MentionTruth& m : truth.mentions) {
    std::string typo = m.surface;
    RandomEdit(rng, "abcdefghijklmnopqrstuvwxyz", &typo);
    for (const std::string& s : {m.surface, typo}) {
      if (seen.insert(s).second) mentions.push_back(M(mentions.size(), s));
    }
  }
  LevenshteinMatcher lev;
  for (double t : {0.95, 0.8}) {
    SCOPED_TRACE(ThresholdLabel(t));
    ResolutionResult ref = Resolve(mentions, lev, t, false);
    ResolutionResult got = Resolve(mentions, lev, t, true);
    ExpectSameResolution(ref, got);
    if (t == 0.95) {
      // RESOLVE's threshold: a one-typo copy of a long surface merges,
      // and the length window scores a small fraction of all pairs.
      EXPECT_GT(got.merged_pairs.size(), 0u);
      EXPECT_LT(got.pairs_scored * 100, ref.pairs_scored);
    }
  }
}

TEST(TopKTest, ReturnsMostSimilarFirst) {
  std::vector<MentionRecord> mentions = {
      M(0, "David Smith"), M(1, "D. Smith"), M(2, "David Smithson"),
      M(3, "Zebra Crossing"), M(4, "Aardvark")};
  NameMatcher matcher;
  auto top = TopKCandidates(mentions, 0, matcher, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].b, 1u);  // D. Smith is the closest
  EXPECT_GE(top[0].score, top[1].score);
}

TEST(SchemaMatcherTest, SynonymsAndValues) {
  // The paper: "attributes location and address extracted from two
  // Wikipedia infoboxes may in fact match".
  std::vector<AttributeProfile> a = {
      {"location", {"Madison", "Oakfield", "Rivervale"}},
      {"population", {"233,209", "5,000", "120,000"}},
  };
  std::vector<AttributeProfile> b = {
      {"address", {"Madison", "Rivervale", "Summit"}},
      {"inhabitants", {"233209", "88000"}},
  };
  SchemaMatchOptions options;
  options.synonyms = {{"location", "address"}};
  options.threshold = 0.4;
  auto matches = MatchSchemas(a, b, options);
  ASSERT_GE(matches.size(), 1u);
  EXPECT_EQ(matches[0].a_index, 0u);  // location <-> address first
  EXPECT_EQ(matches[0].b_index, 0u);
  // population <-> inhabitants should match on numeric range overlap.
  bool pop_matched = false;
  for (const auto& m : matches) {
    if (m.a_index == 1 && m.b_index == 1) pop_matched = true;
  }
  EXPECT_TRUE(pop_matched);
}

TEST(SchemaMatcherTest, OneToOneAssignment) {
  std::vector<AttributeProfile> a = {{"name", {"x"}}, {"names", {"x"}}};
  std::vector<AttributeProfile> b = {{"name", {"x"}}};
  auto matches = MatchSchemas(a, b, SchemaMatchOptions{});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].a_index, 0u);  // exact name wins the only slot
}

TEST(SchemaMatcherTest, ValueOverlapNumericVsText) {
  AttributeProfile nums1{"a", {"1", "2", "3"}};
  AttributeProfile nums2{"b", {"2", "3", "4"}};
  AttributeProfile text{"c", {"alpha", "beta"}};
  // Ranges [1,3] and [2,4]: overlap 1 over combined span 3.
  EXPECT_NEAR(ValueOverlap(nums1, nums2), 1.0 / 3.0, 1e-9);
  EXPECT_EQ(ValueOverlap(nums1, text), 0.0);
}

// ------------------------------------------------------ oracle sweep

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

/// LevenshteinMatcher's scores, computed once per input and served from
/// a table, so the exhaustive reference runs at many thresholds for the
/// price of one. A mention's id is its index.
class TableMatcher : public SimilarityMatcher {
 public:
  explicit TableMatcher(const std::vector<MentionRecord>& mentions)
      : n_(mentions.size()), table_(n_ * n_) {
    LevenshteinMatcher lev;
    for (size_t a = 0; a < n_; ++a) {
      for (size_t b = a + 1; b < n_; ++b) {
        table_[a * n_ + b] = table_[b * n_ + a] =
            lev.Score(mentions[a], mentions[b]);
      }
    }
  }
  std::string name() const override { return "levenshtein_table"; }
  double Score(const MentionRecord& a,
               const MentionRecord& b) const override {
    return table_[a.id * n_ + b.id];
  }

 private:
  size_t n_;
  std::vector<double> table_;
};

/// A few random bases of 0-60 characters over a three-letter alphabet,
/// and copies of them up to three edits away, with duplicates and empty
/// surfaces mixed in.
std::vector<std::string> SyntheticSurfaces(std::mt19937_64& rng) {
  const std::string alphabet = "ab ";
  std::vector<std::string> bases(2 + rng() % 6);
  for (std::string& base : bases) {
    for (size_t len = rng() % 61; base.size() < len;) {
      base += alphabet[rng() % alphabet.size()];
    }
  }
  std::vector<std::string> out;
  for (size_t n = 10 + rng() % 50; out.size() < n;) {
    const uint64_t kind = rng() % 8;
    if (kind == 0) {
      out.emplace_back();
    } else if (kind == 1 && !out.empty()) {
      out.push_back(out[rng() % out.size()]);
    } else {
      std::string s = bases[rng() % bases.size()];
      for (uint64_t e = rng() % 4; e > 0; --e) RandomEdit(rng, alphabet, &s);
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// The corpus generator's planted mentions ("D. Smith", "Madison,
/// Wisconsin"), duplicates as planted, a quarter of them with a typo.
std::vector<std::string> CorpusSurfaces(std::mt19937_64& rng, uint64_t seed) {
  corpus::CorpusOptions options;
  options.num_cities = 2 + rng() % 5;
  options.num_people = 2 + rng() % 8;
  options.num_companies = rng() % 3;
  options.news_pages = 1 + rng() % 4;
  options.seed = seed;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);
  std::vector<std::string> out;
  for (const corpus::MentionTruth& m : truth.mentions) {
    if (out.size() == 60) break;
    std::string s = m.surface;
    if (rng() % 4 == 0) RandomEdit(rng, "abcdefghijklmnopqrstuvwxyz .", &s);
    out.push_back(std::move(s));
  }
  return out;
}

/// One of the fixed thresholds (chosen by seed) and two that fall on a
/// length boundary of this input — the score of the least distance a
/// length allows — each with its two std::nextafter neighbours.
std::vector<double> SweepThresholds(std::mt19937_64& rng, uint64_t seed,
                                    const std::vector<std::string>& surfaces) {
  static const double kFixed[] = {0, 1, 0.5, 0.8, 0.9, 0.95, 1.0 - 1.0 / 20};
  std::vector<double> centres = {kFixed[seed % 7]};
  for (int k = 0; k < 2; ++k) {
    size_t longest = 1;
    for (int pick = 0; pick < 2; ++pick) {
      longest = std::max(longest, surfaces[rng() % surfaces.size()].size());
    }
    const size_t distance = 1 + rng() % std::min<size_t>(longest, 3);
    centres.push_back(1.0 - static_cast<double>(distance) /
                                static_cast<double>(longest));
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> out;
  for (double t : centres) {
    out.insert(out.end(),
               {t, std::nextafter(t, -inf), std::nextafter(t, inf)});
  }
  return out;
}

TEST(ResolveOracleSweepTest, LevenshteinCandidatesMatchExhaustive) {
  const uint64_t base_seed = EnvU64("STRUCTURA_ORACLE_SEED", 20261019);
  const uint64_t iters = EnvU64("STRUCTURA_ORACLE_ITERS", 200);
  LevenshteinMatcher lev;
  for (uint64_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    SCOPED_TRACE("replay: STRUCTURA_ORACLE_SEED=" + std::to_string(seed) +
                 " STRUCTURA_ORACLE_ITERS=1");
    std::mt19937_64 rng(seed);
    std::vector<std::string> surfaces =
        seed % 4 == 0 ? CorpusSurfaces(rng, seed) : SyntheticSurfaces(rng);
    std::vector<MentionRecord> mentions;
    for (const std::string& s : surfaces) {
      mentions.push_back(M(mentions.size(), s));
    }
    TableMatcher exhaustive(mentions);
    for (double t : SweepThresholds(rng, seed, surfaces)) {
      SCOPED_TRACE(ThresholdLabel(t));
      ExpectSameResolution(Resolve(mentions, exhaustive, t, false),
                           Resolve(mentions, lev, t, true));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace structura::ii
