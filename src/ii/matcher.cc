#include "ii/matcher.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "common/strings.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace structura::ii {

CandidatePairs SimilarityMatcher::Candidates(
    const std::vector<MentionRecord>& mentions, double /*threshold*/) const {
  std::unordered_map<std::string, std::vector<size_t>> blocks;
  for (size_t i = 0; i < mentions.size(); ++i) {
    for (const std::string& tok :
         NameMatcher::NormalizeTokens(mentions[i].surface)) {
      blocks[tok].push_back(i);
      // Words also block on their initial, so "d" (from "D.") meets the
      // full names starting with that letter.
      if (tok.size() > 1) blocks[std::string(1, tok[0])].push_back(i);
    }
  }
  CandidatePairs pairs;
  for (const auto& [key, members] : blocks) {
    // Oversized blocks (e.g. an initial shared by thousands) are capped:
    // classic blocking hygiene to avoid quadratic blowup on stop tokens.
    if (members.size() > 512) continue;
    // Members ascend; a mention listed twice (a word and its own initial
    // token) does not pair with itself.
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (members[i] != members[j]) {
          pairs.emplace_back(members[i], members[j]);
        }
      }
    }
  }
  return pairs;
}

double JaroWinklerMatcher::Score(const MentionRecord& a,
                                 const MentionRecord& b) const {
  return text::JaroWinklerSimilarity(a.surface, b.surface);
}

double LevenshteinMatcher::Score(const MentionRecord& a,
                                 const MentionRecord& b) const {
  return text::LevenshteinSimilarity(a.surface, b.surface);
}

CandidatePairs LevenshteinMatcher::Candidates(
    const std::vector<MentionRecord>& mentions, double threshold) const {
  // Mentions grouped by surface, members ascending.
  struct Group {
    size_t length;
    std::vector<size_t> members;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string_view, size_t> group_of;
  for (size_t i = 0; i < mentions.size(); ++i) {
    const std::string& s = mentions[i].surface;
    auto [it, fresh] = group_of.try_emplace(s, groups.size());
    if (fresh) groups.push_back(Group{s.size(), {}});
    groups[it->second].members.push_back(i);
  }

  CandidatePairs pairs;
  // Identical surfaces score 1.0.
  if (1.0 >= threshold) {
    for (const Group& g : groups) {
      for (size_t i = 0; i < g.members.size(); ++i) {
        for (size_t j = i + 1; j < g.members.size(); ++j) {
          pairs.emplace_back(g.members[i], g.members[j]);
        }
      }
    }
  }
  auto pair_groups = [&pairs](const Group& x, const Group& y) {
    for (size_t a : x.members) {
      for (size_t b : y.members) {
        pairs.emplace_back(std::min(a, b), std::max(a, b));
      }
    }
  };

  // Distinct surfaces of lengths m <= n are at least max(1, n - m) edits
  // apart, so their score is at most LevenshteinScore(max(1, n - m), n).
  std::sort(groups.begin(), groups.end(),
            [](const Group& x, const Group& y) { return x.length < y.length; });
  for (size_t i = 0; i < groups.size(); ++i) {
    const size_t m = groups[i].length;
    auto longer = std::partition_point(
        groups.begin() + static_cast<long>(i) + 1, groups.end(),
        [m](const Group& g) { return g.length == m; });
    const size_t same_end = static_cast<size_t>(longer - groups.begin());
    // Equal lengths get their own test: the bound at gap 0 (one edit) is
    // below the bound at gap 1, so the scan below cannot cover them.
    if (same_end > i + 1 && text::LevenshteinScore(1, m) >= threshold) {
      for (size_t j = i + 1; j < same_end; ++j) {
        pair_groups(groups[i], groups[j]);
      }
    }
    // From gap 1 on, the bound falls as the longer length grows: stop at
    // the first length that cannot reach the threshold.
    for (size_t j = same_end; j < groups.size(); ++j) {
      const size_t n = groups[j].length;
      if (!(text::LevenshteinScore(n - m, n) >= threshold)) break;
      pair_groups(groups[i], groups[j]);
    }
  }
  return pairs;
}

std::vector<std::string> NameMatcher::NormalizeTokens(
    const std::string& s) {
  // Token-set scoring is order-insensitive, so "Smith, David" needs no
  // reorder — only lowercasing and stop-token stripping.
  std::vector<std::string> tokens = text::WordTokens(s);
  // Drop leading stop tokens ("City of Madison" -> "madison").
  static const char* kStops[] = {"city", "of", "the", "town"};
  size_t start = 0;
  while (start < tokens.size()) {
    bool is_stop = false;
    for (const char* stop : kStops) {
      if (tokens[start] == stop) {
        is_stop = true;
        break;
      }
    }
    if (!is_stop) break;
    ++start;
  }
  if (start > 0 && start < tokens.size()) {
    tokens.erase(tokens.begin(), tokens.begin() + static_cast<long>(start));
  }
  return tokens;
}

double NameMatcher::Score(const MentionRecord& a,
                          const MentionRecord& b) const {
  std::vector<std::string> ta = NormalizeTokens(a.surface);
  std::vector<std::string> tb = NormalizeTokens(b.surface);
  if (ta.empty() || tb.empty()) return 0.0;
  if (ta.size() > tb.size()) std::swap(ta, tb);
  // Greedy alignment of the smaller token set into the larger one;
  // single-letter tokens ("d" from "D.") match on initial.
  std::vector<bool> used(tb.size(), false);
  size_t matched = 0;
  for (const std::string& x : ta) {
    for (size_t j = 0; j < tb.size(); ++j) {
      if (used[j]) continue;
      const std::string& y = tb[j];
      bool hit = x == y ||
                 (x.size() == 1 && !y.empty() && y[0] == x[0]) ||
                 (y.size() == 1 && !x.empty() && x[0] == y[0]);
      if (hit) {
        used[j] = true;
        ++matched;
        break;
      }
    }
  }
  double containment = static_cast<double>(matched) / ta.size();
  double jw = text::JaroWinklerSimilarity(a.surface, b.surface);
  // Containment dominates; JW breaks ties between near-misses.
  return 0.8 * containment + 0.2 * jw;
}

}  // namespace structura::ii
