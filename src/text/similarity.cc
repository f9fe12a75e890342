#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace structura::text {

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size(), n = b.size();
  if (m == 0) return n;
  std::vector<size_t> row(m + 1);
  for (size_t i = 0; i <= m; ++i) row[i] = i;
  for (size_t j = 1; j <= n; ++j) {
    size_t prev = row[0];
    row[0] = j;
    for (size_t i = 1; i <= m; ++i) {
      size_t cur = row[i];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, prev + cost});
      prev = cur;
    }
  }
  return row[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return LevenshteinScore(LevenshteinDistance(a, b), longest);
}

double LevenshteinScore(size_t distance, size_t longest) {
  return 1.0 - static_cast<double>(distance) / static_cast<double>(longest);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  const size_t la = a.size(), lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  if (la == 0 || lb == 0) return 0.0;
  const size_t window =
      std::max<size_t>(1, std::max(la, lb) / 2) - 1;
  std::vector<bool> a_match(la, false), b_match(lb, false);
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_match[j] || a[i] != b[j]) continue;
      a_match[i] = b_match[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t t = 0, k = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_match[i]) continue;
    while (!b_match[k]) ++k;
    if (a[i] != b[k]) ++t;
    ++k;
  }
  double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - t / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + 0.1 * static_cast<double>(prefix) * (1.0 - jaro);
}

double TokenJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const std::string& s : sa) {
    if (sb.count(s)) ++inter;
  }
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

double NgramJaccard(std::string_view a, std::string_view b, size_t n) {
  auto grams = [n](std::string_view s) {
    std::unordered_set<std::string> out;
    if (s.size() < n) {
      if (!s.empty()) out.emplace(s);
      return out;
    }
    for (size_t i = 0; i + n <= s.size(); ++i) {
      out.emplace(s.substr(i, n));
    }
    return out;
  };
  auto ga = grams(a), gb = grams(b);
  if (ga.empty() && gb.empty()) return 1.0;
  size_t inter = 0;
  for (const std::string& g : ga) {
    if (gb.count(g)) ++inter;
  }
  size_t uni = ga.size() + gb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

void TfIdfModel::AddDocument(const std::vector<std::string>& tokens) {
  std::unordered_set<std::string> uniq(tokens.begin(), tokens.end());
  for (const std::string& t : uniq) ++doc_freq_[t];
  ++num_docs_;
}

void TfIdfModel::Finalize() { finalized_ = true; }

double TfIdfModel::Idf(const std::string& term) const {
  auto it = doc_freq_.find(term);
  double df = it == doc_freq_.end() ? 0.0 : it->second;
  return std::log((static_cast<double>(num_docs_) + 1.0) / (df + 1.0)) +
         1.0;
}

double TfIdfModel::Cosine(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) const {
  std::unordered_map<std::string, double> va, vb;
  for (const std::string& t : a) va[t] += 1.0;
  for (const std::string& t : b) vb[t] += 1.0;
  double dot = 0, na = 0, nb = 0;
  for (auto& [t, tf] : va) {
    double w = tf * Idf(t);
    va[t] = w;
    na += w * w;
  }
  for (auto& [t, tf] : vb) {
    double w = tf * Idf(t);
    vb[t] = w;
    nb += w * w;
  }
  for (const auto& [t, w] : va) {
    auto it = vb.find(t);
    if (it != vb.end()) dot += w * it->second;
  }
  if (na == 0 || nb == 0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace structura::text
