#include "query/keyword_index.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"
#include "text/wiki_markup.h"

namespace structura::query {

void KeywordIndex::AddDocument(const text::Document& doc) {
  uint32_t index = static_cast<uint32_t>(doc_ids_.size());
  doc_ids_.push_back(doc.id);
  titles_.push_back(doc.title);
  std::string plain = text::StripMarkup(doc.text);
  // Title tokens are indexed too (they matter for entity queries).
  std::vector<std::string> tokens = text::WordTokens(doc.title);
  for (std::string& t : text::WordTokens(plain)) {
    tokens.push_back(std::move(t));
  }
  std::map<std::string, uint32_t> tf;
  for (const std::string& t : tokens) ++tf[t];
  for (const auto& [term, freq] : tf) {
    postings_[term].push_back(Posting{index, freq});
  }
  doc_lengths_.push_back(static_cast<uint32_t>(tokens.size()));
}

void KeywordIndex::Finalize() {
  double total = 0;
  for (uint32_t len : doc_lengths_) total += len;
  avg_doc_length_ =
      doc_lengths_.empty() ? 0 : total / static_cast<double>(
                                             doc_lengths_.size());
}

std::vector<SearchHit> KeywordIndex::Search(const std::string& query,
                                            size_t k) const {
  // An infinite interrupt can't fire, so the Result is always a value.
  return *Search(query, k, Interrupt{});
}

Result<std::vector<SearchHit>> KeywordIndex::Search(
    const std::string& query, size_t k, const Interrupt& intr) const {
  TRACE_SPAN("query.keyword");
  static obs::Counter* searches =
      obs::MetricsRegistry::Default().GetCounter("query.keyword.searches");
  static obs::Histogram* latency = obs::MetricsRegistry::Default().GetHistogram(
      "query.keyword.latency_ns");
  searches->Increment();
  obs::ScopedLatency record_latency(latency);
  // BM25 parameters: term-frequency saturation and length normalization.
  constexpr double kK1 = 1.2;
  constexpr double kB = 0.75;
  // Cooperative check-point cadence: cheap relative to the scoring work
  // between polls, frequent enough to honour millisecond deadlines.
  constexpr size_t kCheckEvery = 4096;
  size_t since_check = 0;
  std::vector<double> scores(doc_ids_.size(), 0.0);
  const double n = static_cast<double>(doc_ids_.size());
  for (const std::string& term : text::WordTokens(query)) {
    STRUCTURA_RETURN_IF_ERROR(intr.Check());
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    const std::vector<Posting>& plist = it->second;
    // One "row" per posting scored: the unit the accounting compares
    // across operators.
    obs::ChargeCost(obs::CostDim::kRowsScanned, plist.size());
    double df = static_cast<double>(plist.size());
    double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    for (const Posting& p : plist) {
      if (++since_check >= kCheckEvery) {
        since_check = 0;
        STRUCTURA_RETURN_IF_ERROR(intr.Check());
      }
      double tf = p.term_freq;
      double len_norm = 1.0 - kB +
                        kB * doc_lengths_[p.doc_index] /
                            std::max(1.0, avg_doc_length_);
      scores[p.doc_index] += idf * tf * (kK1 + 1.0) / (tf + kK1 * len_norm);
    }
  }
  STRUCTURA_RETURN_IF_ERROR(intr.Check());
  std::vector<size_t> order;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] > 0) order.push_back(i);
  }
  std::partial_sort(order.begin(),
                    order.begin() + std::min(k, order.size()), order.end(),
                    [&](size_t a, size_t b) {
                      if (scores[a] != scores[b]) {
                        return scores[a] > scores[b];
                      }
                      return a < b;
                    });
  order.resize(std::min(k, order.size()));
  std::vector<SearchHit> hits;
  hits.reserve(order.size());
  for (size_t i : order) {
    hits.push_back(SearchHit{doc_ids_[i], scores[i], titles_[i]});
  }
  return hits;
}

std::string MakeSnippet(const text::Document& doc,
                        const std::string& query, size_t max_chars) {
  std::string plain = text::StripMarkup(doc.text);
  std::vector<std::string> terms = text::WordTokens(query);
  std::vector<text::Span> sentences = text::SplitSentences(plain);
  size_t best_hits = 0;
  text::Span best{0, static_cast<uint32_t>(
                         std::min(plain.size(), max_chars))};
  for (const text::Span& s : sentences) {
    std::string sentence = plain.substr(s.begin, s.length());
    std::vector<std::string> tokens = text::WordTokens(sentence);
    size_t hits = 0;
    for (const std::string& term : terms) {
      for (const std::string& tok : tokens) {
        if (tok == term) {
          ++hits;
          break;
        }
      }
    }
    if (hits > best_hits) {
      best_hits = hits;
      best = s;
    }
  }
  std::string snippet = plain.substr(best.begin, best.length());
  // Collapse whitespace runs for one-line rendering.
  std::string out;
  bool in_space = false;
  for (char c : snippet) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space && !out.empty()) out += ' ';
      in_space = true;
    } else {
      out += c;
      in_space = false;
    }
  }
  if (out.size() > max_chars) {
    out.resize(max_chars - 3);
    out += "...";
  }
  return out;
}

}  // namespace structura::query
