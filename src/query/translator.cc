#include "query/translator.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/strings.h"
#include "corpus/records.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"

namespace structura::query {
namespace {

struct AggWord {
  const char* word;
  AggFn fn;
};

constexpr AggWord kAggWords[] = {
    {"average", AggFn::kAvg}, {"avg", AggFn::kAvg},
    {"mean", AggFn::kAvg},    {"total", AggFn::kSum},
    {"sum", AggFn::kSum},     {"count", AggFn::kCount},
    {"many", AggFn::kCount},  {"max", AggFn::kMax},
    {"highest", AggFn::kMax}, {"hottest", AggFn::kMax},
    {"largest", AggFn::kMax}, {"min", AggFn::kMin},
    {"lowest", AggFn::kMin},  {"coldest", AggFn::kMin},
    {"smallest", AggFn::kMin}};

/// Month token -> "01".."12".
std::optional<std::string> MonthNumber(const std::string& token) {
  for (int m = 0; m < corpus::kMonthsPerYear; ++m) {
    if (ToLower(corpus::kMonthNames[m]) == token) {
      return StrFormat("%02d", m + 1);
    }
  }
  return std::nullopt;
}

}  // namespace

void KeywordTranslator::BuildVocabulary(const Relation& facts) {
  subjects_.clear();
  attributes_.clear();
  std::set<std::string> subject_set, attribute_set;
  int si = facts.ColumnIndex(options_.subject_column);
  int ai = facts.ColumnIndex(options_.attribute_column);
  for (const Row& row : facts.rows()) {
    if (si >= 0) subject_set.insert(row[static_cast<size_t>(si)].ToString());
    if (ai >= 0) {
      attribute_set.insert(row[static_cast<size_t>(ai)].ToString());
    }
  }
  for (const std::string& s : subject_set) {
    SubjectEntry entry;
    entry.canonical = s;
    entry.tokens = text::WordTokens(s);
    subjects_.push_back(std::move(entry));
  }
  attributes_.assign(attribute_set.begin(), attribute_set.end());
  // Built-in synonyms for the standard attribute family.
  synonyms_ = {
      {"temperature", "temp_%"}, {"temperatures", "temp_%"},
      {"temp", "temp_%"},        {"population", "population"},
      {"people", "population"},  {"residents", "population"},
      {"founded", "founded"},    {"founding", "founded"},
      {"elevation", "elevation"},{"altitude", "elevation"},
      {"mayor", "mayor"},        {"residence", "residence"},
      {"lives", "residence"},    {"employees", "employees"},
      {"headquarters", "headquarters"},
  };
}

std::vector<QueryForm> KeywordTranslator::Translate(
    const std::string& keywords) const {
  // An infinite interrupt can't fire, so the Result is always a value.
  return *Translate(keywords, Interrupt{});
}

Result<std::vector<QueryForm>> KeywordTranslator::Translate(
    const std::string& keywords, const Interrupt& intr) const {
  TRACE_SPAN("query.translate");
  static obs::Counter* translations =
      obs::MetricsRegistry::Default().GetCounter("query.translate.requests");
  static obs::Histogram* latency = obs::MetricsRegistry::Default().GetHistogram(
      "query.translate.latency_ns");
  translations->Increment();
  obs::ScopedLatency record_latency(latency);
  constexpr size_t kCheckEvery = 256;
  std::vector<std::string> tokens = text::WordTokens(keywords);
  std::vector<bool> consumed(tokens.size(), false);

  // 1. Aggregate words.
  std::optional<AggFn> agg;
  for (size_t i = 0; i < tokens.size(); ++i) {
    for (const AggWord& w : kAggWords) {
      if (tokens[i] == w.word) {
        agg = w.fn;
        consumed[i] = true;
        break;
      }
    }
  }

  // 2. Month tokens (possibly a range like "March September").
  std::vector<std::string> months;
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::optional<std::string> m = MonthNumber(tokens[i]);
    if (m.has_value()) {
      months.push_back(*m);
      consumed[i] = true;
    }
  }

  // 3. Attribute synonyms.
  std::vector<std::string> attr_patterns;
  for (size_t i = 0; i < tokens.size(); ++i) {
    for (const auto& [word, pattern] : synonyms_) {
      if (tokens[i] == word) {
        if (std::find(attr_patterns.begin(), attr_patterns.end(),
                      pattern) == attr_patterns.end()) {
          attr_patterns.push_back(pattern);
        }
        consumed[i] = true;
      }
    }
  }
  // Exact attribute names typed verbatim.
  size_t since_check = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!attributes_.empty() &&
        (since_check += attributes_.size()) >= kCheckEvery) {
      since_check = 0;
      STRUCTURA_RETURN_IF_ERROR(intr.Check());
    }
    for (const std::string& attr : attributes_) {
      if (tokens[i] == ToLower(attr)) {
        if (std::find(attr_patterns.begin(), attr_patterns.end(), attr) ==
            attr_patterns.end()) {
          attr_patterns.push_back(attr);
        }
        consumed[i] = true;
      }
    }
  }

  // 4. Subject matches: a subject matches if all its tokens appear in
  // the (unconsumed-or-not) query; prefer longer subjects.
  std::vector<std::pair<const SubjectEntry*, size_t>> subject_hits;
  since_check = 0;
  for (const SubjectEntry& s : subjects_) {
    if (++since_check >= kCheckEvery) {
      since_check = 0;
      STRUCTURA_RETURN_IF_ERROR(intr.Check());
    }
    if (s.tokens.empty()) continue;
    size_t found = 0;
    for (const std::string& st : s.tokens) {
      if (std::find(tokens.begin(), tokens.end(), st) != tokens.end()) {
        ++found;
      }
    }
    if (found == s.tokens.size()) {
      subject_hits.emplace_back(&s, found);
    }
  }
  std::sort(subject_hits.begin(), subject_hits.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first->canonical < b.first->canonical;
            });
  // Mark subject tokens consumed (best hit only, for scoring).
  if (!subject_hits.empty()) {
    for (const std::string& st : subject_hits.front().first->tokens) {
      for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i] == st) consumed[i] = true;
      }
    }
  }

  // Scoring basis: fraction of query tokens explained.
  size_t explained = 0;
  for (bool c : consumed) explained += c ? 1 : 0;
  double base_score =
      tokens.empty() ? 0
                     : static_cast<double>(explained) /
                           static_cast<double>(tokens.size());

  // Candidate assembly: subjects x attribute patterns (bounded).
  std::vector<QueryForm> forms;
  auto add_candidate = [&](const SubjectEntry* subject,
                           const std::string& attr_pattern,
                           double bonus) {
    StructuredQuery q;
    q.source_view = options_.fact_view;
    if (subject != nullptr) {
      q.where.push_back(Condition{options_.subject_column, CompareOp::kEq,
                                  Value::Str(subject->canonical)});
    }
    std::string gloss;
    if (!attr_pattern.empty()) {
      if (months.size() >= 2 && attr_pattern == "temp_%") {
        // Month range: temp_MM sorts lexicographically.
        std::string lo = *std::min_element(months.begin(), months.end());
        std::string hi = *std::max_element(months.begin(), months.end());
        q.where.push_back(Condition{options_.attribute_column,
                                    CompareOp::kGe,
                                    Value::Str("temp_" + lo)});
        q.where.push_back(Condition{options_.attribute_column,
                                    CompareOp::kLe,
                                    Value::Str("temp_" + hi)});
      } else if (months.size() == 1 && attr_pattern == "temp_%") {
        q.where.push_back(Condition{options_.attribute_column,
                                    CompareOp::kEq,
                                    Value::Str("temp_" + months[0])});
      } else if (attr_pattern.find('%') != std::string::npos) {
        q.where.push_back(Condition{options_.attribute_column,
                                    CompareOp::kLike,
                                    Value::Str(attr_pattern)});
      } else {
        q.where.push_back(Condition{options_.attribute_column,
                                    CompareOp::kEq,
                                    Value::Str(attr_pattern)});
      }
    }
    if (agg.has_value()) {
      AggSpec spec;
      spec.fn = *agg;
      spec.column = *agg == AggFn::kCount ? "" : options_.value_column;
      spec.output_name = "result";
      q.aggregates.push_back(spec);
      if (subject == nullptr) {
        // No subject named: aggregate per subject.
        q.group_by.push_back(options_.subject_column);
      }
    } else {
      q.select = {options_.subject_column, options_.attribute_column,
                  options_.value_column};
    }
    QueryForm form;
    form.query = std::move(q);
    form.score = base_score + bonus;
    form.description = form.query.ToSql();
    forms.push_back(std::move(form));
  };

  const SubjectEntry* top_subject =
      subject_hits.empty() ? nullptr : subject_hits.front().first;
  if (!attr_patterns.empty()) {
    for (const std::string& pattern : attr_patterns) {
      add_candidate(top_subject, pattern, 0.2);
      // Alternative readings with other matched subjects.
      for (size_t i = 1; i < std::min<size_t>(2, subject_hits.size());
           ++i) {
        add_candidate(subject_hits[i].first, pattern, 0.1);
      }
      // Reading without a subject filter (aggregate across all).
      if (top_subject != nullptr) add_candidate(nullptr, pattern, 0.05);
    }
  } else if (top_subject != nullptr) {
    add_candidate(top_subject, "", 0.1);
  }

  std::stable_sort(forms.begin(), forms.end(),
                   [](const QueryForm& a, const QueryForm& b) {
                     return a.score > b.score;
                   });
  if (forms.size() > options_.max_candidates) {
    forms.resize(options_.max_candidates);
  }
  return forms;
}

}  // namespace structura::query
