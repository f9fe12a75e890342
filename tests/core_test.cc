#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/eval.h"
#include "core/schema_unify.h"
#include "core/system.h"
#include "corpus/generator.h"
#include "ie/pipeline.h"
#include "ie/standard.h"
#include "lang/executor.h"
#include "serve/frontend.h"

namespace structura::core {
namespace {

std::string TempDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("structura_core_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------------------------ eval

TEST(ScoreTest, PrecisionRecallF1) {
  Score s;
  s.true_positives = 8;
  s.false_positives = 2;
  s.false_negatives = 2;
  EXPECT_DOUBLE_EQ(s.precision(), 0.8);
  EXPECT_DOUBLE_EQ(s.recall(), 0.8);
  EXPECT_DOUBLE_EQ(s.f1(), 0.8);
  Score empty;
  EXPECT_DOUBLE_EQ(empty.precision(), 0.0);
  EXPECT_DOUBLE_EQ(empty.f1(), 0.0);
}

TEST(ScoreTest, NormalizeValue) {
  EXPECT_EQ(NormalizeValue(" 233,209 "), "233209");
  EXPECT_EQ(NormalizeValue("David Smith"), "David Smith");
}

TEST(EvalTest, ExtractionScoredAgainstTruth) {
  corpus::CorpusOptions options;
  options.num_cities = 15;
  options.num_people = 10;
  options.num_companies = 5;
  options.seed = 5;
  options.infobox_dropout = 0;
  options.attribute_missing = 0;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);
  std::vector<ie::ExtractorPtr> suite = ie::MakeStandardSuite();
  ie::FactSet facts = ie::RunExtractors(ie::Views(suite), docs);
  Score all = ScoreExtraction(facts, truth);
  // Clean corpus + full suite: near-perfect extraction. The residual
  // false positives are surface variants ("D. Smith" for the mayor
  // truth "David Smith") that entity resolution, not extraction,
  // normalizes.
  EXPECT_GT(all.f1(), 0.9) << all.ToString();
  Score temps = ScoreExtraction(facts, truth, "temp_%");
  EXPECT_GT(temps.recall(), 0.98) << temps.ToString();
  // An empty fact set scores zero recall.
  Score none = ScoreExtraction(ie::FactSet(), truth);
  EXPECT_EQ(none.true_positives, 0u);
  EXPECT_GT(none.false_negatives, 0u);
}

TEST(EvalTest, ClusteringPairwise) {
  // Truth: {0,1} same, {2} alone. Perfect clustering.
  Score perfect = ScoreClustering({10, 10, 20}, {0, 0, 2});
  EXPECT_DOUBLE_EQ(perfect.f1(), 1.0);
  // Everything merged: recall 1, precision 1/3.
  Score merged = ScoreClustering({10, 10, 20}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(merged.recall(), 1.0);
  EXPECT_NEAR(merged.precision(), 1.0 / 3.0, 1e-9);
  // Nothing merged: precision 0/0 -> 0, recall 0.
  Score split = ScoreClustering({10, 10, 20}, {0, 1, 2});
  EXPECT_DOUBLE_EQ(split.recall(), 0.0);
}

// ---------------------------------------------------------------- System

struct SystemFixture : public ::testing::Test {
  void SetUp() override {
    corpus::CorpusOptions options;
    options.num_cities = 15;
    options.num_people = 20;
    options.num_companies = 5;
    options.seed = 41;
    options.infobox_dropout = 0.3;
    options.typo_prob = 0.15;  // free-text noise for HI to repair
    corpus::GenerateCorpus(options, &docs, &truth);

    auto sys_or = core::System::Create(core::System::Options{});
    ASSERT_TRUE(sys_or.ok());
    sys = std::move(sys_or).value();
    sys->RegisterStandardOperators();
    ASSERT_TRUE(sys->IngestCrawl(docs).ok());
  }

  /// Oracle over ground truth for simulated humans.
  System::Oracle MakeOracle() {
    return [this](const std::string& subject,
                  const std::string& attribute)
               -> std::optional<std::string> {
      for (const corpus::FactTruth& f : truth.facts) {
        auto it = truth.canonical_names.find(f.entity);
        if (it == truth.canonical_names.end()) continue;
        if (it->second == subject && f.attribute == attribute) {
          return f.value;
        }
      }
      return std::nullopt;
    };
  }

  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  std::unique_ptr<core::System> sys;
};

TEST_F(SystemFixture, IngestPopulatesStores) {
  EXPECT_EQ(sys->documents().size(), docs.size());
  EXPECT_EQ(sys->snapshots().NumPages(), docs.size());
  auto hits = sys->KeywordSearch("Madison", 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].title, "Madison");
}

TEST_F(SystemFixture, RepeatedCrawlsVersionUp) {
  text::DocumentCollection day2 = docs;
  corpus::MutateCrawl(9, 0.3, &day2);
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  auto latest = sys->snapshots().LatestVersion(docs.docs[0].id);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 1u);
  // Old version still reconstructable.
  auto v0 = sys->snapshots().Get(docs.docs[0].id, 0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(*v0, docs.docs[0].text);
}

TEST_F(SystemFixture, GenerationAndBeliefs) {
  auto results = sys->RunProgram(
      "CREATE VIEW facts AS EXTRACT infobox, temp_sentence, "
      "population_sentence, founded_sentence, elevation_sentence "
      "FROM pages;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  EXPECT_GT(sys->beliefs().size(), 100u);
  Score s = ScoreBeliefs(sys->beliefs(), truth);
  EXPECT_GT(s.f1(), 0.7) << s.ToString();
  // Provenance exists for beliefs.
  bool explained_any = false;
  for (const auto& b : sys->beliefs()) {
    auto why = sys->Explain(b.subject, b.attribute);
    if (why.ok()) {
      explained_any = true;
      EXPECT_NE(why->find("belief"), std::string::npos);
      break;
    }
  }
  EXPECT_TRUE(explained_any);
}

TEST_F(SystemFixture, ExplainAnswersOnlyForHeldBeliefs) {
  ASSERT_TRUE(sys->RunProgram("CREATE VIEW pops AS EXTRACT "
                              "population_sentence FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("pops").ok());
  ASSERT_FALSE(sys->beliefs().empty());
  const uncertainty::AttributeBelief gone = sys->beliefs().front();
  ASSERT_EQ(gone.attribute, "population");
  ASSERT_TRUE(sys->Explain(gone.subject, gone.attribute).ok());

  // Rebuild from a view without populations: the old key's lineage is
  // still in the graph, but the System no longer holds that belief.
  ASSERT_TRUE(sys->RunProgram("CREATE VIEW temps AS EXTRACT temp_sentence "
                              "FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("temps").ok());
  ASSERT_FALSE(sys->beliefs().empty());
  for (const uncertainty::AttributeBelief& b : sys->beliefs()) {
    ASSERT_NE(b.attribute, "population");
    auto why = sys->Explain(b.subject, b.attribute);
    ASSERT_TRUE(why.ok()) << b.subject << "." << b.attribute;
    EXPECT_NE(why->find("belief " + b.subject + "." + b.attribute),
              std::string::npos);
  }
  auto stale = sys->Explain(gone.subject, gone.attribute);
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound)
      << (stale.ok() ? *stale : stale.status().ToString());
  EXPECT_FALSE(sys->Explain("Nowhere", "temp_01").ok());
}

TEST_F(SystemFixture, FeedbackImprovesAccuracy) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence, population_sentence, "
                     "founded_sentence, elevation_sentence FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  Score before = ScoreBeliefs(sys->beliefs(), truth);

  auto crowd = hi::MakeCrowd(9, 0.75, 0.95, 7);
  System::FeedbackOptions options;
  options.budget = 150;
  options.answers_per_task = 5;
  options.aggregation = System::Aggregation::kMajority;
  auto asked = sys->RunFeedbackRound(MakeOracle(), &crowd, options);
  ASSERT_TRUE(asked.ok()) << asked.status().ToString();
  EXPECT_GT(*asked, 0u);

  Score after = ScoreBeliefs(sys->beliefs(), truth);
  EXPECT_GT(after.f1(), before.f1())
      << "before=" << before.ToString() << " after=" << after.ToString();
  // Reputation accounting happened.
  EXPECT_GT(sys->users().NumUsers(), 0u);
  EXPECT_FALSE(sys->users().Leaderboard().empty());
  EXPECT_GT(sys->users().Leaderboard()[0].points, 0);
}

TEST_F(SystemFixture, FeedbackRequiresCrowd) {
  std::vector<hi::SimulatedUser> empty;
  EXPECT_FALSE(
      sys->RunFeedbackRound(MakeOracle(), &empty, {}).ok());
}

// Bit-exact equality of two belief sets (values, probabilities, support).
bool SameBeliefs(const std::vector<uncertainty::AttributeBelief>& a,
                 const std::vector<uncertainty::AttributeBelief>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].subject != b[i].subject || a[i].attribute != b[i].attribute ||
        a[i].alternatives.size() != b[i].alternatives.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].alternatives.size(); ++j) {
      const uncertainty::ValueAlternative& x = a[i].alternatives[j];
      const uncertainty::ValueAlternative& y = b[i].alternatives[j];
      if (x.value != y.value || x.probability != y.probability ||
          x.supporting_facts != y.supporting_facts) {
        return false;
      }
    }
  }
  return true;
}

TEST_F(SystemFixture, FeedbackRoundAsksInRankOrderWithinBudget) {
  const char* kFacts =
      "CREATE VIEW facts AS EXTRACT infobox, temp_sentence, "
      "population_sentence, founded_sentence, elevation_sentence "
      "FROM pages;";
  ASSERT_TRUE(sys->RunProgram(kFacts).ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());

  // Rank order: |top - 0.5| ascending, belief index on ties.
  const std::vector<uncertainty::AttributeBelief> before = sys->beliefs();
  auto top = [&](size_t i) {
    const uncertainty::ValueAlternative* t = before[i].Top();
    return t == nullptr ? 0.0 : t->probability;
  };
  std::vector<size_t> order(before.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double ua = std::abs(top(a) - 0.5), ub = std::abs(top(b) - 0.5);
    return ua != ub ? ua < ub : a < b;
  });

  // The oracle records every call and cannot answer every third key it
  // is asked (nor any key the ground truth lacks).
  System::Oracle truth = MakeOracle();
  std::vector<std::pair<std::string, std::string>> calls;
  System::Oracle recording = [&](const std::string& subject,
                                 const std::string& attribute)
      -> std::optional<std::string> {
    calls.emplace_back(subject, attribute);
    if (calls.size() % 3 == 0) return std::nullopt;
    return truth(subject, attribute);
  };
  System::FeedbackOptions options;
  options.budget = 25;
  options.answers_per_task = 3;
  std::vector<std::pair<std::string, std::string>> expected;
  size_t answerable = 0;
  for (size_t i : order) {
    if (answerable == options.budget) break;
    expected.emplace_back(before[i].subject, before[i].attribute);
    if (expected.size() % 3 != 0 &&
        truth(before[i].subject, before[i].attribute).has_value()) {
      ++answerable;
    }
  }
  ASSERT_EQ(answerable, options.budget) << "corpus too small for the budget";

  auto crowd = hi::MakeCrowd(4, 0.7, 0.95, 13);
  auto asked = sys->RunFeedbackRound(recording, &crowd, options);
  ASSERT_TRUE(asked.ok()) << asked.status().ToString();
  EXPECT_EQ(*asked, options.budget);
  EXPECT_EQ(calls, expected);
  // Every asked task collected answers_per_task answers, handed to the
  // crowd round-robin.
  std::vector<size_t> per_user(crowd.size(), 0);
  for (size_t k = 0; k < options.budget * options.answers_per_task; ++k) {
    ++per_user[k % crowd.size()];
  }
  for (size_t u = 0; u < crowd.size(); ++u) {
    auto info = sys->users().GetUser(crowd[u].name());
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->feedback_count, per_user[u]) << crowd[u].name();
  }

  // A round whose tasks gather no answers asks the same count and changes
  // neither beliefs nor reputations.
  const std::vector<uncertainty::AttributeBelief> settled = sys->beliefs();
  std::map<std::string, double> reputations = sys->users().ReputationWeights();
  options.answers_per_task = 0;
  auto silent = sys->RunFeedbackRound(truth, &crowd, options);
  ASSERT_TRUE(silent.ok());
  EXPECT_EQ(*silent, options.budget);
  EXPECT_TRUE(SameBeliefs(sys->beliefs(), settled));
  EXPECT_EQ(sys->users().ReputationWeights(), reputations);

  // Same seed and crowd: identical beliefs under every aggregation mode.
  for (System::Aggregation mode :
       {System::Aggregation::kMajority, System::Aggregation::kWeighted,
        System::Aggregation::kDawidSkene}) {
    std::vector<std::vector<uncertainty::AttributeBelief>> ends;
    for (int copy = 0; copy < 2; ++copy) {
      auto other = std::move(System::Create(System::Options{})).value();
      other->RegisterStandardOperators();
      ASSERT_TRUE(other->IngestCrawl(docs).ok());
      ASSERT_TRUE(other->RunProgram(kFacts).ok());
      ASSERT_TRUE(other->BuildBeliefsFromView("facts").ok());
      auto noisy = hi::MakeCrowd(7, 0.55, 0.9, 29);
      System::FeedbackOptions o;
      o.budget = 40;
      o.answers_per_task = 4;
      o.aggregation = mode;
      for (int round = 0; round < 2; ++round) {
        ASSERT_TRUE(other->RunFeedbackRound(truth, &noisy, o).ok());
      }
      ends.push_back(other->beliefs());
    }
    EXPECT_TRUE(SameBeliefs(ends[0], ends[1]))
        << "mode " << static_cast<int>(mode);
    EXPECT_FALSE(SameBeliefs(ends[0], before))
        << "mode " << static_cast<int>(mode);
  }
}

TEST_F(SystemFixture, MaterializeAndRecover) {
  std::string dir = TempDir("materialize");
  {
    auto sys2_or =
        core::System::Create(core::System::Options{dir});
    ASSERT_TRUE(sys2_or.ok());
    auto sys2 = std::move(sys2_or).value();
    sys2->RegisterStandardOperators();
    ASSERT_TRUE(sys2->IngestCrawl(docs).ok());
    ASSERT_TRUE(
        sys2->RunProgram("CREATE VIEW facts AS EXTRACT infobox FROM pages;")
            .ok());
    ASSERT_TRUE(sys2->BuildBeliefsFromView("facts").ok());
    ASSERT_TRUE(sys2->MaterializeBeliefs("final").ok());
    auto txn = sys2->database()->Begin();
    auto rows = txn->Scan("final");
    ASSERT_TRUE(rows.ok());
    EXPECT_GT(rows->size(), 50u);
    txn->Commit();
  }
  // Reopen from the same workspace: the final table is durable.
  auto again_or =
      core::System::Create(core::System::Options{dir});
  ASSERT_TRUE(again_or.ok());
  auto again = std::move(again_or).value();
  rdbms::Table* table = again->database()->GetTable("final");
  ASSERT_NE(table, nullptr);
  EXPECT_GT(table->LiveRowCount(), 50u);
}

TEST_F(SystemFixture, WorkspaceHoldsOnlyTheStoresItReads) {
  std::string dir = TempDir("layout");
  auto ws_or = core::System::Create(core::System::Options{dir});
  ASSERT_TRUE(ws_or.ok());
  auto ws = std::move(ws_or).value();
  ws->RegisterStandardOperators();
  ASSERT_TRUE(ws->IngestCrawl(docs).ok());
  auto ran = ws->RunProgram(
      "CREATE VIEW facts AS EXTRACT infobox FROM pages;"
      "CREATE VIEW resolved AS RESOLVE ENTITIES FROM facts "
      "USING levenshtein THRESHOLD 0.95;");
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  ASSERT_TRUE(ws->BuildBeliefsFromView("resolved").ok());
  ASSERT_TRUE(ws->MaterializeBeliefs("final").ok());

  // Every durable byte has a reader: the final store and the snapshot
  // journal, nothing else.
  std::set<std::string> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    entries.insert(e.path().filename().string());
  }
  EXPECT_EQ(entries, (std::set<std::string>{"db", "snapshots"}));

  // The scrub verifies exactly those two stores.
  IntegrityCounters db_scrub;
  IntegrityCounters snapshot_scrub;
  ASSERT_TRUE(ws->database()->Scrub(&db_scrub).ok());
  ASSERT_TRUE(ws->snapshots().Scrub(&snapshot_scrub).ok());
  EXPECT_GT(db_scrub.records_verified, 0u);
  EXPECT_EQ(snapshot_scrub.records_verified, docs.size());
  auto scrub = ws->ScrubStorage();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_FALSE(scrub->AnyDamage());
  EXPECT_EQ(scrub->records_verified,
            db_scrub.records_verified + snapshot_scrub.records_verified);
  ws.reset();
  std::filesystem::remove_all(dir);
}

TEST_F(SystemFixture, AuditFlagsInjectedCorruption) {
  ASSERT_TRUE(
      sys->RunProgram(
             "CREATE VIEW facts AS EXTRACT infobox FROM pages;")
          .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  // Clean infobox facts: few or no violations.
  size_t clean_violations = sys->AuditFacts().size();
  EXPECT_LT(clean_violations, 5u);
  EXPECT_NE(sys->monitor().Report().find("docs="), std::string::npos);
}

TEST_F(SystemFixture, SuggestAndRunForms) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  auto forms = sys->SuggestQueries("average temperature madison");
  ASSERT_FALSE(forms.empty());
  auto rel = sys->RunForm(forms[0]);
  ASSERT_TRUE(rel.ok());
  ASSERT_GE(rel->size(), 1u);
  // The answer should be near Madison's true annual mean.
  const corpus::CityRecord* madison = truth.FindCity("Madison");
  double truth_avg = 0;
  for (int t : madison->temps) truth_avg += t;
  truth_avg /= 12.0;
  double got = 0;
  rel->At(0, "result").ToNumber(&got);
  EXPECT_NEAR(got, truth_avg, 8.0);
}

TEST(SchemaUnifyTest, RepairsHeterogeneousVocabulary) {
  // Half the city pages use a second source's vocabulary
  // (inhabitants/location/altitude).
  corpus::CorpusOptions options;
  options.num_cities = 30;
  options.num_people = 0;
  options.num_companies = 0;
  options.seed = 9;
  options.infobox_dropout = 0;
  options.attribute_missing = 0;
  options.alt_schema_fraction = 0.5;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);

  auto sys = std::move(core::System::Create({})).value();
  sys->RegisterStandardOperators();
  ASSERT_TRUE(sys->IngestCrawl(docs).ok());
  ASSERT_TRUE(
      sys->RunProgram("CREATE VIEW facts AS EXTRACT infobox FROM pages;")
          .ok());
  const query::Relation* facts = sys->View("facts");
  ASSERT_NE(facts, nullptr);
  // Heterogeneity is present before unification.
  auto inhabitants = query::Filter(
      *facts, {query::Condition{"attribute", query::CompareOp::kEq,
                                query::Value::Str("inhabitants")}});
  ASSERT_TRUE(inhabitants.ok());
  EXPECT_GT(inhabitants->size(), 0u);

  ii::SchemaMatchOptions match_options;
  match_options.threshold = 0.45;
  match_options.synonyms = {{"inhabitants", "population"},
                            {"location", "state"},
                            {"altitude", "elevation"}};
  auto unified = UnifySchema(
      *facts, {"population", "state", "elevation", "founded", "mayor"},
      match_options);
  ASSERT_TRUE(unified.ok()) << unified.status().ToString();
  EXPECT_EQ(unified->renames.at("inhabitants"), "population");
  EXPECT_EQ(unified->renames.at("location"), "state");
  EXPECT_EQ(unified->renames.at("altitude"), "elevation");
  // After rewriting, the alternate vocabulary is gone.
  auto leftover = query::Filter(
      unified->unified,
      {query::Condition{"attribute", query::CompareOp::kEq,
                        query::Value::Str("inhabitants")}});
  EXPECT_EQ(leftover->size(), 0u);
  auto population = query::Filter(
      unified->unified,
      {query::Condition{"attribute", query::CompareOp::kEq,
                        query::Value::Str("population")}});
  EXPECT_EQ(population->size(), 30u);  // every city, both sources
}

TEST(SchemaUnifyTest, InstanceSimilarityAloneCanMatch) {
  // No registered synonym: "inhabitants" still matches "population"
  // through overlapping numeric value ranges plus weak name similarity
  // only if the combined score clears the threshold; with a low
  // threshold the instance signal should carry it.
  query::Relation facts({"attribute", "value"});
  for (int i = 0; i < 20; ++i) {
    facts
        .Append({query::Value::Str(i % 2 == 0 ? "population"
                                              : "inhabitants"),
                 query::Value::Str(std::to_string(10000 + i * 137))})
        .ok();
  }
  ii::SchemaMatchOptions options;
  options.threshold = 0.4;
  options.name_weight = 0.2;
  options.value_weight = 0.8;
  auto unified = UnifySchema(facts, {"population"}, options);
  ASSERT_TRUE(unified.ok());
  EXPECT_EQ(unified->renames.count("inhabitants"), 1u);
}

TEST(SchemaUnifyTest, MissingColumnsRejected) {
  query::Relation not_facts({"x", "y"});
  EXPECT_FALSE(UnifySchema(not_facts, {"population"}, {}).ok());
}

TEST_F(SystemFixture, IncrementalCrawlMarksOnlyChangedDocsDirty) {
  // First ingest: everything is new, hence dirty.
  EXPECT_EQ(sys->context().dirty_docs.size(), docs.size());
  // Second crawl with 20% churn: only edited pages become dirty.
  text::DocumentCollection day2 = docs;
  corpus::MutateCrawl(3, 0.2, &day2);
  size_t changed = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (day2.docs[i].text != docs.docs[i].text) ++changed;
  }
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  EXPECT_EQ(sys->context().dirty_docs.size(), changed);
  // An identical third crawl dirties nothing.
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  EXPECT_TRUE(sys->context().dirty_docs.empty());
}

TEST_F(SystemFixture, RefreshViewAfterCrawl) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  text::DocumentCollection day2 = docs;
  corpus::MutateCrawl(3, 0.15, &day2);
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  size_t dirty = sys->context().dirty_docs.size();
  size_t runs_before = sys->context().extractor_runs;
  auto results = sys->RunProgram("REFRESH VIEW facts;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  // Re-extraction cost is proportional to churn, not corpus size:
  // 2 extractors x dirty docs.
  EXPECT_EQ(sys->context().extractor_runs - runs_before, 2 * dirty);
  // Equivalence: the refreshed view matches a from-scratch rebuild.
  query::Relation refreshed = *sys->View("facts");
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts2 AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  const query::Relation* rebuilt = sys->View("facts2");
  ASSERT_EQ(refreshed.size(), rebuilt->size());
  std::multiset<std::string> a, b;
  auto key = [](const query::Row& r) {
    std::string k;
    for (const auto& v : r) k += v.ToString() + "\x1f";
    return k;
  };
  for (const auto& r : refreshed.rows()) a.insert(key(r));
  for (const auto& r : rebuilt->rows()) b.insert(key(r));
  EXPECT_EQ(a, b);
}

TEST_F(SystemFixture, RefreshAfterRefusedCrawlSeesItsChanges) {
  const char* kFacts =
      "CREATE VIEW facts AS EXTRACT infobox, population_sentence FROM "
      "pages;";
  ASSERT_TRUE(sys->RunProgram(kFacts).ok());
  // Crawl 2 revises the infobox population of the first city pages.
  text::DocumentCollection day2 = docs;
  std::vector<std::string> revised;
  size_t last_revised = 0;
  for (size_t i = 0; i < day2.size() && revised.size() < 4; ++i) {
    std::string& text = day2.docs[i].text;
    const std::string field = "| population = ";
    size_t at = text.find(field);
    if (at == std::string::npos) continue;
    at += field.size();
    std::string value = std::to_string(1000003 + 7 * revised.size());
    text.replace(at, text.find('\n', at) - at, value);
    revised.push_back(value);
    last_revised = i;
  }
  ASSERT_EQ(revised.size(), 4u);
  ASSERT_LT(last_revised + 1, day2.size());
  {
    // Refused at the crawl's last page: every revised page was hashed and
    // appended before the refusal.
    ScopedFailpoint refuse("snapshot.append",
                           FailpointRegistry::Spec::Nth(day2.size()));
    ASSERT_FALSE(sys->IngestCrawl(day2).ok());
  }
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  EXPECT_GE(sys->context().dirty_docs.size(), revised.size());
  auto results = sys->RunProgram("REFRESH VIEW facts;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  // Equivalence: a fresh System's extraction over the same crawl.
  auto fresh = std::move(System::Create(System::Options{})).value();
  fresh->RegisterStandardOperators();
  ASSERT_TRUE(fresh->IngestCrawl(day2).ok());
  ASSERT_TRUE(fresh->RunProgram(kFacts).ok());
  auto key = [](const query::Row& r) {
    std::string k;
    for (const auto& v : r) k += v.ToString() + "\x1f";
    return k;
  };
  std::multiset<std::string> refreshed, rebuilt;
  for (const auto& r : sys->View("facts")->rows()) refreshed.insert(key(r));
  for (const auto& r : fresh->View("facts")->rows()) rebuilt.insert(key(r));
  EXPECT_TRUE(refreshed == rebuilt)
      << refreshed.size() << " refreshed rows vs " << rebuilt.size()
      << " rebuilt";
  for (const std::string& value : revised) {
    bool found = false;
    for (const auto& r : sys->View("facts")->rows()) {
      if (r[static_cast<size_t>(sys->View("facts")->ColumnIndex("value"))]
              .ToString() == value) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "revised population " << value;
  }
}

TEST_F(SystemFixture, StandingQueriesAlertAcrossRefreshes) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox FROM pages;")
                  .ok());
  query::StandingQueryRegistry::Spec spec;
  spec.name = "fact_count";
  spec.query.source_view = "facts";
  spec.query.aggregates = {
      query::AggSpec{query::AggFn::kCount, "", "n"}};
  ASSERT_TRUE(sys->Watch(spec).ok());

  auto alerts = sys->CheckWatches("facts");
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts->size(), 1u);
  EXPECT_EQ((*alerts)[0].kind, "first_result");

  // No change: silence.
  alerts = sys->CheckWatches("facts");
  ASSERT_TRUE(alerts.ok());
  EXPECT_TRUE(alerts->empty());

  // A churned crawl + refresh changes the fact count: alert fires.
  text::DocumentCollection day2 = docs;
  corpus::MutateCrawl(3, 0.5, &day2);
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  // MutateCrawl only appends prose, which the infobox extractor ignores;
  // edit one infobox value instead to actually change the facts.
  text::DocumentCollection day3 = day2;
  for (auto& d : day3.docs) {
    size_t pos = d.text.find("| population = ");
    if (pos != std::string::npos) {
      d.text.insert(pos, "| motto = Forward\n");
      break;
    }
  }
  ASSERT_TRUE(sys->IngestCrawl(day3).ok());
  ASSERT_TRUE(sys->RunProgram("REFRESH VIEW facts;").ok());
  alerts = sys->CheckWatches("facts");
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts->size(), 1u);
  EXPECT_EQ((*alerts)[0].kind, "changed");

  EXPECT_FALSE(sys->CheckWatches("missing_view").ok());
}

TEST_F(SystemFixture, StatusReportSummarizes) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("documents:"), std::string::npos);
  EXPECT_NE(report.find("facts:"), std::string::npos);
  EXPECT_NE(report.find("beliefs:"), std::string::npos);
  EXPECT_NE(report.find("monitor:"), std::string::npos);
}

TEST_F(SystemFixture, StatusReportIncludesServingCounters) {
  // Without a provider, the section is absent.
  EXPECT_EQ(sys->StatusReport().find("serving:"), std::string::npos);

  serve::Frontend::Options fopts;
  fopts.num_threads = 2;
  serve::Frontend frontend(fopts);
  frontend.RegisterOperator("keyword", [this](const serve::RequestContext&) {
    return sys->KeywordSearch("Madison", 3).empty()
               ? Status::NotFound("no hits")
               : Status::OK();
  });
  sys->SetServingStatsProvider([&frontend] { return frontend.Counters(); });

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(frontend.Call("keyword", serve::RequestContext{}).ok());
  }
  {
    // A burst of injected faults exhausts the retry budget and resolves
    // kUnavailable — the report must show the non-OK outcome too.
    ScopedFailpoint fp("serve.op.keyword", FailpointRegistry::Spec::Always());
    serve::RequestContext ctx;
    ctx.retry_budget = 0;
    EXPECT_EQ(frontend.Call("keyword", std::move(ctx)).code(),
              StatusCode::kUnavailable);
  }

  // The provider is live: the section matches the counters snapshot
  // taken at the same point, and reflects the real request totals.
  serve::ServingCounters counters = frontend.Counters();
  EXPECT_EQ(counters.issued, 5u);
  EXPECT_EQ(counters.admitted + counters.shed + counters.not_found,
            counters.issued);
  EXPECT_EQ(counters.ok, 4u);
  EXPECT_EQ(counters.unavailable, 1u);
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("serving: " + counters.ToString()), std::string::npos);
  EXPECT_NE(report.find("issued=5"), std::string::npos);
  EXPECT_NE(report.find("keyword(closed)"), std::string::npos);
  // The serve.op failpoint site shows up in the fault-injection section.
  EXPECT_NE(report.find("serve.op.keyword"), std::string::npos);

  // Detaching removes the section (and makes the frontend safe to drop).
  sys->SetServingStatsProvider(nullptr);
  EXPECT_EQ(sys->StatusReport().find("serving:"), std::string::npos);
}

TEST_F(SystemFixture, FaultedExtractorIsQuarantinedAndSystemDegrades) {
  // Every temp_sentence invocation faults; after the error budget the
  // operator is quarantined and generation continues best-effort on the
  // remaining extractors (Section 3.2's incremental, best-effort DGE).
  ScopedFailpoint fp("ie.extract.temp_sentence",
                     FailpointRegistry::Spec::Always());
  auto results = sys->RunProgram(
      "CREATE VIEW facts AS EXTRACT infobox, temp_sentence FROM pages;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  EXPECT_EQ(sys->QuarantinedExtractors().count("temp_sentence"), 1u);
  EXPECT_EQ(sys->QuarantinedExtractors().count("infobox"), 0u);

  // The view holds no facts from the quarantined operator, but the
  // healthy one still produced output.
  const query::Relation* facts = sys->View("facts");
  ASSERT_NE(facts, nullptr);
  ASSERT_GT(facts->rows().size(), 0u);
  int ecol = facts->ColumnIndex("extractor");
  ASSERT_GE(ecol, 0);
  for (const auto& row : facts->rows()) {
    EXPECT_NE(row[ecol].ToString(), "temp_sentence");
  }

  // Downstream stages keep working: beliefs materialize into the final
  // store from the surviving facts.
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  EXPECT_GT(sys->beliefs().size(), 0u);
  ASSERT_TRUE(sys->MaterializeBeliefs("final").ok());

  // The degradation is visible in the operational report.
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("degraded operators:"), std::string::npos);
  EXPECT_NE(report.find("temp_sentence"), std::string::npos);
  EXPECT_NE(report.find("quarantined"), std::string::npos);
  EXPECT_NE(report.find("failpoints:"), std::string::npos);
  EXPECT_NE(report.find("ie.extract.temp_sentence"), std::string::npos);
}

TEST_F(SystemFixture, ExtractorFaultsBelowBudgetDoNotQuarantine) {
  // Two isolated faults stay under the default budget of three: the
  // extractor keeps running, and the report shows the fault count
  // without a quarantine marker.
  ScopedFailpoint fp("ie.extract.temp_sentence",
                     FailpointRegistry::Spec::Nth(2));
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  EXPECT_TRUE(sys->QuarantinedExtractors().empty());
  // One doc's temp facts were dropped, the rest extracted.
  const query::Relation* facts = sys->View("facts");
  ASSERT_NE(facts, nullptr);
  int ecol = facts->ColumnIndex("extractor");
  size_t temp_rows = 0;
  for (const auto& row : facts->rows()) {
    if (row[ecol].ToString() == "temp_sentence") ++temp_rows;
  }
  EXPECT_GT(temp_rows, 0u);
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("temp_sentence(faults=1)"), std::string::npos);
}

/// EXTRACT over every extractor registered in `ctx`, as a plan and as
/// an SDL program.
lang::PlanNode ExtractEveryExtractor(const lang::ExecutionContext& ctx) {
  lang::PlanNode plan;
  plan.type = lang::PlanNode::Type::kExtract;
  for (const auto& [name, extractor] : ctx.extractors) {
    plan.extractors.push_back(name);
  }
  plan.children.push_back(std::make_unique<lang::PlanNode>());
  plan.children.back()->type = lang::PlanNode::Type::kScanDocs;
  return plan;
}

std::string ExtractEveryExtractorSdl(const lang::ExecutionContext& ctx,
                                     const std::string& view) {
  std::string names;
  for (const auto& [name, extractor] : ctx.extractors) {
    names += (names.empty() ? "" : ", ") + name;
  }
  return "CREATE VIEW " + view + " AS EXTRACT " + names + " FROM pages;";
}

TEST_F(SystemFixture, IeHealthReadsOnlyThisSystemsQuarantine) {
  // Per-request copies of the execution context (the chaos harness
  // pattern) fault and quarantine on ledgers of their own: the System
  // keeps none quarantined, and its `ie` signal stays off critical.
  lang::PlanNode plan = ExtractEveryExtractor(sys->context());
  size_t quarantined_in_copies = 0;
  {
    ScopedFailpoint fp("ie.extract",
                       FailpointRegistry::Spec::WithProbability(0.05, 12));
    for (int request = 0; request < 20; ++request) {
      lang::ExecutionContext copy = sys->context();
      ASSERT_TRUE(lang::ExecutePlan(plan, &copy).ok());
      quarantined_in_copies += copy.extractor_faults.Read().quarantined.size();
    }
  }
  ASSERT_GT(quarantined_in_copies, 0u);  // the copies did quarantine
  sys->health().Evaluate();
  EXPECT_TRUE(sys->QuarantinedExtractors().empty());
  EXPECT_NE(sys->health().StateOf("ie"), serve::HealthState::kCritical)
      << sys->HealthJson();

  // The System's own EXTRACT does count: one quarantined extractor
  // degrades `ie`...
  {
    ScopedFailpoint fp("ie.extract.temp_sentence",
                       FailpointRegistry::Spec::Always());
    ASSERT_TRUE(sys->RunProgram("CREATE VIEW temps AS EXTRACT infobox, "
                                "temp_sentence FROM pages;")
                    .ok());
  }
  sys->health().Evaluate();
  EXPECT_EQ(sys->QuarantinedExtractors(),
            std::set<std::string>{"temp_sentence"});
  EXPECT_EQ(sys->health().StateOf("ie"), serve::HealthState::kDegraded)
      << sys->HealthJson();

  // ...and quarantining every extractor makes it critical.
  {
    ScopedFailpoint fp("ie.extract", FailpointRegistry::Spec::Always());
    ASSERT_TRUE(
        sys->RunProgram(ExtractEveryExtractorSdl(sys->context(), "all_facts"))
            .ok());
  }
  sys->health().Evaluate();
  EXPECT_EQ(sys->QuarantinedExtractors().size(),
            sys->context().extractors.size());
  EXPECT_EQ(sys->health().StateOf("ie"), serve::HealthState::kCritical);
  EXPECT_EQ(sys->health().ReasonOf("ie"), "all extractors quarantined");
}

TEST_F(SystemFixture, WatchdogSeesIeCriticalWhileOwnExtractFaults) {
  // The watchdog evaluates `ie` while morsel-parallel EXTRACT workers
  // fault and quarantine on the System's ledger, and StatusReport reads
  // it too: one lock, no race (run under TSan by scripts/check.sh).
  System::Options options;
  options.query_parallelism = 2;
  auto created = System::Create(options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<System> parallel = std::move(created).value();
  parallel->RegisterStandardOperators();
  ASSERT_TRUE(parallel->IngestCrawl(docs).ok());
  System::WatchdogOptions wopts;
  wopts.interval_ms = 1;
  wopts.auto_scrub = false;
  wopts.auto_heal = false;
  wopts.auto_incident = false;
  parallel->StartWatchdog(wopts);
  {
    ScopedFailpoint fp("ie.extract",
                       FailpointRegistry::Spec::WithProbability(0.5, 7));
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(parallel
                      ->RunProgram(ExtractEveryExtractorSdl(
                          parallel->context(), "v" + std::to_string(round)))
                      .ok());
      EXPECT_NE(parallel->StatusReport().find("degraded operators:"),
                std::string::npos);
    }
  }
  for (int i = 0; i < 5000 && parallel->health().StateOf("ie") !=
                                  serve::HealthState::kCritical;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  parallel->StopWatchdog();
  EXPECT_EQ(parallel->QuarantinedExtractors().size(),
            parallel->context().extractors.size());
  EXPECT_EQ(parallel->health().StateOf("ie"), serve::HealthState::kCritical)
      << parallel->HealthJson();
}

TEST_F(SystemFixture, IncrementalExtractionDoesLessWork) {
  // Best-effort, incremental generation (Section 3.2): extracting only
  // temperatures must touch fewer extractor runs than the full suite.
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW temps AS EXTRACT infobox, temp_sentence "
                     "FROM pages WHERE attribute LIKE \"temp_%\";")
                  .ok());
  size_t temps_runs = sys->context().extractor_runs;
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW all_facts AS EXTRACT infobox, "
                     "temp_sentence, population_sentence, "
                     "founded_sentence, elevation_sentence, "
                     "mayor_sentence, residence_sentence FROM pages;")
                  .ok());
  size_t all_runs = sys->context().extractor_runs - temps_runs;
  EXPECT_LT(temps_runs, all_runs);
}

}  // namespace
}  // namespace structura::core
