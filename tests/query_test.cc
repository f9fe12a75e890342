
#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "corpus/generator.h"
#include "query/browse.h"
#include "query/hybrid.h"
#include "query/keyword_index.h"
#include "query/relation.h"
#include "query/standing_query.h"
#include "query/structured_query.h"
#include "query/translator.h"
#include "uncertainty/confidence.h"
#include "ie/fact.h"

namespace structura::query {
namespace {

Relation FactsRelation() {
  Relation rel({"subject", "attribute", "value"});
  auto add = [&](const char* s, const char* a, const char* v) {
    rel.Append({Value::Str(s), Value::Str(a), Value::Str(v)}).ok();
  };
  add("Madison", "temp_03", "34");
  add("Madison", "temp_07", "71");
  add("Madison", "population", "233,209");
  add("Oakfield", "temp_03", "40");
  add("Oakfield", "temp_07", "80");
  add("Oakfield", "population", "5,000");
  return rel;
}

TEST(RelationTest, AppendValidatesArity) {
  Relation rel({"a", "b"});
  EXPECT_TRUE(rel.Append({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_FALSE(rel.Append({Value::Int(1)}).ok());
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.At(0, "b").as_int(), 2);
  EXPECT_TRUE(rel.At(0, "missing").is_null());
}

TEST(RelationTest, FilterConditions) {
  Relation rel = FactsRelation();
  auto only_madison = Filter(
      rel, {Condition{"subject", CompareOp::kEq, Value::Str("Madison")}});
  ASSERT_TRUE(only_madison.ok());
  EXPECT_EQ(only_madison->size(), 3u);
  auto march = Filter(
      rel, {Condition{"subject", CompareOp::kEq, Value::Str("Madison")},
            Condition{"attribute", CompareOp::kEq,
                      Value::Str("temp_03")}});
  EXPECT_EQ(march->size(), 1u);
  EXPECT_FALSE(
      Filter(rel, {Condition{"nope", CompareOp::kEq, Value::Int(1)}})
          .ok());
}

TEST(RelationTest, NumericCoercionInConditions) {
  Relation rel = FactsRelation();
  // "value" holds strings; numeric comparison should still work.
  auto warm = Filter(
      rel, {Condition{"value", CompareOp::kGt, Value::Int(50)}});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->size(), 4u);  // 71, 233209, 80, 5000
}

TEST(RelationTest, LikeAndContains) {
  Relation rel = FactsRelation();
  auto temps = Filter(
      rel,
      {Condition{"attribute", CompareOp::kLike, Value::Str("temp_%")}});
  EXPECT_EQ(temps->size(), 4u);
  auto no_tail = Filter(
      rel, {Condition{"attribute", CompareOp::kLike, Value::Str("%_03")}});
  EXPECT_EQ(no_tail->size(), 2u);
  auto contains = Filter(
      rel,
      {Condition{"value", CompareOp::kContains, Value::Str(",")}});
  EXPECT_EQ(contains->size(), 2u);
}

TEST(RelationTest, ProjectReorders) {
  Relation rel = FactsRelation();
  auto projected = Project(rel, {"value", "subject"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->columns(),
            (std::vector<std::string>{"value", "subject"}));
  EXPECT_EQ(projected->At(0, "subject").ToString(), "Madison");
  EXPECT_FALSE(Project(rel, {"ghost"}).ok());
}

TEST(RelationTest, HashJoin) {
  Relation cities({"name", "state"});
  cities.Append({Value::Str("Madison"), Value::Str("Wisconsin")}).ok();
  cities.Append({Value::Str("Oakfield"), Value::Str("Iowa")}).ok();
  cities.Append({Value::Str("Lonely"), Value::Str("Maine")}).ok();
  Relation facts = FactsRelation();
  auto joined = HashJoin(facts, cities, "subject", "name");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 6u);  // Lonely matches nothing
  EXPECT_EQ(joined->At(0, "state").ToString(), "Wisconsin");
}

TEST(RelationTest, JoinPrefixesCollidingColumns) {
  Relation left({"id", "x"});
  left.Append({Value::Int(1), Value::Str("l")}).ok();
  Relation right({"id", "x"});
  right.Append({Value::Int(1), Value::Str("r")}).ok();
  auto joined = HashJoin(left, right, "id", "id");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->columns(),
            (std::vector<std::string>{"id", "x", "r_id", "r_x"}));
}

TEST(RelationTest, AggregateFunctions) {
  Relation rel = FactsRelation();
  auto by_subject = Aggregate(
      rel, {"subject"},
      {AggSpec{AggFn::kCount, "", "n"},
       AggSpec{AggFn::kAvg, "value", "avg"},
       AggSpec{AggFn::kMax, "value", "max"}});
  ASSERT_TRUE(by_subject.ok());
  ASSERT_EQ(by_subject->size(), 2u);  // deterministic group order
  EXPECT_EQ(by_subject->At(0, "subject").ToString(), "Madison");
  EXPECT_EQ(by_subject->At(0, "n").as_int(), 3);
  EXPECT_NEAR(by_subject->At(0, "avg").as_double(),
              (34 + 71 + 233209) / 3.0, 0.01);
}

TEST(RelationTest, GlobalAggregateNoGroups) {
  Relation rel = FactsRelation();
  auto total = Aggregate(rel, {}, {AggSpec{AggFn::kCount, "", "n"}});
  ASSERT_TRUE(total.ok());
  ASSERT_EQ(total->size(), 1u);
  EXPECT_EQ(total->At(0, "n").as_int(), 6);
}

TEST(RelationTest, AggregateSkipsNulls) {
  Relation rel({"g", "v"});
  rel.Append({Value::Str("a"), Value::Int(10)}).ok();
  rel.Append({Value::Str("a"), Value::Null()}).ok();
  auto agg = Aggregate(rel, {"g"},
                       {AggSpec{AggFn::kAvg, "v", "avg"},
                        AggSpec{AggFn::kCount, "v", "n"}});
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->At(0, "avg").as_double(), 10.0);
  EXPECT_EQ(agg->At(0, "n").as_int(), 1);
}

TEST(RelationTest, OrderLimitDistinct) {
  Relation rel = FactsRelation();
  auto ordered = OrderBy(rel, "value", /*descending=*/false);
  ASSERT_TRUE(ordered.ok());
  // String ordering of values; just check stability and row count.
  EXPECT_EQ(ordered->size(), 6u);
  Relation limited = Limit(*ordered, 2);
  EXPECT_EQ(limited.size(), 2u);
  Relation dup({"x"});
  dup.Append({Value::Int(1)}).ok();
  dup.Append({Value::Int(1)}).ok();
  dup.Append({Value::Int(2)}).ok();
  EXPECT_EQ(Distinct(dup).size(), 2u);
}

TEST(RelationTest, ToStringRenders) {
  Relation rel = FactsRelation();
  std::string s = rel.ToString(2);
  EXPECT_NE(s.find("subject"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(KeywordIndexTest, Bm25FindsRelevantDoc) {
  corpus::CorpusOptions options;
  options.num_cities = 20;
  options.num_people = 20;
  options.num_companies = 5;
  options.seed = 31;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);
  KeywordIndex index;
  for (const auto& d : docs.docs) index.AddDocument(d);
  index.Finalize();
  auto hits = index.Search("average temperature Madison", 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].title, "Madison");
  EXPECT_GT(index.VocabularySize(), 100u);
}

TEST(KeywordIndexTest, UnknownTermsNoHits) {
  KeywordIndex index;
  text::Document d;
  d.id = 1;
  d.title = "T";
  d.text = "hello world";
  index.AddDocument(d);
  index.Finalize();
  EXPECT_TRUE(index.Search("zzzqqq", 5).empty());
  EXPECT_EQ(index.Search("hello", 5).size(), 1u);
}

TEST(BrowseTest, ProfileAssemblesBeliefs) {
  ie::FactSet facts;
  auto add = [&](const char* s, const char* a, const char* v, double c) {
    ie::ExtractedFact f;
    f.subject = s;
    f.attribute = a;
    f.value = v;
    f.confidence = c;
    facts.Add(std::move(f));
  };
  add("Madison", "population", "233,209", 0.95);
  add("Madison", "population", "233,209", 0.85);
  add("Madison", "mayor", "David Smith", 0.9);
  add("Madison", "temp_01", "20", 0.9);
  add("Madison", "temp_01", "90", 0.4);  // competing value
  add("Oakfield", "population", "5,000", 0.9);
  auto beliefs = uncertainty::BuildBeliefs(facts);

  auto profile = BuildProfile(beliefs, "Madison");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->attributes.size(), 3u);
  // Sorted by attribute: mayor, population, temp_01.
  EXPECT_EQ(profile->attributes[0].attribute, "mayor");
  EXPECT_EQ(profile->attributes[1].value, "233,209");
  EXPECT_EQ(profile->attributes[2].value, "20");
  ASSERT_EQ(profile->attributes[2].alternatives.size(), 1u);
  EXPECT_EQ(profile->attributes[2].alternatives[0], "90");
  EXPECT_EQ(profile->related, (std::vector<std::string>{"David Smith"}));

  std::string card = RenderProfile(*profile);
  EXPECT_NE(card.find("== Madison =="), std::string::npos);
  EXPECT_NE(card.find("also seen: 90"), std::string::npos);
  EXPECT_NE(card.find("see also: David Smith"), std::string::npos);

  EXPECT_FALSE(BuildProfile(beliefs, "Nowhere").ok());
}

TEST(BrowseTest, ReferencedByInEdges) {
  ie::FactSet facts;
  ie::ExtractedFact f;
  f.subject = "Madison";
  f.attribute = "mayor";
  f.value = "David Smith";
  f.confidence = 0.9;
  facts.Add(std::move(f));
  ie::ExtractedFact g;
  g.subject = "Anna Lee";
  g.attribute = "residence";
  g.value = "Madison";
  g.confidence = 0.9;
  facts.Add(std::move(g));
  auto beliefs = uncertainty::BuildBeliefs(facts);
  auto who = ReferencedBy(beliefs, "David Smith");
  ASSERT_EQ(who.size(), 1u);
  EXPECT_EQ(who[0].first, "Madison");
  EXPECT_EQ(who[0].second, "mayor");
  auto into_madison = ReferencedBy(beliefs, "Madison");
  ASSERT_EQ(into_madison.size(), 1u);
  EXPECT_EQ(into_madison[0].first, "Anna Lee");
}

TEST(SnippetTest, PicksSentenceWithQueryTerms) {
  text::Document doc;
  doc.id = 1;
  doc.title = "Madison";
  doc.text =
      "'''Madison''' is a city in [[Wisconsin]].\n"
      "The average temperature in January is 20 degrees.\n"
      "It sits at an elevation of 900 feet.\n";
  std::string snippet = MakeSnippet(doc, "temperature january");
  EXPECT_NE(snippet.find("average temperature in January"),
            std::string::npos);
  EXPECT_EQ(snippet.find("[["), std::string::npos);
  // No match: falls back to opening text.
  std::string fallback = MakeSnippet(doc, "zebra");
  EXPECT_NE(fallback.find("Madison is a city"), std::string::npos);
  // Truncation.
  std::string tiny = MakeSnippet(doc, "temperature", 20);
  EXPECT_LE(tiny.size(), 20u);
  EXPECT_TRUE(tiny.size() < 4 ||
              tiny.substr(tiny.size() - 3) == "...");
}

TEST(StandingQueryTest, AlertsOnChangeAndThreshold) {
  StandingQueryRegistry registry;
  StandingQueryRegistry::Spec spec;
  spec.name = "madison_watch";
  spec.query.source_view = "facts";
  spec.query.where = {
      Condition{"subject", CompareOp::kEq, Value::Str("Madison")}};
  spec.query.aggregates = {AggSpec{AggFn::kCount, "", "n"}};
  spec.threshold_column = "n";
  spec.threshold = 3;
  spec.threshold_op = CompareOp::kGt;
  ASSERT_TRUE(registry.Add(spec).ok());
  EXPECT_FALSE(registry.Add(spec).ok());  // duplicate name
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"madison_watch"}));

  Relation facts = FactsRelation();
  // First evaluation: "first_result" alert, threshold (3 rows) not yet
  // crossed.
  auto alerts = registry.Evaluate("facts", facts);
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts->size(), 1u);
  EXPECT_EQ((*alerts)[0].kind, "first_result");

  // Unchanged data: silence.
  alerts = registry.Evaluate("facts", facts);
  ASSERT_TRUE(alerts.ok());
  EXPECT_TRUE(alerts->empty());

  // A new Madison fact: change alert AND threshold alert (count 4 > 3).
  facts
      .Append({Value::Str("Madison"), Value::Str("founded"),
               Value::Str("1846")})
      .ok();
  alerts = registry.Evaluate("facts", facts);
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts->size(), 2u);
  EXPECT_EQ((*alerts)[0].kind, "changed");
  EXPECT_EQ((*alerts)[1].kind, "threshold");
  EXPECT_NE((*alerts)[1].message.find("crosses threshold"),
            std::string::npos);

  // Different view name: not evaluated.
  alerts = registry.Evaluate("other_view", facts);
  ASSERT_TRUE(alerts.ok());
  EXPECT_TRUE(alerts->empty());

  ASSERT_TRUE(registry.Remove("madison_watch").ok());
  EXPECT_FALSE(registry.Remove("madison_watch").ok());
}

TEST(HybridSearchTest, StructuredPredicateFiltersRanking) {
  corpus::CorpusOptions options;
  options.num_cities = 30;
  options.num_people = 10;
  options.num_companies = 5;
  options.seed = 61;
  options.infobox_dropout = 0;
  options.attribute_missing = 0;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);
  KeywordIndex index;
  for (const auto& d : docs.docs) index.AddDocument(d);
  index.Finalize();
  // Facts relation with doc column, as the extraction views produce.
  Relation facts({"doc", "subject", "attribute", "value"});
  for (const corpus::FactTruth& f : truth.facts) {
    facts
        .Append({Value::Int(static_cast<int64_t>(f.doc)),
                 Value::Str(""), Value::Str(f.attribute),
                 Value::Str(f.value)})
        .ok();
  }
  HybridQuery hq;
  hq.keywords = "city United States";
  hq.structured = {
      Condition{"attribute", CompareOp::kEq, Value::Str("population")},
      Condition{"value", CompareOp::kGt, Value::Int(500000)}};
  auto hits = HybridSearch(index, facts, hq, 10);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  // Every hit must be a city with population > 500k in ground truth.
  for (const SearchHit& hit : *hits) {
    const corpus::CityRecord* city = truth.FindCity(hit.title);
    ASSERT_NE(city, nullptr) << hit.title;
    EXPECT_GT(city->population, 500000);
  }
  // Plain keyword search would return big and small cities alike.
  auto plain = index.Search(hq.keywords, 10);
  bool plain_has_small = false;
  for (const SearchHit& hit : plain) {
    const corpus::CityRecord* city = truth.FindCity(hit.title);
    if (city != nullptr && city->population <= 500000) {
      plain_has_small = true;
    }
  }
  EXPECT_TRUE(plain_has_small);
}

TEST(HybridSearchTest, RequiresDocColumn) {
  KeywordIndex index;
  Relation facts({"subject", "value"});
  HybridQuery hq;
  hq.keywords = "x";
  EXPECT_FALSE(HybridSearch(index, facts, hq, 5).ok());
}

TEST(StructuredQueryTest, ExecuteFilterAggregate) {
  StructuredQuery q;
  q.source_view = "facts";
  q.where = {Condition{"subject", CompareOp::kEq, Value::Str("Madison")},
             Condition{"attribute", CompareOp::kLike,
                       Value::Str("temp_%")}};
  q.aggregates = {AggSpec{AggFn::kAvg, "value", "result"}};
  auto rel = ExecuteStructuredQuery(q, FactsRelation());
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_NEAR(rel->At(0, "result").as_double(), (34 + 71) / 2.0, 1e-9);
}

TEST(StructuredQueryTest, RendersSqlAndForm) {
  StructuredQuery q;
  q.source_view = "facts";
  q.where = {Condition{"subject", CompareOp::kEq, Value::Str("Madison")}};
  q.aggregates = {AggSpec{AggFn::kAvg, "value", "result"}};
  std::string sql = q.ToSql();
  EXPECT_NE(sql.find("SELECT AVG(value) FROM facts"), std::string::npos);
  EXPECT_NE(sql.find("subject = \"Madison\""), std::string::npos);
  std::string form = q.ToFormText();
  EXPECT_NE(form.find("AVG of value"), std::string::npos);
}

TEST(TranslatorTest, MotivatingQueryTranslates) {
  KeywordTranslator translator;
  translator.BuildVocabulary(FactsRelation());
  EXPECT_EQ(translator.NumSubjects(), 2u);
  auto forms =
      translator.Translate("average march temperature madison");
  ASSERT_FALSE(forms.empty());
  const StructuredQuery& q = forms[0].query;
  ASSERT_FALSE(q.aggregates.empty());
  EXPECT_EQ(q.aggregates[0].fn, AggFn::kAvg);
  bool subject_cond = false, month_cond = false;
  for (const Condition& c : q.where) {
    if (c.column == "subject" && c.literal.ToString() == "Madison") {
      subject_cond = true;
    }
    if (c.column == "attribute" && c.literal.ToString() == "temp_03") {
      month_cond = true;
    }
  }
  EXPECT_TRUE(subject_cond);
  EXPECT_TRUE(month_cond);
}

TEST(TranslatorTest, MonthRange) {
  KeywordTranslator translator;
  translator.BuildVocabulary(FactsRelation());
  auto forms = translator.Translate(
      "average march september temperature madison");
  ASSERT_FALSE(forms.empty());
  const StructuredQuery& q = forms[0].query;
  bool ge = false, le = false;
  for (const Condition& c : q.where) {
    if (c.op == CompareOp::kGe && c.literal.ToString() == "temp_03") {
      ge = true;
    }
    if (c.op == CompareOp::kLe && c.literal.ToString() == "temp_09") {
      le = true;
    }
  }
  EXPECT_TRUE(ge);
  EXPECT_TRUE(le);
}

TEST(TranslatorTest, NoSubjectGroupsBySubject) {
  KeywordTranslator translator;
  translator.BuildVocabulary(FactsRelation());
  auto forms = translator.Translate("highest population");
  ASSERT_FALSE(forms.empty());
  bool found_grouped = false;
  for (const QueryForm& f : forms) {
    if (!f.query.group_by.empty() && !f.query.aggregates.empty() &&
        f.query.aggregates[0].fn == AggFn::kMax) {
      found_grouped = true;
    }
  }
  EXPECT_TRUE(found_grouped);
}

TEST(TranslatorTest, RunTranslatedQueryEndToEnd) {
  KeywordTranslator translator;
  translator.BuildVocabulary(FactsRelation());
  auto forms = translator.Translate("population of oakfield");
  ASSERT_FALSE(forms.empty());
  auto rel = ExecuteStructuredQuery(forms[0].query, FactsRelation());
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_EQ(rel->At(0, "value").ToString(), "5,000");
}

TEST(TranslatorTest, GibberishYieldsNothingUseful) {
  KeywordTranslator translator;
  translator.BuildVocabulary(FactsRelation());
  auto forms = translator.Translate("zzz qqq www");
  EXPECT_TRUE(forms.empty());
}

}  // namespace
}  // namespace structura::query
