#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "ie/dictionary.h"
#include "ie/infobox_extractor.h"
#include "ie/nb_tagger.h"
#include "ie/pattern_learner.h"
#include "ie/pipeline.h"
#include "ie/regex_extractor.h"
#include "ie/standard.h"
#include "ie/template_extractor.h"
#include "lang/executor.h"
#include "obs/flight_recorder.h"

namespace structura::ie {
namespace {

text::Document MakeDoc(const std::string& text,
                       const std::string& title = "Test") {
  text::Document doc;
  doc.id = 1;
  doc.title = title;
  doc.text = text;
  return doc;
}

TEST(DictionaryTest, CaseInsensitiveLookup) {
  Dictionary dict;
  dict.Add("January", "01");
  EXPECT_TRUE(dict.Contains("january"));
  EXPECT_TRUE(dict.Contains("JANUARY"));
  EXPECT_FALSE(dict.Contains("janu"));
  EXPECT_EQ(*dict.Lookup("January"), "01");
}

TEST(DictionaryTest, MonthsComplete) {
  Dictionary months = Dictionary::Months();
  EXPECT_EQ(months.size(), 12u);
  EXPECT_EQ(*months.Lookup("september"), "09");
  EXPECT_EQ(*months.Lookup("December"), "12");
}

TEST(InfoboxExtractorTest, ExtractsAllEntries) {
  InfoboxExtractor ex;
  auto facts = ex.Extract(MakeDoc(
      "{{Infobox city\n| name = Madison\n| population = 233,209\n"
      "| temp_01 = 20\n}}\ntext\n"));
  ASSERT_EQ(facts.size(), 2u);  // name becomes the subject, not a fact
  EXPECT_EQ(facts[0].subject, "Madison");
  EXPECT_EQ(facts[0].attribute, "population");
  EXPECT_EQ(facts[0].value, "233,209");
  EXPECT_EQ(facts[1].attribute, "temp_01");
  EXPECT_EQ(facts[0].extractor, "infobox");
  EXPECT_GT(facts[0].confidence, 0.9);
}

TEST(InfoboxExtractorTest, TypeFilter) {
  InfoboxExtractor::Options options;
  options.type_filter = "person";
  InfoboxExtractor ex(options);
  EXPECT_TRUE(
      ex.Extract(MakeDoc("{{Infobox city\n| name = X\n| a = b\n}}"))
          .empty());
  EXPECT_EQ(
      ex.Extract(MakeDoc("{{Infobox person\n| name = X\n| a = b\n}}"))
          .size(),
      1u);
}

TEST(InfoboxExtractorTest, KeyFilter) {
  InfoboxExtractor::Options options;
  options.keys = {"population"};
  InfoboxExtractor ex(options);
  auto facts = ex.Extract(MakeDoc(
      "{{Infobox city\n| name = X\n| population = 5\n| founded = 1900\n}}"));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].attribute, "population");
}

TEST(TemplateExtractorTest, TemperatureSentences) {
  ExtractorPtr ex = MakeTemperatureExtractor();
  auto facts = ex->Extract(MakeDoc(
      "The average temperature in September is 70 degrees.\n"
      "The average temperature in January is -5 degrees.\n"));
  ASSERT_EQ(facts.size(), 2u);
  EXPECT_EQ(facts[0].attribute, "temp_09");
  EXPECT_EQ(facts[0].value, "70");
  EXPECT_EQ(facts[1].attribute, "temp_01");
  EXPECT_EQ(facts[1].value, "-5");
}

TEST(TemplateExtractorTest, SpanPointsAtValue) {
  ExtractorPtr ex = MakeTemperatureExtractor();
  std::string text = "The average temperature in March is 34 degrees.";
  auto facts = ex->Extract(MakeDoc(text));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(text.substr(facts[0].span.begin, facts[0].span.length()),
            "34");
}

TEST(TemplateExtractorTest, PopulationWithCommas) {
  ExtractorPtr ex = MakePopulationExtractor();
  auto facts = ex->Extract(
      MakeDoc("Madison has a population of 233,209 people."));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].value, "233,209");
}

TEST(TemplateExtractorTest, MayorNamesWithVariants) {
  ExtractorPtr ex = MakeMayorExtractor();
  auto facts = ex->Extract(MakeDoc("The mayor of Madison is D. Smith."));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].subject, "Madison");
  EXPECT_EQ(facts[0].value, "D. Smith");
  facts = ex->Extract(
      MakeDoc("The mayor of Oakfield Heights is Sarah Johnson."));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].subject, "Oakfield Heights");
  EXPECT_EQ(facts[0].value, "Sarah Johnson");
}

TEST(TemplateExtractorTest, LinkSlotCapturesTarget) {
  ExtractorPtr ex = MakeResidenceExtractor();
  auto facts = ex->Extract(
      MakeDoc("They live in [[Madison|City of Madison]].\n"));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].value, "Madison");
}

TEST(TemplateExtractorTest, NoMatchNoFacts) {
  ExtractorPtr ex = MakeTemperatureExtractor();
  EXPECT_TRUE(
      ex->Extract(MakeDoc("Nothing relevant here at all.")).empty());
  EXPECT_TRUE(ex->Extract(MakeDoc("")).empty());
}

TEST(TemplateExtractorTest, CreateRejectsBadSpecs) {
  TemplateExtractor::Spec spec;
  spec.extractor_name = "bad";
  spec.pattern = "hello <x:unknown_type>";
  spec.value_slot = "x";
  EXPECT_FALSE(TemplateExtractor::Create(spec).ok());

  spec.pattern = "hello <x:dict:missing>";
  EXPECT_FALSE(TemplateExtractor::Create(spec).ok());

  spec.pattern = "hello <y:number>";
  spec.value_slot = "x";  // not in pattern
  EXPECT_FALSE(TemplateExtractor::Create(spec).ok());

  spec.pattern = "";
  EXPECT_FALSE(TemplateExtractor::Create(spec).ok());
}

TEST(RegexExtractorTest, ExtractsCaptureGroup) {
  RegexExtractor::Spec spec;
  spec.extractor_name = "founded_rx";
  spec.pattern = "founded in (\\d{4})";
  spec.attribute = "founded";
  auto ex = RegexExtractor::Create(spec);
  ASSERT_TRUE(ex.ok());
  auto facts =
      (*ex)->Extract(MakeDoc("The city was founded in 1846. Later..."));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].value, "1846");
  EXPECT_EQ(facts[0].attribute, "founded");
}

TEST(RegexExtractorTest, BadPatternRejected) {
  RegexExtractor::Spec spec;
  spec.extractor_name = "broken";
  spec.pattern = "([unclosed";
  EXPECT_FALSE(RegexExtractor::Create(spec).ok());
}

TEST(MentionCandidatesTest, FindsCapitalizedRuns) {
  auto mentions = FindCandidateMentions(
      MakeDoc("David Smith met D. Brown in Madison, Wisconsin today."));
  std::vector<std::string> surfaces;
  for (const auto& m : mentions) surfaces.push_back(m.surface);
  EXPECT_EQ(surfaces,
            (std::vector<std::string>{"David Smith", "D. Brown",
                                      "Madison, Wisconsin"}));
}

TEST(NbTaggerTest, LearnsMentionTypesFromCorpus) {
  corpus::CorpusOptions options;
  options.num_cities = 15;
  options.num_people = 30;
  options.num_companies = 5;
  options.news_pages = 10;
  options.seed = 4;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);

  NaiveBayesTagger tagger;
  tagger.Train(BuildMentionTrainingSet(docs, truth));
  EXPECT_TRUE(tagger.trained());
  EXPECT_GT(tagger.vocabulary_size(), 10u);

  // On a fresh news-like sentence, the tagger should label a person
  // mention in "visited" context as person and a city context as city.
  text::Document probe = MakeDoc(
      "Laura Walker, a teacher, visited City of Rivervale this week.\n");
  auto facts = tagger.Extract(probe);
  bool saw_person = false;
  for (const auto& f : facts) {
    if (f.attribute == "mention_person" &&
        f.value.find("Laura") != std::string::npos) {
      saw_person = true;
      EXPECT_GT(f.confidence, 0.3);
    }
  }
  EXPECT_TRUE(saw_person);
}

TEST(PatternLearnerTest, InducesPatternsFromLabeledPages) {
  corpus::CorpusOptions options;
  options.num_cities = 30;
  options.num_people = 0;
  options.num_companies = 0;
  options.seed = 12;
  options.infobox_dropout = 0;
  options.attribute_missing = 0;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);

  // Train on the first 10 city pages only.
  auto examples = BuildPatternExamples(docs, truth, 10);
  EXPECT_GT(examples.size(), 50u);
  PatternLearner learner;
  learner.Learn(examples);
  EXPECT_FALSE(learner.patterns().empty());
  // The population context must be among the induced rules.
  bool has_population = false;
  for (const LearnedPattern& p : learner.patterns()) {
    EXPECT_GE(p.support, 3u);
    if (p.attribute == "population" &&
        p.ToPatternString().find("population of <v:number>") !=
            std::string::npos) {
      has_population = true;
    }
  }
  EXPECT_TRUE(has_population);

  // Apply learned extractors to unseen pages and score them.
  auto compiled = learner.Compile();
  ASSERT_TRUE(compiled.ok());
  text::DocumentCollection held_out;
  for (size_t i = 10; i < docs.size(); ++i) {
    held_out.docs.push_back(docs.docs[i]);
  }
  FactSet facts = RunExtractors(Views(*compiled), held_out);
  EXPECT_GT(facts.size(), 100u);
  // Per-fact correctness against planted truth: high precision.
  size_t correct = 0, scored = 0;
  for (const ExtractedFact& f : facts.facts) {
    for (const corpus::FactTruth& t : truth.facts) {
      if (t.doc == f.doc && t.attribute == f.attribute) {
        ++scored;
        if (t.value == f.value) ++correct;
        break;
      }
    }
  }
  ASSERT_GT(scored, 0u);
  EXPECT_GT(static_cast<double>(correct) / scored, 0.95);
}

TEST(PatternLearnerTest, MinSupportFiltersNoise) {
  PatternLearner::Options options;
  options.min_support = 100;  // nothing survives
  PatternLearner learner(options);
  corpus::CorpusOptions copts;
  copts.num_cities = 5;
  copts.num_people = 0;
  copts.num_companies = 0;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(copts, &docs, &truth);
  learner.Learn(BuildPatternExamples(docs, truth));
  EXPECT_TRUE(learner.patterns().empty());
  EXPECT_TRUE(learner.Compile()->empty());
}

TEST(PipelineTest, ExecutorExtractMatchesRunExtractors) {
  // The product's parallel IE is the executor's morsel-parallel
  // EXTRACT; the sequential pipeline is its reference. Morsels run on
  // pool workers, yet every extractor call must be charged to the
  // caller's cost context.
  corpus::CorpusOptions options;
  options.num_cities = 150;
  options.num_people = 300;
  options.num_companies = 75;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);

  std::vector<ExtractorPtr> suite = MakeStandardSuite();
  std::vector<const Extractor*> views = Views(suite);
  FactSet reference = RunExtractors(views, docs);
  auto key_of = [](uint64_t doc, const std::string& attribute,
                   const std::string& value) {
    return std::to_string(doc) + "|" + attribute + "|" + value;
  };
  std::multiset<std::string> expected;
  for (const ExtractedFact& f : reference.facts) {
    expected.insert(key_of(f.doc, f.attribute, f.value));
  }
  ASSERT_FALSE(expected.empty());

  // EXTRACT <every extractor> FROM pages.
  lang::PlanNode plan;
  plan.type = lang::PlanNode::Type::kExtract;
  plan.children.push_back(std::make_unique<lang::PlanNode>());
  plan.children.back()->type = lang::PlanNode::Type::kScanDocs;
  lang::ExecutionContext base;
  base.docs = &docs;
  for (const Extractor* ex : views) {
    base.extractors[ex->name()] = ex;
    plan.extractors.push_back(ex->name());
  }
  ThreadPool pool(8);
  for (size_t parallelism : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    lang::ExecutionContext ctx = base;
    ctx.exec.parallelism = parallelism;
    ctx.exec.pool = &pool;
    obs::CostAccumulator cost;
    obs::ScopedCostContext scope(&cost);
    auto rel = lang::ExecutePlan(plan, &ctx);
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    EXPECT_EQ(ctx.extractor_runs, docs.size() * views.size());
    EXPECT_EQ(
        cost.Snapshot().v[static_cast<size_t>(obs::CostDim::kExtractorCalls)],
        ctx.extractor_runs);
    std::multiset<std::string> got;
    for (size_t r = 0; r < rel->size(); ++r) {
      got.insert(key_of(static_cast<uint64_t>(rel->At(r, "doc").as_int()),
                        rel->At(r, "attribute").as_string(),
                        rel->At(r, "value").as_string()));
    }
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace structura::ie
