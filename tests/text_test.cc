#include <gtest/gtest.h>

#include "text/document.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "text/wiki_markup.h"

namespace structura::text {
namespace {

std::vector<std::string> Surfaces(const std::string& src) {
  std::vector<std::string> out;
  for (const Token& t : Tokenize(src)) out.push_back(t.Text(src));
  return out;
}

TEST(TokenizerTest, WordsNumbersPunct) {
  EXPECT_EQ(Surfaces("Madison has 233,209 people."),
            (std::vector<std::string>{"Madison", "has", "233,209",
                                      "people", "."}));
}

TEST(TokenizerTest, ApostropheInsideWord) {
  EXPECT_EQ(Surfaces("don't stop"),
            (std::vector<std::string>{"don't", "stop"}));
}

TEST(TokenizerTest, DecimalAndSignedNumbers) {
  EXPECT_EQ(Surfaces("from -5 to 70.5 degrees"),
            (std::vector<std::string>{"from", "-5", "to", "70.5",
                                      "degrees"}));
}

TEST(TokenizerTest, SpansIndexSource) {
  std::string src = "ab cd";
  std::vector<Token> toks = Tokenize(src);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].span.begin, 0u);
  EXPECT_EQ(toks[0].span.end, 2u);
  EXPECT_EQ(toks[1].span.begin, 3u);
  EXPECT_EQ(toks[1].span.end, 5u);
}

TEST(TokenizerTest, EmptyInput) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("   \n\t ").empty());
}

TEST(TokenizerTest, WordTokensLowercased) {
  EXPECT_EQ(WordTokens("The QUICK fox 42"),
            (std::vector<std::string>{"the", "quick", "fox"}));
}

TEST(SentenceTest, SplitsOnTerminators) {
  std::vector<Span> sents =
      SplitSentences("First one. Second one! Third?");
  ASSERT_EQ(sents.size(), 3u);
}

TEST(SentenceTest, AbbreviationsDoNotSplit) {
  std::string src = "The U.S. Census counts people. Madison grew.";
  std::vector<Span> sents = SplitSentences(src);
  ASSERT_EQ(sents.size(), 2u);
  std::string first(src.substr(sents[0].begin, sents[0].length()));
  EXPECT_EQ(first, "The U.S. Census counts people.");
}

TEST(SentenceTest, BlankLineSplits) {
  std::vector<Span> sents = SplitSentences("para one\n\npara two");
  ASSERT_EQ(sents.size(), 2u);
}

TEST(SpanTest, ContainsAndOverlaps) {
  Span a{0, 10}, b{2, 5}, c{9, 12}, d{10, 12};
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_FALSE(a.Overlaps(d));
}

constexpr const char* kPage = R"({{Infobox city
| name = Madison
| state = Wisconsin
| population = 233,209
| temp_01 = 20
}}
'''Madison''' is a city in [[Wisconsin]].
The mayor is [[David Smith|D. Smith]].
== Climate ==
Cold in winter.
[[Category:City]]
)";

TEST(WikiMarkupTest, ParsesInfobox) {
  std::vector<Infobox> boxes = ParseInfoboxes(kPage);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].type, "city");
  EXPECT_EQ(boxes[0].Get("name"), "Madison");
  EXPECT_EQ(boxes[0].Get("population"), "233,209");
  EXPECT_EQ(boxes[0].Get("temp_01"), "20");
  EXPECT_TRUE(boxes[0].Has("state"));
  EXPECT_FALSE(boxes[0].Has("elevation"));
  EXPECT_EQ(boxes[0].Get("elevation"), "");
}

TEST(WikiMarkupTest, InfoboxSpanCoversTemplate) {
  std::vector<Infobox> boxes = ParseInfoboxes(kPage);
  ASSERT_EQ(boxes.size(), 1u);
  std::string_view covered =
      std::string_view(kPage).substr(boxes[0].span.begin,
                                     boxes[0].span.length());
  EXPECT_TRUE(covered.starts_with("{{Infobox"));
  EXPECT_TRUE(covered.ends_with("}}"));
}

TEST(WikiMarkupTest, MalformedInfoboxSkipped) {
  EXPECT_TRUE(ParseInfoboxes("{{Infobox city | name = X").empty());
}

TEST(WikiMarkupTest, ParsesLinksWithAnchors) {
  std::vector<WikiLink> links = ParseLinks(kPage);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].target, "Wisconsin");
  EXPECT_EQ(links[0].anchor, "Wisconsin");
  EXPECT_EQ(links[1].target, "David Smith");
  EXPECT_EQ(links[1].anchor, "D. Smith");
}

TEST(WikiMarkupTest, ParsesCategories) {
  EXPECT_EQ(ParseCategories(kPage), (std::vector<std::string>{"City"}));
}

TEST(WikiMarkupTest, StripRemovesMarkup) {
  std::string plain = StripMarkup(kPage);
  EXPECT_EQ(plain.find("{{"), std::string::npos);
  EXPECT_EQ(plain.find("[["), std::string::npos);
  EXPECT_EQ(plain.find("'''"), std::string::npos);
  EXPECT_NE(plain.find("Madison is a city in Wisconsin"),
            std::string::npos);
  EXPECT_NE(plain.find("D. Smith"), std::string::npos);  // anchor kept
  EXPECT_EQ(plain.find("Category"), std::string::npos);
}

TEST(SimilarityTest, LevenshteinBasics) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
}

TEST(SimilarityTest, JaroWinklerPrefersSharedPrefix) {
  double martha = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_NEAR(martha, 0.961, 0.005);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", ""), 0.0);
}

TEST(SimilarityTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(TokenJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard({"x"}, {}), 0.0);
}

TEST(SimilarityTest, NgramJaccard) {
  EXPECT_GT(NgramJaccard("madison", "madisen"), 0.3);
  EXPECT_DOUBLE_EQ(NgramJaccard("abc", "abc"), 1.0);
  EXPECT_LT(NgramJaccard("abc", "xyz"), 0.01);
}

TEST(TfIdfTest, RareTermsWeighMore) {
  TfIdfModel model;
  model.AddDocument({"the", "city", "of", "madison"});
  model.AddDocument({"the", "city", "of", "oakfield"});
  model.AddDocument({"the", "river"});
  model.Finalize();
  EXPECT_GT(model.Idf("madison"), model.Idf("the"));
  double same = model.Cosine({"madison", "city"}, {"madison", "city"});
  EXPECT_NEAR(same, 1.0, 1e-9);
  double related = model.Cosine({"madison", "city"}, {"oakfield", "city"});
  EXPECT_GT(related, 0.0);
  EXPECT_LT(related, same);
}

// Property sweep: metric identities hold for arbitrary string pairs.
// The parameters are std::string, not const char*, so gtest prints the
// text itself and the test names do not change from build to build.
class MetricPropertyTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {
};

TEST_P(MetricPropertyTest, RangeSymmetryIdentity) {
  auto [a, b] = GetParam();
  for (auto metric : {LevenshteinSimilarity, JaroSimilarity,
                      JaroWinklerSimilarity}) {
    double ab = metric(a, b);
    double ba = metric(b, a);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_DOUBLE_EQ(ab, ba) << a << " vs " << b;
    EXPECT_DOUBLE_EQ(metric(a, a), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MetricPropertyTest,
    ::testing::Values(std::make_pair("David Smith", "D. Smith"),
                      std::make_pair("Madison", "Madison, Wisconsin"),
                      std::make_pair("", "x"),
                      std::make_pair("aaaa", "aaab"),
                      std::make_pair("completely", "different"),
                      std::make_pair("a", "a"),
                      std::make_pair("ABCDEF", "abcdef")));

}  // namespace
}  // namespace structura::text
