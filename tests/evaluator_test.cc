#include <gtest/gtest.h>

#include "query/evaluator.h"
#include "query/parser.h"
#include "random_pattern.h"
#include "xmark/paintings.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace webdex::query {
namespace {

xml::Document Doc(const std::string& uri, const std::string& text) {
  auto doc = xml::ParseDocument(uri, text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

Query Q(std::string_view text) {
  auto q = ParseQuery(text);
  if (!q.ok()) {
    ADD_FAILURE() << text << " -> " << q.status().ToString();
    return Query({}, {});
  }
  return std::move(q).value();
}

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    for (const auto& generated : xmark::Figure3Documents()) {
      docs_.push_back(Doc(generated.uri, generated.text));
    }
    for (const auto& doc : docs_) doc_ptrs_.push_back(&doc);
  }

  std::vector<xml::Document> docs_;
  std::vector<const xml::Document*> doc_ptrs_;
};

TEST_F(EvaluatorTest, Q1PairsNameWithPainterName) {
  // q1 of Figure 2 over the Figure 3 documents.
  const QueryResult result = Evaluator::Evaluate(
      Q("//painting[/name:val, //painter/name:val]"), doc_ptrs_);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0],
            (std::vector<std::string>{"The Lion Hunt", "EugeneDelacroix"}));
  EXPECT_EQ(result.rows[1],
            (std::vector<std::string>{"Olympia", "EdouardManet"}));
}

TEST_F(EvaluatorTest, ContainsPredicateSelectsLionHunt) {
  const QueryResult result = Evaluator::Evaluate(
      Q("//painting[/name~'Lion', //painter/name/last:val]"), doc_ptrs_);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "Delacroix");
}

TEST_F(EvaluatorTest, AttributeEquality) {
  const QueryResult result = Evaluator::Evaluate(
      Q("//painting[/@id='1863-1', /name:val]"), doc_ptrs_);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "Olympia");
}

TEST_F(EvaluatorTest, ContOutputsSerializedSubtree) {
  const QueryResult result =
      Evaluator::Evaluate(Q("//painter/name:cont"), doc_ptrs_);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0],
            "<name><first>Eugene</first><last>Delacroix</last></name>");
}

TEST_F(EvaluatorTest, DescendantVsChildAxis) {
  const xml::Document doc = Doc("d", "<a><b><c>x</c></b></a>");
  EXPECT_TRUE(Evaluator::Matches(Q("//a[//c]").patterns()[0], doc));
  EXPECT_FALSE(Evaluator::Matches(Q("//a[/c]").patterns()[0], doc));
  EXPECT_TRUE(Evaluator::Matches(Q("//a[/b[/c]]").patterns()[0], doc));
}

TEST_F(EvaluatorTest, RootChildAxisAnchorsAtDocumentRoot) {
  const xml::Document doc = Doc("d", "<a><a>x</a></a>");
  // '/a' matches only the document element; '//a' matches both.
  const auto anchored = Evaluator::MatchPattern(
      Q("/a:val").patterns()[0], doc);
  EXPECT_EQ(anchored.size(), 1u);
  const auto floating = Evaluator::MatchPattern(
      Q("//a:val").patterns()[0], doc);
  EXPECT_EQ(floating.size(), 2u);
}

TEST_F(EvaluatorTest, AllEmbeddingsEnumerated) {
  const xml::Document doc =
      Doc("d", "<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>");
  const auto matches =
      Evaluator::MatchPattern(Q("//a[/b:val]").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].outputs[0], "1");
  EXPECT_EQ(matches[1].outputs[0], "2");
  EXPECT_EQ(matches[2].outputs[0], "3");
}

TEST_F(EvaluatorTest, MultiBranchCartesianProduct) {
  const xml::Document doc =
      Doc("d", "<r><a>1</a><a>2</a><b>x</b><b>y</b></r>");
  const auto matches = Evaluator::MatchPattern(
      Q("//r[/a:val, /b:val]").patterns()[0], doc);
  EXPECT_EQ(matches.size(), 4u);  // 2 a's x 2 b's
}

TEST_F(EvaluatorTest, RangePredicateOnNumericText) {
  const xml::Document doc = Doc(
      "d", "<r><p><y>1850</y></p><p><y>1860</y></p><p><y>1870</y></p></r>");
  const auto matches = Evaluator::MatchPattern(
      Q("//p[/y:val in(1854,1865]]").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].outputs[0], "1860");
}

TEST_F(EvaluatorTest, ValueJoinAcrossDocuments) {
  // q5 of Figure 2 against a generated paintings corpus.
  std::vector<xml::Document> docs;
  for (const auto& generated : xmark::GeneratePaintings()) {
    docs.push_back(Doc(generated.uri, generated.text));
  }
  std::vector<const xml::Document*> ptrs;
  for (const auto& doc : docs) ptrs.push_back(&doc);

  const QueryResult result = Evaluator::Evaluate(
      Q("//museum[/name:val, /painting/@id#x]; "
        "//painting[/@id#y, /painter/name[/last='Delacroix']] where #x=#y"),
      ptrs);
  ASSERT_FALSE(result.rows.empty());
  // Every returned museum must list a Delacroix painting id; painting #0
  // ("The Lion Hunt", id 1854-1) belongs to museum 0.
  bool found_louvre = false;
  for (const auto& row : result.rows) {
    ASSERT_EQ(row.size(), 1u);
    if (row[0] == "Louvre Museum") found_louvre = true;
  }
  EXPECT_TRUE(found_louvre);
}

TEST_F(EvaluatorTest, JoinMismatchYieldsNoRows) {
  const QueryResult result = Evaluator::Evaluate(
      Q("//painting[/@id#a]; //painter[/name/last#b] where #a=#b"),
      doc_ptrs_);
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(EvaluatorTest, NoMatchesYieldEmptyResult) {
  const QueryResult result =
      Evaluator::Evaluate(Q("//sculpture"), doc_ptrs_);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.SizeBytes(), 0u);
}

TEST_F(EvaluatorTest, ResultXmlSerialization) {
  QueryResult result;
  result.rows = {{"a & b", "<name>x</name>"}};
  result.cont_columns = {false, true};
  const std::string xml = result.ToXml();
  EXPECT_EQ(xml,
            "<results><row><col>a &amp; b</col><col><name>x</name></col>"
            "</row></results>");
  EXPECT_GT(result.SizeBytes(), 0u);
}

TEST_F(EvaluatorTest, AttributePatternRootMatchesAttributes) {
  const xml::Document doc = Doc("d", "<a id=\"7\"><b id=\"8\"/></a>");
  const auto matches =
      Evaluator::MatchPattern(Q("//@id:val").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].outputs[0], "7");
  EXPECT_EQ(matches[1].outputs[0], "8");
}

TEST_F(EvaluatorTest, ContOnAttributeSerializesNameValue) {
  const xml::Document doc = Doc("d", "<a id=\"7\"/>");
  const auto matches =
      Evaluator::MatchPattern(Q("//a/@id:cont").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].outputs[0], "id=\"7\"");
}

TEST_F(EvaluatorTest, MixedContentStringValue) {
  const xml::Document doc =
      Doc("d", "<p>one <b>two</b> three</p>");
  const auto matches =
      Evaluator::MatchPattern(Q("//p:val").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].outputs[0], "one two three");
}

TEST_F(EvaluatorTest, ContributingDocumentsCountsJoinSides) {
  std::vector<xml::Document> docs;
  docs.push_back(Doc("left", "<a><k>1</k></a>"));
  docs.push_back(Doc("right", "<b><k>1</k></b>"));
  docs.push_back(Doc("noise", "<b><k>2</k></b>"));
  std::vector<const xml::Document*> ptrs;
  for (const auto& doc : docs) ptrs.push_back(&doc);
  const QueryResult result = Evaluator::Evaluate(
      Q("//a/k#x; //b/k#y where #x=#y"), ptrs);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.ContributingDocuments(), 2u);
  ASSERT_EQ(result.row_uris.size(), 1u);
  EXPECT_EQ(result.row_uris[0],
            (std::vector<std::string>{"left", "right"}));
}

TEST_F(EvaluatorTest, PredicateOnInternalNode) {
  const xml::Document doc =
      Doc("d", "<r><g><n>x</n><v>1</v></g><g><n>y</n><v>2</v></g></r>");
  const auto matches = Evaluator::MatchPattern(
      Q("//g[/v='2']/n:val").patterns()[0], doc);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].outputs[0], "y");
}

TEST_F(EvaluatorTest, WorkStatsAccumulateAndReset) {
  (void)Evaluator::ConsumeWorkStats();
  (void)Evaluator::Evaluate(Q("//painting[/name:val]"), doc_ptrs_);
  const auto stats = Evaluator::ConsumeWorkStats();
  EXPECT_GT(stats.doc_bytes_scanned, 0u);
  EXPECT_EQ(stats.embeddings_found, 2u);
  const auto after = Evaluator::ConsumeWorkStats();
  EXPECT_EQ(after.doc_bytes_scanned, 0u);
}

// ToXml knows each column's kind from the query, not from its first
// character: a value that starts with '<' is still escaped text.
TEST_F(EvaluatorTest, ValColumnStartingWithAngleBracketRoundTrips) {
  const xml::Document doc = Doc("d", "<a><b>&lt;i&gt; x</b></a>");
  const QueryResult result = Evaluator::Evaluate(Q("//a[/b:val]"), {&doc});
  ASSERT_EQ(result.rows.size(), 1u);
  ASSERT_EQ(result.rows[0][0], "<i> x");
  const auto reparsed = xml::ParseDocument("r", result.ToXml());
  ASSERT_TRUE(reparsed.ok()) << result.ToXml();
  const auto cols = reparsed.value().NodesLabelled("col");
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0]->StringValue(), "<i> x");
}

// ...and a `cont` column is inserted as is, even when it does not start
// with '<' (a serialized attribute), so it is not escaped a second time.
TEST_F(EvaluatorTest, AttributeContColumnIsNotEscapedTwice) {
  const xml::Document doc = Doc("d", "<a id=\"x&quot;1\"><b>y</b></a>");
  const QueryResult result =
      Evaluator::Evaluate(Q("//a[/@id:cont, /b:cont]"), {&doc});
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.cont_columns, (std::vector<bool>{true, true}));
  ASSERT_EQ(result.rows[0][0], "id=\"x&quot;1\"");
  const auto reparsed = xml::ParseDocument("r", result.ToXml());
  ASSERT_TRUE(reparsed.ok()) << result.ToXml();
  const auto cols = reparsed.value().NodesLabelled("col");
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0]->StringValue(), "id=\"x\"1\"");
  ASSERT_EQ(cols[1]->children().size(), 1u);
  EXPECT_EQ(xml::Serialize(*cols[1]->children()[0]), result.rows[0][1]);
}

// Same-label descendants nested in each other: every (outer, inner) pair
// is an embedding, in document order of the outer node, then the inner.
TEST_F(EvaluatorTest, NestedSameLabelDescendantsEnumerateEveryEmbedding) {
  const xml::Document doc =
      Doc("d", "<a><a><b>1</b><a><b>2</b></a></a><b>3</b></a>");
  const auto outputs = [&doc](std::string_view text) {
    std::vector<std::string> flat;
    for (const auto& match :
         Evaluator::MatchPattern(Q(text).patterns()[0], doc)) {
      std::string row;
      for (const auto& output : match.outputs) row += output + ";";
      flat.push_back(row);
    }
    return flat;
  };
  EXPECT_EQ(outputs("//a//a:val"),
            (std::vector<std::string>{"12;", "2;", "2;"}));
  EXPECT_EQ(outputs("//a[//b:val]"),
            (std::vector<std::string>{"1;", "2;", "3;", "1;", "2;", "2;"}));
  EXPECT_EQ(outputs("//a[//a:val, //b:val]"),
            (std::vector<std::string>{"12;1;", "12;2;", "12;3;", "2;1;",
                                      "2;2;", "2;3;", "2;1;", "2;2;"}));
  EXPECT_EQ(outputs("//a[/a//a, //b:val]"),
            (std::vector<std::string>{"1;", "2;", "3;"}));
  EXPECT_EQ(outputs("/a//a[/b:val]"), (std::vector<std::string>{"1;", "2;"}));
}

// The early-exit check and the full enumeration agree on the random
// patterns the index soundness suite uses.
TEST(EvaluatorRandomTest, MatchesAgreesWithMatchPattern) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng = RandomPatternRng(seed);
    const std::vector<xml::Document> docs = RandomPatternCorpus(seed);
    for (int trial = 0; trial < 12; ++trial) {
      const std::string text = RandomPattern(rng, 5);
      const Query query = Q(text);
      ASSERT_EQ(query.patterns().size(), 1u) << text;
      for (const auto& doc : docs) {
        EXPECT_EQ(Evaluator::Matches(query.patterns()[0], doc),
                  !Evaluator::MatchPattern(query.patterns()[0], doc).empty())
            << text << " on " << doc.uri();
      }
    }
  }
}

}  // namespace
}  // namespace webdex::query
