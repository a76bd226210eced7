#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/strings.h"
#include "xml/parser.h"
#include "xml/tokenizer.h"
#include "xmark/xmark_generator.h"

namespace webdex::xml {
namespace {

TEST(NodeIdTest, AncestorAndParentPredicates) {
  // Manually build: a(1,3,1) > b(2,1,2); a > c(3,2,2).
  NodeId a{1, 3, 1}, b{2, 1, 2}, c{3, 2, 2};
  EXPECT_TRUE(a.IsAncestorOf(b));
  EXPECT_TRUE(a.IsParentOf(b));
  EXPECT_TRUE(a.IsAncestorOf(c));
  EXPECT_FALSE(b.IsAncestorOf(c));
  EXPECT_FALSE(b.IsAncestorOf(a));
  NodeId grandchild{2, 1, 3};
  EXPECT_TRUE(a.IsAncestorOf(grandchild));
  EXPECT_FALSE(a.IsParentOf(grandchild));
}

TEST(NodeIdTest, OrderingByPre) {
  NodeId a{1, 5, 1}, b{2, 1, 2};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.ToString(), "(1, 5, 1)");
}

TEST(DomTest, StringValueConcatenatesTextDescendants) {
  auto doc = ParseDocument("t", "<a>x<b>y<c>z</c></b>w</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "xyzw");
}

TEST(DomTest, StringValueExcludesAttributes) {
  auto doc = ParseDocument("t", "<a id=\"skip\">x</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root().StringValue(), "x");
}

TEST(DomTest, SubtreeSizeCountsAllNodes) {
  auto doc = ParseDocument("t", "<a id=\"1\"><b>x</b></a>");
  ASSERT_TRUE(doc.ok());
  // a + @id + b + text = 4.
  EXPECT_EQ(doc.value().root().SubtreeSize(), 4u);
}

TEST(DomTest, ForEachNodeVisitsInDocumentOrder) {
  auto doc = ParseDocument("t", "<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  std::vector<std::string> labels;
  ForEachNode(doc.value().root(), [&](const Node& node) {
    labels.push_back(node.label());
  });
  EXPECT_EQ(labels, (std::vector<std::string>{"a", "b", "c", "d"}));
}

// Structural-ID invariant checks: for every pair of nodes in a document,
// the (pre, post, depth) predicates must agree with the actual tree.
void CollectWithAncestry(const Node& node, std::vector<const Node*>* flat) {
  flat->push_back(&node);
  for (const auto& child : node.children()) {
    CollectWithAncestry(*child, flat);
  }
}

bool ReallyAncestor(const Node* maybe_ancestor, const Node* node) {
  for (const Node* p = node->parent(); p != nullptr; p = p->parent()) {
    if (p == maybe_ancestor) return true;
  }
  return false;
}

class IdInvariants : public ::testing::TestWithParam<int> {};

TEST_P(IdInvariants, PrePostDepthAgreeWithTree) {
  xmark::GeneratorConfig config;
  config.num_documents = 20;
  config.entities_per_document = 6;
  xmark::XmarkGenerator generator(config);
  Document doc = generator.GenerateDom(GetParam());

  std::vector<const Node*> nodes;
  CollectWithAncestry(doc.root(), &nodes);
  ASSERT_GT(nodes.size(), 10u);

  // Pre values are unique and in document order.
  for (size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_LT(nodes[i - 1]->id().pre, nodes[i]->id().pre);
  }
  // Pairwise agreement on a bounded sample (full quadratic check is slow).
  const size_t step = nodes.size() > 400 ? nodes.size() / 400 : 1;
  for (size_t i = 0; i < nodes.size(); i += step) {
    for (size_t j = 0; j < nodes.size(); j += step) {
      if (i == j) continue;
      const bool claimed = nodes[i]->id().IsAncestorOf(nodes[j]->id());
      const bool actual = ReallyAncestor(nodes[i], nodes[j]);
      EXPECT_EQ(claimed, actual)
          << nodes[i]->label() << nodes[i]->id().ToString() << " vs "
          << nodes[j]->label() << nodes[j]->id().ToString();
      if (claimed) {
        EXPECT_EQ(nodes[i]->id().IsParentOf(nodes[j]->id()),
                  nodes[j]->parent() == nodes[i]);
      }
    }
  }
  // Depth equals real tree depth.
  for (const Node* node : nodes) {
    uint32_t depth = 1;
    for (const Node* p = node->parent(); p != nullptr; p = p->parent()) {
      ++depth;
    }
    EXPECT_EQ(node->id().depth, depth);
  }
}

INSTANTIATE_TEST_SUITE_P(Docs, IdInvariants, ::testing::Range(0, 10));

// --- Label streams -----------------------------------------------------------

std::vector<std::string> StreamIds(const Document& doc,
                                   const std::string& label) {
  std::vector<std::string> ids;
  for (const Node* node : doc.NodesLabelled(label)) {
    ids.push_back(node->id().ToString());
  }
  return ids;
}

TEST(LabelStreamTest, ListsElementsAndAttributesInDocumentOrder) {
  auto parsed = ParseDocument(
      "t", "<a id=\"1\"><b id=\"2\">t<a>x</a></b><id/></a>");
  ASSERT_TRUE(parsed.ok());
  const Document& doc = parsed.value();
  const auto a = doc.NodesLabelled("a");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], &doc.root());
  EXPECT_EQ(a[1]->parent()->label(), "b");
  // Attributes and elements of one name share a stream, in pre order.
  const auto id = doc.NodesLabelled("id");
  ASSERT_EQ(id.size(), 3u);
  EXPECT_TRUE(id[0]->is_attribute());
  EXPECT_EQ(id[0]->value(), "1");
  EXPECT_TRUE(id[1]->is_attribute());
  EXPECT_EQ(id[1]->value(), "2");
  EXPECT_TRUE(id[2]->is_element());
  // Text nodes have no label and are never listed.
  EXPECT_TRUE(doc.NodesLabelled("").empty());
  EXPECT_TRUE(doc.NodesLabelled("missing").empty());
}

TEST(LabelStreamTest, StreamsPartitionTheNonTextNodesOfXmarkDocs) {
  xmark::GeneratorConfig config;
  config.num_documents = 4;
  config.entities_per_document = 12;
  const xmark::XmarkGenerator generator(config);
  for (int d = 0; d < config.num_documents; ++d) {
    const Document doc = generator.GenerateDom(d);
    size_t non_text = 0;
    size_t listed = 0;
    ForEachNode(doc.root(), [&](const Node& node) {
      if (node.is_text()) return;
      ++non_text;
      const auto stream = doc.NodesLabelled(node.label());
      // Every non-text node appears exactly once, in its own stream.
      EXPECT_EQ(std::count(stream.begin(), stream.end(), &node), 1);
      if (stream.front() == &node) {
        listed += stream.size();
        for (size_t i = 1; i < stream.size(); ++i) {
          EXPECT_LT(stream[i - 1]->id().pre, stream[i]->id().pre);
        }
      }
    });
    EXPECT_EQ(listed, non_text);
  }
}

TEST(LabelStreamTest, AssignIdsRebuildsStreamsAfterMutation) {
  auto parsed = ParseDocument("t", "<a><b/><c><b/></c></a>");
  ASSERT_TRUE(parsed.ok());
  Document doc = std::move(parsed).value();
  EXPECT_EQ(StreamIds(doc, "b"),
            (std::vector<std::string>{"(2, 1, 2)", "(4, 2, 3)"}));
  Node* added = doc.mutable_root()->children()[0]->AddElement("b");
  doc.mutable_root()->AddAttribute("b", "v");
  doc.AssignIds();
  const auto b = doc.NodesLabelled("b");
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[1], added);
  EXPECT_TRUE(b[3]->is_attribute());
  EXPECT_EQ(StreamIds(doc, "b"),
            (std::vector<std::string>{"(2, 2, 2)", "(3, 1, 3)", "(5, 3, 3)",
                                      "(6, 5, 2)"}));
}

TEST(LabelStreamTest, MovedDocumentKeepsValidStreams) {
  std::vector<Document> docs;
  for (int i = 0; i < 8; ++i) {  // growth moves earlier documents
    auto parsed = ParseDocument(StrFormat("d%d", i),
                                StrFormat("<a><b>%d</b><b/></a>", i));
    ASSERT_TRUE(parsed.ok());
    docs.push_back(std::move(parsed).value());
  }
  Document moved = std::move(docs[3]);
  for (const Document* doc : {&moved, &docs[7]}) {
    const auto b = doc->NodesLabelled("b");
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0]->parent(), &doc->root());
    EXPECT_EQ(b[1]->parent(), &doc->root());
  }
  EXPECT_EQ(moved.NodesLabelled("b")[0]->StringValue(), "3");
  EXPECT_EQ(docs[7].NodesLabelled("b")[0]->StringValue(), "7");
}

// --- Tokenizer ---------------------------------------------------------------

TEST(TokenizerTest, SplitsOnNonAlnumAndLowercases) {
  EXPECT_EQ(TokenizeWords("The Lion-Hunt, 1854!"),
            (std::vector<std::string>{"the", "lion", "hunt", "1854"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("... --- !!!").empty());
}

TEST(TokenizerTest, NormalizeWordStripsAndLowercases) {
  EXPECT_EQ(NormalizeWord("Lion!"), "lion");
  EXPECT_EQ(NormalizeWord("1854"), "1854");
  EXPECT_EQ(NormalizeWord("--"), "");
}

TEST(TokenizerTest, ConsistentWithContainsWordPredicate) {
  // Every token of a text must satisfy contains(token) on that text —
  // the invariant that lets the word index answer containment look-ups.
  const std::string text = "A striking oil on canvas, painted in 1863.";
  for (const auto& word : TokenizeWords(text)) {
    EXPECT_TRUE(ContainsWord(text, word)) << word;
  }
}

}  // namespace
}  // namespace webdex::xml
