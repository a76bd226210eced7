// Randomized property suites: these tests generate queries, documents
// and byte strings from seeded RNGs and check the library's global
// invariants — soundness of every index look-up, parser totality (parse
// or fail cleanly, never crash or hang), codec round trips.

#include <gtest/gtest.h>

#include <set>

#include "cloud/cloud_env.h"
#include "common/rng.h"
#include "index/entry.h"
#include "index/strategy.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/xquery.h"
#include "random_pattern.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace webdex {
namespace {

class RandomPatternSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RandomPatternSoundness, EveryStrategyLookupIsSound) {
  Rng rng = RandomPatternRng(GetParam());
  // A small corpus shared by all patterns of this seed.
  const std::vector<xml::Document> docs = RandomPatternCorpus(GetParam());

  // Index under every strategy.
  cloud::CloudEnv env;
  class Agent : public cloud::SimAgent {} agent;
  for (index::StrategyKind kind : index::AllStrategyKinds()) {
    auto strategy = index::IndexingStrategy::Create(kind);
    for (const auto& table : strategy->TableNames()) {
      ASSERT_TRUE(env.dynamodb().CreateTable(agent, table).ok());
    }
    for (const auto& doc : docs) {
      index::ExtractStats stats;
      auto items = strategy->ExtractItems(doc, {}, env.dynamodb(),
                                          env.rng(), &stats);
      ASSERT_TRUE(items.ok());
      for (const auto& batch : items.value()) {
        ASSERT_TRUE(
            env.dynamodb().BatchPut(agent, batch.table, batch.items).ok());
      }
    }
  }

  for (int trial = 0; trial < 12; ++trial) {
    const std::string text = RandomPattern(rng, 5);
    auto query = query::ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    const query::TreePattern& pattern = query.value().patterns()[0];

    std::set<std::string> truth;
    for (const auto& doc : docs) {
      if (query::Evaluator::Matches(pattern, doc)) truth.insert(doc.uri());
    }
    for (index::StrategyKind kind : index::AllStrategyKinds()) {
      auto strategy = index::IndexingStrategy::Create(kind);
      index::LookupStats stats;
      auto uris = strategy->LookupPattern(agent, env.dynamodb(), pattern,
                                          {}, &stats);
      ASSERT_TRUE(uris.ok()) << text;
      const std::set<std::string> retrieved(uris.value().begin(),
                                            uris.value().end());
      for (const auto& uri : truth) {
        EXPECT_TRUE(retrieved.count(uri))
            << index::StrategyKindName(kind) << " missed " << uri
            << " for pattern " << text;
      }
    }
    // And the twig-exactness relation: LUI == 2LUPI always.
    auto lui = index::IndexingStrategy::Create(index::StrategyKind::kLUI);
    auto two = index::IndexingStrategy::Create(index::StrategyKind::k2LUPI);
    index::LookupStats s1, s2;
    auto lui_uris =
        lui->LookupPattern(agent, env.dynamodb(), pattern, {}, &s1);
    auto two_uris =
        two->LookupPattern(agent, env.dynamodb(), pattern, {}, &s2);
    ASSERT_TRUE(lui_uris.ok() && two_uris.ok());
    EXPECT_EQ(lui_uris.value(), two_uris.value()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternSoundness,
                         ::testing::Range(0, 6));

// --- Random patterns always render and re-parse -----------------------------

class RandomPatternRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RandomPatternRoundTrip, ToStringAndXQueryAreStable) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string text = RandomPattern(rng, 6);
    auto query = query::ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    const std::string rendered = query.value().ToString();
    auto reparsed = query::ParseQuery(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ(reparsed.value().ToString(), rendered);
    // The XQuery translation must always produce a for + return.
    const std::string xq = query::ToXQuery(query.value());
    EXPECT_NE(xq.find("for "), std::string::npos);
    EXPECT_NE(xq.find("return <row>"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternRoundTrip,
                         ::testing::Range(0, 4));

// --- Parser totality ----------------------------------------------------------

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashTheXmlParser) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t length = rng.NextBelow(200);
    std::string input;
    for (size_t i = 0; i < length; ++i) {
      input.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    // Must return, with either a document or a clean error.
    auto doc = xml::ParseDocument("fuzz", input);
    if (doc.ok()) {
      // Whatever parsed must serialize and re-parse to the same form.
      const std::string once = xml::Serialize(doc.value().root());
      auto again = xml::ParseDocument("fuzz2", once);
      ASSERT_TRUE(again.ok()) << once;
      EXPECT_EQ(xml::Serialize(again.value().root()), once);
    }
  }
}

TEST_P(ParserFuzz, MutatedXmarkDocumentsParseOrFailCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 99);
  xmark::GeneratorConfig config;
  config.num_documents = 2;
  config.entities_per_document = 4;
  xmark::XmarkGenerator generator(config);
  const std::string base = generator.Generate(GetParam() % 2).text;
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          mutated.erase(pos, rng.NextBelow(8) + 1);
          break;
        default:
          mutated.insert(pos, "<");
          break;
      }
    }
    (void)xml::ParseDocument("mutated", mutated);  // must not crash/hang
  }
}

TEST_P(ParserFuzz, RandomBytesNeverCrashTheQueryParser) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 3);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t length = rng.NextBelow(80);
    std::string input;
    for (size_t i = 0; i < length; ++i) {
      // Bias toward the query alphabet so some inputs get deep.
      static const char kAlphabet[] = "//[]@:val'~=#,; abcin(1)";
      input.push_back(rng.NextBool(0.8)
                          ? kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]
                          : static_cast<char>(rng.NextBelow(256)));
    }
    auto query = query::ParseQuery(input);
    if (query.ok()) {
      auto reparsed = query::ParseQuery(query.value().ToString());
      EXPECT_TRUE(reparsed.ok()) << query.value().ToString();
    }
  }
}

TEST_P(ParserFuzz, RandomBlobsNeverCrashTheCodecs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 23);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t length = rng.NextBelow(64);
    std::string blob;
    for (size_t i = 0; i < length; ++i) {
      blob.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    (void)index::DecodeIds(blob);
    (void)index::DecodePaths(blob);
    (void)index::HexDearmour(blob);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace webdex
