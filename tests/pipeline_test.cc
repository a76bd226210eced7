// Determinism contract of the host-parallel extraction pipeline: the
// number of host threads is a pure wall-clock knob.  Virtual makespans,
// per-phase timings, extract stats, billing units, simulated dollars and
// the byte-for-byte contents of the index tables must be identical for
// host_threads == 1 (legacy serial path) and host_threads == 8
// (speculative pipeline), across all four strategies, with and without
// crash-injection redeliveries.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud_env.h"
#include "common/thread_pool.h"
#include "engine/extraction_pipeline.h"
#include "engine/warehouse.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

std::vector<xmark::GeneratedDocument> Corpus() {
  auto docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = 12;
  config.entities_per_document = 8;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  return docs;
}

/// Everything that must not depend on host_threads.
struct RunFingerprint {
  IndexingRunReport report;
  std::vector<std::string> table_dump;  // canonical item serialization
  double dollars = 0;
};

RunFingerprint RunIndexing(WarehouseConfig config, int crashes = 0) {
  RunFingerprint out;
  int crashes_remaining = crashes;
  if (crashes > 0) {
    config.crash_plan = [&crashes_remaining](cloud::CrashPoint point, int,
                                             const std::string&) {
      if (point == cloud::CrashPoint::kBeforeDelete &&
          crashes_remaining > 0) {
        --crashes_remaining;
        return true;
      }
      return false;
    };
  }
  auto env = std::make_unique<cloud::CloudEnv>();
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : Corpus()) {
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  auto report = warehouse.RunIndexers();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  out.report = report.value();
  warehouse.index_store().ForEachItem(
      [&out](const std::string& table, const cloud::Item& item) {
        std::string line = table + "|" + item.hash_key + "|" + item.range_key;
        for (const auto& [name, values] : item.attrs) {
          line += "|" + name + "=";
          for (const auto& value : values) line += value + ",";
        }
        out.table_dump.push_back(std::move(line));
      });
  out.dollars = env->meter().ComputeBill().total();
  return out;
}

void ExpectIdentical(const RunFingerprint& serial,
                     const RunFingerprint& parallel) {
  EXPECT_EQ(serial.report.documents, parallel.report.documents);
  EXPECT_EQ(serial.report.extraction_micros, parallel.report.extraction_micros);
  EXPECT_EQ(serial.report.upload_micros, parallel.report.upload_micros);
  EXPECT_EQ(serial.report.makespan, parallel.report.makespan);
  EXPECT_EQ(serial.report.extract_stats.entries,
            parallel.report.extract_stats.entries);
  EXPECT_EQ(serial.report.extract_stats.items,
            parallel.report.extract_stats.items);
  EXPECT_EQ(serial.report.extract_stats.payload_bytes,
            parallel.report.extract_stats.payload_bytes);
  EXPECT_DOUBLE_EQ(serial.report.index_put_units,
                   parallel.report.index_put_units);
  EXPECT_DOUBLE_EQ(serial.dollars, parallel.dollars);
  ASSERT_EQ(serial.table_dump.size(), parallel.table_dump.size());
  EXPECT_EQ(serial.table_dump, parallel.table_dump);
}

class PipelineDeterminismTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PipelineDeterminismTest, SerialAndParallelRunsAreBitIdentical) {
  WarehouseConfig config;
  config.strategy = GetParam();
  config.num_instances = 3;
  WarehouseConfig serial = config;
  serial.host_threads = 1;
  WarehouseConfig parallel = config;
  parallel.host_threads = 8;
  ExpectIdentical(RunIndexing(serial), RunIndexing(parallel));
}

TEST_P(PipelineDeterminismTest, IdenticalUnderCrashRedeliveries) {
  WarehouseConfig config;
  config.strategy = GetParam();
  config.num_instances = 2;
  WarehouseConfig serial = config;
  serial.host_threads = 1;
  WarehouseConfig parallel = config;
  parallel.host_threads = 8;
  const auto serial_run = RunIndexing(serial, /*crashes=*/3);
  const auto parallel_run = RunIndexing(parallel, /*crashes=*/3);
  // The three crashed tasks were redone but count once each.
  EXPECT_EQ(serial_run.report.documents, Corpus().size());
  EXPECT_GE(serial_run.report.redeliveries, 3u);
  ExpectIdentical(serial_run, parallel_run);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PipelineDeterminismTest,
    ::testing::ValuesIn(index::AllStrategyKinds()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return std::string(index::StrategyKindName(info.param));
    });

// Redelivered tasks re-extract to byte-identical items (UUID range keys
// are seeded per document URI), so crash replays *replace* rather than
// duplicate index items: the surviving tables equal a crash-free run's.
TEST(PipelineTest, CrashReplayIsIdempotentOnTableContents) {
  WarehouseConfig config;
  config.strategy = StrategyKind::kLUP;
  config.num_instances = 2;
  const auto clean = RunIndexing(config);
  const auto crashed = RunIndexing(config, /*crashes=*/3);
  EXPECT_EQ(clean.table_dump, crashed.table_dump);
  // The redone work is still billed: more put units, more dollars.
  EXPECT_GT(crashed.report.index_put_units, clean.report.index_put_units);
}

/// Canonical serialization of extracted items, attributes included.
std::vector<std::string> DumpItems(
    const std::vector<index::TableItems>& tables) {
  std::vector<std::string> dump;
  for (const auto& table : tables) {
    for (const auto& item : table.items) {
      std::string line =
          table.table + "|" + item.hash_key + "|" + item.range_key;
      for (const auto& [name, values] : item.attrs) {
        line += "|" + name + "=";
        for (const auto& value : values) line += value + ",";
      }
      dump.push_back(std::move(line));
    }
  }
  return dump;
}

// Take hands a prefetched result over once: the memo entry is gone, so a
// redelivered task's second Take gets nullptr and re-extracts inline —
// to byte-identical items, at generation 0 and at an upsert generation.
TEST(PipelineTest, TakeHandsEachResultOverOnce) {
  cloud::CloudEnv env;
  cloud::SimAgent agent;
  ASSERT_TRUE(env.s3().CreateBucket("data").ok());
  const auto corpus = Corpus();
  const auto& doc = corpus.back();
  ASSERT_TRUE(env.s3().Put(agent, "data", doc.uri, doc.text).ok());
  const auto strategy = index::IndexingStrategy::Create(StrategyKind::k2LUPI);
  const index::ExtractOptions options;
  const uint64_t seed = env.config().seed;
  common::ThreadPool pool(2);
  ExtractionPipeline pipeline(&pool, strategy.get(), options,
                              &env.dynamodb(), &env.s3(), "data", seed);
  for (const uint64_t generation : {uint64_t{0}, uint64_t{7}}) {
    SCOPED_TRACE(generation);
    pipeline.Prefetch(doc.uri, generation);
    std::unique_ptr<ExtractionResult> taken =
        pipeline.Take(doc.uri, generation);
    ASSERT_NE(taken, nullptr);
    ASSERT_TRUE(taken->status.ok());
    EXPECT_EQ(pipeline.Take(doc.uri, generation), nullptr);

    index::ExtractOptions inline_options = options;
    inline_options.generation = generation;
    const ExtractionResult redone = ExtractionPipeline::ExtractNow(
        doc.uri, doc.text, *strategy, inline_options, env.dynamodb(), seed);
    ASSERT_TRUE(redone.status.ok());
    EXPECT_FALSE(redone.items.empty());
    EXPECT_EQ(DumpItems(taken->items), DumpItems(redone.items));
    EXPECT_EQ(taken->stats.items, redone.stats.items);
    EXPECT_EQ(taken->stats.payload_bytes, redone.stats.payload_bytes);
  }
  EXPECT_EQ(pipeline.Take("never-prefetched.xml"), nullptr);
}

// Querying after a pipelined indexing run returns the same rows as after
// a serial one (the index contents being identical, it must).
TEST(PipelineTest, QueriesAgreeAfterSerialAndParallelIndexing) {
  const char* query =
      "//painting[/name~'Lion', //painter/name/last:val]";
  auto run = [&](int host_threads) {
    WarehouseConfig config;
    config.strategy = StrategyKind::k2LUPI;
    config.host_threads = host_threads;
    auto env = std::make_unique<cloud::CloudEnv>();
    Warehouse warehouse(env.get(), config);
    EXPECT_TRUE(warehouse.Setup().ok());
    for (const auto& doc : Corpus()) {
      EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
    }
    EXPECT_TRUE(warehouse.RunIndexers().ok());
    auto outcome = warehouse.ExecuteQuery(query);
    EXPECT_TRUE(outcome.ok());
    return std::make_pair(outcome.value().result.rows,
                          outcome.value().timings.total);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  ASSERT_FALSE(serial.first.empty());
  EXPECT_EQ(serial.first[0][0], "Delacroix");
}

// The evaluator's thread_local work-stats contract (query/evaluator.h):
// stats are only visible on the producing thread.
TEST(PipelineTest, EvaluatorWorkStatsStayOnProducingThread) {
  auto doc = xml::ParseDocument(
      "t.xml", "<a><b>one</b><b>two</b></a>");
  ASSERT_TRUE(doc.ok());
  auto parsed = query::ParseQuery("//b:val");
  ASSERT_TRUE(parsed.ok());
  const query::TreePattern& pattern = parsed.value().patterns()[0];

  (void)query::Evaluator::ConsumeWorkStats();
  query::Evaluator::WorkStats worker_stats;
  bool worker_pending = false;
  std::thread worker([&] {
    (void)query::Evaluator::ConsumeWorkStats();
    auto matches = query::Evaluator::MatchPattern(pattern, doc.value());
    EXPECT_EQ(matches.size(), 2u);
    worker_pending = query::Evaluator::HasPendingWorkStats();
    worker_stats = query::Evaluator::ConsumeWorkStats();
  });
  worker.join();
  // The producing thread saw and consumed its own stats...
  EXPECT_TRUE(worker_pending);
  EXPECT_GT(worker_stats.doc_bytes_scanned, 0u);
  EXPECT_EQ(worker_stats.embeddings_found, 2u);
  // ...while this thread's stats stayed untouched: consuming here after
  // cross-thread work yields nothing.
  EXPECT_FALSE(query::Evaluator::HasPendingWorkStats());
  const auto main_stats = query::Evaluator::ConsumeWorkStats();
  EXPECT_EQ(main_stats.doc_bytes_scanned, 0u);
  EXPECT_EQ(main_stats.embeddings_found, 0u);
}

}  // namespace
}  // namespace webdex::engine
