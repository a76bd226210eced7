// Chaos-equivalence contract of the deterministic fault-injection layer
// (docs/FAULTS.md): under a seeded FaultPlan — transient S3/DynamoDB/SQS
// errors, unprocessed-item suffixes, duplicate and delayed deliveries,
// and plan-driven crashes — every indexing strategy must converge to the
// byte-identical index tables and query answers of a fault-free run,
// while costing at least as many simulated dollars and at least as much
// virtual makespan.  The fault schedule itself must be a pure function of
// the seeds: serial (host_threads == 1) and host-parallel (8) chaos runs
// are bit-identical.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cloud/cloud_env.h"
#include "engine/warehouse.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

std::vector<xmark::GeneratedDocument> Corpus() {
  auto docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig config;
  config.num_documents = 8;
  config.entities_per_document = 6;
  for (auto& doc : xmark::XmarkGenerator(config).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  return docs;
}

const char* kQuery = "//painting[/name~'Lion', //painter/name/last:val]";

/// The moderately hostile cloud the suite runs under: every service
/// faulting a few percent of attempts, DynamoDB bouncing batch suffixes,
/// SQS duplicating and delaying deliveries, instances crashing at both
/// engine crash points.
cloud::FaultPlan ChaosPlan() {
  cloud::FaultPlan plan;
  plan.seed = 7;
  plan.s3.error_probability = 0.05;
  plan.s3.throttle_share = 0.3;
  plan.dynamodb.error_probability = 0.05;
  plan.dynamodb.throttle_share = 0.7;
  plan.dynamodb.unprocessed_probability = 0.15;
  plan.simpledb.error_probability = 0.05;
  plan.simpledb.throttle_share = 0.5;
  plan.sqs.error_probability = 0.04;
  plan.sqs.duplicate_probability = 0.06;
  plan.sqs.delay_probability = 0.2;
  plan.sqs.max_delay = 2 * cloud::kMicrosPerSecond;
  plan.crash.before_delete_probability = 0.04;
  plan.crash.between_batch_put_pages_probability = 0.04;
  return plan;
}

/// Everything a fault-free and a faulted run must agree on (state) or be
/// ordered on (cost), plus the fault counters themselves.
struct ChaosFingerprint {
  IndexingRunReport report;
  std::vector<std::string> table_dump;
  std::vector<std::vector<std::string>> rows;  // answers of kQuery
  double dollars = 0;
  cloud::Usage usage;
};

ChaosFingerprint RunChaos(StrategyKind strategy, const cloud::FaultPlan& plan,
                     int host_threads,
                     IndexBackend backend = IndexBackend::kDynamoDb) {
  cloud::CloudConfig cloud_config;
  cloud_config.faults = plan;
  auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
  WarehouseConfig config;
  config.strategy = strategy;
  config.backend = backend;
  config.num_instances = 2;
  config.host_threads = host_threads;
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : Corpus()) {
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  ChaosFingerprint out;
  auto report = warehouse.RunIndexers();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) out.report = report.value();
  warehouse.index_store().ForEachItem(
      [&out](const std::string& table, const cloud::Item& item) {
        std::string line = table + "|" + item.hash_key + "|" + item.range_key;
        for (const auto& [name, values] : item.attrs) {
          line += "|" + name + "=";
          for (const auto& value : values) line += value + ",";
        }
        out.table_dump.push_back(std::move(line));
      });
  auto outcome = warehouse.ExecuteQuery(kQuery);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (outcome.ok()) out.rows = outcome.value().result.rows;
  out.dollars = env->meter().ComputeBill().total();
  out.usage = env->meter().usage();
  return out;
}

/// (strategy, index backend): chaos equivalence must hold on the legacy
/// SimpleDB deployment exactly as on DynamoDB.
class ChaosTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, IndexBackend>> {
 protected:
  StrategyKind strategy() const { return std::get<0>(GetParam()); }
  IndexBackend backend() const { return std::get<1>(GetParam()); }
};

// The headline equivalence: a faulted run ends in the same index and
// answers the query identically, never cheaper or faster than fault-free.
TEST_P(ChaosTest, FaultedRunConvergesToFaultFreeState) {
  const ChaosFingerprint clean =
      RunChaos(strategy(), cloud::FaultPlan(), 1, backend());
  const ChaosFingerprint faulted =
      RunChaos(strategy(), ChaosPlan(), 1, backend());
  // The plan actually bit: faults fired and retries happened.
  EXPECT_GT(faulted.usage.faulted_requests, 0u);
  EXPECT_GT(faulted.usage.retried_requests, 0u);
  // State converged bit-identically, and redelivered or duplicated
  // tasks counted their documents once...
  EXPECT_EQ(clean.table_dump, faulted.table_dump);
  EXPECT_EQ(faulted.report.documents, clean.report.documents);
  EXPECT_EQ(faulted.report.extract_stats.items,
            clean.report.extract_stats.items);
  ASSERT_FALSE(faulted.rows.empty());
  EXPECT_EQ(clean.rows, faulted.rows);
  EXPECT_EQ(faulted.rows[0][0], "Delacroix");
  // ...and recovery was paid for, never profited from.
  EXPECT_GE(faulted.dollars, clean.dollars);
  EXPECT_GE(faulted.report.makespan, clean.report.makespan);
  // No task was dropped: the poison counter stays at zero under a plan
  // of transient-only faults.
  EXPECT_EQ(faulted.report.dead_lettered, 0u);
  EXPECT_EQ(faulted.usage.dead_lettered, 0u);
}

// The fault schedule is a pure function of the seeds, not of host-thread
// interleaving: chaos runs are bit-identical serial vs. host-parallel.
TEST_P(ChaosTest, SerialAndParallelChaosRunsAreBitIdentical) {
  const ChaosFingerprint serial =
      RunChaos(strategy(), ChaosPlan(), 1, backend());
  const ChaosFingerprint parallel =
      RunChaos(strategy(), ChaosPlan(), 8, backend());
  EXPECT_EQ(serial.table_dump, parallel.table_dump);
  EXPECT_EQ(serial.rows, parallel.rows);
  EXPECT_DOUBLE_EQ(serial.dollars, parallel.dollars);
  EXPECT_EQ(serial.report.documents, parallel.report.documents);
  EXPECT_EQ(serial.report.makespan, parallel.report.makespan);
  EXPECT_EQ(serial.report.extraction_micros,
            parallel.report.extraction_micros);
  EXPECT_EQ(serial.report.upload_micros, parallel.report.upload_micros);
  EXPECT_EQ(serial.report.redeliveries, parallel.report.redeliveries);
  EXPECT_EQ(serial.report.dead_lettered, parallel.report.dead_lettered);
  EXPECT_EQ(serial.usage.faulted_requests, parallel.usage.faulted_requests);
  EXPECT_EQ(serial.usage.retried_requests, parallel.usage.retried_requests);
  EXPECT_EQ(serial.usage.sqs_redeliveries, parallel.usage.sqs_redeliveries);
  EXPECT_EQ(serial.usage.sqs_requests, parallel.usage.sqs_requests);
  EXPECT_EQ(serial.usage.ddb_put_requests, parallel.usage.ddb_put_requests);
  EXPECT_EQ(serial.usage.sdb_put_requests, parallel.usage.sdb_put_requests);
  EXPECT_EQ(serial.usage.sdb_get_requests, parallel.usage.sdb_get_requests);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndBackends, ChaosTest,
    ::testing::Combine(
        ::testing::ValuesIn(index::AllStrategyKinds()),
        ::testing::Values(IndexBackend::kDynamoDb, IndexBackend::kSimpleDb)),
    [](const ::testing::TestParamInfo<std::tuple<StrategyKind, IndexBackend>>&
           info) {
      return std::string(index::StrategyKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == IndexBackend::kSimpleDb
                  ? "_SimpleDb"
                  : "_DynamoDb");
    });

// The default (empty) plan is the identity: no counter moves, so every
// pre-chaos report and bill is reproduced bit-identically.
TEST(ChaosTest, EmptyPlanInjectsNothing) {
  const ChaosFingerprint clean = RunChaos(StrategyKind::kLUP, cloud::FaultPlan(), 1);
  EXPECT_EQ(clean.usage.faulted_requests, 0u);
  EXPECT_EQ(clean.usage.retried_requests, 0u);
  EXPECT_EQ(clean.usage.sqs_redeliveries, 0u);
  EXPECT_EQ(clean.usage.dead_lettered, 0u);
  EXPECT_EQ(clean.report.redeliveries, 0u);
  EXPECT_EQ(clean.report.dead_lettered, 0u);
  EXPECT_EQ(clean.report.documents, Corpus().size());
}

// Two different plan seeds produce two different fault schedules against
// the same cloud seed (the knob tests ask for).
TEST(ChaosTest, PlanSeedSelectsTheSchedule) {
  cloud::FaultPlan a = ChaosPlan();
  cloud::FaultPlan b = ChaosPlan();
  b.seed = 8;
  const ChaosFingerprint run_a = RunChaos(StrategyKind::kLU, a, 1);
  const ChaosFingerprint run_b = RunChaos(StrategyKind::kLU, b, 1);
  // Same converged state...
  EXPECT_EQ(run_a.table_dump, run_b.table_dump);
  EXPECT_EQ(run_a.rows, run_b.rows);
  // ...via different histories.
  EXPECT_NE(run_a.usage.faulted_requests, run_b.usage.faulted_requests);
}

// A task that crashes after its upload but before its ack is redelivered
// and redone; the run still reports each document once, with the
// extraction counters of a crash-free run, serial and host-parallel.
TEST(ChaosTest, RedeliveredTasksCountTheirDocumentOnce) {
  for (const int host_threads : {1, 4}) {
    SCOPED_TRACE(host_threads);
    auto run = [host_threads](int crashes) {
      auto env = std::make_unique<cloud::CloudEnv>();
      WarehouseConfig config;
      config.strategy = StrategyKind::kLUI;
      config.num_instances = 2;
      config.host_threads = host_threads;
      int crashes_remaining = crashes;
      config.crash_plan = [&crashes_remaining](cloud::CrashPoint point, int,
                                               const std::string&) {
        if (point != cloud::CrashPoint::kBeforeDelete) return false;
        if (crashes_remaining == 0) return false;
        --crashes_remaining;
        return true;
      };
      Warehouse warehouse(env.get(), config);
      EXPECT_TRUE(warehouse.Setup().ok());
      for (const auto& doc : Corpus()) {
        EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
      }
      auto report = warehouse.RunIndexers();
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(crashes_remaining, 0);
      return report.ok() ? report.value() : IndexingRunReport{};
    };
    const IndexingRunReport clean = run(0);
    const IndexingRunReport crashed = run(5);
    EXPECT_GE(crashed.redeliveries, 5u);
    EXPECT_EQ(crashed.documents, Corpus().size());
    EXPECT_EQ(crashed.documents, clean.documents);
    EXPECT_EQ(crashed.extract_stats.entries, clean.extract_stats.entries);
    EXPECT_EQ(crashed.extract_stats.items, clean.extract_stats.items);
    EXPECT_EQ(crashed.extract_stats.payload_bytes,
              clean.extract_stats.payload_bytes);
  }
}

// A crash *between* two DynamoDB BatchPut pages leaves a half-written
// index; the redelivered task re-puts the same (hash, range) keys, so the
// table contents converge to the crash-free run's.  The crashed delivery
// already moved part of its items into the store, so the redelivery
// re-extracts: inline on the serial path, and past the pipeline (whose
// Take hands each result over once) at host_threads > 1.
void MidBatchPutCrashConverges(int host_threads) {
  int crashes_remaining = 2;
  int boundaries_seen = 0;
  WarehouseConfig config;
  config.strategy = StrategyKind::k2LUPI;
  config.num_instances = 2;
  config.host_threads = host_threads;

  auto run = [&](bool with_crashes) {
    cloud::CloudConfig cloud_config;  // no service faults: crashes only
    auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
    WarehouseConfig wh = config;
    if (with_crashes) {
      wh.crash_plan = [&](cloud::CrashPoint point, int, const std::string&) {
        if (point != cloud::CrashPoint::kBetweenBatchPutPages) return false;
        ++boundaries_seen;
        if (crashes_remaining > 0) {
          --crashes_remaining;
          return true;
        }
        return false;
      };
    }
    Warehouse warehouse(env.get(), wh);
    EXPECT_TRUE(warehouse.Setup().ok());
    for (const auto& doc : Corpus()) {
      EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
    }
    auto report = warehouse.RunIndexers();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::vector<std::string> dump;
    warehouse.index_store().ForEachItem(
        [&dump](const std::string& table, const cloud::Item& item) {
          std::string line =
              table + "|" + item.hash_key + "|" + item.range_key;
          for (const auto& [name, values] : item.attrs) {
            line += "|" + name + "=";
            for (const auto& value : values) line += value + ",";
          }
          dump.push_back(std::move(line));
        });
    return std::make_pair(std::move(dump),
                          report.ok() ? report.value() : IndexingRunReport{});
  };

  const auto clean = run(/*with_crashes=*/false);
  const auto crashed = run(/*with_crashes=*/true);
  // The corpus actually produces multi-page uploads and both crashes
  // fired mid-upload.
  EXPECT_GT(boundaries_seen, 0);
  EXPECT_EQ(crashes_remaining, 0);
  // The two lost tasks were redelivered and the index converged.
  EXPECT_GE(crashed.second.redeliveries, 2u);
  EXPECT_EQ(clean.first, crashed.first);
  EXPECT_EQ(clean.second.documents, crashed.second.documents);
}

TEST(ChaosTest, MidBatchPutCrashConvergesOnRedelivery) {
  for (const int host_threads : {1, 4}) {
    SCOPED_TRACE(host_threads);
    MidBatchPutCrashConverges(host_threads);
  }
}

}  // namespace
}  // namespace webdex::engine
