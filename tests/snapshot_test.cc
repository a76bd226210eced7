#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cloud/snapshot.h"
#include "common/rng.h"
#include "common/varint.h"
#include "engine/warehouse.h"
#include "xmark/paintings.h"

namespace webdex::cloud {
namespace {

class Agent : public SimAgent {};

/// Appends the trailer SerializeSnapshot ends an image with: FNV-1a 64 of
/// every byte before it, little-endian.  Crafted and tampered images are
/// sealed with it so that they reach the section decoders.
std::string Seal(std::string body) {
  const uint64_t checksum = Fnv1a64(body);
  for (int i = 0; i < 8; ++i) {
    body.push_back(static_cast<char>(checksum >> (8 * i)));
  }
  return body;
}

/// `image` with its trailer recomputed over its (edited) body.
std::string Reseal(const std::string& image) {
  return Seal(image.substr(0, image.size() - 8));
}

/// Flips bit `bit` of `image` and expects the result to be refused.
void ExpectFlipRejected(const std::string& image, uint64_t bit) {
  std::string flipped = image;
  flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
  CloudEnv target;
  const Status status = RestoreSnapshot(flipped, &target);
  EXPECT_TRUE(status.IsCorruption()) << "bit " << bit << ": "
                                     << status.ToString();
}

TEST(SnapshotTest, EmptyEnvironmentRoundTrips) {
  CloudEnv env;
  const std::string snapshot = SerializeSnapshot(env);
  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(snapshot, &restored).ok());
  EXPECT_TRUE(restored.s3().Empty());
  EXPECT_TRUE(restored.dynamodb().Empty());
}

TEST(SnapshotTest, ObjectsAndItemsRoundTrip) {
  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.s3().CreateBucket("data").ok());
  ASSERT_TRUE(env.s3().Put(agent, "data", "a.xml", "<a/>").ok());
  std::string binary("\x00\x01\xff", 3);
  ASSERT_TRUE(env.s3().Put(agent, "data", "blob", binary).ok());
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "idx").ok());
  ASSERT_TRUE(env.dynamodb()
                  .BatchPut(agent, "idx",
                            {Item{"k", "r", {{"a.xml", {"v1", binary}}}}})
                  .ok());
  ASSERT_TRUE(env.simpledb().CreateTable(agent, "legacy").ok());
  ASSERT_TRUE(env.simpledb()
                  .BatchPut(agent, "legacy",
                            {Item{"k2", "r2", {{"doc", {"text"}}}}})
                  .ok());

  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(SerializeSnapshot(env), &restored).ok());

  Agent reader;
  auto object = restored.s3().Get(reader, "data", "a.xml");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object.value(), "<a/>");
  EXPECT_EQ(restored.s3().Get(reader, "data", "blob").value(), binary);
  auto items = restored.dynamodb().Get(reader, "idx", "k");
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items.value().size(), 1u);
  EXPECT_EQ(items.value()[0].attrs.at("a.xml"),
            (AttributeValues{"v1", binary}));
  EXPECT_EQ(restored.dynamodb().StoredBytes("idx"),
            env.dynamodb().StoredBytes("idx"));
  EXPECT_EQ(restored.simpledb().ItemCount("legacy"), 1u);
  EXPECT_EQ(restored.simpledb().OverheadBytes("legacy"),
            env.simpledb().OverheadBytes("legacy"));
}

TEST(SnapshotTest, EmptyTablesSurvive) {
  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "empty").ok());
  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(SerializeSnapshot(env), &restored).ok());
  EXPECT_TRUE(restored.dynamodb().HasTable("empty"));
  EXPECT_EQ(restored.dynamodb().ItemCount("empty"), 0u);
}

TEST(SnapshotTest, RejectsGarbageAndTruncation) {
  CloudEnv empty;
  EXPECT_TRUE(RestoreSnapshot("", &empty).IsCorruption());
  EXPECT_EQ(RestoreSnapshot("NOTASNAP", &empty).message(),
            "not a webdex snapshot");

  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.s3().CreateBucket("b").ok());
  ASSERT_TRUE(env.s3().Put(agent, "b", "k", "payload").ok());
  std::string snapshot = SerializeSnapshot(env);
  for (size_t cut : {snapshot.size() - 1, snapshot.size() / 2, size_t{9}}) {
    CloudEnv fresh;
    EXPECT_TRUE(
        RestoreSnapshot(snapshot.substr(0, cut), &fresh).IsCorruption())
        << "cut at " << cut;
  }
  // Trailing garbage is also rejected.
  CloudEnv fresh;
  EXPECT_TRUE(RestoreSnapshot(snapshot + "x", &fresh).IsCorruption());
}

// Item records must arrive in the strictly increasing (table, hash,
// range) order SerializeSnapshot writes; an image that repeats or
// reorders keys was not written by it.
TEST(SnapshotTest, RejectsDuplicateAndUnorderedItems) {
  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "idx").ok());
  ASSERT_TRUE(env.dynamodb()
                  .BatchPut(agent, "idx",
                            {Item{"k1", "r1", {{"u", {"v"}}}},
                             Item{"k2", "r2", {{"u", {"v"}}}}})
                  .ok());
  const std::string snapshot = SerializeSnapshot(env);
  // The two item records as SerializeKvStore encodes them (one-byte
  // varint lengths and counts), preceded by the item count.
  const std::string a("\x03idx\x02k1\x02r1\x01\x01u\x01\x01v", 16);
  const std::string b("\x03idx\x02k2\x02r2\x01\x01u\x01\x01v", 16);
  const std::string items = "\x02" + a + b;
  const size_t at = snapshot.find(items);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(snapshot.find(items, at + 1), std::string::npos);

  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(snapshot, &restored).ok());
  EXPECT_EQ(restored.dynamodb().ItemCount("idx"), 2u);
  EXPECT_EQ(restored.dynamodb().StoredBytes("idx"),
            env.dynamodb().StoredBytes("idx"));

  for (const std::string& tampered : {"\x02" + a + a, "\x02" + b + a}) {
    std::string image = snapshot;
    image.replace(at, items.size(), tampered);
    CloudEnv target;
    EXPECT_EQ(RestoreSnapshot(Reseal(image), &target).message(),
              "snapshot items duplicated or out of order");
  }
}

/// Replaces the single occurrence of `record` in `snapshot` by `tampered`
/// and reseals the image, so only the item decoder can refuse it.
std::string Tamper(const std::string& snapshot, const std::string& record,
                   const std::string& tampered) {
  const size_t at = snapshot.find(record);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(snapshot.find(record, at + 1), std::string::npos);
  std::string image = snapshot;
  if (at != std::string::npos) image.replace(at, record.size(), tampered);
  return Reseal(image);
}

// Restore holds items to the live store's own validation: a SimpleDB
// value flipped to binary restores as Corruption instead of being served
// by Get, exactly as the live BatchPut refuses it.
TEST(SnapshotTest, RejectsSimpleDbItemTheLiveStoreRefuses) {
  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.simpledb().CreateTable(agent, "legacy").ok());
  ASSERT_TRUE(env.simpledb()
                  .BatchPut(agent, "legacy",
                            {Item{"k", "r", {{"doc", {"textZ"}}}}})
                  .ok());
  const std::string image =
      Tamper(SerializeSnapshot(env), "\x05textZ", "\x05\x01" "extZ");
  CloudEnv target;
  EXPECT_TRUE(RestoreSnapshot(image, &target).IsCorruption());
  EXPECT_TRUE(env.simpledb()
                  .BatchPut(agent, "legacy",
                            {Item{"k", "r", {{"doc", {"\x01" "extZ"}}}}})
                  .IsInvalidArgument());
}

// The same for DynamoDB: an empty range key (the length-prefixed "r"
// replaced by a zero length, which keeps the stream framed).
TEST(SnapshotTest, RejectsDynamoDbItemTheLiveStoreRefuses) {
  CloudEnv env;
  Agent agent;
  ASSERT_TRUE(env.dynamodb().CreateTable(agent, "idx").ok());
  ASSERT_TRUE(env.dynamodb()
                  .BatchPut(agent, "idx", {Item{"k", "r", {{"u", {"v"}}}}})
                  .ok());
  const std::string record("\x03idx\x01k\x01r\x01\x01u\x01\x01v", 14);
  const std::string emptied("\x03idx\x01k\x00\x01\x01u\x01\x01v", 13);
  const std::string snapshot = SerializeSnapshot(env);
  CloudEnv untouched;
  ASSERT_TRUE(RestoreSnapshot(snapshot, &untouched).ok());
  CloudEnv target;
  EXPECT_TRUE(
      RestoreSnapshot(Tamper(snapshot, record, emptied), &target)
          .IsCorruption());
  EXPECT_TRUE(env.dynamodb()
                  .BatchPut(agent, "idx", {Item{"k", "", {{"u", {"v"}}}}})
                  .IsInvalidArgument());
}

TEST(SnapshotTest, RefusesNonEmptyTarget) {
  CloudEnv env;
  const std::string snapshot = SerializeSnapshot(env);
  CloudEnv busy;
  ASSERT_TRUE(busy.s3().CreateBucket("b").ok());
  EXPECT_TRUE(RestoreSnapshot(snapshot, &busy).IsAlreadyExists());
}

TEST(SnapshotTest, FileRoundTripThroughWarehouse) {
  // Index a corpus, snapshot to disk, restore into a fresh cloud, attach
  // a new warehouse, and get identical query answers without reindexing.
  const std::string path = "/tmp/webdex_snapshot_test.bin";
  engine::QueryOutcome original;
  {
    CloudEnv env;
    engine::WarehouseConfig config;
    config.strategy = index::StrategyKind::kLUP;
    engine::Warehouse warehouse(&env, config);
    ASSERT_TRUE(warehouse.Setup().ok());
    for (const auto& doc : xmark::GeneratePaintings()) {
      ASSERT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
    }
    ASSERT_TRUE(warehouse.RunIndexers().ok());
    auto outcome = warehouse.ExecuteQuery(
        "//painting[/name~'Lion', //painter/name/last:val]");
    ASSERT_TRUE(outcome.ok());
    original = std::move(outcome).value();
    ASSERT_TRUE(SaveSnapshotFile(env, path).ok());
  }

  CloudEnv restored;
  ASSERT_TRUE(LoadSnapshotFile(path, &restored).ok());
  engine::WarehouseConfig config;
  config.strategy = index::StrategyKind::kLUP;
  engine::Warehouse warehouse(&restored, config);
  ASSERT_TRUE(warehouse.AttachToExistingCloud().ok());
  EXPECT_GT(warehouse.document_uris().size(), 40u);
  auto outcome = warehouse.ExecuteQuery(
      "//painting[/name~'Lion', //painter/name/last:val]");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().result.rows, original.result.rows);
  EXPECT_EQ(outcome.value().docs_fetched, original.docs_fetched);
  std::remove(path.c_str());
}

// The planner's path summary is host-side state the snapshot does not
// carry: attaching to a restored cloud rebuilds it from the stored
// documents, so the restored facade reports the same statistics and
// explains (prices, chooses access paths for) queries exactly as the
// facade that built the index did.
TEST(SnapshotTest, RestoredWarehouseRebuildsPlannerStatistics) {
  const std::vector<std::string> queries = {
      "//painting[/name~'Lion', //painter/name/last:val]",
      "//painting[/year:val, /museum]", "//name:val"};
  engine::WarehouseConfig config;
  config.strategy = index::StrategyKind::k2LUPI;
  CloudEnv env;
  engine::Warehouse original(&env, config);
  ASSERT_TRUE(original.Setup().ok());
  for (const auto& doc : xmark::GeneratePaintings()) {
    ASSERT_TRUE(original.SubmitDocument(doc.uri, doc.text).ok());
  }
  ASSERT_TRUE(original.RunIndexers().ok());
  std::vector<std::string> explained;
  for (const auto& query : queries) {
    auto text = original.ExplainQuery(query);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    explained.push_back(std::move(text).value());
  }

  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(SerializeSnapshot(env), &restored).ok());
  engine::Warehouse attached(&restored, config);
  ASSERT_TRUE(attached.AttachToExistingCloud().ok());
  EXPECT_GT(attached.path_summary().distinct_paths(), 0u);
  EXPECT_EQ(attached.path_summary().documents(),
            original.path_summary().documents());
  EXPECT_EQ(attached.path_summary().distinct_paths(),
            original.path_summary().distinct_paths());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto text = attached.ExplainQuery(queries[i]);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(text.value(), explained[i]) << queries[i];
  }
}

// The chaos state round-trips: injector stream cursors and
// circuit-breaker trackers survive, so the whole snapshot re-serializes
// byte-identically from the restored environment.
TEST(SnapshotTest, ChaosStateRoundTripsByteIdentically) {
  CloudConfig config;
  config.faults.seed = 11;
  config.faults.s3.error_probability = 0.2;
  CloudEnv env(config);
  Agent agent;
  ASSERT_TRUE(env.s3().CreateBucket("b").ok());
  for (int i = 0; i < 20; ++i) {
    // Faulted puts advance the injector streams; the injected errors
    // themselves are irrelevant here.
    (void)env.s3().Put(agent, "b", "k" + std::to_string(i), "v");
  }
  ASSERT_FALSE(env.fault_injector().SaveStreams().empty());
  for (int i = 0; i < env.config().breaker.failure_threshold; ++i) {
    env.breaker().RecordFailure("idx-table", agent.now());
  }
  ASSERT_EQ(env.breaker().state("idx-table"), BreakerState::kOpen);
  env.breaker().RecordSuccess("healthy-table");

  const std::string snapshot = SerializeSnapshot(env);
  CloudEnv restored(config);
  ASSERT_TRUE(RestoreSnapshot(snapshot, &restored).ok());
  EXPECT_EQ(restored.breaker().state("idx-table"), BreakerState::kOpen);
  EXPECT_EQ(restored.breaker().state("healthy-table"), BreakerState::kClosed);
  EXPECT_EQ(restored.fault_injector().SaveStreams(),
            env.fault_injector().SaveStreams());
  EXPECT_EQ(SerializeSnapshot(restored), snapshot);
}

// Images of the retired format versions are refused by name, so an old
// file reads as outdated rather than as damage; nothing is restored.
TEST(SnapshotTest, RefusesRetiredFormatByVersion) {
  // The image a fresh environment serialized to under version 5.
  const std::string v5 = std::string("WDXSNAP5") + std::string(20, '\0') +
                         std::string("\0\x01\0\xa0\xc2\x1e", 6) +
                         std::string(8, '\0');
  CloudEnv target;
  const Status status = RestoreSnapshot(v5, &target);
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_EQ(status.message(),
            "snapshot format WDXSNAP5 is no longer supported");
  EXPECT_TRUE(target.s3().Empty());
  // A version this build never wrote is not a snapshot at all.
  EXPECT_EQ(RestoreSnapshot(Reseal("WDXSNAP7" + v5.substr(8)), &target)
                .message(),
            "not a webdex snapshot");
}

// Crafted images with a correct trailer still reach the decoders, which
// must refuse them promptly.  A string length that wraps the read offset
// around (back to the end of the magic) is truncation, not a rewind.
TEST(SnapshotTest, RejectsWrappingStringLength) {
  std::string body = "WDXSNAP6";
  // One bucket, whose name length is a 10-byte varint: offset 19 +
  // length == 8 (mod 2^64).
  body += '\x01';
  PutVarint64(&body, ~uint64_t{0} - 10);
  body += std::string(4, '\0');
  CloudEnv target;
  EXPECT_EQ(RestoreSnapshot(Seal(body), &target).message(),
            "truncated string in snapshot");
  // Refused before the bucket is restored, not after a rewound re-read.
  EXPECT_TRUE(target.s3().BucketNames().empty());

  // 2^40 buckets whose name length wraps the offset back to itself
  // (offset 24 + length == 14, the length's own first byte), so every
  // bucket would re-read it: the count is refused before the loop.
  std::string looping = "WDXSNAP6";
  PutVarint64(&looping, uint64_t{1} << 40);
  PutVarint64(&looping, ~uint64_t{0} - 9);
  CloudEnv looping_target;
  EXPECT_EQ(RestoreSnapshot(Seal(looping), &looping_target).message(),
            "element count overruns snapshot");
}

// An element count is checked against the bytes left before anything is
// reserved or looped over: 2^62 fault streams cannot fit in the image.
TEST(SnapshotTest, RejectsCountBeyondImage) {
  std::string body = "WDXSNAP6" + std::string(6, '\0');  // empty stores
  PutVarint64(&body, uint64_t{1} << 62);
  body += std::string(30, '\0');
  CloudEnv target;
  EXPECT_EQ(RestoreSnapshot(Seal(body), &target).message(),
            "element count overruns snapshot");
}

// An int field above INT_MAX is refused, not truncated: 2^32 + 1 shards
// would otherwise restore as the single shard of the default deployment.
TEST(SnapshotTest, RejectsIntFieldBeyondRange) {
  CloudEnv env;
  const std::string image = SerializeSnapshot(env);
  const std::string deployment("\0\x01\0\xa0\xc2\x1e", 6);
  ASSERT_EQ(image.substr(28, 6), deployment);
  std::string body = image.substr(0, 29);
  PutVarint64(&body, (uint64_t{1} << 32) + 1);
  body += image.substr(30, image.size() - 38);
  CloudEnv target;
  EXPECT_EQ(RestoreSnapshot(Seal(body), &target).message(),
            "int field out of range in snapshot");
}

// The trailer rejects every single-bit flip of an image: one in the
// magic changes or retires the version, one anywhere else breaks the
// checksum.  The unflipped image restores and re-serializes unchanged.
TEST(SnapshotTest, EveryBitFlipOfAFreshImageIsRejected) {
  CloudEnv env;
  const std::string image = SerializeSnapshot(env);
  for (uint64_t bit = 0; bit < image.size() * 8; ++bit) {
    ExpectFlipRejected(image, bit);
  }
  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(image, &restored).ok());
  EXPECT_EQ(SerializeSnapshot(restored), image);
}

TEST(SnapshotTest, SeededBitFlipsOfAnIndexedImageAreRejected) {
  CloudEnv env;
  engine::WarehouseConfig config;
  config.strategy = index::StrategyKind::kLUP;
  engine::Warehouse warehouse(&env, config);
  ASSERT_TRUE(warehouse.Setup().ok());
  for (const auto& doc : xmark::GeneratePaintings()) {
    ASSERT_TRUE(warehouse.SubmitDocument(doc.uri, doc.text).ok());
  }
  ASSERT_TRUE(warehouse.RunIndexers().ok());
  const std::string image = SerializeSnapshot(env);
  Rng rng(16);
  for (int flip = 0; flip < 1000; ++flip) {
    ExpectFlipRejected(image, rng.NextBelow(image.size() * 8));
  }
  CloudEnv restored;
  ASSERT_TRUE(RestoreSnapshot(image, &restored).ok());
  EXPECT_EQ(SerializeSnapshot(restored), image);
}

// The point of saving chaos state: a faulted run snapshotted mid-way and
// resumed in a fresh process draws the identical continuation of its
// fault schedule — same answers, same makespan, same fault counters and
// dollars as the run that never stopped.
TEST(SnapshotTest, MidRunChaosResumeIsDeterministic) {
  CloudConfig config;
  config.faults.seed = 5;
  // S3 stays fault-free so the post-restore attach (an unretried LIST)
  // cannot be the variable; DynamoDB and SQS chaos exercises the
  // restored streams during the query phase.
  config.faults.dynamodb.error_probability = 0.15;
  config.faults.dynamodb.throttle_share = 0.6;
  config.faults.sqs.error_probability = 0.05;
  config.faults.sqs.delay_probability = 0.2;
  config.faults.sqs.max_delay = kMicrosPerSecond;
  const std::vector<std::string> workload = {
      "//painting[/name~'Lion', //painter/name/last:val]",
      "//painting[/year:val, /museum]"};
  engine::WarehouseConfig wh;
  wh.strategy = index::StrategyKind::kLUP;

  // Run A: index under chaos, snapshot, then keep going with queries.
  CloudEnv env_a(config);
  engine::Warehouse warehouse_a(&env_a, wh);
  ASSERT_TRUE(warehouse_a.Setup().ok());
  for (const auto& doc : xmark::GeneratePaintings()) {
    ASSERT_TRUE(warehouse_a.SubmitDocument(doc.uri, doc.text).ok());
  }
  ASSERT_TRUE(warehouse_a.RunIndexers().ok());
  const std::string snapshot = SerializeSnapshot(env_a);
  const Usage before_a = env_a.meter().Snapshot();
  auto run_a = warehouse_a.ExecuteQueries(workload);
  ASSERT_TRUE(run_a.ok()) << run_a.status().ToString();
  const Usage delta_a = env_a.meter().Snapshot() - before_a;

  // Run B: restore into a fresh cloud and run the same queries.
  CloudEnv env_b(config);
  ASSERT_TRUE(RestoreSnapshot(snapshot, &env_b).ok());
  engine::Warehouse warehouse_b(&env_b, wh);
  ASSERT_TRUE(warehouse_b.AttachToExistingCloud().ok());
  const Usage before_b = env_b.meter().Snapshot();
  auto run_b = warehouse_b.ExecuteQueries(workload);
  ASSERT_TRUE(run_b.ok()) << run_b.status().ToString();
  const Usage delta_b = env_b.meter().Snapshot() - before_b;

  // The chaos plan actually bit during the resumed phase.
  EXPECT_GT(delta_a.faulted_requests, 0u);

  ASSERT_EQ(run_a.value().outcomes.size(), run_b.value().outcomes.size());
  for (size_t i = 0; i < run_a.value().outcomes.size(); ++i) {
    EXPECT_EQ(run_a.value().outcomes[i].result.rows,
              run_b.value().outcomes[i].result.rows)
        << "query " << i;
  }
  EXPECT_EQ(run_a.value().makespan, run_b.value().makespan);
  EXPECT_EQ(delta_a.faulted_requests, delta_b.faulted_requests);
  EXPECT_EQ(delta_a.retried_requests, delta_b.retried_requests);
  EXPECT_EQ(delta_a.sqs_requests, delta_b.sqs_requests);
  EXPECT_DOUBLE_EQ(env_a.meter().ComputeBill(delta_a).total(),
                   env_b.meter().ComputeBill(delta_b).total());
}

TEST(SnapshotTest, MissingFileFails) {
  CloudEnv env;
  EXPECT_TRUE(
      LoadSnapshotFile("/tmp/definitely-not-there.bin", &env).IsIOError());
}

}  // namespace
}  // namespace webdex::cloud
