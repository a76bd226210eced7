// Storage semantics both simulated table stores share through
// cloud::TableStore, checked once per backend: replacement accounting,
// delete, unknown tables, duplicate creates, scan order, and restore.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/dynamodb.h"
#include "cloud/simpledb.h"
#include "cloud/table_store.h"

namespace webdex::cloud {
namespace {

Item MakeItem(std::string hash, std::string range, Attributes attrs) {
  return Item{std::move(hash), std::move(range), std::move(attrs)};
}

enum class Backend { kDynamoDb, kSimpleDb };

class TableStoreTest : public ::testing::TestWithParam<Backend> {
 protected:
  TableStoreTest() : meter_(Pricing()), store_(NewStore()) {
    EXPECT_TRUE(store_->CreateTable(agent_, "t").ok());
  }

  std::unique_ptr<TableStore> NewStore() {
    if (GetParam() == Backend::kSimpleDb) {
      return std::make_unique<SimpleDb>(SimpleDbConfig(), &meter_);
    }
    return std::make_unique<DynamoDb>(DynamoDbConfig(), &meter_);
  }

  /// Overhead the backend bills for `items` items carrying `values`
  /// attribute values in total.
  uint64_t Overhead(uint64_t items, uint64_t values) const {
    return items * store_->Limits().item_overhead_bytes +
           values * store_->Limits().value_overhead_bytes;
  }

  uint64_t PutRequests() const {
    return meter_.usage().ddb_put_requests + meter_.usage().sdb_put_requests;
  }

  UsageMeter meter_;
  SimAgent agent_;
  std::unique_ptr<TableStore> store_;
};

INSTANTIATE_TEST_SUITE_P(BothBackends, TableStoreTest,
                         ::testing::Values(Backend::kDynamoDb,
                                           Backend::kSimpleDb),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kSimpleDb
                                      ? "SimpleDb"
                                      : "DynamoDb";
                         });

// A put with an existing (hash, range) key replaces the whole item, in
// a later call and within one call, and the accounting follows.
TEST_P(TableStoreTest, ReplacementAccounting) {
  auto& store = *store_;
  ASSERT_TRUE(store
                  .BatchPut(agent_, "t",
                            {MakeItem("k", "r", {{"a", {"aaaa", "bb"}}})})
                  .ok());
  ASSERT_TRUE(
      store.BatchPut(agent_, "t", {MakeItem("k", "r", {{"b", {"x"}}})})
          .ok());
  auto items = store.Get(agent_, "t", "k");
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items.value().size(), 1u);
  EXPECT_EQ(items.value()[0].attrs.count("a"), 0u);
  EXPECT_EQ(items.value()[0].attrs.at("b")[0], "x");
  const Item replacement = MakeItem("k", "r", {{"b", {"x"}}});
  EXPECT_EQ(store.ItemCount("t"), 1u);
  EXPECT_EQ(store.StoredBytes("t"), replacement.SizeBytes());
  EXPECT_EQ(store.OverheadBytes("t"), Overhead(1, 1));

  const Item last = MakeItem("k2", "r", {{"c", {"1", "2", "3"}}});
  ASSERT_TRUE(store
                  .BatchPut(agent_, "t",
                            {MakeItem("k2", "r", {{"c", {"long value"}}}),
                             last})
                  .ok());
  EXPECT_EQ(store.ItemCount("t"), 2u);
  EXPECT_EQ(store.StoredBytes("t"),
            replacement.SizeBytes() + last.SizeBytes());
  EXPECT_EQ(store.OverheadBytes("t"), Overhead(2, 4));
}

// Deleting a present item drops it and its accounting; deleting an absent
// one succeeds, changes nothing stored, and still bills the request.
TEST_P(TableStoreTest, DeletePresentAndAbsent) {
  auto& store = *store_;
  const Item kept = MakeItem("k", "r1", {{"u", {"v"}}});
  ASSERT_TRUE(store
                  .BatchPut(agent_, "t",
                            {kept, MakeItem("k", "r2", {{"u", {"v", "w"}}}),
                             MakeItem("j", "r", {{"u", {"v"}}})})
                  .ok());
  ASSERT_TRUE(store.DeleteItem(agent_, "t", "k", "r2").ok());
  ASSERT_TRUE(store.DeleteItem(agent_, "t", "j", "r").ok());
  EXPECT_EQ(store.ItemCount("t"), 1u);
  EXPECT_EQ(store.StoredBytes("t"), kept.SizeBytes());
  EXPECT_EQ(store.OverheadBytes("t"), Overhead(1, 1));
  EXPECT_TRUE(store.Get(agent_, "t", "j").value().empty());

  const uint64_t requests = PutRequests();
  const Micros before = agent_.now();
  EXPECT_TRUE(store.DeleteItem(agent_, "t", "k", "absent").ok());
  EXPECT_TRUE(store.DeleteItem(agent_, "t", "absent", "r1").ok());
  EXPECT_EQ(PutRequests(), requests + 2);
  EXPECT_GT(agent_.now(), before);
  EXPECT_EQ(store.ItemCount("t"), 1u);
  EXPECT_EQ(store.StoredBytes("t"), kept.SizeBytes());
}

TEST_P(TableStoreTest, UnknownTableIsNotFoundOnEveryVerb) {
  auto& store = *store_;
  const Item item = MakeItem("k", "r", {{"u", {"v"}}});
  EXPECT_TRUE(store.BatchPut(agent_, "nope", {item}).IsNotFound());
  EXPECT_TRUE(store.Get(agent_, "nope", "k").status().IsNotFound());
  EXPECT_TRUE(
      store.BatchGet(agent_, "nope", {"k"}).status().IsNotFound());
  EXPECT_TRUE(store.Scan(agent_, "nope").status().IsNotFound());
  EXPECT_TRUE(store.DeleteItem(agent_, "nope", "k", "r").IsNotFound());
  EXPECT_TRUE(store.RestoreItem("nope", item).IsNotFound());
  EXPECT_FALSE(store.HasTable("nope"));
  EXPECT_EQ(store.ItemCount("nope"), 0u);
  EXPECT_EQ(store.TableNames(), std::vector<std::string>{"t"});
}

TEST_P(TableStoreTest, SecondCreateTableIsAlreadyExists) {
  auto& store = *store_;
  EXPECT_TRUE(store.CreateTable(agent_, "t").IsAlreadyExists());
  EXPECT_TRUE(store.RestoreTable("t").IsAlreadyExists());
  EXPECT_TRUE(store.CreateTable(agent_, "u").ok());
  EXPECT_EQ(store.TableNames(), (std::vector<std::string>{"t", "u"}));
}

TEST_P(TableStoreTest, ScanReturnsHashRangeOrder) {
  auto& store = *store_;
  ASSERT_TRUE(store
                  .BatchPut(agent_, "t",
                            {MakeItem("b", "2", {{"u", {"v"}}}),
                             MakeItem("a", "9", {{"u", {"v"}}}),
                             MakeItem("b", "1", {{"u", {"v"}}}),
                             MakeItem("ab", "0", {{"u", {"v"}}})})
                  .ok());
  auto scanned = store.Scan(agent_, "t");
  ASSERT_TRUE(scanned.ok());
  std::vector<std::string> keys;
  for (const Item& item : scanned.value()) {
    keys.push_back(item.hash_key + "/" + item.range_key);
  }
  const std::vector<std::string> sorted = {"a/9", "ab/0", "b/1", "b/2"};
  EXPECT_EQ(keys, sorted);
  keys.clear();
  store.ForEachItem([&keys](const std::string&, const Item& item) {
    keys.push_back(item.hash_key + "/" + item.range_key);
  });
  EXPECT_EQ(keys, sorted);
}

// A store rebuilt host-side from another's items keeps the same books as
// the live store that got there through puts, replacements and deletes.
TEST_P(TableStoreTest, RestoredAccountingEqualsLive) {
  auto& live = *store_;
  ASSERT_TRUE(live.CreateTable(agent_, "u").ok());
  ASSERT_TRUE(live
                  .BatchPut(agent_, "t",
                            {MakeItem("k", "r1", {{"u", {"v"}}}),
                             MakeItem("k", "r2", {{"u", {"v", "w"}}}),
                             MakeItem("j", "r", {{"a", {"x"}}, {"b", {"y"}}}),
                             MakeItem("k", "r1", {{"u", {"vvvv", "w"}}})})
                  .ok());
  ASSERT_TRUE(live.DeleteItem(agent_, "t", "k", "r2").ok());
  auto restored = NewStore();
  for (const std::string& table : live.TableNames()) {
    ASSERT_TRUE(restored->RestoreTable(table).ok());
  }
  live.ForEachItem([&](const std::string& table, const Item& item) {
    EXPECT_TRUE(restored->RestoreItem(table, item).ok());
  });
  for (const char* table : {"t", "u"}) {
    EXPECT_EQ(restored->StoredBytes(table), live.StoredBytes(table)) << table;
    EXPECT_EQ(restored->OverheadBytes(table), live.OverheadBytes(table))
        << table;
    EXPECT_EQ(restored->ItemCount(table), live.ItemCount(table)) << table;
  }
  EXPECT_EQ(FingerprintStore(*restored), FingerprintStore(live));
  EXPECT_EQ(live.OverheadBytes("t"), Overhead(2, 4));
}

// Restore applies the live store's validation: an item BatchPut refuses
// cannot come back through a snapshot either.
TEST_P(TableStoreTest, RestoreRejectsWhatBatchPutRejects) {
  auto& store = *store_;
  for (const Item& bad :
       {MakeItem("", "r", {{"u", {"v"}}}), MakeItem("k", "", {{"u", {"v"}}}),
        MakeItem("k", "r",
                 {{"u", {std::string(store.MaxItemBytes() + 1, 'x')}}})}) {
    EXPECT_TRUE(store.BatchPut(agent_, "t", {bad}).IsInvalidArgument());
    EXPECT_TRUE(store.RestoreItem("t", bad).IsInvalidArgument());
  }
  EXPECT_EQ(store.ItemCount("t"), 0u);
}

}  // namespace
}  // namespace webdex::cloud
