// Property test of the flat table core under both simulated stores:
// seeded random sequences of puts (with in-batch and cross-batch
// replacements), deletes of present and absent keys, and every read verb,
// each call checked against a reference std::map model — returned items,
// their order, and the stored-byte, overhead and item counters.  Under a
// fault plan, every item a BatchPut hands back unprocessed must be its
// input, byte for byte, and the store must hold exactly the rest.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/dynamodb.h"
#include "cloud/fault.h"
#include "cloud/retrying_kv_store.h"
#include "cloud/simpledb.h"
#include "common/rng.h"

namespace webdex::cloud {
namespace {

enum class Backend { kDynamoDb, kSimpleDb };

/// hash key -> range key -> attributes: the table as the store must hold it.
using Model = std::map<std::string, std::map<std::string, Attributes>>;

bool SameItem(const Item& a, const Item& b) {
  return a.hash_key == b.hash_key && a.range_key == b.range_key &&
         a.attrs == b.attrs;
}

std::string Describe(const Item& item) {
  std::string out = item.hash_key + "|" + item.range_key;
  for (const auto& [name, values] : item.attrs) {
    out += "|" + name + "=";
    for (const auto& value : values) out += value + ",";
  }
  return out;
}

std::vector<std::string> Describe(const std::vector<Item>& items) {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const auto& item : items) out.push_back(Describe(item));
  return out;
}

class TableStorePropertyTest : public ::testing::TestWithParam<Backend> {
 protected:
  TableStorePropertyTest() : meter_(Pricing()) {}

  std::unique_ptr<TableStore> NewStore(FaultInjector* injector = nullptr) {
    if (GetParam() == Backend::kSimpleDb) {
      return std::make_unique<SimpleDb>(SimpleDbConfig(), &meter_, injector);
    }
    return std::make_unique<DynamoDb>(DynamoDbConfig(), &meter_, injector);
  }

  /// A random item over a small key space, so puts replace and deletes
  /// hit.  Some keys outgrow the short-string buffer; every item
  /// carries a unique serial value, so equal items are the same input.
  Item RandomItem(Rng& rng) {
    static const char* kHashes[] = {
        "k0", "k1", "k2", "k3", "k4", "a-hash-key-longer-than-sso-0",
        "a-hash-key-longer-than-sso-1", "z", "\x7f-high", "\xc3\xa9t\xc3\xa9",
        "k10"};
    Item item;
    item.hash_key = kHashes[rng.NextBelow(std::size(kHashes))];
    // Long range keys share their first eight bytes, short ones do not.
    item.range_key = (rng.NextBool(0.5) ? "r" : "range-key-") +
                     std::to_string(rng.NextBelow(12));
    const uint64_t attrs = 1 + rng.NextBelow(3);
    for (uint64_t a = 0; a < attrs; ++a) {
      AttributeValues values;
      const uint64_t count = 1 + rng.NextBelow(4);
      for (uint64_t v = 0; v < count; ++v) {
        values.push_back(std::string(rng.NextBelow(40), 'a' + a));
      }
      item.attrs[std::string(1, static_cast<char>('p' + rng.NextBelow(4)))] =
          std::move(values);
    }
    item.attrs["seq"] = {std::to_string(++serial_)};
    return item;
  }

  /// Every item of `model` in (hash, range) order.
  static std::vector<Item> All(const Model& model) {
    std::vector<Item> out;
    for (const auto& [hash, ranges] : model) {
      for (const auto& [range, attrs] : ranges) {
        out.push_back(Item{hash, range, attrs});
      }
    }
    return out;
  }

  static std::vector<Item> Under(const Model& model, const std::string& hash) {
    std::vector<Item> out;
    auto it = model.find(hash);
    if (it == model.end()) return out;
    for (const auto& [range, attrs] : it->second) {
      out.push_back(Item{hash, range, attrs});
    }
    return out;
  }

  /// The counters the store must report for `model`.
  void ExpectAccounting(const TableStore& store, const Model& model) {
    uint64_t bytes = 0;
    uint64_t items = 0;
    uint64_t values = 0;
    for (const Item& item : All(model)) {
      bytes += item.SizeBytes();
      items += 1;
      for (const auto& [name, vs] : item.attrs) values += vs.size();
    }
    EXPECT_EQ(store.StoredBytes("t"), bytes);
    EXPECT_EQ(store.ItemCount("t"), items);
    EXPECT_EQ(store.OverheadBytes("t"),
              items * store.Limits().item_overhead_bytes +
                  values * store.Limits().value_overhead_bytes);
  }

  /// Host-side enumeration: table "t" in (hash, range) order; the empty
  /// second table contributes nothing.
  static void ExpectEnumeration(const TableStore& store, const Model& model) {
    std::vector<Item> seen;
    store.ForEachItem([&seen](const std::string& table, const Item& item) {
      EXPECT_EQ(table, "t");
      seen.push_back(item);
    });
    EXPECT_EQ(Describe(seen), Describe(All(model)));
  }

  UsageMeter meter_;
  SimAgent agent_;
  uint64_t serial_ = 0;
};

INSTANTIATE_TEST_SUITE_P(BothBackends, TableStorePropertyTest,
                         ::testing::Values(Backend::kDynamoDb,
                                           Backend::kSimpleDb),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kSimpleDb
                                      ? "SimpleDb"
                                      : "DynamoDb";
                         });

TEST_P(TableStorePropertyTest, RandomOperationsMatchReferenceModel) {
  for (const uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    auto store = NewStore();
    ASSERT_TRUE(store->CreateTable(agent_, "t").ok());
    ASSERT_TRUE(store->CreateTable(agent_, "empty").ok());
    Model model;
    for (int step = 0; step < 300; ++step) {
      const uint64_t op = rng.NextBelow(10);
      if (op < 4) {
        // Up to three pages; the small key space repeats keys within the
        // batch and across batches.
        std::vector<Item> batch;
        const uint64_t n = 1 + rng.NextBelow(60);
        for (uint64_t i = 0; i < n; ++i) batch.push_back(RandomItem(rng));
        for (const Item& item : batch) {
          model[item.hash_key][item.range_key] = item.attrs;
        }
        ASSERT_TRUE(store->BatchPut(agent_, "t", std::move(batch)).ok());
      } else if (op < 6) {
        // Half the deletes aim at a stored item, the rest at random keys
        // (absent ones included).
        Item key = RandomItem(rng);
        const std::vector<Item> stored = All(model);
        if (!stored.empty() && rng.NextBool(0.5)) {
          key = stored[rng.NextBelow(stored.size())];
        }
        ASSERT_TRUE(
            store->DeleteItem(agent_, "t", key.hash_key, key.range_key).ok());
        auto it = model.find(key.hash_key);
        if (it != model.end()) {
          it->second.erase(key.range_key);
          if (it->second.empty()) model.erase(it);
        }
      } else if (op == 6) {
        const std::string hash = RandomItem(rng).hash_key;
        auto got = store->Get(agent_, "t", hash);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Describe(got.value()), Describe(Under(model, hash)));
      } else if (op == 7) {
        // Distinct keys, results in request order.
        std::vector<std::string> keys;
        std::vector<Item> expected;
        for (int i = 0; i < 4; ++i) {
          const std::string hash = RandomItem(rng).hash_key;
          if (std::find(keys.begin(), keys.end(), hash) != keys.end()) {
            continue;
          }
          keys.push_back(hash);
          for (Item& item : Under(model, hash)) {
            expected.push_back(std::move(item));
          }
        }
        auto got = store->BatchGet(agent_, "t", keys);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Describe(got.value()), Describe(expected));
      } else if (op == 8) {
        auto got = store->Scan(agent_, "t");
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Describe(got.value()), Describe(All(model)));
      } else {
        ExpectEnumeration(*store, model);
      }
      ExpectAccounting(*store, model);
      EXPECT_EQ(store->ItemCount("empty"), 0u);
      if (HasFailure()) return;
    }
    ExpectEnumeration(*store, model);
    auto scan = store->Scan(agent_, "empty");
    ASSERT_TRUE(scan.ok());
    EXPECT_TRUE(scan.value().empty());
  }
}

/// Checks that `unprocessed` is an in-order subsequence of `input`, each
/// item intact, and applies the rest of `input` to `model` in order: what
/// the store must have committed.
void ApplyCommitted(const std::vector<Item>& input,
                    const std::vector<Item>& unprocessed, Model* model) {
  size_t next = 0;
  std::vector<bool> bounced(input.size(), false);
  for (const Item& item : unprocessed) {
    while (next < input.size() && !SameItem(input[next], item)) ++next;
    ASSERT_LT(next, input.size())
        << "unprocessed item is not an intact input: " << Describe(item);
    bounced[next++] = true;
  }
  for (size_t i = 0; i < input.size(); ++i) {
    if (!bounced[i]) {
      (*model)[input[i].hash_key][input[i].range_key] = input[i].attrs;
    }
  }
}

TEST_P(TableStorePropertyTest, UnprocessedItemsComeBackIntact) {
  FaultPlan plan;
  plan.seed = 5;
  plan.dynamodb.error_probability = 0.2;
  plan.dynamodb.unprocessed_probability = 0.4;
  plan.simpledb.error_probability = 0.3;
  FaultInjector injector(plan, /*base_seed=*/9, &meter_);
  common::RetryPolicy policy;
  policy.max_attempts = 2;
  for (const bool retrying : {false, true}) {
    SCOPED_TRACE(retrying);
    Rng rng(retrying ? 11 : 12);
    auto base = NewStore(&injector);
    RetryingKvStore decorated(base.get(), policy, /*seed=*/3, &meter_);
    KvStore& store = retrying ? static_cast<KvStore&>(decorated) : *base;
    while (!store.CreateTable(agent_, "t").ok()) {
    }
    Model model;
    uint64_t bounced = 0;
    for (int round = 0; round < 60; ++round) {
      std::vector<Item> input;
      const uint64_t n = 1 + rng.NextBelow(80);
      for (uint64_t i = 0; i < n; ++i) {
        Item item = RandomItem(rng);
        // One decorated call may commit a key's later occurrence in an
        // earlier retry round than its first; keep its keys distinct so
        // the model's input-order replay stays exact.
        const bool repeated =
            std::any_of(input.begin(), input.end(), [&item](const Item& in) {
              return in.hash_key == item.hash_key &&
                     in.range_key == item.range_key;
            });
        if (!(retrying && repeated)) input.push_back(std::move(item));
      }
      // Re-submit whatever comes back until the batch drains, as a
      // client must.
      while (!input.empty()) {
        std::vector<Item> unprocessed;
        const Status status = store.BatchPut(agent_, "t", input, &unprocessed);
        ASSERT_TRUE(status.ok() || status.IsRetriable()) << status.ToString();
        ASSERT_NO_FATAL_FAILURE(ApplyCommitted(input, unprocessed, &model));
        bounced += unprocessed.size();
        ExpectAccounting(*base, model);
        input = std::move(unprocessed);
      }
    }
    EXPECT_GT(bounced, 0u);
    ExpectEnumeration(*base, model);
  }
}

}  // namespace
}  // namespace webdex::cloud
