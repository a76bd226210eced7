#ifndef WEBDEX_CLOUD_TABLE_STORE_H_
#define WEBDEX_CLOUD_TABLE_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cloud/kv_store.h"
#include "common/result.h"
#include "common/status.h"

namespace webdex::cloud {

/// The storage the simulated DynamoDB and SimpleDB share.  The paper gives
/// both one data model (Figure 6: table -> item -> attribute ->
/// name/values under a composite (hash, range) key); they differ only in
/// limits, encoding, throughput and pricing (Section 8.4).  This base owns
/// the tables and their accounting (stored bytes, items, attribute
/// values); the backends keep validation, batching, billing, throttling
/// and fault injection.
///
/// Within a table items are kept in (hash, range) key order, which is the
/// order every read returns them in.
class TableStore : public KvStore {
 public:
  bool HasTable(const std::string& table) const override;
  uint64_t StoredBytes(const std::string& table) const override;
  /// items x per-item overhead + values x per-value overhead, from the
  /// backend's StoreLimits.
  uint64_t OverheadBytes(const std::string& table) const override;
  uint64_t ItemCount(const std::string& table) const override;
  void ForEachItem(
      const std::function<void(const std::string&, const Item&)>& fn)
      const override;

  // --- Host-side tooling (snapshots; not billed, no virtual latency) ----
  std::vector<std::string> TableNames() const;
  /// Recreates a table: the unbilled, fault-free counterpart of
  /// CreateTable that snapshot restore uses (cloud/snapshot.cc).
  Status RestoreTable(const std::string& table);
  /// Stores one item into an existing table after the same validation a
  /// live BatchPut applies, so a snapshot restores only items the store
  /// would have accepted.  Replaces an item with the same key.
  Status RestoreItem(const std::string& table, const Item& item);
  bool Empty() const { return tables_.empty(); }

 protected:
  struct Table {
    // hash key -> range key -> attributes.
    std::map<std::string, std::map<std::string, Attributes>> items;
    uint64_t stored_bytes = 0;
    uint64_t item_count = 0;
    uint64_t value_count = 0;
  };

  explicit TableStore(const StoreLimits& limits) : KvStore(limits) {}

  /// Rejects an item the backend cannot hold (keys, sizes, encoding).
  virtual Status ValidateItem(const Item& item) const = 0;

  /// Creates an empty table; AlreadyExists if it is present.
  Status AddTable(const std::string& table);
  /// The table, or NotFound.
  Result<Table*> FindTable(const std::string& table);
  /// Stores `item`, completely replacing an item with the same key
  /// (Section 6), and moves the table's accounting to match.
  static void Put(Table& t, const Item& item);
  /// Appends the items under `hash_key`, in range-key order.
  static void AppendHashItems(const Table& t, const std::string& hash_key,
                              std::vector<Item>* out);
  /// Appends every item of `t`, in (hash, range) key order.
  static void AppendAllItems(const Table& t, std::vector<Item>* out);
  /// Removes the item with the given key.  Returns its size, 0 if absent.
  static uint64_t Erase(Table& t, const std::string& hash_key,
                        const std::string& range_key);
  /// Number of attribute values in `attrs`.
  static uint64_t ValueCount(const Attributes& attrs);

 private:
  std::map<std::string, Table> tables_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_TABLE_STORE_H_
