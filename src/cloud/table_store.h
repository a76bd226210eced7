#ifndef WEBDEX_CLOUD_TABLE_STORE_H_
#define WEBDEX_CLOUD_TABLE_STORE_H_

#include <functional>
#include <map>
#include <memory>
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
/// Layout (the flat table core, defined in table_store.cc).  A table is a
/// record array and a group array, plus two open-addressing indexes of
/// fixed-width {hash, link} headers over them:
///   * records: a chunked, append-only array of stored items, each moved
///     in from the caller's BatchPut with its cached Footprint (size and
///     value count) and the index of its hash-key group.  A deleted
///     record is emptied and its slot reused by the next put; chunks
///     never move, so a put allocates no node of its own;
///   * groups: one per live hash key, holding the key and its records'
///     indices, each beside its range key's first eight bytes so a read
///     sorts the group without touching the records (a sorted group
///     stays sorted until its next put);
///   * item index: (hash, range) -> record, the replacement check;
///   * group index: hash key -> group.
/// Both probes are O(1) expected and compare keys only on a full 64-bit
/// hash match.  Reads return items in range order (Get) or (hash, range)
/// order (Scan, ForEachItem, snapshots), sorting at read time; the byte,
/// item and value counters are adjusted by each put and erase from the
/// cached footprints, so they are exact after every call.
class TableStore : public KvStore {
 public:
  ~TableStore() override;

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
  Status RestoreItem(const std::string& table, Item item);
  bool Empty() const { return tables_.empty(); }

 protected:
  /// An item's billable size (Item::SizeBytes) and attribute-value count,
  /// measured once when it enters the store and shared by validation,
  /// billing and accounting.
  struct Footprint {
    uint64_t bytes = 0;
    uint64_t values = 0;
  };
  struct Table;

  explicit TableStore(const StoreLimits& limits);

  /// Rejects an item the backend cannot hold (keys, sizes, encoding).
  virtual Status ValidateItem(const Item& item,
                              const Footprint& size) const = 0;

  static Footprint Measure(const Item& item);
  /// Measures and validates every item of one BatchPut, so validation
  /// errors fail the whole call before anything is stored.
  Result<std::vector<Footprint>> MeasureAll(
      const std::vector<Item>& items) const;

  /// Creates an empty table; AlreadyExists if it is present.
  Status AddTable(const std::string& table);
  /// The table, or NotFound.
  Result<Table*> FindTable(const std::string& table);
  /// Stores `item` (of footprint `size`), completely replacing an item
  /// with the same key (Section 6), and moves the table's accounting to
  /// match.
  static void Put(Table& t, Item&& item, const Footprint& size);
  /// Appends copies of the items under `hash_key`, in range-key order,
  /// and their footprints to `sizes`.
  static void AppendHashItems(Table& t, const std::string& hash_key,
                              std::vector<Item>* out,
                              std::vector<Footprint>* sizes);
  /// Appends copies of every item of `t`, in (hash, range) key order, and
  /// their footprints to `sizes`.
  static void AppendAllItems(const Table& t, std::vector<Item>* out,
                             std::vector<Footprint>* sizes);
  /// Removes the item with the given key.  Returns its size, 0 if absent.
  static uint64_t Erase(Table& t, const std::string& hash_key,
                        const std::string& range_key);

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_TABLE_STORE_H_
