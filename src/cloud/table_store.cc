#include "cloud/table_store.h"

#include <algorithm>
#include <cstdint>
#include <string_view>

namespace webdex::cloud {
namespace {

constexpr uint32_t kNone = UINT32_MAX;

uint64_t HashOf(const std::string& key) {
  return std::hash<std::string_view>{}(key);
}

/// The first eight bytes of `key`, big-endian, zero-padded: comparing two
/// prefixes orders their keys as std::string does, up to a tie.
uint64_t PrefixOf(const std::string& key) {
  uint64_t prefix = 0;
  for (size_t i = 0; i < 8; ++i) {
    prefix <<= 8;
    if (i < key.size()) prefix |= static_cast<unsigned char>(key[i]);
  }
  return prefix;
}

/// Hash of a composite (hash, range) key from the hashes of its parts.
uint64_t Combine(uint64_t hash_part, uint64_t range_part) {
  return hash_part ^ (range_part + 0x9e3779b97f4a7c15ULL + (hash_part << 6) +
                      (hash_part >> 2));
}

/// Open-addressing index of fixed-width {hash, link} headers: linear
/// probing over a power-of-two array kept at most half full.  Links point
/// into a table's records or groups; the caller's `eq` decides whether a
/// link's key is the one sought, and is consulted only when the full
/// 64-bit hashes match.
class LinkIndex {
 public:
  /// The link under `hash` that `eq` accepts, or kNone.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    if (slots_.empty()) return kNone;
    for (size_t i = hash & Mask(); slots_[i].link != kNone;
         i = (i + 1) & Mask()) {
      if (slots_[i].hash == hash && eq(slots_[i].link)) return slots_[i].link;
    }
    return kNone;
  }

  /// Like Find, but when no link matches, stores `link` under `hash` and
  /// returns kNone.
  template <typename Eq>
  uint32_t FindOrInsert(uint64_t hash, uint32_t link, const Eq& eq) {
    if (2 * (used_ + 1) > slots_.size()) Grow();
    size_t i = hash & Mask();
    for (; slots_[i].link != kNone; i = (i + 1) & Mask()) {
      if (slots_[i].hash == hash && eq(slots_[i].link)) return slots_[i].link;
    }
    slots_[i] = Slot{hash, link};
    ++used_;
    return kNone;
  }

  /// Removes the header of `link`, stored under `hash`.  Later headers of
  /// the probe run shift back into the hole, so no deletion mark is left.
  void Erase(uint64_t hash, uint32_t link) {
    size_t hole = hash & Mask();
    while (slots_[hole].link != link) hole = (hole + 1) & Mask();
    for (size_t j = (hole + 1) & Mask(); slots_[j].link != kNone;
         j = (j + 1) & Mask()) {
      const size_t home = slots_[j].hash & Mask();
      // A header stays put when its home lies cyclically in (hole, j].
      const bool stays = hole <= j ? (hole < home && home <= j)
                                   : (hole < home || home <= j);
      if (!stays) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --used_;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t link = kNone;
  };

  size_t Mask() const { return slots_.size() - 1; }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.link == kNone) continue;
      size_t i = slot.hash & Mask();
      while (slots_[i].link != kNone) i = (i + 1) & Mask();
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
};

}  // namespace

struct TableStore::Table {
  /// One stored item, moved in whole, with its cached footprint and the
  /// group of its hash key.
  struct Record {
    Item item;
    Footprint size;
    uint32_t group = kNone;
  };
  /// A record of a group, with its range key's prefix: sorting a group
  /// compares the contiguous prefixes and reads records only on a tie.
  struct Member {
    uint64_t prefix;
    uint32_t record;
  };
  /// The live records of one hash key.
  struct Group {
    std::string key;
    std::vector<Member> members;
    /// `members` is in range-key order.
    bool sorted = true;
  };

  static constexpr uint32_t kChunkBits = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;

  Record& At(uint32_t r) {
    return chunks[r >> kChunkBits][r & (kChunkSize - 1)];
  }
  const Record& At(uint32_t r) const {
    return chunks[r >> kChunkBits][r & (kChunkSize - 1)];
  }

  bool HoldsKey(uint32_t r, const std::string& hash_key,
                const std::string& range_key) const {
    const Item& stored = At(r).item;
    return stored.range_key == range_key && stored.hash_key == hash_key;
  }

  /// The index the next new record takes: a freed slot, else the end.
  uint32_t NextRecord() const {
    return free_records.empty() ? record_end : free_records.back();
  }
  /// Claims NextRecord().
  Record& NewRecord() {
    if (!free_records.empty()) {
      const uint32_t r = free_records.back();
      free_records.pop_back();
      return At(r);
    }
    if ((record_end & (kChunkSize - 1)) == 0) {
      chunks.push_back(std::make_unique<Record[]>(kChunkSize));
    }
    return At(record_end++);
  }

  /// The group of hash key `key` (hashed to `key_hash`), created if new.
  uint32_t GroupFor(uint64_t key_hash, const std::string& key) {
    const uint32_t fresh = free_groups.empty()
                               ? static_cast<uint32_t>(groups.size())
                               : free_groups.back();
    const uint32_t found = group_index.FindOrInsert(
        key_hash, fresh, [&](uint32_t g) { return groups[g].key == key; });
    if (found != kNone) return found;
    if (free_groups.empty()) {
      groups.emplace_back();
    } else {
      free_groups.pop_back();
    }
    groups[fresh].key = key;
    return fresh;
  }

  void Sort(Group& group) {
    if (group.sorted) return;
    SortByRange(group.members);
    group.sorted = true;
  }

  void SortByRange(std::vector<Member>& members) const {
    std::sort(members.begin(), members.end(),
              [this](const Member& a, const Member& b) {
                if (a.prefix != b.prefix) return a.prefix < b.prefix;
                return At(a.record).item.range_key <
                       At(b.record).item.range_key;
              });
  }

  /// Calls `fn` on every record in (hash, range) key order.  Groups not
  /// yet sorted are sorted in a copy, leaving the table untouched.
  template <typename Fn>
  void VisitInOrder(const Fn& fn) const {
    std::vector<uint32_t> order;
    order.reserve(groups.size() - free_groups.size());
    for (uint32_t g = 0; g < groups.size(); ++g) {
      if (!groups[g].members.empty()) order.push_back(g);
    }
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return groups[a].key < groups[b].key;
    });
    std::vector<Member> sorted;
    for (const uint32_t g : order) {
      const Group& group = groups[g];
      const std::vector<Member>* members = &group.members;
      if (!group.sorted) {
        sorted = group.members;
        SortByRange(sorted);
        members = &sorted;
      }
      for (const Member& m : *members) fn(At(m.record));
    }
  }

  std::vector<std::unique_ptr<Record[]>> chunks;
  uint32_t record_end = 0;
  std::vector<uint32_t> free_records;
  std::vector<Group> groups;
  std::vector<uint32_t> free_groups;
  LinkIndex item_index;   // (hash, range) -> record
  LinkIndex group_index;  // hash key -> group
  uint64_t stored_bytes = 0;
  uint64_t item_count = 0;
  uint64_t value_count = 0;
};

TableStore::TableStore(const StoreLimits& limits) : KvStore(limits) {}

TableStore::~TableStore() = default;

bool TableStore::HasTable(const std::string& table) const {
  return tables_.count(table) > 0;
}

uint64_t TableStore::StoredBytes(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second->stored_bytes;
}

uint64_t TableStore::OverheadBytes(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return 0;
  return it->second->item_count * Limits().item_overhead_bytes +
         it->second->value_count * Limits().value_overhead_bytes;
}

uint64_t TableStore::ItemCount(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second->item_count;
}

void TableStore::ForEachItem(
    const std::function<void(const std::string&, const Item&)>& fn) const {
  for (const auto& [name, table] : tables_) {
    table->VisitInOrder([&](const Table::Record& rec) { fn(name, rec.item); });
  }
}

std::vector<std::string> TableStore::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status TableStore::RestoreTable(const std::string& table) {
  return AddTable(table);
}

Status TableStore::RestoreItem(const std::string& table, Item item) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  const Footprint size = Measure(item);
  WEBDEX_RETURN_IF_ERROR(ValidateItem(item, size));
  Put(*t, std::move(item), size);
  return Status::OK();
}

TableStore::Footprint TableStore::Measure(const Item& item) {
  Footprint f{item.hash_key.size() + item.range_key.size(), 0};
  for (const auto& [name, values] : item.attrs) {
    f.bytes += name.size();
    f.values += values.size();
    for (const auto& v : values) f.bytes += v.size();
  }
  return f;
}

Result<std::vector<TableStore::Footprint>> TableStore::MeasureAll(
    const std::vector<Item>& items) const {
  std::vector<Footprint> sizes;
  sizes.reserve(items.size());
  for (const Item& item : items) {
    sizes.push_back(Measure(item));
    WEBDEX_RETURN_IF_ERROR(ValidateItem(item, sizes.back()));
  }
  return sizes;
}

Status TableStore::AddTable(const std::string& table) {
  auto [it, inserted] = tables_.try_emplace(table);
  if (!inserted) {
    return Status::AlreadyExists(std::string(Limits().table_noun) +
                                 " exists: " + table);
  }
  it->second = std::make_unique<Table>();
  return Status::OK();
}

Result<TableStore::Table*> TableStore::FindTable(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound(std::string("no such ") + Limits().table_noun +
                            ": " + table);
  }
  return it->second.get();
}

void TableStore::Put(Table& t, Item&& item, const Footprint& size) {
  const uint64_t key_hash = HashOf(item.hash_key);
  const uint64_t item_hash = Combine(key_hash, HashOf(item.range_key));
  const uint32_t fresh = t.NextRecord();
  const uint32_t found =
      t.item_index.FindOrInsert(item_hash, fresh, [&](uint32_t candidate) {
        return t.HoldsKey(candidate, item.hash_key, item.range_key);
      });
  if (found != kNone) {
    // Same key: the attributes are replaced wholesale.
    Table::Record& rec = t.At(found);
    t.stored_bytes -= rec.size.bytes;
    t.value_count -= rec.size.values;
    rec.item.attrs = std::move(item.attrs);
    rec.size = size;
  } else {
    const uint32_t g = t.GroupFor(key_hash, item.hash_key);
    Table::Record& rec = t.NewRecord();
    rec.item = std::move(item);
    rec.size = size;
    rec.group = g;
    Table::Group& group = t.groups[g];
    group.sorted = group.members.empty();
    group.members.push_back(
        Table::Member{PrefixOf(rec.item.range_key), fresh});
    t.item_count += 1;
  }
  t.stored_bytes += size.bytes;
  t.value_count += size.values;
}

void TableStore::AppendHashItems(Table& t, const std::string& hash_key,
                                 std::vector<Item>* out,
                                 std::vector<Footprint>* sizes) {
  const uint32_t g =
      t.group_index.Find(HashOf(hash_key), [&](uint32_t candidate) {
        return t.groups[candidate].key == hash_key;
      });
  if (g == kNone) return;
  Table::Group& group = t.groups[g];
  t.Sort(group);
  for (const Table::Member& m : group.members) {
    const Table::Record& rec = t.At(m.record);
    out->push_back(rec.item);
    sizes->push_back(rec.size);
  }
}

void TableStore::AppendAllItems(const Table& t, std::vector<Item>* out,
                                std::vector<Footprint>* sizes) {
  out->reserve(out->size() + t.item_count);
  sizes->reserve(sizes->size() + t.item_count);
  t.VisitInOrder([&](const Table::Record& rec) {
    out->push_back(rec.item);
    sizes->push_back(rec.size);
  });
}

uint64_t TableStore::Erase(Table& t, const std::string& hash_key,
                           const std::string& range_key) {
  const uint64_t key_hash = HashOf(hash_key);
  const uint64_t item_hash = Combine(key_hash, HashOf(range_key));
  const uint32_t r = t.item_index.Find(item_hash, [&](uint32_t candidate) {
    return t.HoldsKey(candidate, hash_key, range_key);
  });
  if (r == kNone) return 0;
  t.item_index.Erase(item_hash, r);
  Table::Record& rec = t.At(r);
  Table::Group& group = t.groups[rec.group];
  group.members.erase(std::find_if(
      group.members.begin(), group.members.end(),
      [r](const Table::Member& m) { return m.record == r; }));
  if (group.members.empty()) {
    t.group_index.Erase(key_hash, rec.group);
    group = Table::Group{};
    t.free_groups.push_back(rec.group);
  }
  const Footprint old = rec.size;
  t.stored_bytes -= old.bytes;
  t.item_count -= 1;
  t.value_count -= old.values;
  rec = Table::Record{};
  t.free_records.push_back(r);
  return old.bytes;
}

}  // namespace webdex::cloud
