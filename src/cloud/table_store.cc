#include "cloud/table_store.h"

namespace webdex::cloud {
namespace {

/// Item::SizeBytes and the value count in one pass, without building an
/// Item out of a stored entry.
struct Footprint {
  uint64_t bytes;
  uint64_t values;
};

Footprint Measure(const std::string& hash_key, const std::string& range_key,
                  const Attributes& attrs) {
  Footprint f{hash_key.size() + range_key.size(), 0};
  for (const auto& [name, values] : attrs) {
    f.bytes += name.size();
    f.values += values.size();
    for (const auto& v : values) f.bytes += v.size();
  }
  return f;
}

}  // namespace

bool TableStore::HasTable(const std::string& table) const {
  return tables_.count(table) > 0;
}

uint64_t TableStore::StoredBytes(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.stored_bytes;
}

uint64_t TableStore::OverheadBytes(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return 0;
  return it->second.item_count * Limits().item_overhead_bytes +
         it->second.value_count * Limits().value_overhead_bytes;
}

uint64_t TableStore::ItemCount(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.item_count;
}

void TableStore::ForEachItem(
    const std::function<void(const std::string&, const Item&)>& fn) const {
  for (const auto& [name, table] : tables_) {
    for (const auto& [hash_key, ranges] : table.items) {
      for (const auto& [range_key, attrs] : ranges) {
        fn(name, Item{hash_key, range_key, attrs});
      }
    }
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

Status TableStore::RestoreItem(const std::string& table, const Item& item) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  WEBDEX_RETURN_IF_ERROR(ValidateItem(item));
  Put(*t, item);
  return Status::OK();
}

Status TableStore::AddTable(const std::string& table) {
  if (!tables_.try_emplace(table).second) {
    return Status::AlreadyExists(std::string(Limits().table_noun) +
                                 " exists: " + table);
  }
  return Status::OK();
}

Result<TableStore::Table*> TableStore::FindTable(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound(std::string("no such ") + Limits().table_noun +
                            ": " + table);
  }
  return &it->second;
}

void TableStore::Put(Table& t, const Item& item) {
  auto [slot, inserted] =
      t.items[item.hash_key].try_emplace(item.range_key, item.attrs);
  if (!inserted) {
    const Footprint old = Measure(item.hash_key, item.range_key, slot->second);
    t.stored_bytes -= old.bytes;
    t.item_count -= 1;
    t.value_count -= old.values;
    slot->second = item.attrs;
  }
  const Footprint now = Measure(item.hash_key, item.range_key, item.attrs);
  t.stored_bytes += now.bytes;
  t.item_count += 1;
  t.value_count += now.values;
}

void TableStore::AppendHashItems(const Table& t, const std::string& hash_key,
                                 std::vector<Item>* out) {
  auto hit = t.items.find(hash_key);
  if (hit == t.items.end()) return;
  for (const auto& [range_key, attrs] : hit->second) {
    out->push_back(Item{hash_key, range_key, attrs});
  }
}

void TableStore::AppendAllItems(const Table& t, std::vector<Item>* out) {
  for (const auto& [hash_key, ranges] : t.items) {
    for (const auto& [range_key, attrs] : ranges) {
      out->push_back(Item{hash_key, range_key, attrs});
    }
  }
}

uint64_t TableStore::Erase(Table& t, const std::string& hash_key,
                           const std::string& range_key) {
  auto hit = t.items.find(hash_key);
  if (hit == t.items.end()) return 0;
  auto slot = hit->second.find(range_key);
  if (slot == hit->second.end()) return 0;
  const Footprint old = Measure(hash_key, range_key, slot->second);
  t.stored_bytes -= old.bytes;
  t.item_count -= 1;
  t.value_count -= old.values;
  hit->second.erase(slot);
  if (hit->second.empty()) t.items.erase(hit);
  return old.bytes;
}

uint64_t TableStore::ValueCount(const Attributes& attrs) {
  uint64_t n = 0;
  for (const auto& [name, values] : attrs) n += values.size();
  return n;
}

}  // namespace webdex::cloud
