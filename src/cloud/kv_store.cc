#include "cloud/kv_store.h"

#include "cloud/deployment.h"

namespace webdex::cloud {

uint64_t Item::SizeBytes() const {
  uint64_t size = hash_key.size() + range_key.size();
  for (const auto& [name, values] : attrs) {
    size += name.size();
    for (const auto& v : values) size += v.size();
  }
  return size;
}

uint64_t FingerprintStore(const KvStore& store) {
  std::string dump;
  const auto append = [&dump](const std::string& field) {
    dump += std::to_string(field.size());
    dump += ':';
    dump += field;
  };
  store.ForEachItem([&](const std::string& table, const Item& item) {
    append(table);
    append(item.hash_key);
    append(item.range_key);
    dump += std::to_string(item.attrs.size());
    dump += ';';
    for (const auto& [name, values] : item.attrs) {
      append(name);
      dump += std::to_string(values.size());
      dump += ';';
      for (const auto& value : values) append(value);
    }
  });
  return Fnv1a64(dump);
}

}  // namespace webdex::cloud
