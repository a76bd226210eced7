#include "cloud/deployment.h"

#include <algorithm>

#include "common/strings.h"

namespace webdex::cloud {

const char* CapacityModeName(CapacityMode mode) {
  switch (mode) {
    case CapacityMode::kProvisioned:
      return "provisioned";
    case CapacityMode::kOnDemand:
      return "ondemand";
  }
  return "unknown";
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string ArchitectureSpec::Name() const {
  return StrFormat("%s-s%d-r%d",
                   capacity == CapacityMode::kOnDemand ? "ondemand" : "prov",
                   shards, replicas);
}

Status ArchitectureSpec::Validate() const {
  if (shards < 1 || shards > 64) {
    return Status::InvalidArgument(
        StrFormat("shards must be in [1, 64], got %d", shards));
  }
  if (replicas < 0 || replicas > 8) {
    return Status::InvalidArgument(
        StrFormat("replicas must be in [0, 8], got %d", replicas));
  }
  if (replication_lag < 0) {
    return Status::InvalidArgument("replication_lag must be >= 0");
  }
  return Status::OK();
}

Deployment::Deployment(const ArchitectureSpec& spec) : spec_(spec) {
  // The env cannot surface a Status from its constructor, so an
  // out-of-range spec is clamped here; the CLI and benches validate
  // before construction and report the error instead.
  spec_.shards = std::max(1, std::min(64, spec_.shards));
  spec_.replicas = std::max(0, std::min(8, spec_.replicas));
  spec_.replication_lag = std::max<Micros>(0, spec_.replication_lag);
}

int Deployment::ShardFor(const std::string& hash_key) const {
  if (spec_.shards <= 1) return 0;
  return static_cast<int>(Fnv1a64(hash_key) %
                          static_cast<uint64_t>(spec_.shards));
}

std::string Deployment::PhysicalName(const std::string& logical,
                                     int shard) const {
  if (spec_.shards <= 1) return logical;
  return StrFormat("%s.s%d", logical.c_str(), shard);
}

std::string Deployment::LogicalName(const std::string& physical) const {
  if (spec_.shards <= 1) return physical;
  const size_t dot = physical.rfind(".s");
  if (dot == std::string::npos) return physical;
  // Only strip a well-formed ".s<digits>" suffix within the shard range.
  const std::string suffix = physical.substr(dot + 2);
  if (suffix.empty() || suffix.size() > 2) return physical;
  int shard = 0;
  for (char c : suffix) {
    if (c < '0' || c > '9') return physical;
    shard = shard * 10 + (c - '0');
  }
  if (shard >= spec_.shards) return physical;
  return physical.substr(0, dot);
}

std::vector<std::string> Deployment::PhysicalTables(
    const std::string& logical) const {
  std::vector<std::string> tables;
  tables.reserve(static_cast<size_t>(spec_.shards));
  for (int shard = 0; shard < spec_.shards; ++shard) {
    tables.push_back(PhysicalName(logical, shard));
  }
  return tables;
}

int Deployment::ReplicaFor(const std::string& table,
                           const std::string& first_key) const {
  if (spec_.replicas <= 0) return 0;
  return static_cast<int>(Fnv1a64(table + "\x1f" + first_key) %
                          static_cast<uint64_t>(spec_.replicas));
}

Micros Deployment::Watermark(const std::string& physical_table) const {
  auto it = watermarks_.find(physical_table);
  return it == watermarks_.end() ? 0 : it->second;
}

void Deployment::RecordWrite(const std::string& physical_table, Micros at) {
  Micros& mark = watermarks_[physical_table];
  if (at > mark) mark = at;
}

bool Deployment::ReplicaReadable(const std::string& physical_table,
                                 Micros now) const {
  if (spec_.replicas <= 0) return false;
  const Micros mark = Watermark(physical_table);
  return mark == 0 || now >= mark + spec_.replication_lag;
}

}  // namespace webdex::cloud
