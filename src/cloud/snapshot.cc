#include "cloud/snapshot.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <tuple>

#include "common/varint.h"

namespace webdex::cloud {
namespace {

// The image is kMagic, then the sections in the fixed order
// SerializeSnapshot writes them, then an 8-byte little-endian FNV-1a 64
// of every byte before it.  Each FNV-1a step is a bijection of the hash
// state for a given byte, so the trailer rejects every single-bit flip.
// New durable state bumps the version digit; images of an earlier
// version are refused by name.
constexpr std::string_view kMagic = "WDXSNAP6";
constexpr size_t kTrailerLen = 8;

// Doubles travel as the varint of their IEEE-754 bit pattern: exact
// round-trip, no locale/format ambiguity.
void PutDouble(std::string* out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutVarint64(out, bits);
}

Result<double> GetDouble(std::string_view data, size_t* offset) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t bits, GetVarint64(data, offset));
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void PutString(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

Result<std::string> GetString(std::string_view data, size_t* offset) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t length, GetVarint64(data, offset));
  if (length > data.size() - *offset) {
    return Status::Corruption("truncated string in snapshot");
  }
  std::string out(data.substr(*offset, length));
  *offset += length;
  return out;
}

// An element count.  Every element takes at least one byte, so a count
// above the bytes left is refused before anything loops over it.
Result<uint64_t> GetCount(std::string_view data, size_t* offset) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(data, offset));
  if (count > data.size() - *offset) {
    return Status::Corruption("element count overruns snapshot");
  }
  return count;
}

// An int field.  Refused above INT_MAX rather than truncated, which
// would restore a different value than the image holds.
Result<int> GetInt(std::string_view data, size_t* offset) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t value, GetVarint64(data, offset));
  if (value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::Corruption("int field out of range in snapshot");
  }
  return static_cast<int>(value);
}

// The magic, then the trailer: nothing is restored from an image whose
// version is not this one or whose bytes do not match their checksum.
Status CheckFraming(std::string_view image) {
  const std::string_view magic = image.substr(0, kMagic.size());
  if (magic != kMagic) {
    // WDXSNAP1 up to the version before this one.
    const size_t stem = kMagic.size() - 1;
    const bool retired = magic.size() == kMagic.size() &&
                         magic.substr(0, stem) == kMagic.substr(0, stem) &&
                         magic[stem] >= '1' && magic[stem] < kMagic[stem];
    if (retired) {
      return Status::Corruption("snapshot format " + std::string(magic) +
                                " is no longer supported");
    }
    return Status::Corruption("not a webdex snapshot");
  }
  if (image.size() < kMagic.size() + kTrailerLen) {
    return Status::Corruption("truncated snapshot");
  }
  const size_t body = image.size() - kTrailerLen;
  uint64_t trailer = 0;
  for (size_t i = 0; i < kTrailerLen; ++i) {
    trailer |= uint64_t{static_cast<uint8_t>(image[body + i])} << (8 * i);
  }
  if (trailer != Fnv1a64(image.substr(0, body))) {
    return Status::Corruption("snapshot checksum mismatch");
  }
  return Status::OK();
}

void SerializeKvStore(const TableStore& store, std::string* out) {
  const auto tables = store.TableNames();
  PutVarint64(out, tables.size());
  for (const auto& table : tables) PutString(out, table);
  uint64_t item_count = 0;
  store.ForEachItem([&](const std::string&, const Item&) { ++item_count; });
  PutVarint64(out, item_count);
  store.ForEachItem([&](const std::string& table, const Item& item) {
    PutString(out, table);
    PutString(out, item.hash_key);
    PutString(out, item.range_key);
    PutVarint64(out, item.attrs.size());
    for (const auto& [name, values] : item.attrs) {
      PutString(out, name);
      PutVarint64(out, values.size());
      for (const auto& value : values) PutString(out, value);
    }
  });
}

Status RestoreKvStore(std::string_view data, size_t* offset,
                      TableStore* store) {
  WEBDEX_ASSIGN_OR_RETURN(uint64_t table_count, GetCount(data, offset));
  for (uint64_t t = 0; t < table_count; ++t) {
    WEBDEX_ASSIGN_OR_RETURN(std::string table, GetString(data, offset));
    WEBDEX_RETURN_IF_ERROR(store->RestoreTable(table));
  }
  WEBDEX_ASSIGN_OR_RETURN(uint64_t item_count, GetCount(data, offset));
  // Items are written in strictly increasing (table, hash, range) order;
  // an image that repeats or reorders keys was not written by
  // SerializeKvStore.
  std::string prev_table;
  std::string prev_hash;
  std::string prev_range;
  for (uint64_t i = 0; i < item_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string table, GetString(data, offset));
    Item item;
    WEBDEX_ASSIGN_OR_RETURN(item.hash_key, GetString(data, offset));
    WEBDEX_ASSIGN_OR_RETURN(item.range_key, GetString(data, offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t attr_count, GetCount(data, offset));
    for (uint64_t a = 0; a < attr_count; ++a) {
      WEBDEX_ASSIGN_OR_RETURN(std::string name, GetString(data, offset));
      WEBDEX_ASSIGN_OR_RETURN(uint64_t value_count, GetCount(data, offset));
      AttributeValues values;
      for (uint64_t v = 0; v < value_count; ++v) {
        WEBDEX_ASSIGN_OR_RETURN(std::string value, GetString(data, offset));
        values.push_back(std::move(value));
      }
      item.attrs.emplace(std::move(name), std::move(values));
    }
    if (i > 0 && std::tie(prev_table, prev_hash, prev_range) >=
                     std::tie(table, item.hash_key, item.range_key)) {
      return Status::Corruption("snapshot items duplicated or out of order");
    }
    prev_hash = item.hash_key;
    prev_range = item.range_key;
    // An unknown table, or an item the live store would refuse.
    const Status restored = store->RestoreItem(table, std::move(item));
    if (!restored.ok()) {
      return Status::Corruption("snapshot item rejected: " +
                                restored.ToString());
    }
    prev_table = std::move(table);
  }
  return Status::OK();
}

}  // namespace

std::string SerializeSnapshot(CloudEnv& env) {
  std::string out(kMagic);

  // File store section: bucket names first (so empty buckets survive),
  // then the objects.
  const auto buckets = env.s3().BucketNames();
  PutVarint64(&out, buckets.size());
  for (const auto& bucket : buckets) PutString(&out, bucket);
  uint64_t object_count = 0;
  env.s3().ForEachObject([&](const std::string&, const std::string&,
                             const std::string&) { ++object_count; });
  PutVarint64(&out, object_count);
  env.s3().ForEachObject([&](const std::string& bucket,
                             const std::string& key,
                             const std::string& data) {
    PutString(&out, bucket);
    PutString(&out, key);
    PutString(&out, data);
  });

  // Index store sections.
  SerializeKvStore(env.dynamodb(), &out);
  SerializeKvStore(env.simpledb(), &out);

  // Chaos sections: injector stream cursors, then breaker trackers, so a
  // restored run resumes the identical fault schedule mid-stream.
  const auto streams = env.fault_injector().SaveStreams();
  PutVarint64(&out, streams.size());
  for (const auto& [site, state] : streams) {
    PutString(&out, site);
    for (uint64_t word : state) PutVarint64(&out, word);
  }
  const auto trackers = env.breaker().SaveTrackers();
  PutVarint64(&out, trackers.size());
  for (const auto& [resource, tracker] : trackers) {
    PutString(&out, resource);
    PutVarint64(&out, static_cast<uint64_t>(tracker.state));
    PutVarint64(&out, static_cast<uint64_t>(tracker.consecutive_failures));
    PutVarint64(&out, static_cast<uint64_t>(tracker.consecutive_successes));
    PutVarint64(&out, static_cast<uint64_t>(tracker.opened_at));
  }

  // Maintenance section: the compaction resume cursor and the
  // mutation-generation watermark are durable like the stores — a
  // crashed compaction resumes after restore, and new mutations keep
  // stamping monotonically above everything ever allocated.
  PutString(&out, env.maintenance().compact_cursor);
  PutVarint64(&out, env.maintenance().generation_watermark);

  // Autoscaler section: durable control-loop state.  All zeros when
  // the autoscaler is inactive; restoring that is a no-op.
  const AutoscalerState& scaler = env.autoscaler().state();
  PutDouble(&out, scaler.write_units);
  PutDouble(&out, scaler.read_units);
  PutVarint64(&out, static_cast<uint64_t>(scaler.window_start));
  PutVarint64(&out, static_cast<uint64_t>(scaler.last_scale_up));
  PutVarint64(&out, static_cast<uint64_t>(scaler.last_scale_down));
  PutDouble(&out, scaler.window_write_units);
  PutDouble(&out, scaler.window_read_units);
  PutVarint64(&out, scaler.window_write_throttles);
  PutVarint64(&out, scaler.window_read_throttles);
  PutVarint64(&out, scaler.started);

  // Deployment section: the architecture spec (so restore can refuse
  // an incompatible environment), the replication watermarks, and the
  // on-demand burst-ceiling trajectory.
  const ArchitectureSpec& arch = env.deployment().spec();
  PutVarint64(&out, static_cast<uint64_t>(arch.capacity));
  PutVarint64(&out, static_cast<uint64_t>(arch.shards));
  PutVarint64(&out, static_cast<uint64_t>(arch.replicas));
  PutVarint64(&out, static_cast<uint64_t>(arch.replication_lag));
  const auto& watermarks = env.deployment().watermarks();
  PutVarint64(&out, watermarks.size());
  for (const auto& [table, at] : watermarks) {
    PutString(&out, table);
    PutVarint64(&out, static_cast<uint64_t>(at));
  }
  const DynamoDb::OnDemandState& ondemand = env.dynamodb().ondemand_state();
  PutDouble(&out, ondemand.write_ceiling);
  PutDouble(&out, ondemand.read_ceiling);
  PutDouble(&out, ondemand.peak_write);
  PutDouble(&out, ondemand.peak_read);
  PutVarint64(&out, static_cast<uint64_t>(ondemand.window_start));
  PutDouble(&out, ondemand.window_write_units);
  PutDouble(&out, ondemand.window_read_units);

  const uint64_t checksum = Fnv1a64(out);
  for (size_t i = 0; i < kTrailerLen; ++i) {
    out.push_back(static_cast<char>(checksum >> (8 * i)));
  }
  return out;
}

Status RestoreSnapshot(const std::string& image, CloudEnv* env) {
  WEBDEX_RETURN_IF_ERROR(CheckFraming(image));
  if (!env->s3().Empty() || !env->dynamodb().Empty() ||
      !env->simpledb().Empty()) {
    return Status::AlreadyExists(
        "snapshot must be restored into a fresh CloudEnv");
  }
  const std::string_view snapshot =
      std::string_view(image).substr(0, image.size() - kTrailerLen);
  size_t offset = kMagic.size();
  WEBDEX_ASSIGN_OR_RETURN(uint64_t bucket_count, GetCount(snapshot, &offset));
  for (uint64_t i = 0; i < bucket_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string bucket, GetString(snapshot, &offset));
    env->s3().RestoreBucket(bucket);
  }
  WEBDEX_ASSIGN_OR_RETURN(uint64_t object_count, GetCount(snapshot, &offset));
  for (uint64_t i = 0; i < object_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string bucket, GetString(snapshot, &offset));
    WEBDEX_ASSIGN_OR_RETURN(std::string key, GetString(snapshot, &offset));
    WEBDEX_ASSIGN_OR_RETURN(std::string data, GetString(snapshot, &offset));
    env->s3().RestoreObject(bucket, key, std::move(data));
  }
  WEBDEX_RETURN_IF_ERROR(RestoreKvStore(snapshot, &offset, &env->dynamodb()));
  WEBDEX_RETURN_IF_ERROR(RestoreKvStore(snapshot, &offset, &env->simpledb()));
  WEBDEX_ASSIGN_OR_RETURN(uint64_t stream_count, GetCount(snapshot, &offset));
  std::vector<FaultInjector::StreamState> streams;
  for (uint64_t i = 0; i < stream_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string site, GetString(snapshot, &offset));
    std::array<uint64_t, 4> state;
    for (auto& word : state) {
      WEBDEX_ASSIGN_OR_RETURN(word, GetVarint64(snapshot, &offset));
    }
    streams.emplace_back(std::move(site), state);
  }
  env->fault_injector().RestoreStreams(streams);
  WEBDEX_ASSIGN_OR_RETURN(uint64_t tracker_count,
                          GetCount(snapshot, &offset));
  std::vector<CircuitBreaker::TrackerState> trackers;
  for (uint64_t i = 0; i < tracker_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string resource,
                            GetString(snapshot, &offset));
    HealthTracker tracker;
    WEBDEX_ASSIGN_OR_RETURN(uint64_t state, GetVarint64(snapshot, &offset));
    if (state > static_cast<uint64_t>(BreakerState::kHalfOpen)) {
      return Status::Corruption("invalid breaker state in snapshot");
    }
    tracker.state = static_cast<BreakerState>(state);
    WEBDEX_ASSIGN_OR_RETURN(tracker.consecutive_failures,
                            GetInt(snapshot, &offset));
    WEBDEX_ASSIGN_OR_RETURN(tracker.consecutive_successes,
                            GetInt(snapshot, &offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t opened_at,
                            GetVarint64(snapshot, &offset));
    tracker.opened_at = static_cast<Micros>(opened_at);
    trackers.emplace_back(std::move(resource), tracker);
  }
  env->breaker().RestoreTrackers(trackers);

  WEBDEX_ASSIGN_OR_RETURN(env->maintenance().compact_cursor,
                          GetString(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(env->maintenance().generation_watermark,
                          GetVarint64(snapshot, &offset));

  AutoscalerState scaler;
  WEBDEX_ASSIGN_OR_RETURN(scaler.write_units, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.read_units, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(uint64_t scaler_window,
                          GetVarint64(snapshot, &offset));
  scaler.window_start = static_cast<Micros>(scaler_window);
  WEBDEX_ASSIGN_OR_RETURN(uint64_t last_up, GetVarint64(snapshot, &offset));
  scaler.last_scale_up = static_cast<Micros>(last_up);
  WEBDEX_ASSIGN_OR_RETURN(uint64_t last_down, GetVarint64(snapshot, &offset));
  scaler.last_scale_down = static_cast<Micros>(last_down);
  WEBDEX_ASSIGN_OR_RETURN(scaler.window_write_units,
                          GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.window_read_units,
                          GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.window_write_throttles,
                          GetVarint64(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.window_read_throttles,
                          GetVarint64(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(scaler.started, GetVarint64(snapshot, &offset));
  env->autoscaler().Restore(scaler);

  ArchitectureSpec arch;
  WEBDEX_ASSIGN_OR_RETURN(uint64_t capacity, GetVarint64(snapshot, &offset));
  if (capacity > static_cast<uint64_t>(CapacityMode::kOnDemand)) {
    return Status::Corruption("invalid capacity mode in snapshot");
  }
  arch.capacity = static_cast<CapacityMode>(capacity);
  WEBDEX_ASSIGN_OR_RETURN(arch.shards, GetInt(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(arch.replicas, GetInt(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(uint64_t lag, GetVarint64(snapshot, &offset));
  arch.replication_lag = static_cast<Micros>(lag);
  // Restoring into a different deployment shape would scatter items
  // across the wrong physical tables; demand an exact match.
  if (!(arch == env->deployment().spec())) {
    return Status::InvalidArgument(
        "snapshot architecture " + arch.Name() +
        " does not match environment " + env->deployment().spec().Name());
  }
  WEBDEX_ASSIGN_OR_RETURN(uint64_t watermark_count,
                          GetCount(snapshot, &offset));
  for (uint64_t i = 0; i < watermark_count; ++i) {
    WEBDEX_ASSIGN_OR_RETURN(std::string table, GetString(snapshot, &offset));
    WEBDEX_ASSIGN_OR_RETURN(uint64_t at, GetVarint64(snapshot, &offset));
    env->deployment().RestoreWatermark(table, static_cast<Micros>(at));
  }
  DynamoDb::OnDemandState ondemand;
  WEBDEX_ASSIGN_OR_RETURN(ondemand.write_ceiling, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(ondemand.read_ceiling, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(ondemand.peak_write, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(ondemand.peak_read, GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(uint64_t ondemand_window,
                          GetVarint64(snapshot, &offset));
  ondemand.window_start = static_cast<Micros>(ondemand_window);
  WEBDEX_ASSIGN_OR_RETURN(ondemand.window_write_units,
                          GetDouble(snapshot, &offset));
  WEBDEX_ASSIGN_OR_RETURN(ondemand.window_read_units,
                          GetDouble(snapshot, &offset));
  if (arch.capacity == CapacityMode::kOnDemand) {
    env->dynamodb().RestoreOnDemand(ondemand);
  }
  if (offset != snapshot.size()) {
    return Status::Corruption("trailing bytes in snapshot");
  }
  return Status::OK();
}

Status SaveSnapshotFile(CloudEnv& env, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  const std::string snapshot = SerializeSnapshot(env);
  file.write(snapshot.data(), static_cast<std::streamsize>(snapshot.size()));
  file.flush();
  if (!file) return Status::IOError("failed writing " + path);
  return Status::OK();
}

Status LoadSnapshotFile(const std::string& path, CloudEnv* env) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open " + path);
  std::ostringstream contents;
  contents << file.rdbuf();
  return RestoreSnapshot(std::move(contents).str(), env);
}

}  // namespace webdex::cloud
