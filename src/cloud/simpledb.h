#ifndef WEBDEX_CLOUD_SIMPLEDB_H_
#define WEBDEX_CLOUD_SIMPLEDB_H_

#include <string>
#include <vector>

#include "cloud/sim.h"
#include "cloud/table_store.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"

namespace webdex::cloud {

struct SimpleDbConfig {
  /// Per-API-request round trip; SimpleDB was markedly slower than
  /// DynamoDB (paper Section 8.4).
  Micros request_latency = 40'000;
  /// Global request rate; SimpleDB throttled far earlier than DynamoDB's
  /// provisioned capacity.
  double requests_per_second = 300;
  /// Organic-throttle delay bound on the request rate cap, as in
  /// DynamoDbConfig::max_backlog_micros.  <= 0 (default) queues without
  /// bound, keeping existing runs bit-identical.
  Micros max_backlog_micros = 0;
};

/// Simulated Amazon SimpleDB, the key-value store used by the authors'
/// earlier system [8] and kept here as the Section 8.4 comparison
/// baseline.  The limitations that motivated the move to DynamoDB are
/// modeled faithfully:
///   * attribute values are UTF-8 text of at most 1 KB — no binary blobs,
///     so node-ID lists must be hex-armoured and chunked;
///   * at most 256 attributes per item, 1 KB per attribute name;
///   * lower request throughput and higher latency;
///   * "box usage" machine-hour billing per request.
class FaultInjector;

class SimpleDb final : public TableStore {
 public:
  /// `injector` may be null (no fault injection); `metrics` may be null
  /// (no per-op `service.simpledb.*` metrics).
  SimpleDb(const SimpleDbConfig& config, UsageMeter* meter,
           FaultInjector* injector = nullptr,
           common::MetricRegistry* metrics = nullptr);

  SimpleDb(const SimpleDb&) = delete;
  SimpleDb& operator=(const SimpleDb&) = delete;

  /// SimpleDB billed 45 bytes of storage overhead per item name and per
  /// attribute name-value pair.
  static constexpr StoreLimits kLimits = {
      .name = "SimpleDB",
      .table_noun = "domain",
      .max_item_bytes = 256 * 1024,
      .max_value_bytes = 1024,
      .binary_values = false,
      .batch_put_limit = 25,
      .batch_get_limit = 20,
      .max_values_per_item = 255,
      .item_overhead_bytes = 45,
      .value_overhead_bytes = 45,
  };

  Status CreateTable(SimAgent& agent, const std::string& table) override;
  Status BatchPut(SimAgent& agent, const std::string& table,
                  std::vector<Item> items,
                  std::vector<Item>* unprocessed = nullptr) override;
  Result<std::vector<Item>> Get(SimAgent& agent, const std::string& table,
                                const std::string& hash_key) override;
  Result<std::vector<Item>> BatchGet(
      SimAgent& agent, const std::string& table,
      const std::vector<std::string>& hash_keys) override;
  Result<std::vector<Item>> Scan(SimAgent& agent,
                                const std::string& table) override;
  Status DeleteItem(SimAgent& agent, const std::string& table,
                    const std::string& hash_key,
                    const std::string& range_key) override;

 private:
  Status ValidateItem(const Item& item,
                      const Footprint& size) const override;

  /// Injected-fault preamble of every billed call; same contract as
  /// DynamoDb::InjectFault (bills the request round trip, no box usage).
  Status InjectFault(SimAgent& agent, const char* site,
                     const std::string& table, bool write, Micros op_start,
                     const OpMetrics& op);
  /// Organic throttle over the request-rate cap; same contract as
  /// DynamoDb::MaybeThrottle (bills the rejected request's round trip,
  /// no box usage, returns kResourceExhausted + Retry-After hint).
  Status MaybeThrottle(SimAgent& agent, bool write, Micros op_start,
                       const OpMetrics& op);

  SimpleDbConfig config_;
  UsageMeter* meter_;
  FaultInjector* injector_;
  OpMetrics batch_put_metrics_;
  OpMetrics get_metrics_;
  OpMetrics scan_metrics_;
  OpMetrics delete_metrics_;
  OpMetrics create_table_metrics_;
  common::Counter* throttled_metric_ = nullptr;
  RateLimiter request_limiter_;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_SIMPLEDB_H_
