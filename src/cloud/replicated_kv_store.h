#ifndef WEBDEX_CLOUD_REPLICATED_KV_STORE_H_
#define WEBDEX_CLOUD_REPLICATED_KV_STORE_H_

#include <string>
#include <vector>

#include "cloud/deployment.h"
#include "cloud/kv_store.h"
#include "cloud/trace.h"
#include "cloud/usage.h"
#include "common/metrics.h"
#include "common/tracer.h"

namespace webdex::cloud {

/// KvStore decorator that models a pool of read replicas per physical
/// table (docs/ARCHITECTURES.md).  Writes go to the primary and advance
/// the table's replication watermark in the shared Deployment; reads are
/// served eventually-consistently from a deterministically chosen replica
/// at half the read price once the replication lag has elapsed since the
/// table's last write, and fall back to the primary (read-your-writes,
/// full price) while the watermark is still fresh.
///
/// Replica reads return the exact same bytes as primary reads — only the
/// Usage (and hence dollars) differ, which is what keeps every
/// architecture's query rows bit-identical (architecture_test.cc).  The
/// half price mirrors DynamoDB's eventually-consistent read pricing.
///
/// Sits *below* ShardedKvStore (it prices physical tables) and *above*
/// RetryingKvStore in the stack, so the retry loop and breaker still see
/// the same table names and jitter streams as an unreplicated run.
class ReplicatedKvStore final : public KvStore {
 public:
  /// `deployment` must outlive the store and have replicas > 0.
  /// `metrics` and `tracer` may be null.
  ReplicatedKvStore(KvStore* base, Deployment* deployment, UsageMeter* meter,
                    common::MetricRegistry* metrics = nullptr,
                    common::Tracer* tracer = nullptr);

  ReplicatedKvStore(const ReplicatedKvStore&) = delete;
  ReplicatedKvStore& operator=(const ReplicatedKvStore&) = delete;

  Status CreateTable(SimAgent& agent, const std::string& table) override;
  bool HasTable(const std::string& table) const override;
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

  uint64_t StoredBytes(const std::string& table) const override {
    return base_->StoredBytes(table);
  }
  uint64_t OverheadBytes(const std::string& table) const override {
    return base_->OverheadBytes(table);
  }
  uint64_t ItemCount(const std::string& table) const override {
    return base_->ItemCount(table);
  }
  void ForEachItem(
      const std::function<void(const std::string&, const Item&)>& fn)
      const override {
    base_->ForEachItem(fn);
  }

 private:
  /// True when the read that starts now may be served by a replica.
  bool Eligible(const SimAgent& agent, const std::string& table) const {
    return deployment_->ReplicaReadable(table, agent.now());
  }
  /// Books a successful replica read: refunds half the read-unit delta
  /// since `before`, counts it, and records the staleness histogram.
  void BookReplicaRead(const std::string& table, const Usage& before,
                       Micros now);

  KvStore* base_;
  Deployment* deployment_;
  UsageMeter* meter_;
  common::Tracer* tracer_ = nullptr;
  common::Counter* replica_reads_metric_ = nullptr;
  common::Counter* primary_reads_metric_ = nullptr;
  common::Histogram* lag_metric_ = nullptr;
};

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_REPLICATED_KV_STORE_H_
