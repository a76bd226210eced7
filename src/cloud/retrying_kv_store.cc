#include "cloud/retrying_kv_store.h"

namespace webdex::cloud {

RetryingKvStore::RetryingKvStore(KvStore* base,
                                 const common::RetryPolicy& policy,
                                 uint64_t seed, UsageMeter* meter,
                                 CircuitBreaker* breaker,
                                 common::MetricRegistry* metrics,
                                 common::Tracer* tracer)
    : KvStore(base->Limits()),
      base_(base),
      policy_(policy),
      seed_(seed),
      meter_(meter),
      breaker_(breaker),
      tracer_(tracer),
      attempts_metric_(metrics == nullptr ? nullptr
                                          : metrics->GetCounter(
                                                "cloud.retry.attempts.count")),
      retries_metric_(metrics == nullptr ? nullptr
                                         : metrics->GetCounter(
                                               "cloud.retry.retries.count")) {}

Rng& RetryingKvStore::StreamFor(const std::string& site) {
  auto it = streams_.find(site);
  if (it == streams_.end()) {
    it = streams_.emplace(site, Rng::ForKey(seed_, site)).first;
  }
  return it->second;
}

uint64_t* RetryingKvStore::RetryCounter() {
  return meter_ == nullptr ? nullptr
                           : &meter_->mutable_usage().retried_requests;
}

Status RetryingKvStore::Gate(SimAgent& agent, const std::string& table) {
  if (breaker_ == nullptr) return Status::OK();
  return breaker_->Allow(table, agent.now());
}

void RetryingKvStore::Record(SimAgent& agent, const std::string& table,
                             const Status& status) {
  if (breaker_ == nullptr) return;
  if (status.ok() || !status.IsRetriable()) {
    breaker_->RecordSuccess(table);
  } else {
    breaker_->RecordFailure(table, agent.now());
  }
}

Status RetryingKvStore::CreateTable(SimAgent& agent,
                                    const std::string& table) {
  Rng& rng = StreamFor("retry:createtable:" + table);
  int attempt = 0;
  return common::CallWithRetry(
      policy_, rng,
      [&]() -> Status {
        MeteredSpan span(tracer_, meter_, agent, "attempt.create_table");
        span.AddAttr("attempt", ++attempt);
        if (attempts_metric_ != nullptr) attempts_metric_->Add(1);
        Status gate = Gate(agent, table);
        if (!gate.ok()) {
          span.AddAttr("error", 1);
          return gate;
        }
        Status status = base_->CreateTable(agent, table);
        Record(agent, table, status);
        if (!status.ok()) span.AddAttr("error", 1);
        return status;
      },
      [&](int64_t micros) {
        agent.Advance(static_cast<Micros>(micros));
        if (retries_metric_ != nullptr) retries_metric_->Add(1);
      },
      RetryCounter());
}

bool RetryingKvStore::HasTable(const std::string& table) const {
  return base_->HasTable(table);
}

Status RetryingKvStore::BatchPut(SimAgent& agent, const std::string& table,
                                 std::vector<Item> items,
                                 std::vector<Item>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  Rng& rng = StreamFor("retry:batchput:" + table);
  // Each round re-submits only what has not committed yet: re-batched
  // unprocessed items after a partial success, or the uncommitted suffix
  // after a transient page error.  Re-puts of committed items are
  // harmless anyway (replacement semantics, UUID range keys) — this just
  // avoids paying their write units twice.  Each round moves `pending`
  // into the store, which hands the uncommitted items back in `leftover`.
  std::vector<Item> pending = std::move(items);
  std::vector<Item> leftover;
  int64_t slept = 0;
  for (int attempt = 1;; ++attempt) {
    Status status;
    {
      // One span per retry-loop round, breaker short-circuits included;
      // its metered delta is empty when no request reached the store.
      MeteredSpan span(tracer_, meter_, agent, "attempt.batch_put");
      span.AddAttr("attempt", attempt);
      if (attempts_metric_ != nullptr) attempts_metric_->Add(1);
      status = Gate(agent, table);
      if (status.ok()) {
        status = base_->BatchPut(agent, table, std::move(pending), &leftover);
        Record(agent, table, status);
      } else {
        // Breaker short-circuit: nothing was attempted or billed; the
        // backoff below still advances virtual time toward the cooldown.
        leftover = std::move(pending);
      }
      if (!status.ok()) span.AddAttr("error", 1);
    }
    if (status.ok() && leftover.empty()) return Status::OK();
    if (!status.ok() && !status.IsRetriable()) {
      if (unprocessed != nullptr) *unprocessed = std::move(leftover);
      return status;
    }
    if (attempt >= policy_.max_attempts) {
      if (unprocessed != nullptr) *unprocessed = std::move(leftover);
      return status.ok() ? Status::Unavailable(
                               "unprocessed items remain after re-batching: " +
                               table)
                         : status;
    }
    const int64_t cap = common::BackoffCapMicros(policy_, attempt);
    int64_t backoff =
        cap <= 0 ? 0
                 : static_cast<int64_t>(rng.NextDouble() *
                                        static_cast<double>(cap + 1));
    // An organic throttle names the exact virtual time capacity frees up;
    // sleep precisely that (same contract as common::CallWithRetry).
    const int64_t hint = status.retry_after_micros();
    if (hint > 0) backoff = hint;
    if (policy_.deadline_micros > 0 &&
        slept + backoff > policy_.deadline_micros) {
      if (unprocessed != nullptr) *unprocessed = std::move(leftover);
      return status.ok() ? Status::Unavailable(
                               "retry deadline exceeded re-batching: " + table)
                         : status;
    }
    agent.Advance(static_cast<Micros>(backoff));
    slept += backoff;
    if (uint64_t* counter = RetryCounter()) ++*counter;
    if (retries_metric_ != nullptr) retries_metric_->Add(1);
    pending = std::move(leftover);
    leftover.clear();
  }
}

Result<std::vector<Item>> RetryingKvStore::Get(SimAgent& agent,
                                               const std::string& table,
                                               const std::string& hash_key) {
  Rng& rng = StreamFor("retry:get:" + table);
  int attempt = 0;
  return common::CallWithRetry(
      policy_, rng,
      [&]() -> Result<std::vector<Item>> {
        MeteredSpan span(tracer_, meter_, agent, "attempt.get");
        span.AddAttr("attempt", ++attempt);
        if (attempts_metric_ != nullptr) attempts_metric_->Add(1);
        Status gate = Gate(agent, table);
        if (!gate.ok()) {
          span.AddAttr("error", 1);
          return gate;
        }
        auto result = base_->Get(agent, table, hash_key);
        Record(agent, table, result.status());
        if (!result.status().ok()) span.AddAttr("error", 1);
        return result;
      },
      [&](int64_t micros) {
        agent.Advance(static_cast<Micros>(micros));
        if (retries_metric_ != nullptr) retries_metric_->Add(1);
      },
      RetryCounter());
}

Result<std::vector<Item>> RetryingKvStore::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  Rng& rng = StreamFor("retry:batchget:" + table);
  int attempt = 0;
  return common::CallWithRetry(
      policy_, rng,
      [&]() -> Result<std::vector<Item>> {
        MeteredSpan span(tracer_, meter_, agent, "attempt.batch_get");
        span.AddAttr("attempt", ++attempt);
        if (attempts_metric_ != nullptr) attempts_metric_->Add(1);
        Status gate = Gate(agent, table);
        if (!gate.ok()) {
          span.AddAttr("error", 1);
          return gate;
        }
        auto result = base_->BatchGet(agent, table, hash_keys);
        Record(agent, table, result.status());
        if (!result.status().ok()) span.AddAttr("error", 1);
        return result;
      },
      [&](int64_t micros) {
        agent.Advance(static_cast<Micros>(micros));
        if (retries_metric_ != nullptr) retries_metric_->Add(1);
      },
      RetryCounter());
}

Result<std::vector<Item>> RetryingKvStore::Scan(SimAgent& agent,
                                               const std::string& table) {
  Rng& rng = StreamFor("retry:scan:" + table);
  int attempt = 0;
  return common::CallWithRetry(
      policy_, rng,
      [&]() -> Result<std::vector<Item>> {
        MeteredSpan span(tracer_, meter_, agent, "attempt.scan");
        span.AddAttr("attempt", ++attempt);
        if (attempts_metric_ != nullptr) attempts_metric_->Add(1);
        Status gate = Gate(agent, table);
        if (!gate.ok()) {
          span.AddAttr("error", 1);
          return gate;
        }
        auto result = base_->Scan(agent, table);
        Record(agent, table, result.status());
        if (!result.status().ok()) span.AddAttr("error", 1);
        return result;
      },
      [&](int64_t micros) {
        agent.Advance(static_cast<Micros>(micros));
        if (retries_metric_ != nullptr) retries_metric_->Add(1);
      },
      RetryCounter());
}

Status RetryingKvStore::DeleteItem(SimAgent& agent, const std::string& table,
                                   const std::string& hash_key,
                                   const std::string& range_key) {
  Rng& rng = StreamFor("retry:delete:" + table);
  int attempt = 0;
  return common::CallWithRetry(
      policy_, rng,
      [&]() -> Status {
        MeteredSpan span(tracer_, meter_, agent, "attempt.delete_item");
        span.AddAttr("attempt", ++attempt);
        if (attempts_metric_ != nullptr) attempts_metric_->Add(1);
        Status gate = Gate(agent, table);
        if (!gate.ok()) {
          span.AddAttr("error", 1);
          return gate;
        }
        Status status = base_->DeleteItem(agent, table, hash_key, range_key);
        Record(agent, table, status);
        if (!status.ok()) span.AddAttr("error", 1);
        return status;
      },
      [&](int64_t micros) {
        agent.Advance(static_cast<Micros>(micros));
        if (retries_metric_ != nullptr) retries_metric_->Add(1);
      },
      RetryCounter());
}

}  // namespace webdex::cloud
