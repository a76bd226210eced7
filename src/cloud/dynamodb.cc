#include "cloud/dynamodb.h"

#include <iterator>

#include "cloud/autoscaler.h"
#include "cloud/fault.h"
#include "common/strings.h"

namespace webdex::cloud {

DynamoDb::DynamoDb(const DynamoDbConfig& config, UsageMeter* meter,
                   FaultInjector* injector, common::MetricRegistry* metrics)
    : TableStore(kLimits),
      config_(config),
      meter_(meter),
      injector_(injector),
      batch_put_metrics_(OpMetrics::For(metrics, "service.dynamodb.batch_put")),
      get_metrics_(OpMetrics::For(metrics, "service.dynamodb.get")),
      batch_get_metrics_(OpMetrics::For(metrics, "service.dynamodb.batch_get")),
      scan_metrics_(OpMetrics::For(metrics, "service.dynamodb.scan")),
      delete_metrics_(OpMetrics::For(metrics, "service.dynamodb.delete_item")),
      create_table_metrics_(
          OpMetrics::For(metrics, "service.dynamodb.create_table")),
      write_units_metric_(
          metrics == nullptr
              ? nullptr
              : metrics->GetGauge("service.dynamodb.write_units.total")),
      read_units_metric_(
          metrics == nullptr
              ? nullptr
              : metrics->GetGauge("service.dynamodb.read_units.total")),
      throttled_metric_(
          metrics == nullptr
              ? nullptr
              : metrics->GetCounter("service.dynamodb.throttled.count")),
      write_limiter_(config.write_units_per_second),
      read_limiter_(config.read_units_per_second) {
  if (config_.on_demand) {
    ondemand_.write_ceiling = config_.write_units_per_second;
    ondemand_.read_ceiling = config_.read_units_per_second;
  }
}

Status DynamoDb::InjectFault(SimAgent& agent, const char* site,
                             const std::string& table, bool write,
                             Micros op_start, const OpMetrics& op) {
  if (injector_ == nullptr) return Status::OK();
  Status fault =
      injector_->MaybeFail(ServiceId::kDynamoDb, site + table, agent.now());
  if (fault.ok()) return fault;
  Usage& usage = meter_->mutable_usage();
  (write ? usage.ddb_put_requests : usage.ddb_get_requests) += 1;
  agent.Advance(config_.request_latency);
  op.Record(agent, op_start, /*error=*/true);
  return fault;
}

Status DynamoDb::CreateTable(SimAgent& agent, const std::string& table) {
  const Micros op_start = agent.now();
  // A faulted create bills its API round trip like every other faulted
  // control call; a successful create is free and instantaneous (AWS
  // control plane), which keeps fault-free runs bit-identical.
  WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "ddb.createtable:", table,
                                     /*write=*/true, op_start,
                                     create_table_metrics_));
  const Status created = AddTable(table);
  create_table_metrics_.Record(agent, op_start, /*error=*/!created.ok());
  return created;
}

double DynamoDb::WriteUnits(uint64_t item_bytes) {
  const double size = static_cast<double>(item_bytes);
  return (size < kMinWriteBytes ? kMinWriteBytes : size) / 1024.0;
}

double DynamoDb::ReadUnits(uint64_t item_bytes) {
  const double size = static_cast<double>(item_bytes);
  return (size < kMinReadBytes ? kMinReadBytes : size) / 4096.0;
}

void DynamoDb::SetProvisionedCapacity(double write_units_per_second,
                                      double read_units_per_second,
                                      Micros at) {
  config_.write_units_per_second = write_units_per_second;
  config_.read_units_per_second = read_units_per_second;
  write_limiter_.SetRate(write_units_per_second, at);
  read_limiter_.SetRate(read_units_per_second, at);
}

void DynamoDb::OnDemandTick(Micros now) {
  if (!config_.on_demand) return;
  constexpr Micros kWindow = kMicrosPerSecond;
  while (now >= ondemand_.window_start + kWindow) {
    const Micros boundary = ondemand_.window_start + kWindow;
    // One window's consumption over one second IS the sustained rate.
    if (ondemand_.window_write_units > ondemand_.peak_write) {
      ondemand_.peak_write = ondemand_.window_write_units;
    }
    if (ondemand_.window_read_units > ondemand_.peak_read) {
      ondemand_.peak_read = ondemand_.window_read_units;
    }
    const double write_target = 2.0 * ondemand_.peak_write;
    const double read_target = 2.0 * ondemand_.peak_read;
    if (write_target > ondemand_.write_ceiling) {
      ondemand_.write_ceiling = write_target;
      config_.write_units_per_second = write_target;
      write_limiter_.SetRate(write_target, boundary);
    }
    if (read_target > ondemand_.read_ceiling) {
      ondemand_.read_ceiling = read_target;
      config_.read_units_per_second = read_target;
      read_limiter_.SetRate(read_target, boundary);
    }
    ondemand_.window_write_units = 0;
    ondemand_.window_read_units = 0;
    ondemand_.window_start = boundary;
    // After one settled window the remaining gap is all-idle; jump to
    // the last full boundary instead of iterating second by second.
    if (now >= ondemand_.window_start + 2 * kWindow) {
      ondemand_.window_start =
          now - ((now - ondemand_.window_start) % kWindow) - kWindow;
    }
  }
}

void DynamoDb::MeterWriteUnits(double units) {
  if (config_.on_demand) {
    meter_->mutable_usage().ddb_ondemand_write_units += units;
    meter_->mutable_usage().ondemand_requests += 1;
    ondemand_.window_write_units += units;
  } else {
    meter_->mutable_usage().ddb_write_units += units;
  }
  if (write_units_metric_ != nullptr) write_units_metric_->Add(units);
  if (autoscaler_ != nullptr) autoscaler_->ObserveWrite(units);
}

void DynamoDb::MeterReadUnits(double units) {
  if (config_.on_demand) {
    meter_->mutable_usage().ddb_ondemand_read_units += units;
    meter_->mutable_usage().ondemand_requests += 1;
    ondemand_.window_read_units += units;
  } else {
    meter_->mutable_usage().ddb_read_units += units;
  }
  if (read_units_metric_ != nullptr) read_units_metric_->Add(units);
  if (autoscaler_ != nullptr) autoscaler_->ObserveRead(units);
}

void DynamoDb::RestoreOnDemand(const OnDemandState& state) {
  ondemand_ = state;
  if (!config_.on_demand) return;
  if (state.write_ceiling > 0) {
    config_.write_units_per_second = state.write_ceiling;
    write_limiter_.SetRate(state.write_ceiling, state.window_start);
  }
  if (state.read_ceiling > 0) {
    config_.read_units_per_second = state.read_ceiling;
    read_limiter_.SetRate(state.read_ceiling, state.window_start);
  }
}

Status DynamoDb::MaybeThrottle(SimAgent& agent, const RateLimiter& limiter,
                               bool write, Micros op_start,
                               const OpMetrics& op) {
  // The control loop advances on every billed call, throttled or not, so
  // capacity can change at a window boundary *before* this request is
  // judged against the (possibly new) backlog.
  if (autoscaler_ != nullptr) autoscaler_->Tick(agent.now());
  OnDemandTick(agent.now());
  if (config_.max_backlog_micros <= 0) return Status::OK();
  const Micros backlog = limiter.BacklogAt(agent.now());
  if (backlog <= config_.max_backlog_micros) return Status::OK();
  // Like an injected fault, a throttle bills the API request and its
  // round trip but consumes no capacity — AWS rejects before doing the
  // work.  The hint names the virtual time at which the backlog, absent
  // new arrivals, drains back to the bound: retrying exactly then gets
  // admitted, retrying earlier is a guaranteed re-throttle.
  const Micros hint = backlog - config_.max_backlog_micros;
  if (write) {
    meter_->mutable_usage().ddb_put_requests += 1;
  } else {
    meter_->mutable_usage().ddb_get_requests += 1;
  }
  meter_->mutable_usage().throttled_requests += 1;
  if (throttled_metric_ != nullptr) throttled_metric_->Add(1);
  if (autoscaler_ != nullptr) autoscaler_->ObserveThrottle(write);
  agent.Advance(config_.request_latency);
  op.Record(agent, op_start, /*error=*/true);
  return Status::ResourceExhausted(
      StrFormat("provisioned throughput exceeded; retry after %lld us",
                static_cast<long long>(hint)),
      hint);
}

Status DynamoDb::ValidateItem(const Item& item,
                              const Footprint& size) const {
  if (item.hash_key.empty()) {
    return Status::InvalidArgument("empty hash key");
  }
  if (item.range_key.empty()) {
    return Status::InvalidArgument("empty range key");
  }
  if (item.hash_key.size() > 2048) {
    return Status::InvalidArgument("hash key exceeds 2KB");
  }
  if (item.range_key.size() > 1024) {
    return Status::InvalidArgument("range key exceeds 1KB");
  }
  if (size.bytes > MaxItemBytes()) {
    return Status::InvalidArgument(
        StrFormat("item exceeds 64KB (%llu bytes) for hash key %s",
                  static_cast<unsigned long long>(size.bytes),
                  item.hash_key.c_str()));
  }
  return Status::OK();
}

Status DynamoDb::BatchPut(SimAgent& agent, const std::string& table,
                          std::vector<Item> items,
                          std::vector<Item>* unprocessed) {
  if (unprocessed != nullptr) unprocessed->clear();
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  WEBDEX_ASSIGN_OR_RETURN(const std::vector<Footprint> sizes,
                          MeasureAll(items));
  const int batch_limit = BatchPutLimit();
  size_t index = 0;
  while (index < items.size()) {
    const size_t batch_end =
        std::min(items.size(), index + static_cast<size_t>(batch_limit));
    const Micros page_start = agent.now();
    // A page-level transient error or throttle bills the API request and
    // its round trip but consumes no write capacity (AWS rejects before
    // writing); everything not yet stored is reported back.
    Status admitted = InjectFault(agent, "ddb.batchput:", table,
                                  /*write=*/true, page_start,
                                  batch_put_metrics_);
    if (admitted.ok()) {
      admitted = MaybeThrottle(agent, write_limiter_, /*write=*/true,
                               page_start, batch_put_metrics_);
    }
    if (!admitted.ok()) {
      if (unprocessed != nullptr) {
        unprocessed->insert(unprocessed->end(),
                            std::make_move_iterator(items.begin() + index),
                            std::make_move_iterator(items.end()));
      }
      return admitted;
    }
    size_t commit_end = batch_end;
    if (injector_ != nullptr && unprocessed != nullptr) {
      // Partial batch failure: the page "succeeds" but a trailing subset
      // comes back as UnprocessedItems the caller must re-batch.  Only
      // injected when the caller can observe it.
      const size_t bounced =
          injector_->UnprocessedCount(ServiceId::kDynamoDb,
                                      "ddb.unprocessed:" + table,
                                      batch_end - index);
      commit_end = batch_end - bounced;
    }
    double batch_units = 0;
    for (size_t i = index; i < commit_end; ++i) {
      Put(*t, std::move(items[i]), sizes[i]);
      batch_units += WriteUnits(sizes[i].bytes);
      meter_->mutable_usage().ddb_items_written += 1;
    }
    meter_->mutable_usage().ddb_put_requests += 1;
    MeterWriteUnits(batch_units);
    agent.AdvanceTo(write_limiter_.Acquire(agent.now(), batch_units));
    agent.Advance(config_.request_latency);
    batch_put_metrics_.Record(agent, page_start, /*error=*/false);
    if (commit_end < batch_end) {
      unprocessed->insert(unprocessed->end(),
                          std::make_move_iterator(items.begin() + commit_end),
                          std::make_move_iterator(items.begin() + batch_end));
    }
    index = batch_end;
  }
  return Status::OK();
}

Result<std::vector<Item>> DynamoDb::Get(SimAgent& agent,
                                        const std::string& table,
                                        const std::string& hash_key) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  const Micros op_start = agent.now();
  WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "ddb.get:", table,
                                     /*write=*/false, op_start, get_metrics_));
  WEBDEX_RETURN_IF_ERROR(MaybeThrottle(agent, read_limiter_, /*write=*/false,
                                       op_start, get_metrics_));
  std::vector<Item> out;
  std::vector<Footprint> sizes;
  AppendHashItems(*t, hash_key, &out, &sizes);
  double units = 0;
  for (const Footprint& size : sizes) units += ReadUnits(size.bytes);
  if (units == 0) units = ReadUnits(0);  // a miss still does a seek
  meter_->mutable_usage().ddb_get_requests += 1;
  MeterReadUnits(units);
  agent.AdvanceTo(read_limiter_.Acquire(agent.now(), units));
  agent.Advance(config_.request_latency);
  get_metrics_.Record(agent, op_start, /*error=*/false);
  return out;
}

Result<std::vector<Item>> DynamoDb::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  std::vector<Item> out;
  std::vector<Footprint> sizes;
  const int batch_limit = BatchGetLimit();
  size_t index = 0;
  while (index < hash_keys.size()) {
    const size_t batch_end = std::min(
        hash_keys.size(), index + static_cast<size_t>(batch_limit));
    const Micros page_start = agent.now();
    WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "ddb.batchget:", table,
                                       /*write=*/false, page_start,
                                       batch_get_metrics_));
    WEBDEX_RETURN_IF_ERROR(MaybeThrottle(agent, read_limiter_,
                                         /*write=*/false, page_start,
                                         batch_get_metrics_));
    const size_t page_first = out.size();
    for (size_t i = index; i < batch_end; ++i) {
      AppendHashItems(*t, hash_keys[i], &out, &sizes);
    }
    double units = 0;
    for (size_t i = page_first; i < out.size(); ++i) {
      units += ReadUnits(sizes[i].bytes);
    }
    if (units == 0) units = ReadUnits(0);
    meter_->mutable_usage().ddb_get_requests += 1;
    MeterReadUnits(units);
    agent.AdvanceTo(read_limiter_.Acquire(agent.now(), units));
    agent.Advance(config_.request_latency);
    batch_get_metrics_.Record(agent, page_start, /*error=*/false);
    index = batch_end;
  }
  return out;
}

Result<std::vector<Item>> DynamoDb::Scan(SimAgent& agent,
                                        const std::string& table) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  std::vector<Item> out;
  std::vector<Footprint> sizes;
  AppendAllItems(*t, &out, &sizes);
  // Page through at the 1 MB scan limit; every page is a billed request
  // that consumes read capacity for the bytes it returns.
  constexpr uint64_t kScanPageBytes = 1024 * 1024;
  size_t index = 0;
  do {
    const Micros page_start = agent.now();
    WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "ddb.scan:", table,
                                       /*write=*/false, page_start,
                                       scan_metrics_));
    WEBDEX_RETURN_IF_ERROR(MaybeThrottle(agent, read_limiter_,
                                         /*write=*/false, page_start,
                                         scan_metrics_));
    uint64_t page_bytes = 0;
    double units = 0;
    while (index < out.size() && page_bytes < kScanPageBytes) {
      const uint64_t bytes = sizes[index].bytes;
      page_bytes += bytes;
      units += ReadUnits(bytes);
      ++index;
    }
    if (units == 0) units = ReadUnits(0);  // an empty table still seeks
    meter_->mutable_usage().ddb_get_requests += 1;
    MeterReadUnits(units);
    agent.AdvanceTo(read_limiter_.Acquire(agent.now(), units));
    agent.Advance(config_.request_latency);
    scan_metrics_.Record(agent, page_start, /*error=*/false);
  } while (index < out.size());
  return out;
}

Status DynamoDb::DeleteItem(SimAgent& agent, const std::string& table,
                            const std::string& hash_key,
                            const std::string& range_key) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  const Micros op_start = agent.now();
  WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "ddb.delete:", table,
                                     /*write=*/true, op_start,
                                     delete_metrics_));
  WEBDEX_RETURN_IF_ERROR(MaybeThrottle(agent, write_limiter_, /*write=*/true,
                                       op_start, delete_metrics_));
  // Deletes consume write capacity sized by the deleted item (AWS);
  // deleting an absent key (size 0) still pays the minimum.
  const double units = WriteUnits(Erase(*t, hash_key, range_key));
  meter_->mutable_usage().ddb_put_requests += 1;
  MeterWriteUnits(units);
  agent.AdvanceTo(write_limiter_.Acquire(agent.now(), units));
  agent.Advance(config_.request_latency);
  delete_metrics_.Record(agent, op_start, /*error=*/false);
  return Status::OK();
}

}  // namespace webdex::cloud
