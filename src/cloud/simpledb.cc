#include "cloud/simpledb.h"

#include <iterator>

#include "cloud/fault.h"
#include "common/strings.h"

namespace webdex::cloud {
namespace {

bool IsTextual(const std::string& value) {
  for (unsigned char c : value) {
    if (c < 0x09) return false;  // NUL and other control bytes
  }
  return true;
}

}  // namespace

SimpleDb::SimpleDb(const SimpleDbConfig& config, UsageMeter* meter,
                   FaultInjector* injector, common::MetricRegistry* metrics)
    : TableStore(kLimits),
      config_(config),
      meter_(meter),
      injector_(injector),
      batch_put_metrics_(OpMetrics::For(metrics, "service.simpledb.batch_put")),
      get_metrics_(OpMetrics::For(metrics, "service.simpledb.get")),
      scan_metrics_(OpMetrics::For(metrics, "service.simpledb.scan")),
      delete_metrics_(OpMetrics::For(metrics, "service.simpledb.delete_item")),
      create_table_metrics_(
          OpMetrics::For(metrics, "service.simpledb.create_domain")),
      throttled_metric_(
          metrics == nullptr
              ? nullptr
              : metrics->GetCounter("service.simpledb.throttled.count")),
      request_limiter_(config.requests_per_second) {}

Status SimpleDb::MaybeThrottle(SimAgent& agent, bool write, Micros op_start,
                               const OpMetrics& op) {
  if (config_.max_backlog_micros <= 0) return Status::OK();
  const Micros backlog = request_limiter_.BacklogAt(agent.now());
  if (backlog <= config_.max_backlog_micros) return Status::OK();
  const Micros hint = backlog - config_.max_backlog_micros;
  if (write) {
    meter_->mutable_usage().sdb_put_requests += 1;
  } else {
    meter_->mutable_usage().sdb_get_requests += 1;
  }
  meter_->mutable_usage().throttled_requests += 1;
  if (throttled_metric_ != nullptr) throttled_metric_->Add(1);
  agent.Advance(config_.request_latency);
  op.Record(agent, op_start, /*error=*/true);
  return Status::ResourceExhausted(
      StrFormat("request rate exceeded; retry after %lld us",
                static_cast<long long>(hint)),
      hint);
}

Status SimpleDb::InjectFault(SimAgent& agent, const char* site,
                             const std::string& table, bool write,
                             Micros op_start, const OpMetrics& op) {
  if (injector_ == nullptr) return Status::OK();
  Status fault =
      injector_->MaybeFail(ServiceId::kSimpleDb, site + table, agent.now());
  if (fault.ok()) return fault;
  Usage& usage = meter_->mutable_usage();
  (write ? usage.sdb_put_requests : usage.sdb_get_requests) += 1;
  agent.Advance(config_.request_latency);
  op.Record(agent, op_start, /*error=*/true);
  return fault;
}

Status SimpleDb::CreateTable(SimAgent& agent, const std::string& table) {
  const Micros op_start = agent.now();
  // Same contract as DynamoDb::CreateTable: a faulted create bills its
  // round trip, a successful one is free (keeps legacy runs identical).
  WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "sdb.createdomain:", table,
                                     /*write=*/true, op_start,
                                     create_table_metrics_));
  const Status created = AddTable(table);
  create_table_metrics_.Record(agent, op_start, /*error=*/!created.ok());
  return created;
}

Status SimpleDb::ValidateItem(const Item& item,
                              const Footprint& size) const {
  if (item.hash_key.empty() || item.range_key.empty()) {
    return Status::InvalidArgument("empty key");
  }
  if (item.hash_key.size() + item.range_key.size() > 1024) {
    return Status::InvalidArgument("item name exceeds 1KB");
  }
  if (size.values > 256) {
    return Status::InvalidArgument("more than 256 attributes per item");
  }
  for (const auto& [name, values] : item.attrs) {
    if (name.size() > MaxValueBytes()) {
      return Status::InvalidArgument("attribute name exceeds 1KB");
    }
    for (const auto& v : values) {
      if (v.size() > MaxValueBytes()) {
        return Status::InvalidArgument(
            StrFormat("attribute value exceeds 1KB (%zu bytes)", v.size()));
      }
      if (!IsTextual(v)) {
        return Status::InvalidArgument(
            "SimpleDB values must be text; armour binary data first");
      }
    }
  }
  return Status::OK();
}

Status SimpleDb::BatchPut(SimAgent& agent, const std::string& table,
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
    // A failed or throttled page bills its API round trip but no box
    // usage (the data-proportional term); nothing of the page commits,
    // and everything not yet stored is reported back for re-batching.
    Status admitted = InjectFault(agent, "sdb.batchput:", table,
                                  /*write=*/true, page_start,
                                  batch_put_metrics_);
    if (admitted.ok()) {
      admitted =
          MaybeThrottle(agent, /*write=*/true, page_start, batch_put_metrics_);
    }
    if (!admitted.ok()) {
      if (unprocessed != nullptr) {
        unprocessed->insert(unprocessed->end(),
                            std::make_move_iterator(items.begin() + index),
                            std::make_move_iterator(items.end()));
      }
      return admitted;
    }
    double box_hours = 0;
    for (size_t i = index; i < batch_end; ++i) {
      Put(*t, std::move(items[i]), sizes[i]);
      box_hours += meter_->pricing().simpledb_box_hours_per_put;
      meter_->mutable_usage().sdb_put_requests += 1;
    }
    meter_->mutable_usage().sdb_box_hours += box_hours;
    agent.AdvanceTo(request_limiter_.Acquire(agent.now(), 1.0));
    agent.Advance(config_.request_latency);
    batch_put_metrics_.Record(agent, page_start, /*error=*/false);
    index = batch_end;
  }
  return Status::OK();
}

Result<std::vector<Item>> SimpleDb::Get(SimAgent& agent,
                                        const std::string& table,
                                        const std::string& hash_key) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  const Micros op_start = agent.now();
  WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "sdb.get:", table,
                                     /*write=*/false, op_start, get_metrics_));
  WEBDEX_RETURN_IF_ERROR(
      MaybeThrottle(agent, /*write=*/false, op_start, get_metrics_));
  std::vector<Item> out;
  std::vector<Footprint> sizes;
  AppendHashItems(*t, hash_key, &out, &sizes);
  // SimpleDB's select paginates at 2500 attributes / 1 MB; model one extra
  // request round trip per page.
  uint64_t attr_total = 0;
  for (const Footprint& size : sizes) attr_total += size.values;
  const uint64_t pages = attr_total == 0 ? 1 : (attr_total + 2499) / 2500;
  meter_->mutable_usage().sdb_get_requests += pages;
  meter_->mutable_usage().sdb_box_hours +=
      meter_->pricing().simpledb_box_hours_per_get *
      static_cast<double>(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    agent.AdvanceTo(request_limiter_.Acquire(agent.now(), 1.0));
    agent.Advance(config_.request_latency);
  }
  get_metrics_.Record(agent, op_start, /*error=*/false);
  return out;
}

Result<std::vector<Item>> SimpleDb::BatchGet(
    SimAgent& agent, const std::string& table,
    const std::vector<std::string>& hash_keys) {
  std::vector<Item> out;
  for (const auto& key : hash_keys) {
    auto r = Get(agent, table, key);
    if (!r.ok()) return r.status();
    for (auto& item : r.value()) out.push_back(std::move(item));
  }
  return out;
}

Result<std::vector<Item>> SimpleDb::Scan(SimAgent& agent,
                                        const std::string& table) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  std::vector<Item> out;
  std::vector<Footprint> sizes;
  AppendAllItems(*t, &out, &sizes);
  // A full select paginates at 2500 attributes, like Get.
  uint64_t attr_total = 0;
  for (const Footprint& size : sizes) attr_total += size.values;
  const uint64_t pages = attr_total == 0 ? 1 : (attr_total + 2499) / 2500;
  for (uint64_t page = 0; page < pages; ++page) {
    const Micros page_start = agent.now();
    WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "sdb.scan:", table,
                                       /*write=*/false, page_start,
                                       scan_metrics_));
    WEBDEX_RETURN_IF_ERROR(
        MaybeThrottle(agent, /*write=*/false, page_start, scan_metrics_));
    meter_->mutable_usage().sdb_get_requests += 1;
    meter_->mutable_usage().sdb_box_hours +=
        meter_->pricing().simpledb_box_hours_per_get;
    agent.AdvanceTo(request_limiter_.Acquire(agent.now(), 1.0));
    agent.Advance(config_.request_latency);
    scan_metrics_.Record(agent, page_start, /*error=*/false);
  }
  return out;
}

Status SimpleDb::DeleteItem(SimAgent& agent, const std::string& table,
                            const std::string& hash_key,
                            const std::string& range_key) {
  WEBDEX_ASSIGN_OR_RETURN(Table * t, FindTable(table));
  const Micros op_start = agent.now();
  WEBDEX_RETURN_IF_ERROR(InjectFault(agent, "sdb.delete:", table,
                                     /*write=*/true, op_start,
                                     delete_metrics_));
  WEBDEX_RETURN_IF_ERROR(
      MaybeThrottle(agent, /*write=*/true, op_start, delete_metrics_));
  Erase(*t, hash_key, range_key);
  meter_->mutable_usage().sdb_put_requests += 1;
  meter_->mutable_usage().sdb_box_hours +=
      meter_->pricing().simpledb_box_hours_per_put;
  agent.AdvanceTo(request_limiter_.Acquire(agent.now(), 1.0));
  agent.Advance(config_.request_latency);
  delete_metrics_.Record(agent, op_start, /*error=*/false);
  return Status::OK();
}

}  // namespace webdex::cloud
