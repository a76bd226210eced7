// Per-layer replay of a traced round.  Every layer is measured the same
// way: the round's own inputs are passed again through the layer's public
// functions, and each call is timed (and its heap allocations counted)
// from the benchmark's side.  Counts come from the program's public
// reports, Usage and MetricRegistry, and repeat exactly.
#include <algorithm>
#include <deque>
#include <set>

#include "cloud/kv_store.h"
#include "common/rng.h"
#include "index/intern.h"
#include "index/key_twig.h"
#include "index/lookup_paths.h"
#include "index/strategy.h"
#include "query/parser.h"
#include "workloads.h"
#include "xml/parser.h"

namespace webbench {
namespace {

/// Accumulates host time and allocations of the calls made through it.
class Meter {
 public:
  template <typename Fn>
  auto operator()(Fn&& fn) -> decltype(fn()) {
    const uint64_t allocs = ThreadAllocs();
    const auto start = Clock::now();
    auto result = fn();
    ms_ += SecondsSince(start) * 1e3;
    allocs_ += ThreadAllocs() - allocs;
    return result;
  }
  double ms() const { return ms_; }
  double allocs() const { return static_cast<double>(allocs_); }

 private:
  double ms_ = 0;
  uint64_t allocs_ = 0;
};

struct Agent : wd::cloud::SimAgent {};

/// The URIs `pattern` may match, looked up along `path`, the access path
/// the engine's planner chose for it: 2LUPI's path table alone, its ID
/// table alone (twig join included), or otherwise the strategy's own
/// two-table look-up.
wd::Result<std::vector<std::string>> Lookup(
    const std::string& path, const wd::index::IndexingStrategy& strategy,
    wd::cloud::SimAgent& agent, wd::cloud::KvStore& store,
    const wd::query::TreePattern& pattern,
    const wd::index::ExtractOptions& options,
    const wd::index::GenerationMap* view) {
  wd::index::LookupStats stats;
  if (path != "2LUPI/lup" && path != "2LUPI/lui") {
    return strategy.LookupPattern(agent, store, pattern, options, &stats,
                                  view);
  }
  const auto twig = wd::index::BuildKeyTwig(pattern, options.include_words);
  auto uris = path == "2LUPI/lup"
                  ? wd::index::LookupByPaths(agent, store, "idx-2lupi-paths",
                                             twig, options, &stats, view)
                  : wd::index::LookupByIds(agent, store, "idx-2lupi-ids",
                                           twig, nullptr, &stats, view);
  if (!uris.ok()) return uris.status();
  return wd::index::SortedUris(uris.value());
}

/// The per-pattern paths of QueryOutcome::chosen_path ("a+b").
std::vector<std::string> SplitPaths(const std::string& chosen) {
  std::vector<std::string> paths;
  size_t start = 0;
  while (start <= chosen.size()) {
    const size_t end = std::min(chosen.find('+', start), chosen.size());
    paths.push_back(chosen.substr(start, end - start));
    start = end + 1;
  }
  return paths;
}

double SpanMs(const std::vector<HostSpan>& spans, const std::string& name) {
  double us = 0;
  for (const auto& span : spans) {
    if (span.name == name) {
      us += static_cast<double>(span.end_us - span.start_us);
    }
  }
  return us / 1e3;
}

}  // namespace

void ReplayLayers(const Options& options, Round* round, Report* report) {
  const RoundInputs& in = round->inputs;
  Deployment& d = round->deployment;
  const auto& config = d.warehouse->config();
  const auto strategy = wd::index::IndexingStrategy::Create(config.strategy);

  // --- xml: every indexed document parsed, as the indexing path does ----
  Meter parse_indexed;
  std::vector<wd::xml::Document> parsed_docs;
  parsed_docs.reserve(in.indexed.size());
  for (const auto& doc : in.indexed) {
    auto parsed = parse_indexed([&] {
      return wd::xml::ParseDocument(doc.uri, doc.text);
    });
    if (!parsed.ok()) {
      report->Check(false, "replay parse " + doc.uri);
      continue;
    }
    parsed_docs.push_back(std::move(parsed).value());
  }

  // --- query + index lookup + S3 fetch + evaluation ---------------------
  // The queries are replayed before the index and store replays below.
  // Replayed after them, on a heap that had held and freed every item of
  // the run, Evaluate measured up to 1.75x slower than inside the engine
  // over the same documents, more than the engine's whole query span.
  Agent agent;
  Meter query_parse, lookup, parse_fetched, eval, serialize, plan, s3_get;
  double lookup_docs = 0, result_bytes = 0;
  auto view = d.warehouse->GenerationSnapshot();
  // Parsed on first touch, like the engine's DocCache.  That cache keeps
  // the DOMs the engine's own indexing parsed, so where the queries run
  // on the facade that indexed (bulk_index, churn) the replay starts from
  // them; query_mix's fresh facade starts cold.
  std::map<std::string, const wd::xml::Document*> cache;
  if (options.workload != "query_mix") {
    for (const auto& doc : parsed_docs) cache[doc.uri()] = &doc;
  }
  std::deque<wd::xml::Document> fetched;
  const int streams = 8;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const std::string& text = in.queries[i];
    auto parsed = query_parse([&] { return wd::query::ParseQuery(text); });
    if (!parsed.ok()) {
      report->Check(false, "replay ParseQuery " + text);
      continue;
    }
    auto explained = plan([&] { return d.warehouse->ExplainQuery(text); });
    report->Check(explained.ok(), "replay ExplainQuery " + text);
    std::set<std::string> candidates;
    const auto& patterns = parsed.value().patterns();
    const std::vector<std::string> paths = SplitPaths(in.chosen_paths[i]);
    for (size_t p = 0; p < patterns.size(); ++p) {
      auto uris = lookup([&] {
        return Lookup(p < paths.size() ? paths[p] : "", *strategy, agent,
                      d.warehouse->index_store(), patterns[p], config.extract,
                      view.get());
      });
      report->Check(uris.ok(), "replay LookupPattern " + text);
      if (!uris.ok()) continue;
      lookup_docs += static_cast<double>(uris.value().size());
      candidates.insert(uris.value().begin(), uris.value().end());
    }
    // Like the engine, every query fetches all its candidates from S3 and
    // parses only the documents it has not parsed before.
    const std::vector<std::string> union_uris(candidates.begin(),
                                              candidates.end());
    if (!union_uris.empty()) {
      auto texts = s3_get([&] {
        return d.env->s3().BatchGet(agent, config.data_bucket, union_uris,
                                    streams);
      });
      report->Check(texts.ok(), "replay S3 BatchGet");
      for (size_t c = 0; texts.ok() && c < union_uris.size(); ++c) {
        if (cache.count(union_uris[c]) > 0) continue;
        auto doc = parse_fetched([&] {
          return wd::xml::ParseDocument(union_uris[c], texts.value()[c]);
        });
        if (!doc.ok()) continue;
        fetched.push_back(std::move(doc).value());
        cache[union_uris[c]] = &fetched.back();
      }
    }
    // The whole query over the union of its candidates, as the engine
    // evaluates it.  The rows must be the engine's; churn's queries were
    // answered on earlier corpus states, so only the static workloads
    // are compared.
    std::vector<const wd::xml::Document*> docs;
    for (const auto& uri : union_uris) {
      const auto it = cache.find(uri);
      if (it != cache.end()) docs.push_back(it->second);
    }
    const auto result = eval([&] {
      return wd::query::Evaluator::Evaluate(parsed.value(), docs);
    });
    (void)wd::query::Evaluator::ConsumeWorkStats();
    if (options.workload != "churn") {
      report->Check(result.rows == in.results[i].rows,
                    "replayed evaluation differs from the engine's rows: " +
                        text);
    }
    result_bytes += static_cast<double>(in.results[i].SizeBytes());
    const std::string xml = serialize([&] { return in.results[i].ToXml(); });
    (void)xml;
  }
  cache.clear();
  fetched.clear();

  // --- index: extraction and encoding over every indexed document -------
  Meter docindex, encode;
  std::vector<wd::index::TableItems> items;
  double item_count = 0, item_bytes = 0;
  auto replay_env =
      std::make_unique<wd::cloud::CloudEnv>(wd::cloud::CloudConfig());
  wd::cloud::KvStore& replay_store = replay_env->dynamodb();
  wd::Rng uuid_rng = wd::Rng::ForKey(options.seed, "webbench:replay_uuids");
  for (const auto& doc : parsed_docs) {
    const auto doc_index = docindex([&] {
      return wd::index::ExtractDocIndex(doc, config.extract);
    });
    wd::index::ExtractStats stats;
    auto extracted = encode([&] {
      return strategy->ExtractItems(doc, doc_index, config.extract,
                                    replay_store, uuid_rng, &stats);
    });
    if (!extracted.ok()) {
      report->Check(false, "replay ExtractItems " + doc.uri());
      continue;
    }
    for (auto& table : extracted.value()) {
      for (const auto& item : table.items) {
        item_count += 1;
        item_bytes += static_cast<double>(item.SizeBytes());
      }
      items.push_back(std::move(table));
    }
  }
  parsed_docs.clear();
  const auto intern = wd::index::InternCore::Global().keys().Stats();

  // --- cloud.dynamodb: the run's items through a fresh store ----------
  Meter put, get, scan, del;
  for (const auto& name : strategy->TableNames()) {
    (void)replay_store.CreateTable(agent, name);
  }
  std::map<std::string, std::set<std::string>> hash_keys;
  for (const auto& table : items) {
    const wd::Status status = put([&] {
      return replay_store.BatchPut(agent, table.table, table.items);
    });
    report->Check(status.ok(), "replay BatchPut: " + status.ToString());
    for (const auto& item : table.items) {
      hash_keys[table.table].insert(item.hash_key);
    }
  }
  for (const auto& [table, keys] : hash_keys) {
    std::vector<std::string> batch;
    for (const auto& key : keys) {
      batch.push_back(key);
      if (batch.size() == static_cast<size_t>(replay_store.BatchGetLimit()) ||
          key == *keys.rbegin()) {
        auto got =
            get([&] { return replay_store.BatchGet(agent, table, batch); });
        report->Check(got.ok(), "replay BatchGet");
        batch.clear();
      }
    }
  }
  // Scan every table, then delete what a tenth of the documents wrote.
  std::vector<std::pair<std::string, wd::cloud::Item>> doomed;
  for (const auto& [table, keys] : hash_keys) {
    auto scanned = scan([&] { return replay_store.Scan(agent, table); });
    report->Check(scanned.ok(), "replay Scan");
    if (!scanned.ok()) continue;
    for (size_t i = 0; i < scanned.value().size(); i += 10) {
      doomed.emplace_back(table, scanned.value()[i]);
    }
  }
  for (const auto& [table, item] : doomed) {
    const wd::Status status = del([&] {
      return replay_store.DeleteItem(agent, table, item.hash_key,
                                      item.range_key);
    });
    report->Check(status.ok(), "replay DeleteItem");
  }

  // --- cloud.sqs: one message per indexed document and per query -------
  Meter sqs;
  const std::string queue = "webbench-replay";
  (void)replay_env->sqs().CreateQueue(queue);
  const size_t messages = in.indexed.size() + in.queries.size();
  for (size_t m = 0; m < messages; ++m) {
    const wd::Status sent = sqs([&] {
      return replay_env->sqs().Send(agent, queue, "LOAD\nwebbench");
    });
    auto received =
        sqs([&] { return replay_env->sqs().Receive(agent, queue); });
    if (sent.ok() && received.ok() && received.value().has_value()) {
      const uint64_t receipt = received.value()->receipt;
      (void)sqs(
          [&] { return replay_env->sqs().Delete(agent, queue, receipt); });
    }
  }

  // --- metrics ------------------------------------------------------------
  const auto counter = [&](const std::string& name) {
    const auto it = round->counters.find(name);
    return it == round->counters.end() ? 0.0 : it->second;
  };
  const auto& u = round->usage;
  report->Set("xml.parse.ms", parse_indexed.ms() + parse_fetched.ms(), "ms");
  report->Set("xml.parse.allocs",
              parse_indexed.allocs() + parse_fetched.allocs(), "count");
  report->Set("xml.serialize.ms", serialize.ms(), "ms");
  report->Set("index.docindex.ms", docindex.ms(), "ms");
  report->Set("index.docindex.allocs", docindex.allocs(), "count");
  report->Set("index.encode.ms", encode.ms(), "ms");
  report->Set("index.encode.allocs", encode.allocs(), "count");
  report->Set("index.items", item_count, "count");
  report->Set("index.item_bytes", item_bytes, "bytes");
  report->Set("index.intern.keys", static_cast<double>(intern.keys), "count");
  report->Set("index.intern.bytes", static_cast<double>(intern.bytes), "bytes");
  report->Set("index.lookup.ms", lookup.ms(), "ms");
  report->Set("index.lookup.docs", lookup_docs, "count");
  report->Set("query.parse.ms", query_parse.ms(), "ms");
  report->Set("query.eval.ms", eval.ms(), "ms");
  report->Set("query.eval.allocs", eval.allocs(), "count");
  report->Set("query.result_bytes", result_bytes, "bytes");
  report->Set("cost.estimate_ratio_p50", Median(in.cost_ratios), "ratio");
  report->Set("engine.plan.ms", plan.ms(), "ms");
  const double run_indexers_ms = SpanMs(round->spans, "engine.run_indexers");
  const double execute_query_ms = SpanMs(round->spans, "engine.execute_query");
  report->Set("engine.run_indexers.ms", run_indexers_ms, "ms");
  report->Set("engine.execute_query.ms", execute_query_ms, "ms");
  report->Set("engine.compact.ms", SpanMs(round->spans, "engine.compact"),
              "ms");
  report->Set("engine.mutate.ms", SpanMs(round->spans, "engine.mutate"), "ms");
  report->Set("engine.submit.ms", SpanMs(round->spans, "engine.submit"), "ms");
  // Self time of the engine around the drilled layers, from the serial
  // traced round: span minus the layer times of the same inputs.  The
  // SQS replay is split between the two in proportion to the messages.
  const double sqs_index_share =
      messages == 0 ? 0 : static_cast<double>(in.indexed.size()) / messages;
  report->Set("engine.index.residual_ms",
              run_indexers_ms - parse_indexed.ms() - docindex.ms() -
                  encode.ms() - put.ms() - sqs.ms() * sqs_index_share,
              "ms");
  report->Set("engine.query.residual_ms",
              execute_query_ms - query_parse.ms() - plan.ms() - lookup.ms() -
                  s3_get.ms() - parse_fetched.ms() - eval.ms() -
                  serialize.ms() - sqs.ms() * (1 - sqs_index_share),
              "ms");
  report->Set("cloud.dynamodb.put.ms", put.ms(), "ms");
  report->Set("cloud.dynamodb.put.allocs", put.allocs(), "count");
  report->Set("cloud.dynamodb.get.ms", get.ms(), "ms");
  report->Set("cloud.dynamodb.scan.ms", scan.ms(), "ms");
  report->Set("cloud.dynamodb.delete.ms", del.ms(), "ms");
  for (const char* op : {"batch_put", "batch_get", "scan", "delete_item"}) {
    report->Set(std::string("cloud.dynamodb.") + op + ".requests",
                counter(std::string("service.dynamodb.") + op + ".requests"),
                "count");
  }
  report->Set("cloud.dynamodb.write_units", u.ddb_write_units, "units");
  report->Set("cloud.dynamodb.read_units", u.ddb_read_units, "units");
  report->Set("cloud.dynamodb.bytes_per_data_byte",
              round->index_bytes_per_data_byte, "ratio");
  report->Set("cloud.s3.batch_get.ms", s3_get.ms(), "ms");
  report->Set("cloud.s3.bytes_out", static_cast<double>(u.s3_bytes_out),
              "bytes");
  report->Set("cloud.sqs.ms", sqs.ms(), "ms");
  report->Set("cloud.sqs.requests", static_cast<double>(u.sqs_requests),
              "count");
  report->Set("cloud.retries", static_cast<double>(u.retried_requests),
              "count");
  report->Set("cloud.throttled", static_cast<double>(u.throttled_requests),
              "count");
  report->Set("virt.extract_s", round->virt_extract_s, "s");
  report->Set("virt.upload_s", round->virt_upload_s, "s");
  report->Set("virt.index_get_s", round->virt_index_get_s, "s");
  report->Set("virt.plan_exec_s", round->virt_plan_exec_s, "s");
  report->Set("virt.transfer_eval_s", round->virt_transfer_eval_s, "s");
  const auto& b = round->bill;
  report->Set("virt.usd.s3", b.s3, "usd");
  report->Set("virt.usd.dynamodb", b.dynamodb, "usd");
  report->Set("virt.usd.ec2", b.ec2, "usd");
  report->Set("virt.usd.sqs", b.sqs, "usd");
  report->Set("virt.usd.egress", b.egress, "usd");
  report->Set("virt.spans", static_cast<double>(round->virtual_spans), "count");
}

}  // namespace webbench
