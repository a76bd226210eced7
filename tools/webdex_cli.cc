// webdex_cli — interactive driver for the simulated warehouse.
//
// Reads commands from stdin (or from a script file given as argv[1]);
// `help` lists them.  A typical session:
//
//   $ ./webdex_cli
//   webdex> strategy LUP
//   webdex> open
//   webdex> gen 60
//   webdex> index
//   webdex> query //item[/name:val, /mailbox/mail]
//   webdex> bill
//   webdex> quit

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "cloud/cloud_env.h"
#include "cloud/snapshot.h"
#include "common/strings.h"
#include "cost/cost_model.h"
#include "engine/warehouse.h"
#include "index/intern.h"
#include "index/summary.h"
#include "query/parser.h"
#include "query/xquery.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::tools {
namespace {

class Cli {
 public:
  explicit Cli(bool interactive) : interactive_(interactive) {}

  int Run(std::istream& in) {
    if (interactive_) PrintBanner();
    std::string line;
    while (Prompt(), std::getline(in, line)) {
      if (!Dispatch(line)) break;
    }
    return 0;
  }

 private:
  void PrintBanner() {
    std::printf(
        "webdex — Web data indexing in the (simulated) cloud.\n"
        "Type 'help' for commands.\n");
  }

  void Prompt() {
    if (interactive_) {
      std::printf("webdex> ");
      std::fflush(stdout);
    }
  }

  // Returns false to quit.
  bool Dispatch(const std::string& line) {
    std::istringstream input(line);
    std::string command;
    if (!(input >> command) || command[0] == '#') return true;
    std::string rest;
    std::getline(input, rest);
    rest = std::string(Trim(rest));

    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "strategy") {
      SetStrategy(rest);
    } else if (command == "backend") {
      SetBackend(rest);
    } else if (command == "instances") {
      config_.num_instances = std::max(1, std::atoi(rest.c_str()));
      std::printf("fleet: %d instance(s)\n", config_.num_instances);
    } else if (command == "threads") {
      config_.host_threads = std::max(0, std::atoi(rest.c_str()));
      if (config_.host_threads == 0) {
        std::printf("host threads: auto (one per core)\n");
      } else {
        std::printf("host threads: %d%s\n", config_.host_threads,
                    config_.host_threads == 1 ? " (serial)" : "");
      }
    } else if (command == "type") {
      config_.instance_type = (rest == "XL" || rest == "xl")
                                  ? cloud::InstanceType::kExtraLarge
                                  : cloud::InstanceType::kLarge;
      std::printf("instance type: %s\n",
                  cloud::InstanceTypeName(config_.instance_type));
    } else if (command == "faults") {
      SetFaults(rest);
    } else if (command == "outage") {
      SetOutage(rest);
    } else if (command == "autoscale") {
      SetAutoscale(rest);
    } else if (command == "arch") {
      SetArch(rest);
    } else if (command == "compare-arch") {
      CompareArch(rest);
    } else if (command == "scrub") {
      Scrub(rest);
    } else if (command == "upsert") {
      Upsert(rest);
    } else if (command == "delete") {
      Delete(rest);
    } else if (command == "compact") {
      Compact(rest);
    } else if (command == "generations") {
      Generations();
    } else if (command == "dlq") {
      Dlq(rest);
    } else if (command == "open") {
      Open();
    } else if (command == "load") {
      Load(rest);
    } else if (command == "loaddir") {
      LoadDir(rest);
    } else if (command == "gen") {
      Generate(rest);
    } else if (command == "index") {
      Index();
    } else if (command == "query") {
      RunQuery(rest);
    } else if (command == "trace") {
      Trace(rest);
    } else if (command == "metrics") {
      Metrics(rest);
    } else if (command == "explain") {
      Explain(rest);
    } else if (command == "planner") {
      SetPlanner(rest);
    } else if (command == "xquery") {
      ShowXQuery(rest);
    } else if (command == "advise") {
      Advise(rest);
    } else if (command == "save") {
      Save(rest);
    } else if (command == "restore") {
      Restore(rest);
    } else if (command == "bill") {
      Bill();
    } else if (command == "stats") {
      Stats();
    } else if (command == "docs") {
      Docs();
    } else {
      std::printf("unknown command '%s' — try 'help'\n", command.c_str());
    }
    return true;
  }

  void Help() {
    std::printf(
        "  strategy LU|LUP|LUI|2LUPI|none   pick the indexing strategy\n"
        "  backend dynamodb|simpledb        pick the index store\n"
        "  instances <n>                    fleet size\n"
        "  threads <n>                      host extraction threads\n"
        "                                   (0 = auto, 1 = serial;\n"
        "                                   wall-clock only, results and\n"
        "                                   virtual times are identical)\n"
        "  type L|XL                        instance type\n"
        "  faults <error_prob> [seed]       chaos plan for the next 'open':\n"
        "                                   transient faults, duplicates and\n"
        "                                   delays at that rate (0 = off)\n"
        "  outage <svc> <start_s> <end_s>   add a sustained outage of\n"
        "                                   s3|dynamodb|simpledb|sqs to the\n"
        "                                   plan (virtual-time window;\n"
        "                                   applies at the next 'open')\n"
        "  autoscale off|[--min <wu>] [--max <wu>] [--target <util>]\n"
        "                                   reactive DynamoDB capacity\n"
        "                                   autoscaler between min/max write\n"
        "                                   units at the target utilization\n"
        "                                   (read bounds scale with them;\n"
        "                                   docs/OVERLOAD.md; applies at the\n"
        "                                   next 'open')\n"
        "  arch [--shards <n>] [--replicas <r>]\n"
        "       [--capacity provisioned|ondemand] [--lag-ms <ms>]\n"
        "                                   deployment architecture\n"
        "                                   (docs/ARCHITECTURES.md; applies\n"
        "                                   at the next 'open'; no flags =\n"
        "                                   back to the paper's default)\n"
        "  compare-arch [--shards <a,b>] [--replicas <a,b>]\n"
        "               [--capacity provisioned,ondemand]\n"
        "                                   sweep architectures over one\n"
        "                                   deterministic build + query\n"
        "                                   workload and print the\n"
        "                                   cost/makespan frontier (every\n"
        "                                   row must match the baseline's\n"
        "                                   index state and query rows)\n"
        "  scrub [--repair]                 audit the index against the\n"
        "                                   documents; --repair fixes it\n"
        "  upsert <uri> [file.xml]          queue a document replacement at\n"
        "                                   a fresh generation (no file:\n"
        "                                   deterministic XMark content);\n"
        "                                   run 'index' to apply\n"
        "  delete <uri>                     queue a tombstoning delete;\n"
        "                                   run 'index' to apply\n"
        "  compact [--full] [--jsonl <f>]   garbage-collect superseded\n"
        "                                   generations and tombstones;\n"
        "                                   --full also rewrites upserted\n"
        "                                   documents back to canonical\n"
        "                                   generation-0 postings; --jsonl\n"
        "                                   writes the pass's trace spans\n"
        "  generations                      list mutated documents, their\n"
        "                                   live generations and tombstones\n"
        "  dlq drain                        re-drive dead-lettered messages\n"
        "  open                             create the warehouse\n"
        "  load <uri> <file.xml>            load one local XML file\n"
        "  loaddir <dir>                    load every .xml file in a dir\n"
        "  gen <n> [entities] [split]       generate an XMark corpus\n"
        "  index                            run the indexing fleet\n"
        "  query <tree pattern query>       evaluate a query\n"
        "  trace [--jsonl <file>] <query>   evaluate a query with tracing\n"
        "                                   on and print the span tree's\n"
        "                                   cost rollup (every subtree's\n"
        "                                   dollars = the metered sum of\n"
        "                                   its children); --jsonl also\n"
        "                                   writes the raw spans to a file\n"
        "  metrics [--prometheus|--json]    dump the metric registry\n"
        "                                   (docs/OBSERVABILITY.md)\n"
        "  explain <tree pattern query>     show the logical and physical\n"
        "                                   plans with every access path's\n"
        "                                   cost estimate (nothing billed)\n"
        "  planner on|off|force-lup|force-lui|auto\n"
        "                                   cost-based access-path planning\n"
        "                                   (applies at the next 'open')\n"
        "  xquery <tree pattern query>      show the XQuery translation\n"
        "  advise <query>                   LUP-vs-LUI advice from stats\n"
        "  save <file>                      snapshot S3+index to disk\n"
        "  restore <file>                   reopen a saved snapshot\n"
        "  bill | stats | docs              inspect the deployment\n"
        "  quit\n");
  }

  void SetStrategy(const std::string& name) {
    if (name == "none") {
      config_.use_index = false;
      std::printf("strategy: none (full scans)\n");
      return;
    }
    config_.use_index = true;
    for (index::StrategyKind kind : index::AllStrategyKinds()) {
      if (name == index::StrategyKindName(kind)) {
        config_.strategy = kind;
        std::printf("strategy: %s\n", name.c_str());
        return;
      }
    }
    std::printf("unknown strategy '%s'\n", name.c_str());
  }

  void SetBackend(const std::string& name) {
    config_.backend = (name == "simpledb") ? engine::IndexBackend::kSimpleDb
                                           : engine::IndexBackend::kDynamoDb;
    std::printf("index backend: %s\n",
                config_.backend == engine::IndexBackend::kSimpleDb
                    ? "SimpleDB"
                    : "DynamoDB");
  }

  void SetFaults(const std::string& args) {
    std::istringstream input(args);
    double error_probability = 0;
    if (!(input >> error_probability) || error_probability < 0 ||
        error_probability > 1) {
      std::printf("usage: faults <error_prob in [0,1]> [seed]\n");
      return;
    }
    cloud::FaultPlan plan;
    if (uint64_t seed; input >> seed) plan.seed = seed;
    plan.s3.error_probability = error_probability;
    plan.dynamodb.error_probability = error_probability;
    plan.dynamodb.unprocessed_probability = error_probability;
    plan.sqs.error_probability = error_probability;
    plan.sqs.duplicate_probability = error_probability;
    plan.sqs.delay_probability = error_probability;
    plan.sqs.max_delay = 2 * cloud::kMicrosPerSecond;
    cloud_config_.faults = plan;
    if (plan.Any()) {
      std::printf(
          "fault plan: %.1f%% transient faults per attempt (seed %llu); "
          "applies at the next 'open'\n",
          error_probability * 100.0, (unsigned long long)plan.seed);
    } else {
      std::printf("fault plan: off\n");
    }
    if (warehouse_ != nullptr) {
      std::printf("note: the open warehouse keeps its current plan\n");
    }
  }

  void SetOutage(const std::string& args) {
    std::istringstream input(args);
    std::string service;
    double start_s = 0, end_s = 0;
    cloud::OutageWindow window;
    if (!(input >> service >> start_s >> end_s) || end_s <= start_s) {
      std::printf("usage: outage <s3|dynamodb|simpledb|sqs> <start_s> "
                  "<end_s>\n");
      return;
    }
    if (service == "s3") {
      window.service = cloud::ServiceId::kS3;
    } else if (service == "dynamodb") {
      window.service = cloud::ServiceId::kDynamoDb;
    } else if (service == "simpledb") {
      window.service = cloud::ServiceId::kSimpleDb;
    } else if (service == "sqs") {
      window.service = cloud::ServiceId::kSqs;
    } else {
      std::printf("unknown service '%s'\n", service.c_str());
      return;
    }
    window.start = static_cast<cloud::Micros>(
        start_s * cloud::kMicrosPerSecond);
    window.end = static_cast<cloud::Micros>(end_s * cloud::kMicrosPerSecond);
    cloud_config_.faults.outages.push_back(window);
    std::printf(
        "outage: %s down for virtual [%.1f s, %.1f s); applies at the "
        "next 'open'\n",
        cloud::ServiceIdName(window.service), start_s, end_s);
    if (warehouse_ != nullptr) {
      std::printf("note: the open warehouse keeps its current plan\n");
    }
  }

  void SetAutoscale(const std::string& args) {
    if (args == "off") {
      cloud_config_.autoscale = cloud::AutoscalerConfig();
      std::printf("autoscale: off\n");
      return;
    }
    cloud::AutoscalerConfig scale;
    scale.enabled = true;
    std::istringstream input(args);
    std::string flag;
    bool bad = false;
    while (input >> flag) {
      double value = 0;
      if (!(input >> value) || value <= 0) {
        bad = true;
        break;
      }
      if (flag == "--min") {
        scale.min_write_units = value;
      } else if (flag == "--max") {
        scale.max_write_units = value;
      } else if (flag == "--target") {
        bad = value >= 1.0;
        scale.target_utilization = value;
      } else {
        bad = true;
        break;
      }
    }
    if (bad || scale.min_write_units > scale.max_write_units) {
      std::printf(
          "usage: autoscale off | [--min <wu>] [--max <wu>] "
          "[--target <util in (0,1)>]\n");
      return;
    }
    // Read bounds track the write bounds at the default 1:0.625 ratio
    // (100/3200 WU vs 50/2000 RU) so one pair of flags drives both
    // dimensions.
    scale.min_read_units = scale.min_write_units * 0.5;
    scale.max_read_units = scale.max_write_units * 0.625;
    cloud_config_.autoscale = scale;
    std::printf(
        "autoscale: on, %.0f-%.0f write units at %.0f%% target "
        "utilization; applies at the next 'open'\n",
        scale.min_write_units, scale.max_write_units,
        scale.target_utilization * 100.0);
    if (warehouse_ != nullptr) {
      std::printf("note: the open warehouse keeps its current capacity\n");
    }
  }

  static bool ParseCapacity(const std::string& name,
                            cloud::CapacityMode* mode) {
    if (name == "provisioned" || name == "prov") {
      *mode = cloud::CapacityMode::kProvisioned;
    } else if (name == "ondemand" || name == "on-demand") {
      *mode = cloud::CapacityMode::kOnDemand;
    } else {
      return false;
    }
    return true;
  }

  void SetArch(const std::string& args) {
    cloud::ArchitectureSpec arch;  // no flags resets to the default
    std::istringstream input(args);
    std::string flag;
    bool bad = false;
    while (input >> flag) {
      std::string value;
      if (!(input >> value)) {
        bad = true;
        break;
      }
      if (flag == "--shards") {
        arch.shards = std::atoi(value.c_str());
      } else if (flag == "--replicas") {
        arch.replicas = std::atoi(value.c_str());
      } else if (flag == "--capacity") {
        bad = !ParseCapacity(value, &arch.capacity);
      } else if (flag == "--lag-ms") {
        arch.replication_lag = static_cast<cloud::Micros>(
            std::atof(value.c_str()) * 1000.0);
      } else {
        bad = true;
      }
      if (bad) break;
    }
    if (!bad && !arch.Validate().ok()) {
      std::printf("invalid architecture: %s\n",
                  arch.Validate().ToString().c_str());
      return;
    }
    if (bad) {
      std::printf(
          "usage: arch [--shards <1..64>] [--replicas <0..8>] "
          "[--capacity provisioned|ondemand] [--lag-ms <ms>]\n");
      return;
    }
    cloud_config_.arch = arch;
    std::printf(
        "architecture: %s (%d shard(s), %d replica(s), %s capacity, "
        "%.1f ms replication lag); applies at the next 'open'\n",
        arch.Name().c_str(), arch.shards, arch.replicas,
        cloud::CapacityModeName(arch.capacity),
        static_cast<double>(arch.replication_lag) / 1000.0);
    if (warehouse_ != nullptr) {
      std::printf("note: the open warehouse keeps its current layout\n");
    }
  }

  /// One architecture's turn on the compare-arch workload.
  struct ArchRow {
    cloud::ArchitectureSpec arch;
    double dollars = 0;
    double index_s = 0;
    double query_s = 0;
    uint64_t fingerprint = 0;
    std::vector<std::vector<std::string>> rows;
    bool failed = false;
  };

  ArchRow RunArchWorkload(const cloud::ArchitectureSpec& arch) {
    ArchRow row;
    row.arch = arch;
    cloud::CloudConfig cloud_config = cloud_config_;
    cloud_config.arch = arch;
    auto env = std::make_unique<cloud::CloudEnv>(cloud_config);
    auto warehouse =
        std::make_unique<engine::Warehouse>(env.get(), config_);
    if (!warehouse->Setup().ok()) {
      row.failed = true;
      return row;
    }
    xmark::GeneratorConfig corpus;
    corpus.num_documents = 12;
    corpus.entities_per_document = 8;
    xmark::XmarkGenerator generator(corpus);
    for (int i = 0; i < corpus.num_documents; ++i) {
      auto doc = generator.Generate(i);
      if (!warehouse->SubmitDocument(doc.uri, std::move(doc.text)).ok()) {
        row.failed = true;
        return row;
      }
    }
    auto report = warehouse->RunIndexers();
    if (!report.ok()) {
      row.failed = true;
      return row;
    }
    row.index_s = static_cast<double>(report.value().makespan) / 1e6;
    // The same query three times: with replicas the later rounds run
    // against a settled table and show the half-price read pool.
    for (int round = 0; round < 3; ++round) {
      auto outcome = warehouse->ExecuteQuery("//item[/name:val]");
      if (!outcome.ok()) {
        row.failed = true;
        return row;
      }
      row.query_s +=
          static_cast<double>(outcome.value().timings.total) / 1e6;
      row.rows = outcome.value().result.rows;
    }
    row.fingerprint = cloud::FingerprintStore(warehouse->index_store());
    row.dollars = env->meter().ComputeBill().total();
    return row;
  }

  void CompareArch(const std::string& args) {
    std::vector<int> shards = {1, 4};
    std::vector<int> replicas = {0, 2};
    std::vector<cloud::CapacityMode> capacities = {
        cloud::CapacityMode::kProvisioned, cloud::CapacityMode::kOnDemand};
    std::istringstream input(args);
    std::string flag;
    bool bad = false;
    auto parse_ints = [&](const std::string& csv, std::vector<int>* out) {
      out->clear();
      std::istringstream list(csv);
      std::string token;
      while (std::getline(list, token, ',')) {
        out->push_back(std::atoi(token.c_str()));
      }
      return !out->empty();
    };
    while (input >> flag) {
      std::string value;
      if (!(input >> value)) {
        bad = true;
        break;
      }
      if (flag == "--shards") {
        bad = !parse_ints(value, &shards);
      } else if (flag == "--replicas") {
        bad = !parse_ints(value, &replicas);
      } else if (flag == "--capacity") {
        capacities.clear();
        std::istringstream list(value);
        std::string token;
        while (std::getline(list, token, ',')) {
          cloud::CapacityMode mode;
          if (!ParseCapacity(token, &mode)) {
            bad = true;
            break;
          }
          capacities.push_back(mode);
        }
        bad = bad || capacities.empty();
      } else {
        bad = true;
      }
      if (bad) break;
    }
    if (bad) {
      std::printf(
          "usage: compare-arch [--shards <a,b,..>] [--replicas <a,b,..>] "
          "[--capacity provisioned,ondemand]\n");
      return;
    }
    // Baseline first, then the cross product (skipping the baseline).
    std::vector<cloud::ArchitectureSpec> sweep;
    sweep.emplace_back();
    for (cloud::CapacityMode capacity : capacities) {
      for (int shard_count : shards) {
        for (int replica_count : replicas) {
          cloud::ArchitectureSpec arch;
          arch.capacity = capacity;
          arch.shards = shard_count;
          arch.replicas = replica_count;
          if (arch == sweep.front()) continue;
          if (!arch.Validate().ok()) {
            std::printf("skipping invalid architecture %s\n",
                        arch.Name().c_str());
            continue;
          }
          sweep.push_back(arch);
        }
      }
    }
    std::printf(
        "%-16s %-12s %7s %9s %11s %9s %9s  %s\n", "arch", "capacity",
        "shards", "replicas", "$ total", "index s", "query s", "state");
    ArchRow baseline;
    for (size_t i = 0; i < sweep.size(); ++i) {
      const ArchRow row = RunArchWorkload(sweep[i]);
      if (i == 0) baseline = row;
      const char* state = "baseline";
      if (row.failed) {
        state = "FAILED";
      } else if (i > 0) {
        state = (row.fingerprint == baseline.fingerprint &&
                 row.rows == baseline.rows)
                    ? "ok"
                    : "MISMATCH";
      }
      std::printf("%-16s %-12s %7d %9d %11.6f %9.2f %9.3f  %s\n",
                  row.arch.Name().c_str(),
                  cloud::CapacityModeName(row.arch.capacity),
                  row.arch.shards, row.arch.replicas, row.dollars,
                  row.index_s, row.query_s, state);
    }
    std::printf(
        "every row indexes and queries the same corpus; 'ok' = "
        "bit-identical logical index and query rows vs the baseline\n");
  }

  void Scrub(const std::string& args) {
    if (!Opened()) return;
    if (!config_.use_index) {
      std::printf("no index to scrub (strategy none)\n");
      return;
    }
    const bool repair = args == "--repair";
    if (!args.empty() && !repair) {
      std::printf("usage: scrub [--repair]\n");
      return;
    }
    const cloud::Usage before = env_->meter().Snapshot();
    auto report = warehouse_->Scrub(repair);
    if (!report.ok()) {
      std::printf("scrub failed: %s\n", report.status().ToString().c_str());
      return;
    }
    const double dollars =
        env_->meter().ComputeBill(env_->meter().Snapshot() - before).total();
    std::printf("%s  cost: $%.6f\n", report.value().ToString().c_str(),
                dollars);
  }

  void Upsert(const std::string& args) {
    if (!Opened()) return;
    std::istringstream input(args);
    std::string uri, path;
    if (!(input >> uri)) {
      std::printf("usage: upsert <uri> [file.xml]\n");
      return;
    }
    std::string text;
    if (input >> path) {
      std::ifstream file(path, std::ios::binary);
      if (!file) {
        std::printf("cannot open %s\n", path.c_str());
        return;
      }
      std::ostringstream contents;
      contents << file.rdbuf();
      text = std::move(contents).str();
    } else {
      // No file: generate deterministic replacement content, varied by
      // the allocated generation so successive upserts of one URI differ.
      xmark::GeneratorConfig corpus;
      corpus.num_documents = 1;
      corpus.entities_per_document = 8;
      corpus.split_sections = true;
      corpus.seed += env_->maintenance().generation_watermark + 1;
      text = xmark::XmarkGenerator(corpus).Generate(0).text;
    }
    if (auto status = warehouse_->UpsertDocument(uri, std::move(text));
        !status.ok()) {
      std::printf("upsert %s failed: %s\n", uri.c_str(),
                  status.ToString().c_str());
      return;
    }
    std::printf("upsert queued for %s at generation %llu — run 'index' to "
                "apply\n",
                uri.c_str(),
                (unsigned long long)env_->maintenance().generation_watermark);
  }

  void Delete(const std::string& args) {
    if (!Opened()) return;
    std::istringstream input(args);
    std::string uri;
    if (!(input >> uri)) {
      std::printf("usage: delete <uri>\n");
      return;
    }
    if (auto status = warehouse_->DeleteDocument(uri); !status.ok()) {
      std::printf("delete %s failed: %s\n", uri.c_str(),
                  status.ToString().c_str());
      return;
    }
    std::printf("delete queued for %s at generation %llu — run 'index' to "
                "apply\n",
                uri.c_str(),
                (unsigned long long)env_->maintenance().generation_watermark);
  }

  void Compact(const std::string& args) {
    if (!Opened()) return;
    bool full = false;
    std::string jsonl_path;
    std::istringstream input(args);
    std::string token;
    while (input >> token) {
      if (token == "--full") {
        full = true;
      } else if (token == "--jsonl" && input >> jsonl_path) {
      } else {
        std::printf("usage: compact [--full] [--jsonl <file>]\n");
        return;
      }
    }
    common::Tracer& tracer = env_->tracer();
    const bool was_enabled = tracer.enabled();
    if (!jsonl_path.empty()) {
      tracer.set_enabled(true);
      tracer.Clear();
    }
    const cloud::Usage before = env_->meter().Snapshot();
    auto report = warehouse_->Compact(full);
    tracer.set_enabled(was_enabled);
    if (!report.ok()) {
      std::printf("compact failed: %s\n", report.status().ToString().c_str());
      return;
    }
    const double dollars =
        env_->meter().ComputeBill(env_->meter().Snapshot() - before).total();
    std::printf("%s  cost: $%.6f\n", report.value().ToString().c_str(),
                dollars);
    if (report.value().crashed) {
      std::printf("  crashed mid-pass — cursor saved; 'compact' again (or "
                  "save/restore) to resume\n");
    }
    if (!jsonl_path.empty()) {
      std::ofstream out(jsonl_path, std::ios::binary);
      if (!out) {
        std::printf("cannot write %s\n", jsonl_path.c_str());
        return;
      }
      out << tracer.ToJsonl();
      std::printf("spans written to %s\n", jsonl_path.c_str());
    }
  }

  void Generations() {
    if (!Opened()) return;
    const auto view = warehouse_->GenerationSnapshot();
    for (const auto& [uri, info] : view->entries()) {
      std::printf("  %-28s gen %llu%s\n", uri.c_str(),
                  (unsigned long long)info.generation,
                  info.tombstoned ? "  [tombstone]" : "");
    }
    std::printf("%zu mutated document(s), %llu tombstone(s); watermark "
                "%llu%s\n",
                view->size(), (unsigned long long)view->TombstoneCount(),
                (unsigned long long)env_->maintenance().generation_watermark,
                env_->maintenance().compact_cursor.empty()
                    ? ""
                    : "; compaction paused");
  }

  void Dlq(const std::string& args) {
    if (!Opened()) return;
    if (args != "drain") {
      std::printf("usage: dlq drain\n");
      return;
    }
    auto drained = warehouse_->DrainDeadLetters();
    if (!drained.ok()) {
      std::printf("drain failed: %s\n", drained.status().ToString().c_str());
      return;
    }
    std::printf("re-drove %llu dead-lettered message(s)%s\n",
                (unsigned long long)drained.value(),
                drained.value() > 0
                    ? " — run 'index' or 'query' to process them"
                    : "");
  }

  bool Opened() {
    if (warehouse_ == nullptr) {
      std::printf("no warehouse — run 'open' first\n");
      return false;
    }
    return true;
  }

  void Open() {
    if (warehouse_ != nullptr) {
      std::printf("warehouse already open\n");
      return;
    }
    env_ = std::make_unique<cloud::CloudEnv>(cloud_config_);
    warehouse_ = std::make_unique<engine::Warehouse>(env_.get(), config_);
    if (auto status = warehouse_->Setup(); !status.ok()) {
      std::printf("setup failed: %s\n", status.ToString().c_str());
      warehouse_.reset();
      env_.reset();
      return;
    }
    std::printf("warehouse open (%s, %d x %s, %s)\n",
                config_.use_index
                    ? index::StrategyKindName(config_.strategy)
                    : "no index",
                config_.num_instances,
                cloud::InstanceTypeName(config_.instance_type),
                config_.backend == engine::IndexBackend::kSimpleDb
                    ? "SimpleDB"
                    : "DynamoDB");
  }

  void Submit(const std::string& uri, std::string text) {
    // Feed the statistics summary before the text is moved out.
    if (auto doc = xml::ParseDocument(uri, text); doc.ok()) {
      summary_.AddDocument(index::ExtractDocIndex(doc.value()));
    }
    if (auto status = warehouse_->SubmitDocument(uri, std::move(text));
        !status.ok()) {
      std::printf("load %s failed: %s\n", uri.c_str(),
                  status.ToString().c_str());
    }
  }

  void Load(const std::string& args) {
    if (!Opened()) return;
    std::istringstream input(args);
    std::string uri, path;
    if (!(input >> uri >> path)) {
      std::printf("usage: load <uri> <file.xml>\n");
      return;
    }
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    Submit(uri, std::move(contents).str());
    std::printf("loaded %s (%zu documents total)\n", uri.c_str(),
                warehouse_->document_uris().size());
  }

  void LoadDir(const std::string& dir) {
    if (!Opened()) return;
    namespace fs = std::filesystem;
    std::error_code ec;
    size_t loaded = 0;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".xml") {
        continue;
      }
      std::ifstream file(entry.path(), std::ios::binary);
      if (!file) continue;
      std::ostringstream contents;
      contents << file.rdbuf();
      Submit(entry.path().filename().string(), std::move(contents).str());
      ++loaded;
    }
    if (ec) {
      std::printf("cannot read %s: %s\n", dir.c_str(),
                  ec.message().c_str());
      return;
    }
    std::printf("loaded %zu file(s) from %s\n", loaded, dir.c_str());
  }

  void Generate(const std::string& args) {
    if (!Opened()) return;
    std::istringstream input(args);
    xmark::GeneratorConfig corpus;
    corpus.num_documents = 60;
    corpus.entities_per_document = 40;
    input >> corpus.num_documents >> corpus.entities_per_document;
    std::string mode;
    input >> mode;
    corpus.split_sections = mode != "full";
    xmark::XmarkGenerator generator(corpus);
    for (int i = 0; i < corpus.num_documents; ++i) {
      auto doc = generator.Generate(i);
      Submit(doc.uri, std::move(doc.text));
    }
    std::printf("generated %d XMark documents (%.1f MB)\n",
                corpus.num_documents,
                static_cast<double>(warehouse_->data_bytes()) / (1 << 20));
  }

  void Index() {
    if (!Opened()) return;
    auto report = warehouse_->RunIndexers();
    if (!report.ok()) {
      std::printf("indexing failed: %s\n",
                  report.status().ToString().c_str());
      return;
    }
    std::printf(
        "indexed %llu documents in %.2f virtual s "
        "(index %.1f MB + %.1f MB overhead)\n",
        (unsigned long long)report.value().documents,
        static_cast<double>(report.value().makespan) / 1e6,
        static_cast<double>(warehouse_->IndexRawBytes()) / (1 << 20),
        static_cast<double>(warehouse_->IndexOverheadBytes()) / (1 << 20));
  }

  void RunQuery(const std::string& text) {
    if (!Opened()) return;
    if (text.empty()) {
      std::printf("usage: query <tree pattern query>\n");
      return;
    }
    const cloud::Usage before = env_->meter().Snapshot();
    auto outcome = warehouse_->ExecuteQuery(text);
    if (!outcome.ok()) {
      std::printf("query failed: %s\n", outcome.status().ToString().c_str());
      return;
    }
    const double dollars =
        env_->meter().ComputeBill(env_->meter().Snapshot() - before).total();
    std::printf("%zu row(s); fetched %llu docs in %.3f virtual s for "
                "$%.6f\n",
                outcome.value().result.rows.size(),
                (unsigned long long)outcome.value().docs_fetched,
                static_cast<double>(outcome.value().timings.total) / 1e6,
                dollars);
    if (!outcome.value().chosen_path.empty()) {
      std::printf("  path %s  est $%.8f (%.0f req)  actual $%.8f (%.0f req)"
                  "%s\n",
                  outcome.value().chosen_path.c_str(),
                  outcome.value().estimated_cost_usd,
                  outcome.value().estimated_requests,
                  outcome.value().actual_cost_usd,
                  outcome.value().actual_requests,
                  outcome.value().planner_fallbacks > 0 ? "  [fell back]"
                                                        : "");
    }
    const size_t limit = 10;
    for (size_t r = 0; r < outcome.value().result.rows.size(); ++r) {
      if (r == limit) {
        std::printf("  ... (%zu more)\n",
                    outcome.value().result.rows.size() - limit);
        break;
      }
      std::string row;
      for (const auto& col : outcome.value().result.rows[r]) {
        if (!row.empty()) row += " | ";
        row += col.substr(0, 60);
      }
      std::printf("  %s\n", row.c_str());
    }
  }

  void Trace(const std::string& args) {
    if (!Opened()) return;
    std::string text = args;
    std::string jsonl_path;
    if (text.rfind("--jsonl", 0) == 0) {
      std::istringstream input(text);
      std::string flag;
      input >> flag >> jsonl_path;
      std::getline(input, text);
      text = std::string(Trim(text));
      if (jsonl_path.empty()) {
        std::printf("usage: trace [--jsonl <file>] <tree pattern query>\n");
        return;
      }
    }
    if (text.empty()) {
      std::printf("usage: trace [--jsonl <file>] <tree pattern query>\n");
      return;
    }
    common::Tracer& tracer = env_->tracer();
    const bool was_enabled = tracer.enabled();
    tracer.set_enabled(true);
    tracer.Clear();
    auto outcome = warehouse_->ExecuteQuery(text);
    tracer.set_enabled(was_enabled);
    if (!outcome.ok()) {
      std::printf("query failed: %s\n", outcome.status().ToString().c_str());
      return;
    }
    std::printf("%zu row(s); %zu span(s) recorded\n",
                outcome.value().result.rows.size(), tracer.spans().size());
    std::printf("%s", tracer.CostRollup().c_str());
    if (!jsonl_path.empty()) {
      std::ofstream out(jsonl_path, std::ios::binary);
      if (!out) {
        std::printf("cannot write %s\n", jsonl_path.c_str());
        return;
      }
      out << tracer.ToJsonl();
      std::printf("spans written to %s\n", jsonl_path.c_str());
    }
  }

  void Metrics(const std::string& args) {
    if (!Opened()) return;
    // Usage is the billing source of truth; mirror it into the registry
    // so one dump carries both service metrics and billing counters.
    env_->PublishUsageMetrics();
    // Same for the key/path interner: snapshot its arena and probe stats
    // (index.intern.*) into the registry for this dump.
    index::PublishInternMetrics(&env_->metrics());
    if (args == "--prometheus") {
      std::printf("%s", env_->metrics().ToPrometheus().c_str());
    } else if (args.empty() || args == "--json") {
      std::printf("%s\n", env_->metrics().ToJson().c_str());
    } else {
      std::printf("usage: metrics [--prometheus|--json]\n");
    }
  }

  void Explain(const std::string& text) {
    if (!Opened()) return;
    if (text.empty()) {
      std::printf("usage: explain <tree pattern query>\n");
      return;
    }
    auto explained = warehouse_->ExplainQuery(text);
    if (!explained.ok()) {
      std::printf("explain failed: %s\n",
                  explained.status().ToString().c_str());
      return;
    }
    std::printf("%s", explained.value().c_str());
  }

  void SetPlanner(const std::string& args) {
    if (args == "on" || args == "auto") {
      config_.use_planner = true;
      config_.planner_force = engine::PlannerForce::kAuto;
    } else if (args == "off") {
      config_.use_planner = false;
      config_.planner_force = engine::PlannerForce::kAuto;
    } else if (args == "force-lup") {
      config_.use_planner = true;
      config_.planner_force = engine::PlannerForce::kLup;
    } else if (args == "force-lui") {
      config_.use_planner = true;
      config_.planner_force = engine::PlannerForce::kLui;
    } else {
      std::printf("usage: planner on|off|force-lup|force-lui|auto\n");
      return;
    }
    std::printf("planner: %s\n",
                config_.use_planner
                    ? engine::PlannerForceName(config_.planner_force)
                    : "off (fixed strategy pipeline)");
    if (warehouse_ != nullptr) {
      std::printf("note: the open warehouse keeps its current planner\n");
    }
  }

  void ShowXQuery(const std::string& text) {
    auto query = query::ParseQuery(text);
    if (!query.ok()) {
      std::printf("parse failed: %s\n", query.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", query::ToXQuery(query.value()).c_str());
  }

  void Advise(const std::string& text) {
    auto query = query::ParseQuery(text);
    if (!query.ok()) {
      std::printf("parse failed: %s\n", query.status().ToString().c_str());
      return;
    }
    if (summary_.documents() == 0) {
      std::printf("no statistics yet — load documents first\n");
      return;
    }
    for (const auto& pattern : query.value().patterns()) {
      const auto advice = summary_.AdviseLookup(pattern);
      std::printf("%s -> %s (%s)\n", pattern.ToString().c_str(),
                  index::StrategyKindName(advice.lookup),
                  advice.reason.c_str());
    }
  }

  void Save(const std::string& path) {
    if (!Opened()) return;
    if (path.empty()) {
      std::printf("usage: save <file>\n");
      return;
    }
    if (auto status = cloud::SaveSnapshotFile(*env_, path); !status.ok()) {
      std::printf("save failed: %s\n", status.ToString().c_str());
      return;
    }
    std::printf("snapshot written to %s\n", path.c_str());
  }

  void Restore(const std::string& path) {
    if (warehouse_ != nullptr) {
      std::printf("a warehouse is already open — restart to restore\n");
      return;
    }
    auto env = std::make_unique<cloud::CloudEnv>(cloud_config_);
    if (auto status = cloud::LoadSnapshotFile(path, env.get());
        !status.ok()) {
      std::printf("restore failed: %s\n", status.ToString().c_str());
      return;
    }
    env_ = std::move(env);
    warehouse_ = std::make_unique<engine::Warehouse>(env_.get(), config_);
    if (auto status = warehouse_->AttachToExistingCloud(); !status.ok()) {
      std::printf("attach failed: %s\n", status.ToString().c_str());
      warehouse_.reset();
      env_.reset();
      return;
    }
    // The statistics behind `stats` and `advise` are not in the snapshot;
    // the attached warehouse rebuilt them from the restored documents.
    summary_ = warehouse_->path_summary();
    std::printf("restored %zu documents (%.1f MB) from %s\n",
                warehouse_->document_uris().size(),
                static_cast<double>(warehouse_->data_bytes()) / (1 << 20),
                path.c_str());
  }

  void Bill() {
    if (!Opened()) return;
    std::printf("%s", env_->meter().ComputeBill().ToString().c_str());
  }

  void Stats() {
    if (!Opened()) return;
    // Counters are read back through the metric registry (the usage meter
    // stays the billing source of truth; PublishUsageMetrics mirrors it
    // into `usage.*` gauges — observability_test.cc cross-checks the two).
    env_->PublishUsageMetrics();
    const common::MetricRegistry& metrics = env_->metrics();
    const auto usage = [&metrics](const char* field) {
      return (unsigned long long)metrics.GaugeValue(std::string("usage.") +
                                                    field);
    };
    std::printf(
        "documents: %zu (%.1f MB)   distinct paths: %llu\n"
        "S3: %llu put / %llu get   DynamoDB: %llu put / %llu get "
        "(%.0f WU / %.0f RU)   SQS: %llu\n"
        "faults: %llu injected, %llu retries, %llu redeliveries, "
        "%llu dead-lettered\n"
        "brownout: breaker %llu opens / %llu closes / %llu short-circuits, "
        "%llu degraded queries, %llu scrub-repaired\n"
        "mutability: %llu tombstones written, %llu compacted URIs, "
        "%llu GC'd items\n"
        "overload: %llu throttled requests, %llu shed queries, "
        "%llu scale events (%.0f WU / %.0f RU provisioned)\n"
        "deployment: %s (%d shard(s), %d replica(s), %s capacity, "
        "%.1f ms lag): %llu replica reads, %llu on-demand requests\n"
        "virtual front-end clock: %.2f s\n",
        warehouse_->document_uris().size(),
        static_cast<double>(warehouse_->data_bytes()) / (1 << 20),
        (unsigned long long)summary_.distinct_paths(),
        usage("s3_put_requests"), usage("s3_get_requests"),
        usage("ddb_put_requests"), usage("ddb_get_requests"),
        metrics.GaugeValue("usage.ddb_write_units"),
        metrics.GaugeValue("usage.ddb_read_units"), usage("sqs_requests"),
        usage("faulted_requests"), usage("retried_requests"),
        usage("sqs_redeliveries"), usage("dead_lettered"),
        usage("breaker_opens"), usage("breaker_closes"),
        usage("breaker_short_circuits"), usage("degraded_queries"),
        usage("scrub_repaired"), usage("tombstones_written"),
        usage("compact_uris"), usage("compact_gc_items"),
        usage("throttled_requests"), usage("shed_queries"),
        usage("scale_events"), env_->dynamodb().write_units_per_second(),
        env_->dynamodb().read_units_per_second(),
        env_->deployment().spec().Name().c_str(),
        env_->deployment().spec().shards, env_->deployment().spec().replicas,
        cloud::CapacityModeName(env_->deployment().spec().capacity),
        static_cast<double>(env_->deployment().spec().replication_lag) /
            1000.0,
        usage("replica_reads"), usage("ondemand_requests"),
        static_cast<double>(warehouse_->front_end().now()) / 1e6);
    if (!env_->tracer().spans().empty()) {
      std::printf("last trace (flamegraph-style cost rollup):\n%s",
                  env_->tracer().CostRollup().c_str());
    }
  }

  void Docs() {
    if (!Opened()) return;
    const auto& uris = warehouse_->document_uris();
    for (size_t i = 0; i < uris.size() && i < 20; ++i) {
      std::printf("  %s\n", uris[i].c_str());
    }
    if (uris.size() > 20) std::printf("  ... (%zu more)\n", uris.size() - 20);
  }

  bool interactive_;
  engine::WarehouseConfig config_;
  cloud::CloudConfig cloud_config_;
  std::unique_ptr<cloud::CloudEnv> env_;
  std::unique_ptr<engine::Warehouse> warehouse_;
  index::PathSummary summary_;
};

}  // namespace
}  // namespace webdex::tools

int main(int argc, char** argv) {
  if (argc > 2 && (std::string(argv[1]) == "trace" ||
                   std::string(argv[1]) == "metrics")) {
    // One-shot trace/metrics: deploy a small deterministic 2LUPI
    // warehouse, run the query with tracing on, and print the cost
    // rollup (trace) or the metric registry (metrics <query> [--fmt]).
    std::string query;
    std::string fmt;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--prometheus" || arg == "--json") {
        fmt = arg;
        continue;
      }
      if (!query.empty()) query += " ";
      query += arg;
    }
    std::string script = "strategy 2LUPI\nopen\ngen 12 8\nindex\n";
    if (std::string(argv[1]) == "trace") {
      script += "trace " + query + "\n";
    } else {
      script += "query " + query + "\nmetrics " + fmt + "\n";
    }
    std::istringstream input(script);
    webdex::tools::Cli cli(/*interactive=*/false);
    return cli.Run(input);
  }
  if (argc > 1 && std::string(argv[1]) == "compare-arch") {
    // One-shot frontier: sweep architectures over the canned workload.
    std::string flags;
    for (int i = 2; i < argc; ++i) {
      if (!flags.empty()) flags += " ";
      flags += argv[i];
    }
    std::istringstream script("compare-arch " + flags + "\n");
    webdex::tools::Cli cli(/*interactive=*/false);
    return cli.Run(script);
  }
  if (argc > 2 && std::string(argv[1]) == "explain") {
    // One-shot EXPLAIN: deploy a small deterministic 2LUPI warehouse and
    // plan the query against it (nothing beyond the canned corpus is
    // billed by the explain itself).
    std::string query;
    for (int i = 2; i < argc; ++i) {
      if (!query.empty()) query += " ";
      query += argv[i];
    }
    std::istringstream script("strategy 2LUPI\nopen\ngen 12 8\nindex\n"
                              "explain " +
                              query + "\n");
    webdex::tools::Cli cli(/*interactive=*/false);
    return cli.Run(script);
  }
  if (argc > 1) {
    std::ifstream script(argv[1]);
    if (!script) {
      std::fprintf(stderr, "cannot open script %s\n", argv[1]);
      return 1;
    }
    webdex::tools::Cli cli(/*interactive=*/false);
    return cli.Run(script);
  }
  webdex::tools::Cli cli(/*interactive=*/true);
  return cli.Run(std::cin);
}
