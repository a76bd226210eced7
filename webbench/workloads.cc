// The three workloads.  Each round builds its own simulated cloud from
// inputs that depend only on the seed, so every round of a run does the
// same work and every virtual number is a pure function of the seed.
#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "cloud/kv_store.h"
#include "common/rng.h"
#include "common/strings.h"

namespace webbench {
namespace {

// Fleet sizes: the paper's eight-large build fleet, and one large query
// processor as in its per-query measurements (Table 5, Fig. 9).
constexpr int kBuildInstances = 8;
constexpr int kQueryInstances = 1;

// bulk_index: probe queries answered after each build, four blocks so that
// every template has four samples per round.
constexpr size_t kBulkProbes = 4 * kTemplateBlock;

// query_mix: queries per round, >= 1000 so that at least ten of one
// round's samples lie beyond its p99.
constexpr size_t kMixQueries = 91 * kTemplateBlock;
// churn: per cycle, live documents upserted with regenerated content,
// live documents deleted, and queries answered.
constexpr int kChurnCycles = 9;
constexpr int kChurnUpserts = 12;
constexpr int kChurnDeletes = 2;
constexpr size_t kChurnQueries = 8 * kTemplateBlock;
constexpr int kChurnCompactEvery = 3;

/// Times Warehouse calls.  In a traced round every call is also recorded
/// as a host span, and the totals per call kind feed engine.*.ms.
class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced), origin_(Clock::now()) {}

  template <typename Fn>
  auto Call(const char* name, Fn&& fn) -> decltype(fn()) {
    const auto start = Clock::now();
    auto result = fn();
    const auto end = Clock::now();
    last_s_ = std::chrono::duration<double>(end - start).count();
    if (traced_) {
      spans_.push_back(HostSpan{name, Micros(start), Micros(end)});
    }
    return result;
  }

  /// Host seconds of the most recent Call.
  double last_s() const { return last_s_; }
  std::vector<HostSpan> TakeSpans() { return std::move(spans_); }

 private:
  int64_t Micros(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
        .count();
  }

  bool traced_;
  Clock::time_point origin_;
  double last_s_ = 0;
  std::vector<HostSpan> spans_;
};

/// Snapshot of the virtual side of a deployment, for measured-region
/// deltas.
struct VirtualMark {
  wd::cloud::Micros now = 0;
  wd::cloud::Usage usage;
  std::map<std::string, double> counters;
};

VirtualMark Mark(Deployment& d) {
  VirtualMark mark;
  mark.now = d.warehouse->front_end().now();
  mark.usage = d.env->meter().Snapshot();
  const auto& registry = d.env->metrics();
  for (const auto& name : registry.Names()) {
    if (const auto* counter = registry.FindCounter(name)) {
      mark.counters[name] = static_cast<double>(counter->value());
    }
  }
  return mark;
}

void CloseVirtual(Deployment& d, const VirtualMark& start, Round* round) {
  const VirtualMark end = Mark(d);
  round->makespan_s = static_cast<double>(end.now - start.now) / 1e6;
  round->usage = end.usage - start.usage;
  round->bill = d.env->meter().ComputeBill(round->usage);
  round->cost_usd = round->bill.total();
  for (const auto& [name, value] : end.counters) {
    const auto it = start.counters.find(name);
    const double before = it == start.counters.end() ? 0 : it->second;
    round->counters[name] = value - before;
  }
  const double data = static_cast<double>(d.warehouse->data_bytes());
  if (data > 0) {
    round->index_bytes_per_data_byte =
        static_cast<double>(d.warehouse->IndexRawBytes() +
                            d.warehouse->IndexOverheadBytes()) /
        data;
  }
  round->virtual_spans = d.env->tracer().spans().size();
}

Deployment NewDeployment(int instances, int threads, bool traced) {
  Deployment d;
  d.env = std::make_unique<wd::cloud::CloudEnv>(wd::cloud::CloudConfig());
  d.env->tracer().set_enabled(traced);
  d.warehouse = std::make_unique<wd::engine::Warehouse>(
      d.env.get(), WarehouseConfigFor(instances, threads));
  return d;
}

/// Creates the warehouse and submits `docs`.  Returns false on failure.
bool Load(Deployment& d, const std::vector<Document>& docs, Recorder& rec,
          Report* report) {
  const wd::Status setup = rec.Call("engine.setup", [&] {
    return d.warehouse->Setup();
  });
  report->Check(setup.ok(), "Setup: " + setup.ToString());
  if (!setup.ok()) return false;
  for (const auto& doc : docs) {
    const wd::Status status = rec.Call("engine.submit", [&] {
      return d.warehouse->SubmitDocument(doc.uri, doc.text);
    });
    if (!status.ok()) {
      report->Check(false, "SubmitDocument " + doc.uri + ": " +
                               status.ToString());
      return false;
    }
  }
  return true;
}

/// RunIndexers(), timed, with its failure modes counted: a non-OK status
/// or any dead-lettered document.
bool Index(Deployment& d, double bytes, Recorder& rec, Round* round,
           Report* report, bool measured) {
  auto result = rec.Call("engine.run_indexers", [&] {
    return d.warehouse->RunIndexers();
  });
  round->index_bytes += bytes;
  round->index_s += rec.last_s();
  report->Check(result.ok(), "RunIndexers: " + result.status().ToString());
  if (!result.ok()) return false;
  const auto& r = result.value();
  report->Check(r.dead_lettered == 0,
                wd::StrFormat(
                    "RunIndexers dead-lettered %llu documents",
                    static_cast<unsigned long long>(r.dead_lettered)));
  if (measured) {
    round->virt_extract_s += static_cast<double>(r.extraction_micros) / 1e6;
    round->virt_upload_s += static_cast<double>(r.upload_micros) / 1e6;
  }
  return true;
}

/// One ExecuteQuery, timed; a non-OK status, a shed or degraded answer
/// or (when `truth` is given) a wrong answer counts as failed.
void Query(Deployment& d, const std::string& text, const Truth* truth,
           bool check_docs, Recorder& rec, Round* round, Report* report,
           bool traced) {
  auto outcome = rec.Call("engine.execute_query", [&] {
    return d.warehouse->ExecuteQuery(text);
  });
  round->query_ms.push_back(rec.last_s() * 1e3);
  round->query_s += rec.last_s();
  if (!outcome.ok()) {
    report->Check(false, "ExecuteQuery " + text + ": " +
                             outcome.status().ToString());
    return;
  }
  const auto& o = outcome.value();
  round->query_virt_ms.push_back(static_cast<double>(o.timings.total) / 1e3);
  round->virt_index_get_s += static_cast<double>(o.timings.index_get) / 1e6;
  round->virt_plan_exec_s += static_cast<double>(o.timings.plan_exec) / 1e6;
  round->virt_transfer_eval_s +=
      static_cast<double>(o.timings.transfer_eval) / 1e6;
  bool ok = !o.shed && !o.degraded;
  if (truth != nullptr) {
    ok = ok && o.result.rows == truth->result.rows;
    if (check_docs) ok = ok && o.docs_from_index >= truth->matching_docs;
  }
  report->Check(ok, "wrong, shed or degraded answer: " + text);
  if (traced) {
    round->inputs.queries.push_back(text);
    round->inputs.results.push_back(o.result);
    round->inputs.chosen_paths.push_back(o.chosen_path);
    if (o.estimated_cost_usd > 0) {
      round->inputs.cost_ratios.push_back(o.actual_cost_usd /
                                          o.estimated_cost_usd);
    }
  }
}

/// The no-index answers to a round's queries.  A process runs one
/// workload with one seed, and every round of it has the same inputs, so
/// the oracle is filled once, on the first round, before that round's
/// deployment exists.  It keeps only the rows: the parsed corpus is freed
/// as soon as they are computed, so that the oracle adds nothing to the
/// memory high-water mark while the program runs.
class Oracle {
 public:
  bool prepared() const { return prepared_; }
  /// Evaluates `queries` over `docs` with no index involved.
  void Prepare(const std::vector<Document>& docs,
               const std::vector<std::string>& queries, bool count_docs) {
    const ParsedCorpus corpus = ParseCorpus(docs);
    for (const auto& q : queries) {
      if (truths_.count(q) == 0) {
        truths_.emplace(q, GroundTruth(q, corpus, count_docs));
      }
    }
    prepared_ = true;
  }
  const Truth& Get(const std::string& query) const {
    return truths_.at(query);
  }
  /// churn: fingerprint of a fresh build of the final corpus.
  uint64_t fingerprint = 0;

 private:
  bool prepared_ = false;
  std::map<std::string, Truth> truths_;
};

Oracle& TheOracle() {
  static Oracle* oracle = new Oracle();
  return *oracle;
}

// --- bulk_index --------------------------------------------------------

Round BulkIndexRound(const Options& options, bool traced, int threads,
                     Report* report) {
  Round round;
  Recorder rec(traced);
  auto setup_start = Clock::now();
  const auto config = BulkCorpus(options.seed);
  std::vector<Document> docs = GenerateCorpus(config);
  // The probes (every template) are the workload's query latency samples:
  // queries over large unsplit documents, answered after the build.
  const std::vector<std::string> probes =
      QueryStream(config, options.seed + 1, kBulkProbes);
  round.setup_s = SecondsSince(setup_start);
  Oracle& oracle = TheOracle();
  if (!oracle.prepared()) oracle.Prepare(docs, probes, /*count_docs=*/true);
  setup_start = Clock::now();
  Deployment d = NewDeployment(kBuildInstances, threads, traced);
  if (!Load(d, docs, rec, report)) return round;
  round.setup_s += SecondsSince(setup_start);

  const VirtualMark mark = Mark(d);
  const auto measured_start = Clock::now();
  Index(d, static_cast<double>(TotalBytes(docs)), rec, &round, report,
        /*measured=*/true);
  round.measured_s = SecondsSince(measured_start);
  round.peak_rss_mb = PeakRssMb();
  round.ops = docs.size();
  CloseVirtual(d, mark, &round);

  // Correctness, outside the measured region: the probes must return the
  // no-index rows, and the index must never return fewer documents than
  // truly match.
  for (const auto& q : probes) {
    Query(d, q, &oracle.Get(q), /*check_docs=*/true, rec, &round, report,
          traced);
  }
  if (traced) {
    round.inputs.indexed = std::move(docs);
    round.spans = rec.TakeSpans();
    round.deployment = std::move(d);
  }
  return round;
}

// --- query_mix ---------------------------------------------------------

Round QueryMixRound(const Options& options, bool traced, int threads,
                    Report* report) {
  Round round;
  Recorder rec(traced);
  auto setup_start = Clock::now();
  const auto config = FragmentCorpus(options.seed);
  std::vector<Document> docs = GenerateCorpus(config);
  const std::vector<std::string> queries =
      QueryStream(config, options.seed, kMixQueries);
  round.setup_s = SecondsSince(setup_start);
  Oracle& oracle = TheOracle();
  if (!oracle.prepared()) oracle.Prepare(docs, queries, /*count_docs=*/false);
  setup_start = Clock::now();
  Deployment build = NewDeployment(kBuildInstances, threads, traced);
  if (!Load(build, docs, rec, report)) return round;
  if (!Index(build, static_cast<double>(TotalBytes(docs)), rec, &round,
             report, /*measured=*/false)) {
    return round;
  }
  // A fresh facade over the same cloud: a new session, so the DocCache
  // starts cold.
  Deployment d;
  d.env = std::move(build.env);
  d.warehouse = std::make_unique<wd::engine::Warehouse>(
      d.env.get(), WarehouseConfigFor(kQueryInstances, threads));
  d.warehouse->AdoptExistingData(*build.warehouse);
  build.warehouse.reset();
  round.setup_s += SecondsSince(setup_start);

  const VirtualMark mark = Mark(d);
  const auto measured_start = Clock::now();
  for (const auto& q : queries) {
    Query(d, q, &oracle.Get(q), false, rec, &round, report, traced);
  }
  round.measured_s = SecondsSince(measured_start);
  round.peak_rss_mb = PeakRssMb();
  round.ops = queries.size();
  CloseVirtual(d, mark, &round);
  if (traced) {
    round.inputs.indexed = std::move(docs);
    round.spans = rec.TakeSpans();
    round.deployment = std::move(d);
  }
  return round;
}

// --- churn -------------------------------------------------------------

/// One cycle of the churn workload's inputs.
struct ChurnCycle {
  std::vector<Document> upserts;  // live documents, regenerated
  std::vector<std::string> deletes;
  std::vector<std::string> queries;
};

struct ChurnPlan {
  std::vector<ChurnCycle> cycles;
  std::vector<Document> final_docs;  // the live corpus after every cycle
};

/// The seeded mutation schedule over `docs`: each cycle upserts and
/// deletes live documents drawn by a seeded partial shuffle; an upsert
/// keeps the URI and the section and regenerates the content.  Generated
/// in set-up, like every other input.
ChurnPlan PlanChurn(const wd::xmark::GeneratorConfig& config,
                    const std::vector<Document>& docs, uint64_t seed) {
  ChurnPlan plan;
  // The live corpus, by document index.
  std::map<int, Document> live;
  for (int i = 0; i < static_cast<int>(docs.size()); ++i) live[i] = docs[i];
  wd::Rng rng = wd::Rng::ForKey(seed, "webbench:churn");
  uint64_t version = 0;
  for (int c = 0; c < kChurnCycles; ++c) {
    ChurnCycle cycle;
    std::vector<int> alive;
    for (const auto& [index, doc] : live) alive.push_back(index);
    // Seeded partial shuffle: the first upserts+deletes are this cycle's.
    const int picks = std::min<int>(kChurnUpserts + kChurnDeletes,
                                    static_cast<int>(alive.size()));
    for (int i = 0; i < picks; ++i) {
      const size_t j = i + rng.NextBelow(alive.size() - i);
      std::swap(alive[i], alive[j]);
    }
    for (int i = 0; i < picks; ++i) {
      const int index = alive[i];
      if (i < kChurnUpserts) {
        Document doc = Regenerate(config, live[index], index, &version);
        cycle.upserts.push_back(doc);
        live[index] = std::move(doc);
      } else {
        cycle.deletes.push_back(live[index].uri);
        live.erase(index);
      }
    }
    cycle.queries = QueryStream(config, seed * 31 + c, kChurnQueries);
    plan.cycles.push_back(std::move(cycle));
  }
  for (auto& [index, doc] : live) plan.final_docs.push_back(std::move(doc));
  return plan;
}

Round ChurnRound(const Options& options, bool traced, int threads,
                 Report* report) {
  Round round;
  Recorder rec(traced);
  auto setup_start = Clock::now();
  const auto config = FragmentCorpus(options.seed);
  std::vector<Document> docs = GenerateCorpus(config);
  const ChurnPlan plan = PlanChurn(config, docs, options.seed);
  const std::vector<std::string> probes =
      QueryStream(config, options.seed + 1, kTemplateBlock);
  round.setup_s = SecondsSince(setup_start);
  // The correctness oracle, before the measured deployment exists: a
  // fresh build of the final corpus, and the no-index probe rows.
  Oracle& oracle = TheOracle();
  if (!oracle.prepared()) {
    Deployment fresh = NewDeployment(kBuildInstances, threads, false);
    Recorder fresh_rec(false);
    Round fresh_round;
    if (Load(fresh, plan.final_docs, fresh_rec, report) &&
        Index(fresh, 0, fresh_rec, &fresh_round, report, false)) {
      oracle.fingerprint =
          wd::cloud::FingerprintStore(fresh.warehouse->index_store());
    }
    oracle.Prepare(plan.final_docs, probes, /*count_docs=*/true);
  }
  setup_start = Clock::now();
  Deployment d = NewDeployment(kBuildInstances, threads, traced);
  if (!Load(d, docs, rec, report)) return round;
  if (!Index(d, static_cast<double>(TotalBytes(docs)), rec, &round, report,
             /*measured=*/false)) {
    return round;
  }
  round.setup_s += SecondsSince(setup_start);
  if (traced) round.inputs.indexed = docs;

  uint64_t mutations = 0;
  uint64_t queries_answered = 0;
  const VirtualMark mark = Mark(d);
  const auto measured_start = Clock::now();
  for (size_t c = 0; c < plan.cycles.size(); ++c) {
    const ChurnCycle& cycle = plan.cycles[c];
    double upserted_bytes = 0;
    for (const auto& doc : cycle.upserts) {
      upserted_bytes += static_cast<double>(doc.text.size());
      const wd::Status status = rec.Call("engine.mutate", [&] {
        return d.warehouse->UpsertDocument(doc.uri, doc.text);
      });
      report->Check(status.ok(), "upsert: " + status.ToString());
      if (traced) round.inputs.indexed.push_back(doc);
      ++mutations;
    }
    for (const auto& uri : cycle.deletes) {
      const wd::Status status = rec.Call("engine.mutate", [&] {
        return d.warehouse->DeleteDocument(uri);
      });
      report->Check(status.ok(), "delete: " + status.ToString());
      ++mutations;
    }
    Index(d, upserted_bytes, rec, &round, report, /*measured=*/true);
    for (const auto& q : cycle.queries) {
      Query(d, q, nullptr, false, rec, &round, report, traced);
      ++queries_answered;
    }
    if ((c + 1) % kChurnCompactEvery == 0) {
      auto compact = rec.Call("engine.compact", [&] {
        return d.warehouse->Compact(/*full=*/false);
      });
      report->Check(compact.ok(), "Compact: " + compact.status().ToString());
    }
  }
  auto compact = rec.Call("engine.compact", [&] {
    return d.warehouse->Compact(/*full=*/true);
  });
  report->Check(compact.ok(), "full Compact: " + compact.status().ToString());
  round.measured_s = SecondsSince(measured_start);
  round.peak_rss_mb = PeakRssMb();
  round.ops = mutations + queries_answered;
  CloseVirtual(d, mark, &round);

  // Correctness, outside the measured region: the compacted index must
  // equal a fresh build of the final corpus, and answer a probe block
  // (every template) with the no-index rows.
  report->Check(
      wd::cloud::FingerprintStore(d.warehouse->index_store()) ==
          oracle.fingerprint,
      "compacted index differs from a fresh build");
  Round probe_round;
  Recorder probe_rec(false);
  for (const auto& q : probes) {
    Query(d, q, &oracle.Get(q), /*check_docs=*/true, probe_rec, &probe_round,
          report, false);
  }
  if (traced) {
    round.spans = rec.TakeSpans();
    round.deployment = std::move(d);
  }
  return round;
}

}  // namespace

double NominalRoundSeconds(const std::string& workload) {
  if (workload == "bulk_index") return 3.0;
  if (workload == "query_mix") return 8.0;
  return 9.0;
}

Round RunRound(const Options& options, bool traced, int threads,
               Report* report) {
  if (options.workload == "bulk_index") {
    return BulkIndexRound(options, traced, threads, report);
  }
  if (options.workload == "query_mix") {
    return QueryMixRound(options, traced, threads, report);
  }
  return ChurnRound(options, traced, threads, report);
}

}  // namespace webbench
