// Shared pieces of the webdex benchmark: options, the metric report, the
// seeded inputs (corpora and query streams), statistics and host clocks.
// The benchmark drives only the program's public APIs; nothing here
// reaches into src/ internals.
#ifndef WEBBENCH_BENCH_H_
#define WEBBENCH_BENCH_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "engine/warehouse.h"
#include "query/evaluator.h"
#include "xmark/xmark_generator.h"
#include "xml/dom.h"

namespace webbench {

namespace wd = webdex;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The process's resident-set high-water mark so far, in MB.
inline double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Heap allocations made so far by the calling thread (main.cc replaces
/// the global operator new).  The layer replays run on one thread, so a
/// before/after difference counts exactly the allocations of the call.
uint64_t ThreadAllocs();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Host threads of the extraction pipeline in the untraced rounds:
  /// four, never more than the host's cores.
  int threads = 4;
};

/// Every number a run produces, by name, with its unit.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable reasons for each failed check, printed to stderr.
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one checked operation; a false `ok` is a failure.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 if empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// --- Seeded inputs -----------------------------------------------------

/// bulk_index corpus: 60 unsplit XMark documents of 600 entities each.
wd::xmark::GeneratorConfig BulkCorpus(uint64_t seed);
/// query_mix and churn corpus: 240 split-section fragments of 40
/// entities each.
wd::xmark::GeneratorConfig FragmentCorpus(uint64_t seed);

struct Document {
  std::string uri;
  std::string text;
};
std::vector<Document> GenerateCorpus(const wd::xmark::GeneratorConfig& config);
uint64_t TotalBytes(const std::vector<Document>& docs);
/// A new version of fragment `doc` of the `config` corpus under the same
/// URI: content generated for document `index` by generators seeded from
/// successive values of `*version`, the first that holds the same XMark
/// section as `doc`, so that upserts keep the corpus' section shares.
Document Regenerate(const wd::xmark::GeneratorConfig& config,
                    const Document& doc, int index, uint64_t* version);

/// Queries per block of a query stream: the ten templates plus a second
/// point query.
constexpr size_t kTemplateBlock = 11;

/// `count` queries from the ten workload templates, in blocks of
/// kTemplateBlock that hold every template (so `count` = kTemplateBlock
/// is every template, q1 twice), with constants
/// (ids, words, cities, countries) drawn from the corpus' id space and
/// the generator's vocabulary.  A pure function of its arguments.
std::vector<std::string> QueryStream(const wd::xmark::GeneratorConfig& corpus,
                                     uint64_t seed, size_t count);

// --- Ground truth --------------------------------------------------------

/// The corpus parsed once, for no-index evaluation.
struct ParsedCorpus {
  std::vector<wd::xml::Document> docs;
  std::vector<const wd::xml::Document*> ptrs;
};
ParsedCorpus ParseCorpus(const std::vector<Document>& docs);

/// Rows of `query_text` evaluated by the Evaluator over every document,
/// with no index involved.
struct Truth {
  wd::query::QueryResult result;
  /// Sum over the query's patterns of the documents holding a match: the
  /// least `docs_from_index` an exact-or-superset index may return.
  uint64_t matching_docs = 0;
};
/// `count_docs` also counts the matching documents (a second pass).
Truth GroundTruth(const std::string& query_text, const ParsedCorpus& corpus,
                  bool count_docs);

// --- Warehouses ------------------------------------------------------------

/// A private simulated cloud plus the warehouse over it.
struct Deployment {
  std::unique_ptr<wd::cloud::CloudEnv> env;
  std::unique_ptr<wd::engine::Warehouse> warehouse;
};

/// 2LUPI on DynamoDB, default architecture, fault-free, planner on.
wd::engine::WarehouseConfig WarehouseConfigFor(int instances, int threads);

}  // namespace webbench

#endif  // WEBBENCH_BENCH_H_
