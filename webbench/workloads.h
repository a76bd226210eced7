// The three workloads and the per-layer replay of a traced run.
#ifndef WEBBENCH_WORKLOADS_H_
#define WEBBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace webbench {

/// Host spans the benchmark records around every Warehouse call in a
/// traced round: name, start and end in microseconds since the round
/// began.  Kept in memory and written out when the run ends.
struct HostSpan {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

/// The program's own inputs and outputs of one round, kept so that a
/// traced run can replay them through each layer's public functions.
struct RoundInputs {
  /// Every document text the round indexed, in indexing order.
  std::vector<Document> indexed;
  /// Every query the round answered, with the rows it returned.
  std::vector<std::string> queries;
  std::vector<wd::query::QueryResult> results;
  /// QueryOutcome::chosen_path per query: the planner's access paths.
  std::vector<std::string> chosen_paths;
  /// actual_cost_usd / estimated_cost_usd per query.
  std::vector<double> cost_ratios;
};

/// What one round (set-up plus measured region) produced.
struct Round {
  double setup_s = 0;
  // Host side of the measured region.
  double measured_s = 0;
  uint64_t ops = 0;
  double index_bytes = 0;  // XML bytes passed through RunIndexers()
  double index_s = 0;      // host seconds inside RunIndexers()
  std::vector<double> query_ms;
  double query_s = 0;
  /// The process's memory high-water mark when the measured region ends,
  /// before the correctness checks that follow it.
  double peak_rss_mb = 0;
  // Virtual side of the measured region.
  double makespan_s = 0;
  double cost_usd = 0;
  std::vector<double> query_virt_ms;
  wd::cloud::Usage usage;
  wd::cloud::Bill bill;
  double virt_extract_s = 0;
  double virt_upload_s = 0;
  double virt_index_get_s = 0;
  double virt_plan_exec_s = 0;
  double virt_transfer_eval_s = 0;
  /// Registry counter deltas (service.<svc>.<op>.requests, ...).
  std::map<std::string, double> counters;
  double index_bytes_per_data_byte = 0;
  uint64_t virtual_spans = 0;
  // Traced rounds only.
  std::vector<HostSpan> spans;
  RoundInputs inputs;
  /// The deployment the round ran on, kept alive by traced rounds so the
  /// replay can look patterns up in the index it built.
  Deployment deployment;
};

/// Runs one round of `options.workload`; the round's inputs are a pure
/// function of the seed.  `traced` records host spans around
/// every Warehouse call, turns the program's virtual Tracer on and keeps
/// the round's inputs; `threads` sets the extraction pipeline's host
/// threads.  Correctness checks are added to `report`.
Round RunRound(const Options& options, bool traced, int threads,
               Report* report);

/// Seconds of --seconds one round stands for: about its measured region
/// on the 4-core host README.md names, more for bulk_index, whose rounds
/// also answer probe queries over large documents outside it.
double NominalRoundSeconds(const std::string& workload);

/// Replays `round`'s inputs through the public functions of every layer,
/// timing each call from the outside, and adds the per-layer metrics.
void ReplayLayers(const Options& options, Round* round, Report* report);

}  // namespace webbench

#endif  // WEBBENCH_WORKLOADS_H_
