// webdex_bench: runs one workload of the webdex benchmark and prints its
// metrics as one JSON object on the last line of standard output.
//
//   webdex_bench --workload bulk_index|query_mix|churn --seed N
//                --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 runs untraced rounds (set-up plus measured region each), as
// many as measure about S seconds, and reports the end-to-end metrics.
// Their extraction pipeline runs on four host threads, or on as many as
// the host has cores if it has fewer.
// --trace 1 runs one untraced and one traced round, both with one host
// thread, replays the traced round's inputs through every layer and
// reports the per-layer metrics and the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "workloads.h"

// --- Allocation counting -------------------------------------------------
// Counted per thread, so the counter costs no cross-core traffic in the
// host-parallel extraction pipeline; the layer replays read the main
// thread's count.
namespace {
thread_local uint64_t thread_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++thread_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++thread_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++thread_allocs;
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size ? size : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace webbench {

uint64_t ThreadAllocs() { return thread_allocs; }

namespace {

// Every round does the same work.  A run makes a fixed number of rounds,
// enough for about --seconds of measured time on a 4-core host, at least
// kMinRounds so that setup_s is a median.  The count depends on nothing
// measured, so every run of a seed does the same work in the same order.
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 12;

int RoundsFor(const Options& options) {
  const double rounds =
      std::ceil(options.seconds / NominalRoundSeconds(options.workload));
  return static_cast<int>(std::clamp<double>(rounds, kMinRounds, kMaxRounds));
}

bool SameVirtual(const Round& a, const Round& b) {
  return a.makespan_s == b.makespan_s && a.cost_usd == b.cost_usd &&
         a.query_virt_ms == b.query_virt_ms;
}

double Rate(double amount, double seconds) {
  return seconds > 0 ? amount / seconds : 0;
}

/// End-to-end metrics over `rounds`: each host metric is the median of
/// the rounds' own values, so one round slowed by the machine moves it
/// little.
void EndToEnd(const std::vector<Round>& rounds, Report* report) {
  std::vector<double> setup, index_rate, query_rate, ops_rate, p50, p99;
  size_t queries = 0;
  for (const Round& round : rounds) {
    setup.push_back(round.setup_s);
    index_rate.push_back(Rate(round.index_bytes / 1e6, round.index_s));
    query_rate.push_back(
        Rate(static_cast<double>(round.query_ms.size()), round.query_s));
    ops_rate.push_back(Rate(static_cast<double>(round.ops), round.measured_s));
    p50.push_back(Quantile(round.query_ms, 0.5));
    p99.push_back(Quantile(round.query_ms, 0.99));
    queries += round.query_ms.size();
  }
  // Virtual numbers are equal in every round (checked by the caller).
  const Round& first = rounds.front();
  report->Set("setup_s", Median(setup), "s");
  // The first round's: later rounds run on a heap the earlier ones left
  // fragmented, and would add that to the program's own figure.
  report->Set("peak_rss_mb", first.peak_rss_mb, "MB");
  report->Set("index_mb_per_s", Median(index_rate), "MB/s");
  report->Set("query_per_s", Median(query_rate), "1/s");
  report->Set("query_ms_p50", Median(p50), "ms");
  report->Set("query_ms_p99", Median(p99), "ms");
  report->Set("ops_per_s", Median(ops_rate), "1/s");
  report->Set("makespan_s", first.makespan_s, "s");
  report->Set("cost_usd", first.cost_usd, "usd");
  report->Set("query_virt_ms_p50", Quantile(first.query_virt_ms, 0.5), "ms");
  report->Set("query_virt_ms_p99", Quantile(first.query_virt_ms, 0.99), "ms");
  report->Set("queries", static_cast<double>(queries), "count");
  report->Set("rounds", static_cast<double>(rounds.size()), "count");
}

void WriteSpans(const std::string& path, const std::vector<HostSpan>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%lld,"
                 "\"end_us\":%lld}\n",
                 i + 1, spans[i].name.c_str(),
                 static_cast<long long>(spans[i].start_us),
                 static_cast<long long>(spans[i].end_us));
  }
  std::fclose(out);
}

void PrintJson(const Report& report) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk_index|query_mix|churn --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace webbench

int main(int argc, char** argv) {
  using namespace webbench;
  Options options;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 ||
      (options.workload != "bulk_index" && options.workload != "query_mix" &&
       options.workload != "churn")) {
    return Usage(argv[0]);
  }

  options.threads = static_cast<int>(std::clamp<unsigned>(
      std::thread::hardware_concurrency(), 1, 4));

  Report report;
  if (!options.trace) {
    std::vector<Round> rounds;
    for (int r = RoundsFor(options); r > 0; --r) {
      rounds.push_back(RunRound(options, false, options.threads, &report));
      std::fprintf(stderr, "round %zu: setup %.3f s, measured %.3f s\n",
                   rounds.size(), rounds.back().setup_s,
                   rounds.back().measured_s);
      if (rounds.size() > 1) {
        // Virtual numbers are a pure function of the inputs.
        report.Check(SameVirtual(rounds.back(), rounds.front()),
                     "virtual metrics differ between repeats of one round");
      }
    }
    EndToEnd(rounds, &report);
    report.Set("threads", options.threads, "count");
  } else {
    // Serial rounds, so the engine spans and the layer times that the
    // replay measures are directly comparable.
    std::vector<Round> untraced;
    untraced.push_back(RunRound(options, false, 1, &report));
    std::vector<Round> traced;
    traced.push_back(RunRound(options, true, 1, &report));
    report.Check(SameVirtual(untraced[0], traced[0]),
                 "tracing changed a virtual metric");
    Report untraced_e2e, traced_e2e;
    EndToEnd(untraced, &untraced_e2e);
    EndToEnd(traced, &traced_e2e);
    for (const char* name : {"setup_s", "ops_per_s", "index_mb_per_s",
                             "query_ms_p50", "query_per_s"}) {
      const double base = untraced_e2e.metrics[name].value;
      const double with = traced_e2e.metrics[name].value;
      report.Set(std::string("trace.overhead.") + name,
                 base != 0 ? (with - base) / base * 100 : 0, "%");
    }
    report.Set("trace.measured_s", traced[0].measured_s, "s");
    report.Set("trace.untraced_measured_s", untraced[0].measured_s, "s");
    report.Set("trace.host_spans", static_cast<double>(traced[0].spans.size()),
               "count");
    report.Set("peak_rss_mb", untraced[0].peak_rss_mb, "MB");
    // The serial rounds' virtual numbers, for comparison with an untraced
    // run's at four host threads: they must be identical.
    for (const char* name : {"makespan_s", "cost_usd", "query_virt_ms_p50",
                             "query_virt_ms_p99"}) {
      report.metrics[name] = untraced_e2e.metrics[name];
    }
    untraced.clear();
    ReplayLayers(options, &traced[0], &report);
    if (!spans_path.empty()) WriteSpans(spans_path, traced[0].spans);
  }
  report.Set("success_rate",
             report.attempted == 0
                 ? 0
                 : 1.0 - static_cast<double>(report.failed) / report.attempted,
             "ratio");
  report.Set("error_rate",
             report.attempted == 0
                 ? 1
                 : static_cast<double>(report.failed) / report.attempted,
             "ratio");

  for (const auto& reason : report.failures) {
    std::fprintf(stderr, "FAILED: %s\n", reason.c_str());
  }
  for (const auto& [name, metric] : report.metrics) {
    std::fprintf(stderr, "%-40s %16.6f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  PrintJson(report);
  return 0;
}
