#ifndef WEBDEX_ENGINE_EXTRACTION_PIPELINE_H_
#define WEBDEX_ENGINE_EXTRACTION_PIPELINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <future>
#include <string>
#include <vector>

#include "cloud/kv_store.h"
#include "cloud/object_store.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/strategy.h"
#include "xml/dom.h"

namespace webdex::engine {

/// Everything the pure-CPU half of one indexing task produces: the parsed
/// document, the extracted index items, and the work counters the
/// simulation charges virtual time for.  Deterministic per (seed, uri,
/// generation): UUID range keys come from an Rng stream seeded by the
/// document URI (suffixed "@<generation>" for upsert re-extractions), so
/// the same document always extracts to byte-identical items, regardless
/// of which host thread, simulated instance, or delivery attempt runs it.
struct ExtractionResult {
  Status status = Status::OK();  // parse / extract outcome
  std::shared_ptr<const xml::Document> doc;
  index::ExtractStats stats;
  std::vector<index::TableItems> items;
  /// The document's handle-keyed DocIndex — the warehouse feeds it to the
  /// planner's index::PathSummary once the task commits (deduplicated by
  /// URI across redeliveries).  Handles resolve against the global
  /// InternCore, so the result is shareable across host threads.
  index::DocIndex doc_index;
};

/// Speculative host-parallel execution of the fetch-parse-extract phase of
/// indexing tasks (paper Figure 1, steps 4-5; "extraction time" in
/// Table 4).
///
/// The discrete-event scheduler serializes *virtual* execution on the
/// host, so at scale the wall-clock of an indexing run is dominated by
/// real `xml::ParseDocument` + `ExtractItems` CPU.  That work is pure and
/// embarrassingly parallel per document, so the pipeline runs it ahead of
/// time on a ThreadPool while the event loop replays queue deliveries,
/// billing, lease renewals and fault injection exactly as before; when
/// the loop reaches a task it collects the memoized result instead of
/// recomputing it.  Virtual time is charged by the *event loop* from the
/// result's counters, so makespans, costs, and reports are bit-identical
/// to the serial path (see docs/PARALLELISM.md).
///
/// Each result is handed over once: Take moves it out of the memo, so the
/// event loop can move its items into the index store without copying
/// them.  An at-least-once redelivery of the same task finds no memo entry
/// and re-extracts inline (ExtractNow), which yields byte-identical items
/// thanks to the deterministic per-(uri, generation) Rng streams.
class ExtractionPipeline {
 public:
  /// `pool` must outlive the pipeline.  `strategy`, `store` and `s3` are
  /// read from pooled threads: `s3`'s data bucket must not be mutated
  /// while the pipeline is live, and `store` is only consulted through
  /// its immutable StoreLimits record.
  ExtractionPipeline(common::ThreadPool* pool,
                     const index::IndexingStrategy* strategy,
                     const index::ExtractOptions& options,
                     const cloud::KvStore* store,
                     const cloud::ObjectStore* s3, std::string bucket,
                     uint64_t base_seed);

  /// Waits for scheduled extractions that were never taken: they read
  /// this pipeline's members from the pool's threads.
  ~ExtractionPipeline();

  ExtractionPipeline(const ExtractionPipeline&) = delete;
  ExtractionPipeline& operator=(const ExtractionPipeline&) = delete;

  /// Schedules the speculative extraction of `uri` at `generation` unless
  /// one is already scheduled.  Called once per pending loader-queue
  /// message before the event loop starts.  Upsert tasks of the same URI
  /// at different generations memoize independently — their UUID streams
  /// (and possibly their S3 bodies) differ.
  void Prefetch(const std::string& uri, uint64_t generation = 0);

  /// Blocks until the speculative task for (`uri`, `generation`)
  /// completes and hands its result over, erasing the memo entry; nullptr
  /// if it was never prefetched or was already taken (the caller then
  /// extracts inline via ExtractNow).
  std::unique_ptr<ExtractionResult> Take(const std::string& uri,
                                         uint64_t generation = 0);

  /// The serial path: runs the identical parse + extract on the calling
  /// thread.  Shared by the pipeline's pooled tasks and the legacy
  /// host_threads == 1 configuration, so both produce identical results.
  static ExtractionResult ExtractNow(const std::string& uri,
                                     const std::string& xml_text,
                                     const index::IndexingStrategy& strategy,
                                     const index::ExtractOptions& options,
                                     const cloud::KvStore& store,
                                     uint64_t base_seed);

 private:
  common::ThreadPool* pool_;
  const index::IndexingStrategy* strategy_;
  index::ExtractOptions options_;
  const cloud::KvStore* store_;
  const cloud::ObjectStore* s3_;
  std::string bucket_;
  uint64_t base_seed_;

  std::mutex mu_;
  std::map<std::string, std::future<std::unique_ptr<ExtractionResult>>>
      tasks_;
};

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_EXTRACTION_PIPELINE_H_
