#ifndef WEBDEX_ENGINE_MAINTENANCE_H_
#define WEBDEX_ENGINE_MAINTENANCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cloud/cloud_env.h"
#include "cloud/kv_store.h"
#include "common/result.h"
#include "engine/extraction_pipeline.h"
#include "index/generation.h"
#include "index/strategy.h"

namespace webdex::engine {

/// What a maintenance pass does (docs/FAULTS.md, docs/MUTABILITY.md).
enum class MaintenanceMode {
  kAudit,   // scrub: report missing, half-written and orphaned postings
  kRepair,  // scrub: re-put damaged URIs, delete orphaned/stale postings
  kGc,      // compaction: drop superseded generations, collect tombstones
  kFull,    // compaction: kGc plus canonical generation-0 rewrites
};

/// What one maintenance pass found and did.
struct MaintenanceReport {
  MaintenanceMode mode = MaintenanceMode::kAudit;
  /// Scrub: documents in the bucket.  Compaction: mutated URIs (any
  /// generation > 0 or tombstone in the meta table) past the cursor.
  uint64_t documents_checked = 0;
  uint64_t items_scanned = 0;
  uint64_t items_put = 0;
  uint64_t items_deleted = 0;

  // Scrub findings, per document URI.
  /// In the bucket, no postings indexed (e.g. a dead-lettered task).
  std::vector<std::string> missing_uris;
  /// In the bucket, postings disagree with a fresh re-extraction (e.g.
  /// the half-written index of a mid-BatchPut crash).
  std::vector<std::string> partial_uris;
  /// Postings whose document no longer exists in the bucket.
  std::vector<std::string> orphaned_uris;
  uint64_t repaired_uris = 0;  // kRepair outcome

  // Compaction outcome.
  /// Alive upserted URIs rewritten to canonical generation-0 postings.
  std::vector<std::string> canonicalized_uris;
  /// Tombstoned URIs whose postings, object and meta items were deleted.
  std::vector<std::string> collected_uris;
  /// Last URI whose work fully completed before the pass was cut short;
  /// feed it back as `start_cursor` to resume.
  std::string resume_cursor;
  /// Cut short by the crash hook (CrashPoint kMidCompaction), at the URI
  /// boundary after `resume_cursor`.
  bool crashed = false;
  /// Cut short by a transient service error that outlived the store's
  /// own retries (`fault`), possibly *mid*-URI — every per-URI step is
  /// idempotent (replacement puts, absent-OK deletes, meta rows last),
  /// so resuming from `resume_cursor` redoes the in-flight URI safely.
  bool faulted = false;
  Status fault = Status::OK();

  bool Clean() const {
    return missing_uris.empty() && partial_uris.empty() &&
           orphaned_uris.empty();
  }

  /// Folds a later sub-pass of the same job in: counts and URI lists
  /// accumulate, crash/fault/cursor are the later pass's.
  void Merge(MaintenanceReport&& later);

  /// The scrub rendering for kAudit/kRepair, the compaction one otherwise.
  std::string ToString() const;
};

/// The one billed maintenance walker over a strategy's index tables.
///
/// Scrub modes repair *damage*: every document in the bucket is
/// re-extracted and compared with the postings it owns; a repair re-puts
/// the extraction — deterministic per-URI UUID range keys make the re-put
/// converge byte-identically to the fault-free index (docs/PARALLELISM.md)
/// — and deletes stale and orphaned postings.
///
/// Compaction modes retire *history*: they fold stamped upsert postings,
/// tombstones and superseded generations back into the canonical static
/// layout the paper's cost model prices.  A tombstoned URI loses every
/// posting, its S3 object and its meta items; a full pass re-extracts each
/// alive upserted URI at generation 0 — the UUID stream a from-scratch
/// build uses — so the compacted index is byte-identical to a fresh build
/// of the final corpus.  Compaction holds only the key and stamp of
/// postings owned by mutated URIs, never the static corpus's attributes.
/// Per URI the meta items are deleted *last* and the crash hook fires only
/// at URI boundaries, so a killed pass resumes from its cursor and
/// converges.
///
/// Every read and write is *billed* (KvStore::Scan, S3 Get, BatchPut,
/// DeleteItem): maintenance is a priced job, not free host-side tooling.
class Maintenance {
 public:
  /// `store` is the index store to walk (typically the warehouse's
  /// retrying decorator, so maintenance gets retries and breaker gating).
  Maintenance(cloud::CloudEnv* env, cloud::KvStore* store,
              const index::IndexingStrategy* strategy,
              const index::ExtractOptions& options, std::string data_bucket);

  /// One pass in `mode` on `agent`'s virtual clock.
  ///
  /// Scrub modes audit each document at its live generation in `view`
  /// (null = all-static): superseded postings are pending history, not
  /// damage, and tombstoned URIs are skipped entirely — never resurrected,
  /// never flagged.  Any error fails the pass.
  ///
  /// Compaction modes read generations from the billed meta table and
  /// skip URIs <= `start_cursor`.  `should_crash` (may be null) is asked
  /// before each URI's work; true ends the pass `crashed`.  A transient
  /// error that survives the store's retries ends it `faulted`; only
  /// non-retriable errors fail the call.
  Result<MaintenanceReport> Run(
      cloud::SimAgent& agent, MaintenanceMode mode,
      const index::GenerationMap* view = nullptr,
      const std::string& start_cursor = "",
      const std::function<bool(const std::string&)>& should_crash = nullptr);

 private:
  /// Billed S3 re-fetch of `uri`, extracted at `generation`.
  Result<ExtractionResult> Reextract(cloud::SimAgent& agent,
                                     const std::string& uri,
                                     uint64_t generation);
  Status Scrub(cloud::SimAgent& agent, const index::GenerationMap* view,
               MaintenanceReport* report);
  Status Compact(cloud::SimAgent& agent, const std::string& start_cursor,
                 const std::function<bool(const std::string&)>& should_crash,
                 MaintenanceReport* report);

  cloud::CloudEnv* env_;
  cloud::KvStore* store_;
  const index::IndexingStrategy* strategy_;
  index::ExtractOptions options_;
  std::string data_bucket_;
};

}  // namespace webdex::engine

#endif  // WEBDEX_ENGINE_MAINTENANCE_H_
