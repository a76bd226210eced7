#include "engine/maintenance.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/strings.h"

namespace webdex::engine {
namespace {

bool IsCompaction(MaintenanceMode mode) {
  return mode == MaintenanceMode::kGc || mode == MaintenanceMode::kFull;
}

/// Items are unique per (table, hash, range): range keys are UUIDs drawn
/// from the per-URI stream, so one key identifies one posting.
struct ItemKey {
  std::string table;
  std::string hash;
  std::string range;

  auto operator<=>(const ItemKey&) const = default;
};

/// One stored posting: its generation stamp, plus its attributes when the
/// pass compares payloads (scrub modes only).
struct Posting {
  uint64_t stamp = 0;
  cloud::Attributes attrs;

  bool operator==(const Posting&) const = default;
};

using Postings = std::map<ItemKey, Posting>;

/// The document URI a stored posting belongs to.  Layout contract
/// (index/strategy.cc BuildEntryItems): every posting carries exactly one
/// attribute beyond the reserved generation stamp, and its *name* is the
/// source document's URI ('~' cannot begin a URI, index/generation.h).
/// Null for a posting that violates the layout.
const std::string* OwnerUri(const cloud::Item& item) {
  const std::string* owner = nullptr;
  for (const auto& [name, values] : item.attrs) {
    (void)values;
    if (name == index::kGenAttr) continue;
    if (owner != nullptr) return nullptr;
    owner = &name;
  }
  return owner;
}

/// Billed walk of every index table, grouping postings by owning URI.
/// `keep` selects the owners held (null = layout violator, held under the
/// empty URI); attributes are held only `with_attrs`.
Result<std::map<std::string, Postings>> ScanPostings(
    cloud::SimAgent& agent, cloud::KvStore& store,
    const index::IndexingStrategy& strategy, bool with_attrs,
    const std::function<bool(const std::string*)>& keep,
    MaintenanceReport* report) {
  std::map<std::string, Postings> by_owner;
  for (const auto& table : strategy.TableNames()) {
    WEBDEX_ASSIGN_OR_RETURN(std::vector<cloud::Item> items,
                            store.Scan(agent, table));
    report->items_scanned += items.size();
    for (auto& item : items) {
      const std::string* owner = OwnerUri(item);
      if (!keep(owner)) continue;
      Posting& posting =
          by_owner[owner != nullptr ? *owner : std::string()]
                  [ItemKey{table, item.hash_key, item.range_key}];
      posting.stamp = index::StampOf(item.attrs);
      if (with_attrs) posting.attrs = std::move(item.attrs);
    }
  }
  return by_owner;
}

/// Deletes every posting `keep` rejects.
Status DeletePostings(cloud::SimAgent& agent, cloud::KvStore& store,
                      const Postings& postings,
                      const std::function<bool(const ItemKey&,
                                               const Posting&)>& keep,
                      MaintenanceReport* report) {
  for (const auto& [key, posting] : postings) {
    if (keep && keep(key, posting)) continue;
    WEBDEX_RETURN_IF_ERROR(
        store.DeleteItem(agent, key.table, key.hash, key.range));
    report->items_deleted += 1;
  }
  return Status::OK();
}

/// Idempotent rewrite of one URI: re-puts `tables` in order (stored items
/// are replaced byte-identically thanks to the deterministic per-URI UUID
/// streams), then deletes the `stored` postings the re-put did not write.
/// The items move into the store.
Status Reput(cloud::SimAgent& agent, cloud::KvStore& store,
             std::vector<index::TableItems> tables, const Postings& stored,
             MaintenanceReport* report) {
  std::set<ItemKey> written;
  for (auto& table_items : tables) {
    for (const auto& item : table_items.items) {
      written.insert(ItemKey{table_items.table, item.hash_key, item.range_key});
    }
    const size_t count = table_items.items.size();
    WEBDEX_RETURN_IF_ERROR(store.BatchPut(agent, table_items.table,
                                          std::move(table_items.items)));
    report->items_put += count;
  }
  return DeletePostings(
      agent, store, stored,
      [&written](const ItemKey& key, const Posting&) {
        return written.count(key) > 0;
      },
      report);
}

/// One mutated URI's stored state, gathered from the billed scans.
struct MutatedDoc {
  index::GenerationInfo info;
  /// Meta-table rows for the URI (range keys, sorted = generation order).
  std::vector<std::string> meta_ranges;
};

}  // namespace

void MaintenanceReport::Merge(MaintenanceReport&& later) {
  documents_checked += later.documents_checked;
  items_scanned += later.items_scanned;
  items_put += later.items_put;
  items_deleted += later.items_deleted;
  repaired_uris += later.repaired_uris;
  const auto append = [](std::vector<std::string>& to,
                          std::vector<std::string>& from) {
    for (auto& uri : from) to.push_back(std::move(uri));
  };
  append(missing_uris, later.missing_uris);
  append(partial_uris, later.partial_uris);
  append(orphaned_uris, later.orphaned_uris);
  append(canonicalized_uris, later.canonicalized_uris);
  append(collected_uris, later.collected_uris);
  crashed = later.crashed;
  faulted = later.faulted;
  fault = std::move(later.fault);
  resume_cursor = std::move(later.resume_cursor);
}

std::string MaintenanceReport::ToString() const {
  std::string out;
  if (!IsCompaction(mode)) {
    out = StrFormat(
        "scrub: %llu documents, %llu postings scanned\n"
        "  missing: %zu   partial: %zu   orphaned: %zu\n",
        static_cast<unsigned long long>(documents_checked),
        static_cast<unsigned long long>(items_scanned), missing_uris.size(),
        partial_uris.size(), orphaned_uris.size());
    for (const auto& uri : missing_uris) out += "  missing  " + uri + "\n";
    for (const auto& uri : partial_uris) out += "  partial  " + uri + "\n";
    for (const auto& uri : orphaned_uris) out += "  orphaned " + uri + "\n";
    if (repaired_uris > 0 || items_put > 0 || items_deleted > 0) {
      out += StrFormat(
          "  repaired %llu URIs (%llu items put, %llu deleted)\n",
          static_cast<unsigned long long>(repaired_uris),
          static_cast<unsigned long long>(items_put),
          static_cast<unsigned long long>(items_deleted));
    } else if (Clean()) {
      out += "  index is clean\n";
    }
    return out;
  }
  out = StrFormat(
      "compact: %llu mutated documents, %llu postings scanned\n"
      "  canonicalized: %zu   collected: %zu   (%llu items put, %llu "
      "deleted)\n",
      static_cast<unsigned long long>(documents_checked),
      static_cast<unsigned long long>(items_scanned),
      canonicalized_uris.size(), collected_uris.size(),
      static_cast<unsigned long long>(items_put),
      static_cast<unsigned long long>(items_deleted));
  for (const auto& uri : canonicalized_uris) {
    out += "  canonical " + uri + "\n";
  }
  for (const auto& uri : collected_uris) out += "  collected " + uri + "\n";
  if (crashed) {
    out += "  crashed mid-pass; resume cursor '" + resume_cursor + "'\n";
  }
  if (faulted) {
    out += "  faulted mid-pass (" + fault.ToString() + "); resume cursor '" +
           resume_cursor + "'\n";
  }
  return out;
}

Maintenance::Maintenance(cloud::CloudEnv* env, cloud::KvStore* store,
                         const index::IndexingStrategy* strategy,
                         const index::ExtractOptions& options,
                         std::string data_bucket)
    : env_(env),
      store_(store),
      strategy_(strategy),
      options_(options),
      data_bucket_(std::move(data_bucket)) {}

Result<MaintenanceReport> Maintenance::Run(
    cloud::SimAgent& agent, MaintenanceMode mode,
    const index::GenerationMap* view, const std::string& start_cursor,
    const std::function<bool(const std::string&)>& should_crash) {
  MaintenanceReport report;
  report.mode = mode;
  cloud::Usage& usage = env_->meter().mutable_usage();
  if (!IsCompaction(mode)) {
    WEBDEX_RETURN_IF_ERROR(Scrub(agent, view, &report));
    usage.scrub_repaired += report.repaired_uris;
    return report;
  }
  WEBDEX_RETURN_IF_ERROR(Compact(agent, start_cursor, should_crash, &report));
  usage.compact_gc_items += report.items_deleted;
  usage.compact_uris +=
      report.canonicalized_uris.size() + report.collected_uris.size();
  return report;
}

Result<ExtractionResult> Maintenance::Reextract(cloud::SimAgent& agent,
                                                const std::string& uri,
                                                uint64_t generation) {
  WEBDEX_ASSIGN_OR_RETURN(std::string text,
                          env_->s3().Get(agent, data_bucket_, uri));
  index::ExtractOptions options = options_;
  options.generation = generation;
  return ExtractionPipeline::ExtractNow(uri, text, *strategy_, options,
                                        *store_, env_->config().seed);
}

Status Maintenance::Scrub(cloud::SimAgent& agent,
                          const index::GenerationMap* view,
                          MaintenanceReport* report) {
  const bool repair = report->mode == MaintenanceMode::kRepair;
  // Every posting with its payload, layout violators included: those
  // belong to no document and surface as orphaned garbage under "".
  WEBDEX_ASSIGN_OR_RETURN(
      auto stored_by_uri,
      ScanPostings(
          agent, *store_, *strategy_, /*with_attrs=*/true,
          [](const std::string*) { return true; }, report));

  // Re-extract every document in the bucket (billed fetches) and compare
  // with what the index actually holds.
  WEBDEX_ASSIGN_OR_RETURN(std::vector<std::string> uris,
                          env_->s3().List(agent, data_bucket_, ""));
  std::set<std::string> documents(uris.begin(), uris.end());
  for (const auto& uri : uris) {
    report->documents_checked += 1;
    const index::GenerationInfo* info =
        view != nullptr ? view->Find(uri) : nullptr;
    // A tombstoned document must never be repaired back into the index —
    // its object always lingers until compaction reclaims it; both
    // belong to compaction.
    if (info != nullptr && info->tombstoned) continue;
    const uint64_t live_gen = info != nullptr ? info->generation : 0;
    // Audit the document at its live generation: the re-extraction draws
    // the generation's own UUID stream, so expected and committed items
    // agree byte for byte.  Unparseable (poison) documents extract no
    // items and so expect no postings at all.
    WEBDEX_ASSIGN_OR_RETURN(ExtractionResult extraction,
                            Reextract(agent, uri, live_gen));
    Postings expected;
    for (const auto& table_items : extraction.items) {
      for (const auto& item : table_items.items) {
        expected[ItemKey{table_items.table, item.hash_key, item.range_key}] =
            Posting{index::StampOf(item.attrs), item.attrs};
      }
    }
    // Only postings stamped at the live generation are compared:
    // superseded generations are pending history for compaction, not
    // damage.
    Postings stored;
    auto stored_it = stored_by_uri.find(uri);
    if (stored_it != stored_by_uri.end()) {
      for (const auto& [key, posting] : stored_it->second) {
        if (posting.stamp == live_gen) stored[key] = posting;
      }
    }
    if (stored == expected) continue;
    if (stored.empty()) {
      report->missing_uris.push_back(uri);
    } else {
      report->partial_uris.push_back(uri);
    }
    if (!repair) continue;
    // Repairs put table by table in name order, skipping empty tables:
    // the billed call order is part of the canonical trace.
    std::vector<index::TableItems> tables;
    for (auto& table_items : extraction.items) {
      if (!table_items.items.empty()) tables.push_back(std::move(table_items));
    }
    std::sort(tables.begin(), tables.end(),
              [](const index::TableItems& a, const index::TableItems& b) {
                return a.table < b.table;
              });
    WEBDEX_RETURN_IF_ERROR(
        Reput(agent, *store_, std::move(tables), stored, report));
    report->repaired_uris += 1;
  }

  // Postings whose document is gone from the bucket.  Tombstoned
  // documents are expected to be gone — their postings await collection
  // by compaction, so a scrub neither flags nor deletes them.
  for (const auto& [uri, postings] : stored_by_uri) {
    if (documents.count(uri) > 0) continue;
    const index::GenerationInfo* info =
        view != nullptr ? view->Find(uri) : nullptr;
    if (info != nullptr && info->tombstoned) continue;
    report->orphaned_uris.push_back(uri);
    if (!repair) continue;
    WEBDEX_RETURN_IF_ERROR(
        DeletePostings(agent, *store_, postings, nullptr, report));
    report->repaired_uris += 1;
  }
  return Status::OK();
}

Status Maintenance::Compact(
    cloud::SimAgent& agent, const std::string& start_cursor,
    const std::function<bool(const std::string&)>& should_crash,
    MaintenanceReport* report) {
  const bool full = report->mode == MaintenanceMode::kFull;
  // Billed walk of the meta table: every row is one mutation layer, the
  // highest generation per URI wins (max-wins fold, same as readers).
  std::map<std::string, MutatedDoc> mutated;
  {
    WEBDEX_ASSIGN_OR_RETURN(std::vector<cloud::Item> rows,
                            store_->Scan(agent, index::kMetaTable));
    index::GenerationMap folded;
    for (const auto& row : rows) {
      index::ApplyMetaItem(row, &folded);
      mutated[row.hash_key].meta_ranges.push_back(row.range_key);
    }
    for (auto& [uri, doc] : mutated) {
      const index::GenerationInfo* info = folded.Find(uri);
      if (info != nullptr) doc.info = *info;
    }
  }
  if (mutated.empty()) return Status::OK();  // nothing mutable to fold

  // Keys and stamps of the postings owned by a mutated URI — untouched
  // static documents are never rewritten, and layout violators are
  // scrub territory, not history.
  WEBDEX_ASSIGN_OR_RETURN(
      auto postings_by_uri,
      ScanPostings(
          agent, *store_, *strategy_, /*with_attrs=*/false,
          [&mutated](const std::string* owner) {
            return owner != nullptr && mutated.count(*owner) > 0;
          },
          report));

  // Per-URI fold, in sorted URI order so the resume cursor is a total
  // order over the work.  Crashes only fire at URI boundaries; per URI
  // the meta rows are deleted last, so re-doing a URI after a crash is
  // idempotent.
  const auto fold_uri = [&](const std::string& uri,
                            const MutatedDoc& doc) -> Status {
    const Postings& postings = postings_by_uri[uri];
    // Meta rows go last; a GC pass keeps the live generation's row.
    const auto delete_meta = [&](const std::string* keep_range) -> Status {
      for (const auto& range : doc.meta_ranges) {
        if (keep_range != nullptr && range == *keep_range) continue;
        WEBDEX_RETURN_IF_ERROR(
            store_->DeleteItem(agent, index::kMetaTable, uri, range));
        report->items_deleted += 1;
      }
      return Status::OK();
    };
    if (doc.info.tombstoned) {
      // Dead document: unlink postings, the stored object, then the
      // tombstone itself.
      WEBDEX_RETURN_IF_ERROR(
          DeletePostings(agent, *store_, postings, nullptr, report));
      WEBDEX_RETURN_IF_ERROR(env_->s3().Delete(agent, data_bucket_, uri));
      WEBDEX_RETURN_IF_ERROR(delete_meta(nullptr));
      report->collected_uris.push_back(uri);
    } else if (full) {
      // Alive upserted document: rewrite to the canonical generation-0
      // postings a from-scratch build of the current corpus would
      // produce (generation 0 draws the original per-URI UUID stream),
      // then drop everything else and the meta rows.
      WEBDEX_ASSIGN_OR_RETURN(ExtractionResult extraction,
                              Reextract(agent, uri, /*generation=*/0));
      WEBDEX_RETURN_IF_ERROR(extraction.status);
      WEBDEX_RETURN_IF_ERROR(
          Reput(agent, *store_, std::move(extraction.items), postings, report));
      WEBDEX_RETURN_IF_ERROR(delete_meta(nullptr));
      report->canonicalized_uris.push_back(uri);
    } else {
      // GC-only pass: drop postings of superseded generations and meta
      // rows below the live one; the live generation stays stamped.
      WEBDEX_RETURN_IF_ERROR(DeletePostings(
          agent, *store_, postings,
          [&doc](const ItemKey&, const Posting& posting) {
            return posting.stamp == doc.info.generation;
          },
          report));
      const std::string live = index::GenerationRangeKey(doc.info.generation);
      WEBDEX_RETURN_IF_ERROR(delete_meta(&live));
    }
    return Status::OK();
  };

  std::string completed = start_cursor;
  for (const auto& [uri, doc] : mutated) {
    if (!start_cursor.empty() && uri <= start_cursor) continue;
    report->documents_checked += 1;
    if (should_crash && should_crash(uri)) {
      report->crashed = true;
      report->resume_cursor = completed;
      break;
    }
    const Status step = fold_uri(uri, doc);
    if (!step.ok()) {
      // Transient exhaustion (the retry decorator gave up) cuts the
      // pass short like a crash does — the caller backs off and resumes
      // from `completed`; redoing the in-flight URI is idempotent.
      if (!step.IsRetriable()) return step;
      report->faulted = true;
      report->fault = step;
      report->resume_cursor = completed;
      break;
    }
    completed = uri;
  }
  return Status::OK();
}

}  // namespace webdex::engine
