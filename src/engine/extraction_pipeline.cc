#include "engine/extraction_pipeline.h"

#include "common/rng.h"
#include "xml/parser.h"

namespace webdex::engine {

ExtractionPipeline::ExtractionPipeline(common::ThreadPool* pool,
                                       const index::IndexingStrategy* strategy,
                                       const index::ExtractOptions& options,
                                       const cloud::KvStore* store,
                                       const cloud::ObjectStore* s3,
                                       std::string bucket, uint64_t base_seed)
    : pool_(pool),
      strategy_(strategy),
      options_(options),
      store_(store),
      s3_(s3),
      bucket_(std::move(bucket)),
      base_seed_(base_seed) {}

ExtractionPipeline::~ExtractionPipeline() {
  for (auto& [key, task] : tasks_) task.wait();
}

ExtractionResult ExtractionPipeline::ExtractNow(
    const std::string& uri, const std::string& xml_text,
    const index::IndexingStrategy& strategy,
    const index::ExtractOptions& options, const cloud::KvStore& store,
    uint64_t base_seed) {
  ExtractionResult out;
  auto doc = xml::ParseDocument(uri, xml_text);
  if (!doc.ok()) {
    out.status = doc.status();
    return out;
  }
  out.doc = std::make_shared<const xml::Document>(std::move(doc).value());
  // Upsert re-extractions draw from a generation-suffixed UUID stream so
  // a document's successive versions never collide on range keys; the
  // static corpus (generation 0) keeps the original per-URI stream and
  // stays byte-identical.
  Rng uuid_rng =
      options.generation > 0
          ? Rng::ForKey(base_seed,
                        uri + "@" + std::to_string(options.generation))
          : Rng::ForKey(base_seed, uri);
  // Kept on the result: the planner's PathSummary consumes it directly
  // once the warehouse commits the task, without re-extracting
  // (docs/PLANNER.md).
  out.doc_index = index::ExtractDocIndex(*out.doc, options);
  auto extracted = strategy.ExtractItems(*out.doc, out.doc_index, options,
                                         store, uuid_rng, &out.stats);
  if (!extracted.ok()) {
    out.status = extracted.status();
    return out;
  }
  out.items = std::move(extracted).value();
  return out;
}

namespace {

// Memo key for one (uri, generation) extraction; generation 0 keeps the
// bare URI so static-corpus behavior is unchanged.
std::string TaskKey(const std::string& uri, uint64_t generation) {
  return generation > 0 ? uri + "@" + std::to_string(generation) : uri;
}

}  // namespace

void ExtractionPipeline::Prefetch(const std::string& uri,
                                  uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = TaskKey(uri, generation);
  if (tasks_.count(key) > 0) return;
  tasks_.emplace(
      key,
      pool_->Submit([this, uri,
                     generation]() -> std::unique_ptr<ExtractionResult> {
        const std::string* text = s3_->PeekObject(bucket_, uri);
        if (text == nullptr) {
          auto missing = std::make_unique<ExtractionResult>();
          missing->status = Status::NotFound("no such object: " + uri);
          return missing;
        }
        index::ExtractOptions options = options_;
        options.generation = generation;
        return std::make_unique<ExtractionResult>(ExtractNow(
            uri, *text, *strategy_, options, *store_, base_seed_));
      }));
}

std::unique_ptr<ExtractionResult> ExtractionPipeline::Take(
    const std::string& uri, uint64_t generation) {
  std::future<std::unique_ptr<ExtractionResult>> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tasks_.find(TaskKey(uri, generation));
    if (it == tasks_.end()) return nullptr;
    task = std::move(it->second);
    tasks_.erase(it);
  }
  return task.get();
}

}  // namespace webdex::engine
