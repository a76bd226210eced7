// Byte-level equivalence oracle for the native index core: for every
// strategy, the serialized index a tiny deterministic corpus produces is
// pinned by a committed golden digest (tests/golden/index_dumps.txt).
// Any change to key encoding, path escaping, varint codecs, item packing
// or UUID range-key streams shifts the digest and fails here — which is
// exactly what guarantees the interned hot path rewrote *how* the index
// is built, not *what* it contains.
//
// Regenerate deliberately with WEBDEX_UPDATE_GOLDEN=1 (the test then
// rewrites the file and fails, so a stale run cannot silently pass).
//
// A second golden (tests/golden/maintenance.txt) pins the billed
// maintenance walker the same way: every scrub and compaction mode run
// over one damaged, mutated deployment, digested down to its trace,
// usage, reports and final index.
//
// A third golden (tests/golden/query_rows.txt) pins the DOM evaluator:
// the rows, row URIs and work stats of every bench template and a set of
// nested-descendant and attribute patterns over three small corpora.
// The no-index answers the benchmark checks the warehouse against come
// from this evaluator, so only a golden can catch a bug in it.
//
// A fourth golden (tests/golden/kv_stores.txt) pins both simulated table
// stores, DynamoDB and SimpleDB, call by call: a scripted sequence of
// every verb, fault-free and under injected faults and throttling, plus a
// SimpleDB warehouse build per strategy.  The other goldens index into
// DynamoDB only, so this is the oracle that holds SimpleDB's storage,
// billing and errors fixed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cloud/kv_store.h"
#include "cloud/snapshot.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/warehouse.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "xmark/paintings.h"
#include "xmark/xmark_generator.h"
#include "xml/parser.h"

namespace webdex::engine {
namespace {

using index::StrategyKind;

xmark::GeneratorConfig TinyCorpus() {
  xmark::GeneratorConfig config;
  config.num_documents = 6;
  config.entities_per_document = 10;
  config.split_sections = true;
  return config;
}

/// Canonical byte stream of every index table: ForEachItem's
/// deterministic (table, hash, range) order with length-prefixed fields,
/// so no separator can collide with payload bytes.
std::string DumpIndex(const cloud::KvStore& store) {
  std::string dump;
  store.ForEachItem([&dump](const std::string& table,
                            const cloud::Item& item) {
    const auto append = [&dump](const std::string& s) {
      dump += StrFormat("%zu:", s.size());
      dump += s;
    };
    append(table);
    append(item.hash_key);
    append(item.range_key);
    for (const auto& [name, values] : item.attrs) {
      append(name);
      for (const std::string& value : values) append(value);
    }
    dump += '\n';
  });
  return dump;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Builds the tiny corpus index with `host_threads` extraction threads
/// and returns the canonical dump.
std::string BuildDump(StrategyKind strategy, int host_threads) {
  auto env = std::make_unique<cloud::CloudEnv>(cloud::CloudConfig());
  WarehouseConfig config;
  config.strategy = strategy;
  config.num_instances = 4;
  config.host_threads = host_threads;
  Warehouse warehouse(env.get(), config);
  EXPECT_TRUE(warehouse.Setup().ok());
  const auto corpus = TinyCorpus();
  xmark::XmarkGenerator generator(corpus);
  for (int i = 0; i < corpus.num_documents; ++i) {
    auto doc = generator.Generate(i);
    EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, std::move(doc.text)).ok());
  }
  auto report = warehouse.RunIndexers();
  EXPECT_TRUE(report.ok());
  return DumpIndex(env->dynamodb());
}

std::string GoldenPath(const std::string& file = "index_dumps.txt") {
  // __FILE__ is the absolute source path under CMake, so the golden file
  // lives next to this test regardless of the build directory.
  std::string path = __FILE__;
  path = path.substr(0, path.find_last_of('/'));
  return path + "/golden/" + file;
}

std::map<std::string, std::string> ReadGolden(
    const std::string& file = "index_dumps.txt") {
  std::map<std::string, std::string> golden;
  std::ifstream in(GoldenPath(file));
  std::string strategy, digest;
  while (in >> strategy >> digest) golden[strategy] = digest;
  return golden;
}

std::string Digest(const std::string& bytes) {
  return StrFormat("%016llx-%zu",
                   static_cast<unsigned long long>(Fnv1a(bytes)),
                   bytes.size());
}

TEST(DumpGoldenTest, SerializedIndexMatchesGoldenPerStrategy) {
  const bool update = std::getenv("WEBDEX_UPDATE_GOLDEN") != nullptr;
  const auto golden = ReadGolden();
  std::ostringstream regenerated;
  bool all_match = true;
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    const std::string name = index::StrategyKindName(kind);
    const std::string dump = BuildDump(kind, /*host_threads=*/1);
    ASSERT_FALSE(dump.empty()) << name;
    const std::string digest = Digest(dump);
    regenerated << name << " " << digest << "\n";
    auto it = golden.find(name);
    if (update) continue;
    ASSERT_NE(it, golden.end())
        << name << " missing from " << GoldenPath()
        << " — regenerate with WEBDEX_UPDATE_GOLDEN=1";
    EXPECT_EQ(it->second, digest)
        << name << ": serialized index changed. If intentional, "
        << "regenerate with WEBDEX_UPDATE_GOLDEN=1 and commit.";
    all_match = all_match && it->second == digest;
  }
  if (update) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << GoldenPath();
    out << regenerated.str();
    FAIL() << "golden regenerated at " << GoldenPath()
           << " — rerun without WEBDEX_UPDATE_GOLDEN";
  }
  EXPECT_TRUE(all_match);
}

// Mutability regression (docs/MUTABILITY.md): a build with zero
// mutations stays at generation 0 — no posting carries the "~g" stamp
// attribute and the idx-meta table contributes no items — which is what
// keeps the dumps byte-identical to the committed pre-mutability goldens
// above.  If this fails, fix the stamping, never regenerate the golden.
TEST(DumpGoldenTest, ZeroMutationBuildsAreGenerationZero) {
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    const std::string dump = BuildDump(kind, /*host_threads=*/1);
    ASSERT_FALSE(dump.empty());
    // Attribute names are length-prefixed in the canonical dump, so the
    // stamp would appear exactly as "2:~g" and a meta item would lead
    // with its length-prefixed table name.
    EXPECT_EQ(dump.find("2:~g"), std::string::npos)
        << index::StrategyKindName(kind);
    EXPECT_EQ(dump.find("8:idx-meta"), std::string::npos)
        << index::StrategyKindName(kind);
  }
}

TEST(DumpGoldenTest, SerialAndParallelDumpsAreByteIdentical) {
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    const std::string serial = BuildDump(kind, /*host_threads=*/1);
    const std::string parallel = BuildDump(kind, /*host_threads=*/8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel) << index::StrategyKindName(kind);
  }
}

/// Every Usage field, one "name=value" line each, doubles round-trippable.
std::string RenderUsage(const cloud::Usage& usage) {
  std::string out;
  usage.ForEachField([&out](const char* name, auto value) {
    out += StrFormat("%s=%.17g\n", name, static_cast<double>(value));
  });
  return out;
}

/// The maintenance oracle's damaged, mutated deployment: the scrubber
/// suite's half-written 2LUPI index (the first mid-BatchPut page boundary
/// crashes its instance and max_deliveries == 1 dead-letters the task),
/// then two upserts and one delete committed on top.  The crash hook also
/// cuts the first full compaction pass at its second URI boundary.
struct MaintenanceDeployment {
  std::unique_ptr<cloud::CloudEnv> env;
  std::unique_ptr<Warehouse> warehouse;
  std::shared_ptr<bool> arm_compaction_crash = std::make_shared<bool>(false);
};

MaintenanceDeployment DeployDamagedAndMutated() {
  MaintenanceDeployment d;
  d.env = std::make_unique<cloud::CloudEnv>();
  auto page_crashes = std::make_shared<int>(1);
  auto compaction_boundaries = std::make_shared<int>(0);
  WarehouseConfig config;
  config.strategy = StrategyKind::k2LUPI;
  config.num_instances = 2;
  config.max_deliveries = 1;
  config.crash_plan = [page_crashes, compaction_boundaries,
                       armed = d.arm_compaction_crash](
                          cloud::CrashPoint point, int, const std::string&) {
    if (point == cloud::CrashPoint::kBetweenBatchPutPages) {
      if (*page_crashes == 0) return false;
      --*page_crashes;
      return true;
    }
    if (point != cloud::CrashPoint::kMidCompaction || !*armed) return false;
    if (++*compaction_boundaries != 2) return false;
    *armed = false;
    return true;
  };
  d.warehouse = std::make_unique<Warehouse>(d.env.get(), config);
  EXPECT_TRUE(d.warehouse->Setup().ok());
  std::vector<xmark::GeneratedDocument> docs = xmark::GeneratePaintings();
  xmark::GeneratorConfig corpus;
  corpus.num_documents = 8;
  corpus.entities_per_document = 6;
  for (auto& doc : xmark::XmarkGenerator(corpus).GenerateAll()) {
    docs.push_back(std::move(doc));
  }
  for (const auto& doc : docs) {
    EXPECT_TRUE(d.warehouse->SubmitDocument(doc.uri, doc.text).ok());
  }
  auto built = d.warehouse->RunIndexers();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(*page_crashes, 0) << "corpus no longer produces multi-page uploads";
  EXPECT_TRUE(built.ok() && built.value().dead_lettered >= 1);

  // Mutations: the two upserts replace a document with another one's
  // text; the delete tombstones a third.
  const size_t n = docs.size();
  EXPECT_TRUE(d.warehouse->UpsertDocument(docs[n - 1].uri, docs[0].text).ok());
  EXPECT_TRUE(d.warehouse->UpsertDocument(docs[n - 2].uri, docs[1].text).ok());
  EXPECT_TRUE(d.warehouse->DeleteDocument(docs[n - 3].uri).ok());
  auto mutated = d.warehouse->RunIndexers();
  EXPECT_TRUE(mutated.ok()) << mutated.status().ToString();
  return d;
}

/// Runs every maintenance mode in sequence — audit, repair, GC, a full
/// pass cut by a planned mid-compaction crash, and its resumption — and
/// returns "<step>.<component> <digest>" golden lines.  Per step the
/// digest covers the report's rendering, the step's Usage delta, its
/// canonical trace and the maintenance counters; the run ends with the
/// index fingerprint and the whole run's Usage.
std::map<std::string, std::string> RunMaintenanceOracle() {
  MaintenanceDeployment d = DeployDamagedAndMutated();
  cloud::CloudEnv& env = *d.env;
  Warehouse& warehouse = *d.warehouse;
  env.tracer().set_enabled(true);
  const cloud::Usage start = env.meter().Snapshot();
  std::map<std::string, std::string> lines;
  const auto record = [&](const std::string& step, auto&& run) {
    env.tracer().Clear();
    const cloud::Usage before = env.meter().Snapshot();
    auto report = run();
    EXPECT_TRUE(report.ok()) << step << ": " << report.status().ToString();
    lines[step + ".report"] =
        Digest(report.ok() ? report.value().ToString()
                           : report.status().ToString());
    lines[step + ".usage"] =
        Digest(RenderUsage(env.meter().Snapshot() - before));
    lines[step + ".trace"] = Digest(env.tracer().Canonical());
    std::string counters;
    for (const char* name :
         {"engine.scrub.passes.count", "index.compact.passes.count",
          "index.compact.gc_items.count", "index.compact.canonicalized.count",
          "index.tombstone.collected.count"}) {
      counters += StrFormat("%s=%llu\n", name,
                            static_cast<unsigned long long>(
                                env.metrics().CounterValue(name)));
    }
    counters += "cursor=" + env.maintenance().compact_cursor + "\n";
    lines[step + ".counters"] = Digest(counters);
    return report;
  };
  record("1_audit", [&] { return warehouse.Scrub(/*repair=*/false); });
  record("2_repair", [&] { return warehouse.Scrub(/*repair=*/true); });
  record("3_gc", [&] { return warehouse.Compact(/*full=*/false); });
  *d.arm_compaction_crash = true;
  auto crashed =
      record("4_full_crash", [&] { return warehouse.Compact(/*full=*/true); });
  EXPECT_TRUE(crashed.ok() && crashed.value().crashed);
  EXPECT_FALSE(env.maintenance().compact_cursor.empty());
  auto resumed =
      record("5_full_resume", [&] { return warehouse.Compact(/*full=*/true); });
  EXPECT_TRUE(resumed.ok() && !resumed.value().crashed);
  EXPECT_TRUE(env.maintenance().compact_cursor.empty());
  EXPECT_TRUE(warehouse.GenerationSnapshot()->empty());
  lines["6_final.fingerprint"] = StrFormat(
      "%016llx", static_cast<unsigned long long>(
                     cloud::FingerprintStore(warehouse.index_store())));
  lines["6_final.usage"] = Digest(RenderUsage(env.meter().Snapshot() - start));
  return lines;
}

// Equivalence oracle for the maintenance walker: scrub and compaction
// make the same billed calls, in the same order, with the same results,
// as when the golden was recorded.  Regenerate only for an intended
// behaviour change, with WEBDEX_UPDATE_GOLDEN=1.
TEST(DumpGoldenTest, MaintenanceModesMatchGolden) {
  const bool update = std::getenv("WEBDEX_UPDATE_GOLDEN") != nullptr;
  const std::string file = "maintenance.txt";
  const auto lines = RunMaintenanceOracle();
  if (update) {
    std::ofstream out(GoldenPath(file), std::ios::trunc);
    ASSERT_TRUE(out.good()) << GoldenPath(file);
    for (const auto& [key, digest] : lines) out << key << " " << digest << "\n";
    FAIL() << "golden regenerated at " << GoldenPath(file)
           << " — rerun without WEBDEX_UPDATE_GOLDEN";
  }
  EXPECT_EQ(ReadGolden(file), lines)
      << "maintenance behaviour changed. If intentional, regenerate with "
      << "WEBDEX_UPDATE_GOLDEN=1 and commit.";
}

/// The ten query templates of bench/harness.h Workload(), verbatim.
const std::vector<std::string>& BenchTemplates() {
  static const std::vector<std::string> queries = {
      "//regions//item[/@id='item42', //name:val]",
      "//closed_auction[/annotation:cont, "
      "/annotation/description~'amber']",
      "//item[/name:val, /mailbox/mail/from:val, "
      "/description~'lantern']",
      "//open_auctions/open_auction[/initial:val, /reserve, /privacy, "
      "/annotation/description~'obelisk']",
      "//person[/name:val, /address[/city='Paris'], /creditcard]",
      "//open_auction[/annotation/description~'gossamer', /seller]",
      "//item[/description/name:val]",
      "//open_auction[/seller/@person#s, /initial:val, "
      "/annotation/description~'marble']; "
      "//people/person[/@id#p, /name:val] where #s=#p",
      "//closed_auction[/itemref/@item#i, /price:val, "
      "/annotation/description~'laurel']; "
      "//regions//item[/@id#j, //name:val] where #i=#j",
      "//person[/watches/watch/@open_auction#w, /name:val, "
      "/address/country='France']; "
      "//open_auction[/@id#a, /current:val] where #w=#a",
  };
  return queries;
}

/// Patterns beyond the bench templates: same-label descendants nested
/// in each other, attribute roots, a root-anchored path and a range
/// predicate.
const std::vector<std::string>& ExtraQueries() {
  static const std::vector<std::string> queries = {
      "//parlist//listitem:val",
      "//listitem[/parlist//listitem//keyword:val]",
      "//parlist[//parlist:cont]",
      "//@id:val",
      "/site//people/person/name:val",
      "//open_auction[/initial:val in(10,60], /current:val]",
      "//listitem[/@id:val, //keyword:val in[0,50)]",
  };
  return queries;
}

/// A seeded corpus of XMark-style descriptions whose parlists nest up to
/// three deep, so `//parlist//listitem` has many overlapping embeddings.
std::vector<xmark::GeneratedDocument> NestedListCorpus() {
  Rng rng(4242);
  std::function<std::string(int)> parlist = [&](int depth) {
    std::string out = "<parlist>";
    const int items = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < items; ++i) {
      out += StrFormat("<listitem id=\"li%llu\">",
                       static_cast<unsigned long long>(rng.NextBelow(40)));
      if (rng.NextBool(0.6)) {
        out += StrFormat("<text>word <keyword>%llu</keyword></text>",
                         static_cast<unsigned long long>(rng.NextBelow(90)));
      }
      if (depth < 3 && rng.NextBool(0.5)) out += parlist(depth + 1);
      out += "</listitem>";
    }
    return out + "</parlist>";
  };
  std::vector<xmark::GeneratedDocument> docs;
  for (int d = 0; d < 6; ++d) {
    xmark::GeneratedDocument doc;
    doc.uri = StrFormat("nested-%d.xml", d);
    doc.text = "<site><description>" + parlist(1) + "</description>" +
               (rng.NextBool(0.5) ? parlist(1) : "") + "</site>";
    docs.push_back(std::move(doc));
  }
  return docs;
}

/// Evaluates every bench template and extra pattern over three small
/// corpora (split fragments, unsplit sites, nested lists) and returns
/// "<corpus>.<query> <rows>-<digest>" golden lines.  The digest covers
/// each row's columns and URIs, length-prefixed, and the evaluation's
/// WorkStats.
std::map<std::string, std::string> RunQueryRowsOracle() {
  xmark::GeneratorConfig split;
  split.num_documents = 60;
  split.entities_per_document = 20;
  split.split_sections = true;
  xmark::GeneratorConfig unsplit;
  unsplit.num_documents = 4;
  unsplit.entities_per_document = 60;
  const std::vector<std::pair<std::string,
                              std::vector<xmark::GeneratedDocument>>>
      corpora = {{"split", xmark::XmarkGenerator(split).GenerateAll()},
                 {"unsplit", xmark::XmarkGenerator(unsplit).GenerateAll()},
                 {"nested", NestedListCorpus()}};
  std::vector<std::pair<std::string, std::string>> queries;
  for (size_t i = 0; i < BenchTemplates().size(); ++i) {
    queries.emplace_back(StrFormat("q%02zu", i + 1), BenchTemplates()[i]);
  }
  for (size_t i = 0; i < ExtraQueries().size(); ++i) {
    queries.emplace_back(StrFormat("x%02zu", i + 1), ExtraQueries()[i]);
  }
  std::map<std::string, std::string> lines;
  for (const auto& [corpus, generated] : corpora) {
    std::vector<xml::Document> docs;
    for (const auto& doc : generated) {
      auto parsed = xml::ParseDocument(doc.uri, doc.text);
      EXPECT_TRUE(parsed.ok()) << doc.uri;
      if (parsed.ok()) docs.push_back(std::move(parsed).value());
    }
    std::vector<const xml::Document*> ptrs;
    for (const auto& doc : docs) ptrs.push_back(&doc);
    for (const auto& [name, text] : queries) {
      auto query = query::ParseQuery(text);
      EXPECT_TRUE(query.ok()) << text;
      if (!query.ok()) continue;
      (void)query::Evaluator::ConsumeWorkStats();
      const query::QueryResult result =
          query::Evaluator::Evaluate(query.value(), ptrs);
      const auto stats = query::Evaluator::ConsumeWorkStats();
      std::string bytes;
      const auto append = [&bytes](const std::string& s) {
        bytes += StrFormat("%zu:", s.size());
        bytes += s;
      };
      for (size_t r = 0; r < result.rows.size(); ++r) {
        for (const auto& col : result.rows[r]) append(col);
        bytes += '|';
        for (const auto& uri : result.row_uris[r]) append(uri);
        bytes += '\n';
      }
      bytes += StrFormat("scanned=%llu result=%llu embeddings=%llu\n",
                         static_cast<unsigned long long>(stats.doc_bytes_scanned),
                         static_cast<unsigned long long>(stats.result_bytes),
                         static_cast<unsigned long long>(stats.embeddings_found));
      lines[corpus + "." + name] =
          StrFormat("%zu-", result.rows.size()) + Digest(bytes);
    }
  }
  return lines;
}

// Equivalence oracle for the evaluator: a matcher rewrite must return the
// same rows, in the same order, from the same documents, and charge the
// same work.  Regenerate only for an intended change to query answers,
// with WEBDEX_UPDATE_GOLDEN=1.
TEST(DumpGoldenTest, QueryRowsMatchGolden) {
  const bool update = std::getenv("WEBDEX_UPDATE_GOLDEN") != nullptr;
  const std::string file = "query_rows.txt";
  const auto lines = RunQueryRowsOracle();
  if (update) {
    std::ofstream out(GoldenPath(file), std::ios::trunc);
    ASSERT_TRUE(out.good()) << GoldenPath(file);
    for (const auto& [key, digest] : lines) out << key << " " << digest << "\n";
    FAIL() << "golden regenerated at " << GoldenPath(file)
           << " — rerun without WEBDEX_UPDATE_GOLDEN";
  }
  EXPECT_EQ(ReadGolden(file), lines)
      << "query answers changed. If intentional, regenerate with "
      << "WEBDEX_UPDATE_GOLDEN=1 and commit.";
}

/// Canonical bytes of an item list, in the order returned.
std::string DumpItems(const std::vector<cloud::Item>& items) {
  std::string dump;
  const auto append = [&dump](const std::string& s) {
    dump += StrFormat("%zu:", s.size());
    dump += s;
  };
  for (const cloud::Item& item : items) {
    append(item.hash_key);
    append(item.range_key);
    for (const auto& [name, values] : item.attrs) {
      append(name);
      dump += StrFormat("%zu;", values.size());
      for (const std::string& value : values) append(value);
    }
    dump += '\n';
  }
  return dump;
}

/// `count` text items (valid in both stores) over 40 hash keys, each about
/// 1 KB in three values, so a set of 1600 spans many BatchPut pages, more
/// than one DynamoDB scan page (1 MB) and more than one SimpleDB select
/// page (2500 values).  Items whose index is 6 mod 7 reuse the key of the
/// item three before, and items 10 mod 11 that of the item thirty before:
/// replacements within one page and across pages of the same call.
/// `first` offsets the range keys, so a second set with a smaller offset
/// replaces part of the first.
std::vector<cloud::Item> StoreOracleItems(int first, int count, int salt) {
  std::vector<cloud::Item> items;
  for (int n = 0; n < count; ++n) {
    int i = first + n;
    if (n % 7 == 6) {
      i -= 3;
    } else if (n % 11 == 10 && n >= 30) {
      i -= 30;
    }
    std::string value = StrFormat("v%d.%d.", salt, n);
    while (value.size() < 300) value += value;
    value.resize(300 + static_cast<size_t>(n % 5));
    items.push_back(cloud::Item{
        StrFormat("h%03d", i % 40), StrFormat("r%05d", i),
        {{"a", {value, value.substr(7)}}, {"b", {value.substr(3)}}}});
  }
  return items;
}

/// Runs the store script on one backend of a fresh CloudEnv and returns
/// "<backend>.<plan>.<step>_<call> <digest>" golden lines.  Per call the
/// digest covers the status, the returned (or unprocessed) items, the
/// agent clock, the call's Usage delta and every table's stored, overhead
/// and item counts; the run ends with the store fingerprint, the metric
/// registry's Prometheus text and the snapshot bytes.
std::map<std::string, std::string> RunStoreOracle(IndexBackend backend,
                                                  bool faulted) {
  const bool simpledb = backend == IndexBackend::kSimpleDb;
  cloud::CloudConfig config;
  if (faulted) {
    config.faults.seed = 7;
    cloud::ServiceFaults& faults =
        simpledb ? config.faults.simpledb : config.faults.dynamodb;
    faults.error_probability = 0.15;
    faults.unprocessed_probability = 0.3;
    config.dynamodb.max_backlog_micros = 200'000;
    config.simpledb.max_backlog_micros = 200'000;
  }
  cloud::CloudEnv env(config);
  cloud::KvStore& store = simpledb
                              ? static_cast<cloud::KvStore&>(env.simpledb())
                              : env.dynamodb();
  const std::string prefix = std::string(simpledb ? "simpledb" : "dynamodb") +
                             (faulted ? ".faulted." : ".clean.");
  std::map<std::string, std::string> lines;
  int step = 0;
  cloud::SimAgent agent;
  using Items = std::vector<cloud::Item>;
  // Runs one call on `caller` and digests what it did.
  const auto call = [&](const std::string& name, cloud::SimAgent& caller,
                        auto&& fn) {
    const cloud::Usage before = env.meter().Snapshot();
    Items items;
    const Status status = fn(caller, &items);
    std::string bytes = status.ToString() + "\n" + DumpItems(items);
    bytes += StrFormat("now=%lld\n", static_cast<long long>(caller.now()));
    bytes += RenderUsage(env.meter().Snapshot() - before);
    for (const char* table : {"t", "u", "nope"}) {
      bytes += StrFormat("%s stored=%llu overhead=%llu items=%llu\n", table,
                         static_cast<unsigned long long>(store.StoredBytes(table)),
                         static_cast<unsigned long long>(
                             store.OverheadBytes(table)),
                         static_cast<unsigned long long>(store.ItemCount(table)));
    }
    lines[prefix + StrFormat("%02d_", ++step) + name] = Digest(bytes);
    return status;
  };
  const auto read = [](Result<Items> result, Items* out) {
    if (!result.ok()) return result.status();
    *out = std::move(result).value();
    return Status::OK();
  };
  // Re-puts whatever comes back unprocessed until it drains (bounded).
  const auto put_all = [&](const std::string& name, const std::string& table,
                           Items pending) {
    for (int attempt = 0; attempt < 12 && !pending.empty(); ++attempt) {
      Items bounced;
      const Status status =
          call(name, agent, [&](cloud::SimAgent& caller, Items* out) {
            const Status s = store.BatchPut(caller, table, pending, &bounced);
            *out = bounced;
            return s;
          });
      if (!status.ok() && !status.IsRetriable()) return;
      pending = std::move(bounced);
    }
  };
  for (const char* table : {"t", "t", "u"}) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Status status = call(
          std::string("create_") + table, agent,
          [&](cloud::SimAgent& caller, Items*) {
            return store.CreateTable(caller, table);
          });
      if (!status.IsRetriable()) break;
    }
  }
  put_all("batch_put", "t", StoreOracleItems(0, 1600, 1));
  put_all("batch_put_replace", "t", StoreOracleItems(1560, 80, 2));
  // A second caller whose clock still reads zero sees the whole backlog
  // the first one committed: under a delay bound it is throttled.
  cloud::SimAgent late_put;
  call("late_batch_put", late_put, [&](cloud::SimAgent& caller, Items* out) {
    return store.BatchPut(caller, "t", StoreOracleItems(5000, 5, 3), out);
  });
  call("get_hit", agent, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.Get(caller, "t", "h003"), out);
  });
  call("get_miss", agent, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.Get(caller, "t", "zzz"), out);
  });
  std::vector<std::string> keys;
  for (int i = 0; i < 130; ++i) {
    keys.push_back(StrFormat(i % 3 == 0 ? "h%03d" : "m%03d", i % 45));
  }
  call("batch_get", agent, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.BatchGet(caller, "t", keys), out);
  });
  cloud::SimAgent late_get;
  call("late_get", late_get, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.Get(caller, "t", "h004"), out);
  });
  call("scan", agent, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.Scan(caller, "t"), out);
  });
  call("scan_empty", agent, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.Scan(caller, "u"), out);
  });
  call("delete_present", agent, [&](cloud::SimAgent& caller, Items*) {
    return store.DeleteItem(caller, "t", "h001", "r00001");
  });
  call("delete_absent", agent, [&](cloud::SimAgent& caller, Items*) {
    return store.DeleteItem(caller, "t", "h001", "r99999");
  });
  cloud::SimAgent late_delete;
  call("late_delete", late_delete, [&](cloud::SimAgent& caller, Items*) {
    return store.DeleteItem(caller, "t", "h002", "r00002");
  });
  call("unknown_batch_put", agent, [&](cloud::SimAgent& caller, Items* out) {
    return store.BatchPut(caller, "nope", StoreOracleItems(0, 3, 4), out);
  });
  call("unknown_get", agent, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.Get(caller, "nope", "h000"), out);
  });
  call("unknown_batch_get", agent, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.BatchGet(caller, "nope", {"h000", "h001"}), out);
  });
  call("unknown_scan", agent, [&](cloud::SimAgent& caller, Items* out) {
    return read(store.Scan(caller, "nope"), out);
  });
  call("unknown_delete", agent, [&](cloud::SimAgent& caller, Items*) {
    return store.DeleteItem(caller, "nope", "h000", "r00000");
  });
  lines[prefix + "zz_fingerprint"] = StrFormat(
      "%016llx",
      static_cast<unsigned long long>(cloud::FingerprintStore(store)));
  lines[prefix + "zz_metrics"] = Digest(env.metrics().ToPrometheus());
  lines[prefix + "zz_snapshot"] = Digest(cloud::SerializeSnapshot(env));
  return lines;
}

/// Indexes the tiny corpus into SimpleDB under every strategy and returns
/// "simpledb.build.<strategy>.{fingerprint,usage}" golden lines.
std::map<std::string, std::string> RunSimpleDbBuilds() {
  std::map<std::string, std::string> lines;
  for (const StrategyKind kind : index::AllStrategyKinds()) {
    cloud::CloudEnv env;
    WarehouseConfig config;
    config.strategy = kind;
    config.backend = IndexBackend::kSimpleDb;
    config.num_instances = 4;
    Warehouse warehouse(&env, config);
    EXPECT_TRUE(warehouse.Setup().ok());
    const auto corpus = TinyCorpus();
    xmark::XmarkGenerator generator(corpus);
    for (int i = 0; i < corpus.num_documents; ++i) {
      auto doc = generator.Generate(i);
      EXPECT_TRUE(warehouse.SubmitDocument(doc.uri, std::move(doc.text)).ok());
    }
    auto report = warehouse.RunIndexers();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    const std::string key =
        std::string("simpledb.build.") + index::StrategyKindName(kind);
    lines[key + ".fingerprint"] = StrFormat(
        "%016llx",
        static_cast<unsigned long long>(cloud::FingerprintStore(env.simpledb())));
    lines[key + ".usage"] = Digest(RenderUsage(env.meter().usage()));
  }
  return lines;
}

// Equivalence oracle for the two simulated table stores: the same calls
// store the same items, return the same results and errors, and bill the
// same usage and virtual time as when the golden was recorded.
// Regenerate only for an intended behaviour change, with
// WEBDEX_UPDATE_GOLDEN=1.
TEST(DumpGoldenTest, KvStoresMatchGolden) {
  const bool update = std::getenv("WEBDEX_UPDATE_GOLDEN") != nullptr;
  const std::string file = "kv_stores.txt";
  std::map<std::string, std::string> lines = RunSimpleDbBuilds();
  for (const IndexBackend backend :
       {IndexBackend::kDynamoDb, IndexBackend::kSimpleDb}) {
    for (const bool faulted : {false, true}) {
      lines.merge(RunStoreOracle(backend, faulted));
    }
  }
  if (update) {
    std::ofstream out(GoldenPath(file), std::ios::trunc);
    ASSERT_TRUE(out.good()) << GoldenPath(file);
    for (const auto& [key, digest] : lines) out << key << " " << digest << "\n";
    FAIL() << "golden regenerated at " << GoldenPath(file)
           << " — rerun without WEBDEX_UPDATE_GOLDEN";
  }
  EXPECT_EQ(ReadGolden(file), lines)
      << "table store behaviour changed. If intentional, regenerate with "
      << "WEBDEX_UPDATE_GOLDEN=1 and commit.";
}

}  // namespace
}  // namespace webdex::engine
