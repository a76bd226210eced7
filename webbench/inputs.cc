// Seeded inputs and the no-index ground truth.
#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "common/strings.h"
#include "query/parser.h"
#include "xml/parser.h"

namespace webbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

wd::xmark::GeneratorConfig BulkCorpus(uint64_t seed) {
  wd::xmark::GeneratorConfig config;
  config.split_sections = false;
  config.num_documents = 60;
  config.entities_per_document = 600;
  config.seed = seed;
  return config;
}

wd::xmark::GeneratorConfig FragmentCorpus(uint64_t seed) {
  wd::xmark::GeneratorConfig config;
  config.split_sections = true;
  config.num_documents = 240;
  config.entities_per_document = 40;
  config.seed = seed;
  return config;
}

namespace {

/// The section a split-mode fragment holds: the first element under
/// <site>.
std::string_view SectionOf(std::string_view text) {
  size_t start = text.find("<site");
  start = start == std::string_view::npos ? start : text.find('<', start + 1);
  if (start == std::string_view::npos) return {};
  const size_t end = text.find_first_of(" />", start + 1);
  return text.substr(start + 1, end == std::string_view::npos
                                    ? std::string_view::npos
                                    : end - start - 1);
}

}  // namespace

std::vector<Document> GenerateCorpus(const wd::xmark::GeneratorConfig& config) {
  const wd::xmark::XmarkGenerator generator(config);
  std::vector<Document> docs;
  docs.reserve(static_cast<size_t>(config.num_documents));
  if (!config.split_sections) {
    for (int i = 0; i < config.num_documents; ++i) {
      auto doc = generator.Generate(i);
      docs.push_back(Document{std::move(doc.uri), std::move(doc.text)});
    }
    return docs;
  }
  // Fragments: the generator draws each fragment's section at random, so
  // the section counts of a 240-document corpus would swing by ~10% from
  // seed to seed, and query costs with them.  Keep the generator's
  // section shares exact instead: generate fragments in order and keep
  // each one while its section's quota is open.
  const std::pair<const char*, double> kShares[] = {
      {"regions", 0.35}, {"people", 0.25}, {"open_auctions", 0.20},
      {"closed_auctions", 0.15}, {"categories", 0.05}};
  std::map<std::string, int, std::less<>> open;
  for (const auto& [section, share] : kShares) {
    open[section] = static_cast<int>(share * config.num_documents + 0.5);
  }
  for (int i = 0; static_cast<int>(docs.size()) < config.num_documents &&
                  i < 100 * config.num_documents;
       ++i) {
    auto doc = generator.Generate(i);
    const auto quota = open.find(SectionOf(doc.text));
    if (quota == open.end() || quota->second == 0) continue;
    --quota->second;
    docs.push_back(Document{std::move(doc.uri), std::move(doc.text)});
  }
  return docs;
}

Document Regenerate(const wd::xmark::GeneratorConfig& config,
                    const Document& doc, int index, uint64_t* version) {
  const std::string_view section = SectionOf(doc.text);
  wd::xmark::GeneratorConfig changed = config;
  while (true) {
    changed.seed = config.seed * 7919ull + ++*version;
    auto text = wd::xmark::XmarkGenerator(changed).Generate(index).text;
    if (SectionOf(text) == section) return Document{doc.uri, std::move(text)};
  }
}

uint64_t TotalBytes(const std::vector<Document>& docs) {
  uint64_t bytes = 0;
  for (const auto& doc : docs) bytes += doc.text.size();
  return bytes;
}

namespace {

// The generator's fixed value lists (xmark_generator.cc); the benchmark
// keeps its own copy so that a change to the program cannot silently
// change the benchmark's inputs.
const std::vector<std::string> kCities = {
    "Paris", "Genoa", "Lyon", "Tokyo", "Sydney", "Lagos", "Lima", "Boston",
    "Delhi", "Cairo", "Turin", "Oslo", "Quito", "Accra", "Kyoto"};
const std::vector<std::string> kCountries = {
    "France", "Italy", "Japan", "Australia", "Nigeria", "Peru",
    "UnitedStates", "India", "Egypt", "Norway", "Ecuador", "Ghana"};

// Full-text constants come from the rarer half of the vocabulary (it is
// ordered common to rare), so `~word` predicates keep candidate sets
// selective, as in the paper's workload.
std::vector<std::string> RareWords() {
  const auto& vocab = wd::xmark::XmarkGenerator::Vocabulary();
  return {vocab.begin() + static_cast<long>(vocab.size() / 2), vocab.end()};
}

/// Deals values in seeded order, every value once before any repeats, so
/// that a stream's cost depends on the seed only through which template
/// meets which constant, not through how often a dear constant is drawn.
class Deck {
 public:
  explicit Deck(std::vector<std::string> values) : values_(std::move(values)) {}

  const std::string& Deal(wd::Rng& rng) {
    if (next_ == order_.size()) {
      order_.resize(values_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (size_t i = order_.size() - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng.NextBelow(i + 1)]);
      }
      next_ = 0;
    }
    return values_[order_[next_++]];
  }

 private:
  std::vector<std::string> values_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

struct Decks {
  Deck words{RareWords()};
  Deck cities{kCities};
  Deck countries{kCountries};
};

// The ten templates of the paper-shaped workload (bench/harness.h
// Workload()), with their constants made parameters.
std::string Instantiate(int template_index, wd::Rng& rng, Decks& decks,
                        const wd::xmark::GeneratorConfig& corpus) {
  const long long items =
      static_cast<long long>(corpus.num_documents) *
      std::max(1, corpus.entities_per_document / 3);
  switch (template_index) {
    case 0:
      return wd::StrFormat("//regions//item[/@id='item%lld', //name:val]",
                           static_cast<long long>(rng.NextBelow(
                               static_cast<uint64_t>(items))));
    case 1:
      return "//closed_auction[/annotation:cont, /annotation/description~'" +
             decks.words.Deal(rng) + "']";
    case 2:
      return "//item[/name:val, /mailbox/mail/from:val, /description~'" +
             decks.words.Deal(rng) + "']";
    case 3:
      return "//open_auctions/open_auction[/initial:val, /reserve, "
             "/privacy, /annotation/description~'" +
             decks.words.Deal(rng) + "']";
    case 4:
      return "//person[/name:val, /address[/city='" +
             decks.cities.Deal(rng) + "'], /creditcard]";
    case 5:
      return "//open_auction[/annotation/description~'" +
             decks.words.Deal(rng) + "', /seller]";
    case 6:
      return "//item[/description/name:val]";
    case 7:
      return "//open_auction[/seller/@person#s, /initial:val, "
             "/annotation/description~'" +
             decks.words.Deal(rng) +
             "']; //people/person[/@id#p, /name:val] where #s=#p";
    case 8:
      return "//closed_auction[/itemref/@item#i, /price:val, "
             "/annotation/description~'" +
             decks.words.Deal(rng) +
             "']; //regions//item[/@id#j, //name:val] where #i=#j";
    default:
      return "//person[/watches/watch/@open_auction#w, /name:val, "
             "/address/country='" +
             decks.countries.Deal(rng) +
             "']; //open_auction[/@id#a, /current:val] where #w=#a";
  }
}

}  // namespace

std::vector<std::string> QueryStream(const wd::xmark::GeneratorConfig& corpus,
                                     uint64_t seed, size_t count) {
  // Every block holds each template once plus a second point query (q1),
  // in a seeded order, so the template mix does not vary with the seed.
  // The templates' latencies form one cluster each; with ten equal
  // clusters the median would sit on the boundary between the fifth and
  // the sixth and jump between them from run to run, while with eleven
  // slots it falls in the middle of the sixth.
  wd::Rng rng = wd::Rng::ForKey(seed, "webbench:query_stream");
  Decks decks;
  std::vector<std::string> queries;
  queries.reserve(count);
  int block[kTemplateBlock];
  for (size_t i = 0; i < count; ++i) {
    if (i % kTemplateBlock == 0) {
      for (size_t t = 0; t < kTemplateBlock; ++t) {
        block[t] = static_cast<int>(t % 10);
      }
      for (size_t t = kTemplateBlock - 1; t > 0; --t) {
        std::swap(block[t], block[rng.NextBelow(t + 1)]);
      }
    }
    queries.push_back(
        Instantiate(block[i % kTemplateBlock], rng, decks, corpus));
  }
  return queries;
}

ParsedCorpus ParseCorpus(const std::vector<Document>& docs) {
  ParsedCorpus parsed;
  parsed.docs.reserve(docs.size());
  for (const auto& doc : docs) {
    auto result = wd::xml::ParseDocument(doc.uri, doc.text);
    if (!result.ok()) {
      std::fprintf(stderr, "generated document %s does not parse: %s\n",
                   doc.uri.c_str(), result.status().ToString().c_str());
      continue;
    }
    parsed.docs.push_back(std::move(result).value());
  }
  for (const auto& doc : parsed.docs) parsed.ptrs.push_back(&doc);
  return parsed;
}

Truth GroundTruth(const std::string& query_text, const ParsedCorpus& corpus,
                  bool count_docs) {
  Truth truth;
  auto parsed = wd::query::ParseQuery(query_text);
  if (!parsed.ok()) return truth;
  truth.result = wd::query::Evaluator::Evaluate(parsed.value(), corpus.ptrs);
  for (const auto& pattern : parsed.value().patterns()) {
    if (!count_docs) break;
    for (const auto* doc : corpus.ptrs) {
      if (wd::query::Evaluator::Matches(pattern, *doc)) ++truth.matching_docs;
    }
  }
  // The evaluator's work counters are charged by the engine only; drop
  // what this host-side evaluation recorded on the thread.
  (void)wd::query::Evaluator::ConsumeWorkStats();
  return truth;
}

wd::engine::WarehouseConfig WarehouseConfigFor(int instances, int threads) {
  wd::engine::WarehouseConfig config;
  config.strategy = wd::index::StrategyKind::k2LUPI;
  config.backend = wd::engine::IndexBackend::kDynamoDb;
  config.use_index = true;
  config.use_planner = true;
  config.instance_type = wd::cloud::InstanceType::kLarge;
  config.num_instances = instances;
  config.host_threads = threads;
  return config;
}

}  // namespace webbench
