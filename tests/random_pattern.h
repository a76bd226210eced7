// Seeded random tree patterns over XMark labels, shared by the property
// suites that check the index look-ups and the evaluator on them.

#ifndef WEBDEX_TESTS_RANDOM_PATTERN_H_
#define WEBDEX_TESTS_RANDOM_PATTERN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "xmark/xmark_generator.h"
#include "xml/dom.h"

namespace webdex {

/// Labels that actually occur in the XMark corpus, plus a few that never
/// do (so some random patterns are unsatisfiable).
inline const char* const kPatternLabels[] = {
    "site",   "regions", "item",    "name",        "person",  "address",
    "city",   "open_auction",       "reserve",     "seller",  "mailbox",
    "mail",   "description",        "payment",     "nothere", "bogus"};
inline const char* const kPatternWords[] = {"the", "gold", "garden",
                                            "gossamer", "zzz"};

/// A random pattern in the textual syntax with at most `max_nodes` nodes.
inline std::string RandomPattern(Rng& rng, int max_nodes) {
  std::function<std::string(int*, int)> node = [&](int* budget,
                                                   int depth) -> std::string {
    --*budget;
    std::string out(kPatternLabels[rng.NextBelow(std::size(kPatternLabels))]);
    const auto word = [&rng] {
      return std::string(
          kPatternWords[rng.NextBelow(std::size(kPatternWords))]);
    };
    const double p = rng.NextDouble();
    if (p < 0.15) {
      out += "~'" + word() + "'";
    } else if (p < 0.25) {
      out += "='" + word() + "'";
    } else if (p < 0.3) {
      out += " in(1,5000]";
    }
    if (*budget > 0 && depth < 3 && rng.NextBool(0.7)) {
      const int children =
          1 + static_cast<int>(rng.NextBelow(
                  std::min<uint64_t>(2, static_cast<uint64_t>(*budget))));
      out += "[";
      for (int c = 0; c < children && *budget > 0; ++c) {
        if (c > 0) out += ", ";
        out += rng.NextBool(0.5) ? "/" : "//";
        out += node(budget, depth + 1);
      }
      out += "]";
    }
    return out;
  };
  int budget = max_nodes;
  return "//" + node(&budget, 0);
}

/// The pattern stream of property seed `seed`.
inline Rng RandomPatternRng(int seed) {
  return Rng(static_cast<uint64_t>(seed) * 7919 + 13);
}

/// The small XMark corpus property seed `seed` checks its patterns on.
inline std::vector<xml::Document> RandomPatternCorpus(int seed) {
  xmark::GeneratorConfig config;
  config.num_documents = 12;
  config.entities_per_document = 6;
  config.seed = 1000 + static_cast<uint64_t>(seed);
  const xmark::XmarkGenerator generator(config);
  std::vector<xml::Document> docs;
  for (int i = 0; i < config.num_documents; ++i) {
    docs.push_back(generator.GenerateDom(i));
  }
  return docs;
}

}  // namespace webdex

#endif  // WEBDEX_TESTS_RANDOM_PATTERN_H_
