#include "query/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>

#include "xml/serializer.h"

namespace webdex::query {
namespace {

/// One pattern over one document, in the two phases Evaluator describes.
/// Pattern nodes are addressed by their pre-order index throughout.
class PatternMatcher {
 public:
  PatternMatcher(const TreePattern& pattern, const xml::Document& doc)
      : pattern_(pattern), doc_(doc) {
    const size_t n = static_cast<size_t>(pattern.size());
    streams_.resize(n);
    output_slot_.assign(n, -1);
    join_slot_.assign(n, -1);
    bound_.assign(n, nullptr);
    int out_slots = 0;
    int join_slots = 0;
    for (const PatternNode* node : pattern.nodes()) {
      const size_t i = static_cast<size_t>(node->index);
      streams_[i] = doc.NodesLabelled(node->label);
      if (node->HasOutput()) output_slot_[i] = out_slots++;
      if (!node->join_tag.empty()) join_slot_[i] = join_slots++;
    }
    outputs_.resize(static_cast<size_t>(out_slots));
    joins_.resize(static_cast<size_t>(join_slots));
  }

  bool AnyEmbedding() { return AnyExists(pattern_.root(), nullptr); }

  std::vector<PatternMatch> AllEmbeddings() {
    std::vector<PatternMatch> matches;
    Bind(0, &matches);
    return matches;
  }

 private:
  static bool NodeMatches(const PatternNode& pnode, const xml::Node& dnode) {
    if (pnode.is_attribute) {
      if (!dnode.is_attribute()) return false;
    } else {
      if (!dnode.is_element()) return false;
    }
    if (pnode.label != dnode.label()) return false;
    if (pnode.predicate.kind != PredicateKind::kNone) {
      // Reuse one buffer across the scan's many predicate evaluations —
      // StringValue() would allocate a fresh string per visited node.
      thread_local std::string value;
      value.clear();
      dnode.AppendStringValue(&value);
      if (!pnode.predicate.Matches(value)) return false;
    }
    return true;
  }

  // Calls `visit` on each document node `pnode` may bind to, in document
  // order, until it returns true; returns whether it did.  `context` is
  // the binding of pnode's parent, or null for the pattern root, whose
  // child axis means the document element and whose descendant axis
  // means any node.  A child step walks context's children; a descendant
  // step reads the slice of pnode's label stream inside context's
  // (pre, post) interval.
  template <typename Visit>
  bool AnyCandidate(const PatternNode& pnode, const xml::Node* context,
                    Visit&& visit) {
    if (pnode.axis == Axis::kChild) {
      if (context == nullptr) return visit(doc_.root());
      for (const auto& child : context->children()) {
        if (visit(*child)) return true;
      }
      return false;
    }
    const auto& stream = streams_[static_cast<size_t>(pnode.index)];
    auto it = stream.begin();
    uint32_t post_bound = UINT32_MAX;
    if (context != nullptr) {
      const xml::NodeId& id = context->id();
      it = std::partition_point(
          stream.begin(), stream.end(),
          [&id](const xml::Node* n) { return n->id().pre <= id.pre; });
      post_bound = id.post;
    }
    for (; it != stream.end() && (*it)->id().post < post_bound; ++it) {
      if (visit(**it)) return true;
    }
    return false;
  }

  // Phase 1: whether the pattern subtree rooted at `pnode` embeds with
  // pnode bound to `dnode`.  Allocation-free; stops at the first witness.
  bool Exists(const PatternNode& pnode, const xml::Node& dnode) {
    if (!NodeMatches(pnode, dnode)) return false;
    for (const auto& pchild : pnode.children) {
      if (!AnyExists(*pchild, &dnode)) return false;
    }
    return true;
  }

  // Whether some candidate of `pnode` below `context` passes Exists.
  bool AnyExists(const PatternNode& pnode, const xml::Node* context) {
    return AnyCandidate(pnode, context, [&](const xml::Node& dnode) {
      return Exists(pnode, dnode);
    });
  }

  // Phase 2: binds pattern node `i` to each of its candidates that passes
  // Exists, writes its output and join slots, and binds the rest of the
  // pattern; past the last node it emits the slots as one embedding.
  void Bind(size_t i, std::vector<PatternMatch>* out) {
    if (i == bound_.size()) {
      out->push_back({doc_.uri(), outputs_, joins_});
      return;
    }
    const PatternNode& pnode = *pattern_.nodes()[i];
    const xml::Node* context =
        pnode.parent == nullptr
            ? nullptr
            : bound_[static_cast<size_t>(pnode.parent->index)];
    AnyCandidate(pnode, context, [&](const xml::Node& dnode) {
      if (!Exists(pnode, dnode)) return false;
      bound_[i] = &dnode;
      if (const int slot = output_slot_[i]; slot >= 0) {
        std::string& output = outputs_[static_cast<size_t>(slot)];
        if (pnode.want_cont) {
          output = xml::Serialize(dnode);
        } else {
          output.clear();
          dnode.AppendStringValue(&output);
        }
      }
      if (const int slot = join_slot_[i]; slot >= 0) {
        std::string& join = joins_[static_cast<size_t>(slot)];
        join.clear();
        dnode.AppendStringValue(&join);
      }
      Bind(i + 1, out);
      return false;
    });
  }

  const TreePattern& pattern_;
  const xml::Document& doc_;
  // Per pattern node: its label stream, its output and join slots (-1 if
  // none), and its current binding during Bind.
  std::vector<std::span<const xml::Node* const>> streams_;
  std::vector<int> output_slot_;
  std::vector<int> join_slot_;
  std::vector<const xml::Node*> bound_;
  // The slots of the embedding being bound, copied once per emission.
  std::vector<std::string> outputs_;
  std::vector<std::string> joins_;
};

}  // namespace

size_t QueryResult::ContributingDocuments() const {
  std::set<std::string> uris;
  for (const auto& row : row_uris) uris.insert(row.begin(), row.end());
  return uris.size();
}

uint64_t QueryResult::SizeBytes() const {
  uint64_t total = 0;
  for (const auto& row : rows) {
    total += 16;  // row framing
    for (const auto& col : row) total += col.size() + 12;
  }
  return total;
}

std::string QueryResult::ToXml() const {
  std::string out = "<results>";
  for (const auto& row : rows) {
    out += "<row>";
    for (size_t c = 0; c < row.size(); ++c) {
      const bool cont = c < cont_columns.size() && cont_columns[c];
      out += "<col>";
      out += cont ? row[c] : xml::EscapeText(row[c]);
      out += "</col>";
    }
    out += "</row>";
  }
  out += "</results>";
  return out;
}

Evaluator::WorkStats& Evaluator::ThreadStats() {
  thread_local WorkStats stats;
  return stats;
}

bool& Evaluator::ThreadStatsPending() {
  thread_local bool pending = false;
  return pending;
}

Evaluator::WorkStats Evaluator::ConsumeWorkStats() {
  WorkStats out = ThreadStats();
  ThreadStats() = WorkStats();
  ThreadStatsPending() = false;
  return out;
}

bool Evaluator::HasPendingWorkStats() { return ThreadStatsPending(); }

std::vector<PatternMatch> Evaluator::MatchPattern(const TreePattern& pattern,
                                                  const xml::Document& doc) {
  ThreadStats().doc_bytes_scanned += doc.size_bytes();
  ThreadStatsPending() = true;
  auto matches = PatternMatcher(pattern, doc).AllEmbeddings();
  ThreadStats().embeddings_found += matches.size();
  return matches;
}

bool Evaluator::Matches(const TreePattern& pattern,
                        const xml::Document& doc) {
  ThreadStats().doc_bytes_scanned += doc.size_bytes();
  ThreadStatsPending() = true;
  return PatternMatcher(pattern, doc).AnyEmbedding();
}

QueryResult Evaluator::Evaluate(const Query& query,
                                const std::vector<const xml::Document*>& docs) {
  // Step 1: evaluate each tree pattern individually over every document.
  std::vector<std::vector<PatternMatch>> per_pattern(query.patterns().size());
  for (size_t p = 0; p < query.patterns().size(); ++p) {
    for (const xml::Document* doc : docs) {
      auto matches = MatchPattern(query.patterns()[p], *doc);
      for (auto& match : matches) {
        per_pattern[p].push_back(std::move(match));
      }
    }
  }

  // Map (pattern, node index) -> join slot for predicate evaluation.
  std::vector<std::vector<int>> join_slot(query.patterns().size());
  for (size_t p = 0; p < query.patterns().size(); ++p) {
    const TreePattern& pattern = query.patterns()[p];
    join_slot[p].assign(static_cast<size_t>(pattern.size()), -1);
    int slot = 0;
    for (const PatternNode* node : pattern.nodes()) {
      if (!node->join_tag.empty()) {
        join_slot[p][static_cast<size_t>(node->index)] = slot++;
      }
    }
  }

  // Step 2: combine the per-pattern relations with the value joins
  // (nested-loop; pattern result sets are small after index pruning).
  QueryResult result;
  for (const TreePattern& pattern : query.patterns()) {
    for (const PatternNode* node : pattern.output_nodes()) {
      result.cont_columns.push_back(node->want_cont);
    }
  }
  std::vector<const PatternMatch*> current(query.patterns().size(), nullptr);
  std::function<void(size_t)> combine = [&](size_t p) {
    if (p == query.patterns().size()) {
      std::vector<std::string> row;
      std::vector<std::string> uris;
      for (const PatternMatch* match : current) {
        row.insert(row.end(), match->outputs.begin(), match->outputs.end());
        uris.push_back(match->uri);
      }
      result.rows.push_back(std::move(row));
      result.row_uris.push_back(std::move(uris));
      return;
    }
    for (const PatternMatch& match : per_pattern[p]) {
      current[p] = &match;
      // Check every join whose two sides are already bound.
      bool ok = true;
      for (const ValueJoin& join : query.joins()) {
        const size_t lp = static_cast<size_t>(join.left_pattern);
        const size_t rp = static_cast<size_t>(join.right_pattern);
        if (lp > p || rp > p) continue;  // a side not bound yet
        const int ls = join_slot[lp][static_cast<size_t>(join.left_node)];
        const int rs = join_slot[rp][static_cast<size_t>(join.right_node)];
        if (ls < 0 || rs < 0) continue;  // join on untagged node: ignore
        if (current[lp]->join_values[static_cast<size_t>(ls)] !=
            current[rp]->join_values[static_cast<size_t>(rs)]) {
          ok = false;
          break;
        }
      }
      if (ok) combine(p + 1);
    }
  };
  if (!query.patterns().empty()) combine(0);

  ThreadStats().result_bytes += result.SizeBytes();
  ThreadStatsPending() = true;
  return result;
}

}  // namespace webdex::query
