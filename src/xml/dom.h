#ifndef WEBDEX_XML_DOM_H_
#define WEBDEX_XML_DOM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace webdex::xml {

/// Structural node identifier: the (pre, post, depth) scheme of
/// Al-Khalifa et al. [3], used by the LUI / 2LUPI strategies (paper
/// Section 5).  For nodes n1, n2 of the same document:
///   * n1 is an ancestor of n2  iff  n1.pre < n2.pre and n1.post > n2.post
///   * additionally n1 is n2's parent  iff  n1.depth + 1 == n2.depth
struct NodeId {
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t depth = 0;

  bool IsAncestorOf(const NodeId& other) const {
    return pre < other.pre && post > other.post;
  }
  bool IsParentOf(const NodeId& other) const {
    return IsAncestorOf(other) && depth + 1 == other.depth;
  }

  friend bool operator==(const NodeId&, const NodeId&) = default;
  /// Document order == pre order.
  friend auto operator<=>(const NodeId& a, const NodeId& b) {
    return a.pre <=> b.pre;
  }

  std::string ToString() const;  // "(pre, post, depth)"
};

enum class NodeKind {
  kElement,
  kAttribute,  // label = attribute name, value = attribute value
  kText,       // value = character data
};

/// A node of the in-memory document tree.  Owned by its parent; the root
/// is owned by the Document.
class Node {
 public:
  Node(NodeKind kind, std::string label) : kind_(kind), label_(std::move(label)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }
  bool is_element() const { return kind_ == NodeKind::kElement; }
  bool is_attribute() const { return kind_ == NodeKind::kAttribute; }
  bool is_text() const { return kind_ == NodeKind::kText; }

  /// Element tag name or attribute name; empty for text nodes.
  const std::string& label() const { return label_; }

  /// Attribute value or text content; empty for elements.
  const std::string& value() const { return value_; }
  void set_value(std::string v) { value_ = std::move(v); }

  const NodeId& id() const { return id_; }
  void set_id(NodeId id) { id_ = id; }

  Node* parent() const { return parent_; }

  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }

  /// Appends a child and returns a borrowed pointer to it.
  Node* AddChild(std::unique_ptr<Node> child);

  /// Convenience builders (used heavily by generators and tests).
  Node* AddElement(std::string label);
  Node* AddAttribute(std::string name, std::string value);
  Node* AddText(std::string text);

  /// The *string value* of this node per the paper's `val` annotation:
  /// the concatenation of all text descendants (or the attribute value).
  std::string StringValue() const;

  /// Appends the string value into `out` (for callers reusing a buffer
  /// across many nodes, e.g. per-predicate evaluation).
  void AppendStringValue(std::string* out) const { AppendTextTo(out); }

  /// Number of nodes in this subtree (self included).
  size_t SubtreeSize() const;

 private:
  void AppendTextTo(std::string* out) const;

  NodeKind kind_;
  std::string label_;
  std::string value_;
  NodeId id_;
  Node* parent_ = nullptr;
  std::vector<std::unique_ptr<Node>> children_;
};

/// A parsed XML document: URI (its S3 object name), root element, and the
/// serialized size used by the cost model's data metrics (Section 7.1).
class Document {
 public:
  Document(std::string uri, std::unique_ptr<Node> root, size_t size_bytes)
      : uri_(std::move(uri)), root_(std::move(root)), size_bytes_(size_bytes) {}

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  const std::string& uri() const { return uri_; }
  const Node& root() const { return *root_; }
  Node* mutable_root() { return root_.get(); }
  size_t size_bytes() const { return size_bytes_; }

  /// Re-assigns (pre, post, depth) identifiers over the whole tree in
  /// document order (elements and attributes get IDs; text nodes too, so
  /// word occurrences have positions) and rebuilds the label streams
  /// below.  Called by the parser and the XMark generator; call again
  /// after structural mutation.
  void AssignIds();

  /// The label stream of `label`: every element and attribute node with
  /// that label, in document order (text nodes are never listed).  A
  /// `//label` step below a node `d` reads the slice after the first
  /// `pre > d.pre` up to the first `post > d.post`, instead of walking
  /// d's subtree.  Valid until the next AssignIds().
  std::span<const Node* const> NodesLabelled(const std::string& label) const;

 private:
  std::string uri_;
  std::unique_ptr<Node> root_;
  size_t size_bytes_;
  std::unordered_map<std::string, std::vector<const Node*>> labelled_;
};

/// Runs `fn(node)` over the subtree rooted at `node` in document order.
void ForEachNode(const Node& node, const std::function<void(const Node&)>& fn);

}  // namespace webdex::xml

#endif  // WEBDEX_XML_DOM_H_
