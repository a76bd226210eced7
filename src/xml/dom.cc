#include "xml/dom.h"

#include "common/strings.h"

namespace webdex::xml {

std::string NodeId::ToString() const {
  return StrFormat("(%u, %u, %u)", pre, post, depth);
}

Node* Node::AddChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::AddElement(std::string label) {
  return AddChild(std::make_unique<Node>(NodeKind::kElement, std::move(label)));
}

Node* Node::AddAttribute(std::string name, std::string value) {
  auto attr = std::make_unique<Node>(NodeKind::kAttribute, std::move(name));
  attr->set_value(std::move(value));
  return AddChild(std::move(attr));
}

Node* Node::AddText(std::string text) {
  auto node = std::make_unique<Node>(NodeKind::kText, "");
  node->set_value(std::move(text));
  return AddChild(std::move(node));
}

void Node::AppendTextTo(std::string* out) const {
  if (is_text() || is_attribute()) {
    out->append(value_);
    return;
  }
  for (const auto& child : children_) {
    if (!child->is_attribute()) child->AppendTextTo(out);
  }
}

std::string Node::StringValue() const {
  std::string out;
  AppendTextTo(&out);
  return out;
}

size_t Node::SubtreeSize() const {
  size_t n = 1;
  for (const auto& child : children_) n += child->SubtreeSize();
  return n;
}

namespace {

void AssignIdsRecursive(
    Node* node, uint32_t depth, uint32_t* pre, uint32_t* post,
    std::unordered_map<std::string, std::vector<const Node*>>* labelled) {
  if (!node->is_text()) (*labelled)[node->label()].push_back(node);
  NodeId id;
  id.pre = (*pre)++;
  id.depth = depth;
  for (auto& child : node->children()) {
    AssignIdsRecursive(child.get(), depth + 1, pre, post, labelled);
  }
  id.post = (*post)++;
  node->set_id(id);
}

}  // namespace

void Document::AssignIds() {
  labelled_.clear();
  uint32_t pre = 1;
  uint32_t post = 1;
  AssignIdsRecursive(root_.get(), 1, &pre, &post, &labelled_);
}

std::span<const Node* const> Document::NodesLabelled(
    const std::string& label) const {
  const auto it = labelled_.find(label);
  if (it == labelled_.end()) return {};
  return it->second;
}

void ForEachNode(const Node& node,
                 const std::function<void(const Node&)>& fn) {
  fn(node);
  for (const auto& child : node.children()) ForEachNode(*child, fn);
}

}  // namespace webdex::xml
