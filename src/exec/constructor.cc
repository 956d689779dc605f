#include "exec/constructor.h"

namespace xqp {
namespace construct {

std::string AtomizedString(const Sequence& seq) {
  std::string out;
  bool first = true;
  for (const Item& item : seq) {
    if (!first) out.push_back(' ');
    out += item.Atomized().Lexical();
    first = false;
  }
  return out;
}

namespace {

/// Appends one content part (the value of one enclosed expression) to the
/// builder: atomic runs join with spaces into text; nodes are deep-copied.
Status AppendContentPart(DocumentBuilder* builder, const Sequence& part,
                         bool allow_attributes) {
  std::string pending;  // Joined atomics not yet flushed.
  bool has_pending = false;
  auto flush = [&]() -> Status {
    if (has_pending) {
      XQP_RETURN_NOT_OK(builder->Text(pending));
      pending.clear();
      has_pending = false;
    }
    return Status::OK();
  };
  for (const Item& item : part) {
    if (item.IsAtomic()) {
      if (has_pending) pending.push_back(' ');
      pending += item.AsAtomic().Lexical();
      has_pending = true;
      continue;
    }
    XQP_RETURN_NOT_OK(flush());
    const Node& node = item.AsNode();
    if (node.kind() == NodeKind::kAttribute && !allow_attributes) {
      return Status::DynamicError(
          "attribute node not allowed in this content position");
    }
    XQP_RETURN_NOT_OK(builder->CopySubtree(node.doc(), node.index()));
  }
  return flush();
}

Status PartsMismatch() {
  return Status::Internal("element constructor parts do not match its inputs");
}

bool IsInlineAttribute(const Expr& child) {
  return child.kind() == ExprKind::kAttributeCtor &&
         !static_cast<const AttributeCtorExpr&>(child).computed_name;
}

}  // namespace

std::vector<const Expr*> Inputs(const Expr& ctor) {
  const size_t content_start =
      ctor.kind() == ExprKind::kElementCtor
          ? static_cast<const ElementCtorExpr&>(ctor).ContentStart()
          : ctor.NumChildren();  // Only elements have inline attributes.
  std::vector<const Expr*> inputs;
  inputs.reserve(ctor.NumChildren());
  for (size_t i = 0; i < ctor.NumChildren(); ++i) {
    const Expr* child = ctor.child(i);
    if (i >= content_start && IsInlineAttribute(*child)) {
      for (size_t j = 0; j < child->NumChildren(); ++j) {
        inputs.push_back(child->child(j));
      }
    } else {
      inputs.push_back(child);
    }
  }
  return inputs;
}

Result<Item> Element(const ElementCtorExpr& ctor, const QName& name,
                     std::span<const Sequence> parts, DynamicContext* ctx) {
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.BeginElement(name));
  for (const auto& d : ctor.ns_decls) {
    XQP_RETURN_NOT_OK(builder.NamespaceDecl(d.prefix, d.uri));
  }
  size_t next = 0;  // First part of the current content child.
  for (size_t i = ctor.ContentStart(); i < ctor.NumChildren(); ++i) {
    const Expr& child = *ctor.child(i);
    const size_t width = IsInlineAttribute(child) ? child.NumChildren() : 1;
    if (width > parts.size() - next) return PartsMismatch();
    if (IsInlineAttribute(child)) {
      // Same value joining as Attribute(); the builder's duplicate and
      // ordering checks give the errors copying the node would.
      std::string value;
      for (const Sequence& part : parts.subspan(next, width)) {
        value += AtomizedString(part);
      }
      XQP_RETURN_NOT_OK(builder.Attribute(
          static_cast<const AttributeCtorExpr&>(child).name, value));
    } else {
      XQP_RETURN_NOT_OK(AppendContentPart(&builder, parts[next],
                                          /*allow_attributes=*/true));
    }
    next += width;
  }
  if (next != parts.size()) return PartsMismatch();
  XQP_RETURN_NOT_OK(builder.EndElement());
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ctx->stats.nodes_constructed += doc->NumNodes();
  }
  return Item(Node(std::move(doc), 1));
}

Result<Item> Attribute(const QName& name,
                       const std::vector<Sequence>& value_parts,
                       DynamicContext* ctx) {
  std::string value;
  for (const Sequence& part : value_parts) value += AtomizedString(part);
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.OrphanAttribute(name, value));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ++ctx->stats.nodes_constructed;
  }
  return Item(Node(std::move(doc), 1));
}

Result<Sequence> Text(const Sequence& content, DynamicContext* ctx) {
  if (content.empty()) return Sequence{};
  std::string value = AtomizedString(content);
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.Text(value));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (doc->NumNodes() < 2) return Sequence{};  // Empty text dropped.
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ++ctx->stats.nodes_constructed;
  }
  return Sequence{Item(Node(std::move(doc), 1))};
}

Result<Item> Comment(const Sequence& content, DynamicContext* ctx) {
  std::string value = AtomizedString(content);
  if (value.find("--") != std::string::npos || (!value.empty() && value.back() == '-')) {
    return Status::DynamicError("comment content may not contain \"--\"");
  }
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.Comment(value));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ++ctx->stats.nodes_constructed;
  }
  return Item(Node(std::move(doc), 1));
}

Result<Item> Pi(const std::string& target, const Sequence& content,
                DynamicContext* ctx) {
  std::string value = AtomizedString(content);
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.ProcessingInstruction(target, value));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ++ctx->stats.nodes_constructed;
  }
  return Item(Node(std::move(doc), 1));
}

Result<Item> DocumentNode(const std::vector<Sequence>& content_parts,
                          DynamicContext* ctx) {
  DocumentBuilder builder;
  for (const Sequence& part : content_parts) {
    XQP_RETURN_NOT_OK(AppendContentPart(&builder, part,
                                        /*allow_attributes=*/false));
  }
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ctx->stats.nodes_constructed += doc->NumNodes();
  }
  return Item(Node(std::move(doc), 0));
}

}  // namespace construct
}  // namespace xqp
