#ifndef XQP_EXEC_CONSTRUCTOR_H_
#define XQP_EXEC_CONSTRUCTOR_H_

#include <span>
#include <vector>

#include "exec/dynamic_context.h"
#include "exec/item.h"
#include "query/expr.h"

namespace xqp {

/// Shared node-construction semantics used by both engines. Constructors
/// copy their node content into a fresh document ("XML does not allow cut
/// and paste") and join adjacent atomic values within one enclosed
/// expression with single spaces, per the XQuery constructor rules.
namespace construct {

/// The expressions a backend evaluates for the constructor `ctor`, in
/// order: its children (a computed name first), except that an element's
/// inline attributes are replaced by their value parts (their own
/// children). An inline attribute is a content child that is an attribute
/// constructor with a static name, such as the direct attribute in
/// `<a b="x{$v}"/>`; Element builds it inside the element's own document
/// instead of building a parentless attribute node and copying it.
std::vector<const Expr*> Inputs(const Expr& ctor);

/// Builds an element node for `ctor` named `name`. `parts` holds the
/// values of Inputs(ctor) past the computed name, in order.
/// Attribute items must come first within the content. Returns the new
/// element as an item rooted in a fresh document.
Result<Item> Element(const ElementCtorExpr& ctor, const QName& name,
                     std::span<const Sequence> parts, DynamicContext* ctx);

/// Builds a parentless attribute node.
Result<Item> Attribute(const QName& name,
                       const std::vector<Sequence>& value_parts,
                       DynamicContext* ctx);

/// Builds a text node; empty content yields the empty sequence.
Result<Sequence> Text(const Sequence& content, DynamicContext* ctx);

Result<Item> Comment(const Sequence& content, DynamicContext* ctx);

Result<Item> Pi(const std::string& target, const Sequence& content,
                DynamicContext* ctx);

/// Builds a document node with the given content children.
Result<Item> DocumentNode(const std::vector<Sequence>& content_parts,
                          DynamicContext* ctx);

/// Joins the atomized lexical forms of `seq` with single spaces (the
/// attribute-value and text-content rule).
std::string AtomizedString(const Sequence& seq);

}  // namespace construct

}  // namespace xqp

#endif  // XQP_EXEC_CONSTRUCTOR_H_
