#ifndef XQP_EXEC_AXES_H_
#define XQP_EXEC_AXES_H_

#include <memory>

#include "exec/item.h"
#include "query/expr.h"
#include "xml/node.h"

namespace xqp {

class DocumentProvider;
class TagIndex;

/// Streaming cursor over one axis from one origin node, filtered by a node
/// test. Forward axes deliver document order; reverse axes deliver reverse
/// document order (the order XPath predicates count in). The caller owns
/// origin's document for the cursor's lifetime.
///
/// The cursor walks node-table rows, tests each NodeRecord, and hands out
/// row indexes; a Node handle (one shared_ptr copy) is built only for a
/// match. A descendant or descendant-or-self step with an exact element
/// name takes the tag-slice route when `provider` already holds a TagIndex
/// over exactly the origin's Document (DocumentProvider::PeekTagIndex,
/// which never builds): the name's postings are binary-searched for the
/// region (origin, end], so the walk costs O(log n + matches) instead of
/// O(subtree rows). Any other case scans the region.
class AxisCursor {
 public:
  AxisCursor(const Node& origin, Axis axis, const NodeTest* test,
             const DocumentProvider* provider = nullptr);

  /// Advances to the next matching node. Returns false at axis end.
  bool Next(Node* out);

  /// Next() without the handle: the matching row of the origin's document.
  bool NextIndex(NodeIndex* out);

 private:
  /// Next row the axis visits (before the node test), kNullNode at end.
  NodeIndex Candidate();
  bool Matches(NodeIndex i) const;
  /// Switches a descendant walk to the tag-slice route when it applies.
  void TrySlice(const DocumentProvider& provider);

  Node origin_;
  Axis axis_;
  const NodeTest* test_;
  // Walk state.
  NodeIndex current_ = kNullNode;
  NodeIndex scan_ = kNullNode;       // For range-scan axes.
  NodeIndex scan_end_ = kNullNode;   // Inclusive.
  bool done_ = false;
  bool include_self_pending_ = false;
  // Tag-slice route: the matching postings [slice_, slice_end_), kept
  // alive by tags_ even if the provider drops its index meanwhile.
  std::shared_ptr<const TagIndex> tags_;
  const NodeIndex* slice_ = nullptr;
  const NodeIndex* slice_end_ = nullptr;
};

/// Appends all nodes selected by `axis`/`test` from `origin` to `out`
/// (convenience for the eager interpreter and the VM). `provider`, when
/// given, is peeked for a tag index as AxisCursor describes.
void CollectAxis(const Node& origin, Axis axis, const NodeTest& test,
                 Sequence* out, const DocumentProvider* provider = nullptr);

}  // namespace xqp

#endif  // XQP_EXEC_AXES_H_
