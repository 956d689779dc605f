#include "exec/axes.h"

#include <algorithm>

#include "base/metrics.h"
#include "exec/dynamic_context.h"
#include "join/tag_index.h"

namespace xqp {

namespace {

/// Counts which route a descendant step took (one per cursor).
void CountDescendantRoute(bool sliced) {
  if (!metrics::Enabled()) return;
  static metrics::Counter* slice =
      metrics::MetricsRegistry::Global().counter("axis.descendant.tag_slice");
  static metrics::Counter* scan =
      metrics::MetricsRegistry::Global().counter("axis.descendant.scan");
  (sliced ? slice : scan)->Increment();
}

/// An element name test without wildcards: exactly one tag's postings
/// answer it.
bool IsExactElementName(const NodeTest& test) {
  return (test.kind == NodeTest::Kind::kName ||
          test.kind == NodeTest::Kind::kElement) &&
         !test.wildcard_uri && !test.wildcard_local;
}

}  // namespace

AxisCursor::AxisCursor(const Node& origin, Axis axis, const NodeTest* test,
                       const DocumentProvider* provider)
    : origin_(origin), axis_(axis), test_(test) {
  if (origin.IsNull()) {
    done_ = true;
    return;
  }
  const Document& doc = origin.doc();
  const NodeRecord& rec = doc.node(origin.index());
  switch (axis_) {
    case Axis::kChild:
      current_ = rec.first_child;
      break;
    case Axis::kAttribute:
      current_ = rec.first_attr;
      break;
    case Axis::kSelf:
      include_self_pending_ = true;
      break;
    case Axis::kParent:
      current_ = rec.parent;
      break;
    case Axis::kAncestor:
      current_ = rec.parent;
      break;
    case Axis::kAncestorOrSelf:
      include_self_pending_ = true;
      current_ = rec.parent;
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      include_self_pending_ = axis_ == Axis::kDescendantOrSelf;
      // Descendants occupy rows (origin, rec.end]; attributes are skipped
      // during the scan.
      scan_ = origin.index() + 1;
      scan_end_ = rec.end;
      if (provider != nullptr) TrySlice(*provider);
      CountDescendantRoute(tags_ != nullptr);
      break;
    }
    case Axis::kFollowingSibling:
      current_ = rec.kind == NodeKind::kAttribute ? kNullNode
                                                  : rec.next_sibling;
      break;
    case Axis::kPrecedingSibling: {
      // Walk later; handled in Next() by scanning parent's children.
      current_ = kNullNode;
      if (rec.parent != kNullNode && rec.kind != NodeKind::kAttribute) {
        scan_ = doc.node(rec.parent).first_child;
        scan_end_ = origin.index();
      } else {
        done_ = true;
      }
      break;
    }
    case Axis::kFollowing: {
      // All nodes after the subtree, minus attributes.
      scan_ = rec.kind == NodeKind::kAttribute
                  ? origin.index() + 1  // Attribute: following starts after it.
                  : rec.end + 1;
      scan_end_ = static_cast<NodeIndex>(doc.NumNodes() - 1);
      if (scan_ > scan_end_ || doc.NumNodes() == 0) done_ = true;
      break;
    }
    case Axis::kPreceding: {
      // Scan backwards from origin-1 to 1, excluding ancestors/attributes.
      scan_ = origin.index() == 0 ? kNullNode : origin.index() - 1;
      scan_end_ = 1;
      if (origin.index() <= 1) done_ = true;
      break;
    }
  }
}

void AxisCursor::TrySlice(const DocumentProvider& provider) {
  if (test_ == nullptr || !IsExactElementName(*test_)) return;
  if (scan_ > scan_end_) return;
  std::shared_ptr<const TagIndex> tags = provider.PeekTagIndex(origin_.doc());
  if (tags == nullptr) return;
  if (const std::vector<NodeIndex>* postings =
          tags->Lookup(test_->uri, test_->local)) {
    const NodeIndex* first = postings->data();
    const NodeIndex* last = first + postings->size();
    slice_ = std::lower_bound(first, last, scan_);
    slice_end_ = std::upper_bound(slice_, last, scan_end_);
  }
  tags_ = std::move(tags);
}

bool AxisCursor::Matches(NodeIndex i) const {
  if (test_ == nullptr) return true;
  return test_->Matches(origin_.doc(), i, axis_ == Axis::kAttribute);
}

NodeIndex AxisCursor::Candidate() {
  const Document& doc = origin_.doc();
  switch (axis_) {
    case Axis::kSelf:
      if (!include_self_pending_) return kNullNode;
      include_self_pending_ = false;
      return origin_.index();
    case Axis::kChild:
    case Axis::kAttribute:
    case Axis::kFollowingSibling: {
      NodeIndex i = current_;
      if (i != kNullNode) current_ = doc.node(i).next_sibling;
      return i;
    }
    case Axis::kParent: {
      NodeIndex i = current_;
      current_ = kNullNode;
      return i;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      if (include_self_pending_) {
        include_self_pending_ = false;
        return origin_.index();
      }
      NodeIndex i = current_;
      if (i != kNullNode) current_ = doc.node(i).parent;
      return i;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      if (include_self_pending_) {
        include_self_pending_ = false;
        return origin_.index();
      }
      while (scan_ != kNullNode && scan_ <= scan_end_ &&
             scan_ < doc.NumNodes()) {
        NodeIndex i = scan_++;
        if (doc.node(i).kind != NodeKind::kAttribute) return i;
      }
      return kNullNode;
    }
    case Axis::kPrecedingSibling: {
      // Siblings before origin, in reverse document order. Collect lazily:
      // walk forward each time from scan_ to find the last sibling before
      // scan_end_. Sibling lists are short; O(k^2) worst case is fine.
      if (done_ || scan_ == kNullNode) return kNullNode;
      NodeIndex last = kNullNode;
      for (NodeIndex c = scan_; c != kNullNode && c < scan_end_;
           c = doc.node(c).next_sibling) {
        last = c;
      }
      if (last == kNullNode) {
        done_ = true;
        return kNullNode;
      }
      scan_end_ = last;
      return last;
    }
    case Axis::kFollowing: {
      while (!done_ && scan_ <= scan_end_ && scan_ < doc.NumNodes()) {
        NodeIndex i = scan_++;
        if (doc.node(i).kind != NodeKind::kAttribute) return i;
      }
      return kNullNode;
    }
    case Axis::kPreceding: {
      while (!done_ && scan_ != kNullNode && scan_ >= scan_end_) {
        NodeIndex i = scan_;
        scan_ = (scan_ == scan_end_) ? kNullNode : scan_ - 1;
        const NodeRecord& rec = doc.node(i);
        if (rec.kind == NodeKind::kAttribute) continue;
        // Exclude ancestors of the origin.
        if (i < origin_.index() && origin_.index() <= rec.end) continue;
        return i;
      }
      return kNullNode;
    }
  }
  return kNullNode;
}

bool AxisCursor::NextIndex(NodeIndex* out) {
  if (tags_ != nullptr) {
    // Tag slice: every posting in range matches; only the origin itself
    // (descendant-or-self) still needs the test.
    if (include_self_pending_) {
      include_self_pending_ = false;
      if (Matches(origin_.index())) {
        *out = origin_.index();
        return true;
      }
    }
    if (slice_ == slice_end_) return false;
    *out = *slice_++;
    return true;
  }
  for (NodeIndex i = Candidate(); i != kNullNode; i = Candidate()) {
    if (Matches(i)) {
      *out = i;
      return true;
    }
  }
  return false;
}

bool AxisCursor::Next(Node* out) {
  NodeIndex i;
  if (!NextIndex(&i)) return false;
  *out = Node(origin_.doc_ptr(), i);
  return true;
}

void CollectAxis(const Node& origin, Axis axis, const NodeTest& test,
                 Sequence* out, const DocumentProvider* provider) {
  AxisCursor cursor(origin, axis, &test, provider);
  NodeIndex i;
  while (cursor.NextIndex(&i)) out->emplace_back(Node(origin.doc_ptr(), i));
}

}  // namespace xqp
