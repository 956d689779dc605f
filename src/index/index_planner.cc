#include "index/index_planner.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace xqp {
namespace {

/// True for descendant-or-self::node() — the "//" connector step.
bool IsDosConnector(const Expr* e) {
  if (e->kind() != ExprKind::kStep) return false;
  const auto* step = static_cast<const StepExpr*>(e);
  return step->axis == Axis::kDescendantOrSelf &&
         step->test.kind == NodeTest::Kind::kAnyKind;
}

/// A named forward step the synopsis can resolve: child / descendant /
/// attribute axis with a non-wildcard name test.
const StepExpr* AsIndexableStep(const Expr* e) {
  if (e->kind() != ExprKind::kStep) return nullptr;
  const auto* step = static_cast<const StepExpr*>(e);
  if (step->axis != Axis::kChild && step->axis != Axis::kDescendant &&
      step->axis != Axis::kAttribute) {
    return nullptr;
  }
  if (step->test.kind != NodeTest::Kind::kName || step->test.wildcard_local ||
      step->test.wildcard_uri) {
    return nullptr;
  }
  return step;
}

/// Flattens a left-deep path chain into its sequence of rhs expressions,
/// returning the anchor (leftmost) expression.
const Expr* FlattenChain(const Expr* e, std::vector<const Expr*>* steps) {
  if (e->kind() == ExprKind::kPath) {
    const Expr* anchor = FlattenChain(e->child(0), steps);
    steps->push_back(e->child(1));
    return anchor;
  }
  return e;
}

/// Mirrors `literal op step` into `step op' literal`.
CompOp FlipOp(CompOp op) {
  switch (op) {
    case CompOp::kGenLt: return CompOp::kGenGt;
    case CompOp::kGenLe: return CompOp::kGenGe;
    case CompOp::kGenGt: return CompOp::kGenLt;
    case CompOp::kGenGe: return CompOp::kGenLe;
    default: return op;  // eq / ne are symmetric.
  }
}

/// Parses a value predicate's compared operand into its target path: a
/// relative chain of named child steps, optionally ending in one attribute
/// step (a single step is the one-element chain). False for anything else —
/// `//`, other axes, wildcards, filtered steps, a non-step anchor such as
/// `.` or `$v`.
bool PlanTargetPath(const Expr* e, std::vector<IndexStep>* target) {
  std::vector<const Expr*> chain;
  const Expr* first = FlattenChain(e, &chain);
  chain.insert(chain.begin(), first);
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i]->kind() != ExprKind::kStep) return false;
    const auto* step = static_cast<const StepExpr*>(chain[i]);
    bool attribute = step->axis == Axis::kAttribute;
    if (step->axis != Axis::kChild &&
        !(attribute && i + 1 == chain.size())) {
      return false;
    }
    if (step->test.kind != NodeTest::Kind::kName ||
        step->test.wildcard_local || step->test.wildcard_uri) {
      return false;
    }
    IndexStep st;
    st.uri = step->test.uri;
    st.local = step->test.local;
    st.attribute = attribute;
    target->push_back(std::move(st));
  }
  return true;
}

/// Parses one predicate expression into an IndexPredicate, or nullopt when
/// it is outside the fragment (non-comparison, non-literal operand, boolean
/// literal, value comparison, ...). A bare numeric literal becomes a
/// positional predicate (position() == value semantics, exactly as the
/// filter iterators special-case it).
std::optional<IndexPredicate> PlanPredicate(const Expr* p) {
  if (p->kind() == ExprKind::kLiteral) {
    const AtomicValue& v = static_cast<const LiteralExpr*>(p)->value;
    if (!v.IsNumeric()) return std::nullopt;
    IndexPredicate pred;
    pred.positional = true;
    pred.operand = v;
    return pred;
  }
  if (p->kind() != ExprKind::kComparison) return std::nullopt;
  const auto* cmp = static_cast<const ComparisonExpr*>(p);
  if (!IsGeneralComp(cmp->op)) return std::nullopt;
  const Expr* a = cmp->child(0);
  const Expr* b = cmp->child(1);
  const Expr* path_e = a;
  const Expr* lit_e = b;
  bool flipped = false;
  if (a->kind() == ExprKind::kLiteral) {
    std::swap(path_e, lit_e);
    flipped = true;
  }
  if (lit_e->kind() != ExprKind::kLiteral) return std::nullopt;
  const AtomicValue& v = static_cast<const LiteralExpr*>(lit_e)->value;
  // Boolean (and exotic) operands take the untyped-vs-boolean cast route;
  // leave those to normal evaluation.
  if (!v.IsNumeric() && !v.IsStringLike()) return std::nullopt;
  IndexPredicate pred;
  if (!PlanTargetPath(path_e, &pred.target)) return std::nullopt;
  pred.op = flipped ? FlipOp(cmp->op) : cmp->op;
  pred.operand = v;
  return pred;
}

/// Flattens an `and`-chain into its conjuncts (any other expression is its
/// own single conjunct).
void FlattenAnd(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind() == ExprKind::kLogical) {
    const auto* l = static_cast<const LogicalExpr*>(e);
    if (l->is_and) {
      FlattenAnd(l->child(0), out);
      FlattenAnd(l->child(1), out);
      return;
    }
  }
  out->push_back(e);
}

/// Attribute children of the synopsis subtree rooted at `s`, inclusive of
/// `s` itself — the resolution of `X//@name` (descendant-or-self + the
/// attribute axis reaches X's own attributes too).
void CollectAttrsInclusive(const DocumentIndexes& idx, int32_t s,
                           uint32_t name_id, std::vector<int32_t>* out) {
  int32_t a = idx.FindChild(s, NodeKind::kAttribute, name_id);
  if (a >= 0) out->push_back(a);
  for (int32_t c : idx.synopsis_node(s).children) {
    if (idx.synopsis_node(c).kind == NodeKind::kElement) {
      CollectAttrsInclusive(idx, c, name_id, out);
    }
  }
}

void SortUnique(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Advances a synopsis frontier across one step. Frontier sets stay sorted
/// and duplicate-free.
std::vector<int32_t> ResolveStep(const DocumentIndexes& idx,
                                 const std::vector<int32_t>& frontier,
                                 const IndexStep& st, uint32_t name_id) {
  std::vector<int32_t> next;
  if (name_id == kNoName) return next;  // Name absent from the document.
  NodeKind kind = st.attribute ? NodeKind::kAttribute : NodeKind::kElement;
  for (int32_t s : frontier) {
    if (!st.descendant) {
      int32_t c = idx.FindChild(s, kind, name_id);
      if (c >= 0) next.push_back(c);
    } else if (st.attribute) {
      CollectAttrsInclusive(idx, s, name_id, &next);
    } else {
      idx.FindDescendants(s, kind, name_id, &next);
    }
  }
  SortUnique(&next);
  return next;
}

/// Concatenate-and-sort of the (pairwise disjoint) posting lists of a
/// synopsis set: the document-order distinct node set on those paths.
std::vector<NodeIndex> MergedPostings(const DocumentIndexes& idx,
                                      const std::vector<int32_t>& syn) {
  std::vector<NodeIndex> out;
  size_t total = 0;
  for (int32_t s : syn) total += idx.postings(s).size();
  out.reserve(total);
  for (int32_t s : syn) {
    const std::span<const NodeIndex> p = idx.postings(s);
    out.insert(out.end(), p.begin(), p.end());
  }
  if (syn.size() > 1) std::sort(out.begin(), out.end());
  return out;
}

/// The entries of one sorted value family that satisfy `op` against a
/// literal: at most two position ranges [begin, end).
struct MatchRanges {
  size_t begin[2] = {0, 0};
  size_t end[2] = {0, 0};
};

/// Where a literal falls in a sorted family — [0, lo) orders below it,
/// [lo, hi) equals it, [hi, ordered) orders above it, [ordered, size) is
/// unordered against it (NaN entries, or everything for a NaN literal) —
/// and the ranges `op` selects, mirroring ApplyOpNanAware: an unordered
/// pair satisfies only !=. The one place both the scan and the count-only
/// estimator get their bounds.
MatchRanges RangesFor(CompOp op, size_t lo, size_t hi, size_t ordered,
                      size_t size) {
  MatchRanges m;
  auto set = [&m](int i, size_t b, size_t e) {
    m.begin[i] = b;
    m.end[i] = e;
  };
  switch (op) {
    case CompOp::kGenEq: set(0, lo, hi); break;
    case CompOp::kGenNe:
      // Everything but the equal run — unordered entries included.
      set(0, 0, lo);
      set(1, hi, size);
      break;
    case CompOp::kGenLt: set(0, 0, lo); break;
    case CompOp::kGenLe: set(0, 0, hi); break;
    case CompOp::kGenGt: set(0, hi, ordered); break;
    case CompOp::kGenGe: set(0, lo, ordered); break;
    default: break;
  }
  return m;
}

/// Byte-wise bounds over a string family (general-comparison string
/// semantics); every entry is ordered against a string.
MatchRanges StringRanges(const DocumentIndexes& idx,
                         std::span<const DocumentIndexes::StringEntry> v,
                         std::string_view val, CompOp op) {
  auto value = [&idx](const DocumentIndexes::StringEntry& e) {
    return idx.StringValue(e.ref);
  };
  auto lo = std::partition_point(
      v.begin(), v.end(), [&](const auto& e) { return value(e) < val; });
  auto hi = std::partition_point(
      lo, v.end(), [&](const auto& e) { return !(val < value(e)); });
  return RangesFor(op, lo - v.begin(), hi - v.begin(), v.size(), v.size());
}

/// Numeric bounds over a number family (NaN entries last).
MatchRanges NumberRanges(std::span<const DocumentIndexes::NumberEntry> v,
                         double val, CompOp op) {
  if (std::isnan(val)) return RangesFor(op, 0, 0, 0, v.size());
  auto nan_begin = std::partition_point(
      v.begin(), v.end(), [](const auto& e) { return !std::isnan(e.value); });
  auto lo = std::partition_point(
      v.begin(), nan_begin, [&](const auto& e) { return e.value < val; });
  auto hi = std::partition_point(
      lo, nan_begin, [&](const auto& e) { return !(val < e.value); });
  return RangesFor(op, lo - v.begin(), hi - v.begin(), nan_begin - v.begin(),
                   v.size());
}

/// Resolves the value predicate's target paths under a synopsis frontier
/// and calls `fn(family, ranges)` with each target path's family and the
/// ranges matching `pred`. False when the value index cannot prove the
/// predicate (fall back); a target path absent from the document visits
/// nothing.
template <typename Fn>
bool ForEachPredicateMatch(const DocumentIndexes& idx,
                           const std::vector<int32_t>& frontier,
                           const IndexPredicate& pred, Fn fn) {
  bool numeric = pred.operand.IsNumeric();
  if (numeric && !(idx.value_kinds() & kIndexValueNumeric)) return false;
  if (!numeric && !(idx.value_kinds() & kIndexValueString)) return false;
  std::string sval = numeric ? std::string() : pred.operand.AsString();
  double dval = numeric ? pred.operand.NumericAsDouble() : 0.0;
  for (int32_t t : ResolveTargetPaths(idx, frontier, pred.target)) {
    std::optional<DocumentIndexes::ValuePostings> vp = idx.values(t);
    if (!vp || !vp->indexable) return false;
    if (numeric) {
      // A single uncastable value on the path means normal evaluation
      // would raise FORG0001 the moment it compares that node; only the
      // fallback plan can reproduce that.
      if (!vp->all_numeric) return false;
      fn(vp->by_number, NumberRanges(vp->by_number, dval, pred.op));
    } else {
      fn(vp->by_string, StringRanges(idx, vp->by_string, sval, pred.op));
    }
  }
  return true;
}

/// Applies the value predicate over a synopsis frontier: range-scans the
/// target paths' value postings, then lifts each matched target
/// target.size() parents up to the filtered step's node it qualifies (each
/// target step is one child or attribute level). nullopt = the value index
/// cannot prove this predicate; fall back.
std::optional<std::vector<NodeIndex>> ApplyPredicate(
    const DocumentIndexes& idx, const std::vector<int32_t>& frontier,
    const IndexPredicate& pred) {
  const Document& doc = idx.doc();
  const size_t depth = pred.target.size();
  // Existential semantics: a base qualifies when any target below it
  // matched; several matched targets lifting to one base dedup below.
  std::vector<NodeIndex> bases;
  bool provable = ForEachPredicateMatch(
      idx, frontier, pred, [&](auto family, const MatchRanges& m) {
        for (int i = 0; i < 2; ++i) {
          for (size_t k = m.begin[i]; k < m.end[i]; ++k) {
            NodeIndex n = family[k].node;
            for (size_t d = 0; d < depth; ++d) n = doc.node(n).parent;
            bases.push_back(n);
          }
        }
      });
  if (!provable) return std::nullopt;
  std::sort(bases.begin(), bases.end());
  bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
  return bases;
}

/// Positional selection: the k-th node per parent, in document order. The
/// pool is doc-ordered, so the k-th occurrence under a parent is its k-th
/// qualifying child. Non-integral, non-positive, NaN, or out-of-range
/// positions match nothing (position() == value semantics).
std::vector<NodeIndex> SelectKthPerParent(const Document& doc,
                                          const std::vector<NodeIndex>& pool,
                                          double k) {
  std::vector<NodeIndex> out;
  if (!(k >= 1.0) || k != std::floor(k) ||
      k > static_cast<double>(pool.size())) {
    return out;
  }
  const uint64_t kk = static_cast<uint64_t>(k);
  std::unordered_map<NodeIndex, uint64_t> seen;
  for (NodeIndex n : pool) {
    if (++seen[doc.node(n).parent] == kk) out.push_back(n);
  }
  return out;
}

/// Navigates one step from materialized nodes (the steps after a mid-chain
/// predicate). Output is doc-order distinct.
std::vector<NodeIndex> NavigateStep(const Document& doc,
                                    const std::vector<NodeIndex>& base,
                                    const IndexStep& st) {
  std::vector<NodeIndex> out;
  uint32_t name_id = doc.FindNameId(st.uri, st.local);
  if (name_id == kNoName) return out;
  for (NodeIndex n : base) {
    const NodeRecord& r = doc.node(n);
    if (st.attribute && st.descendant) {
      // Attributes anywhere in the subtree, owner included: attributes are
      // rows inside the region, so one region sweep finds them.
      for (NodeIndex d = n; d <= r.end; ++d) {
        const NodeRecord& dr = doc.node(d);
        if (dr.kind == NodeKind::kAttribute && dr.name_id == name_id) {
          out.push_back(d);
        }
      }
    } else if (st.attribute) {
      for (NodeIndex a = r.first_attr; a != kNullNode;
           a = doc.node(a).next_sibling) {
        if (doc.node(a).name_id == name_id) out.push_back(a);
      }
    } else if (st.descendant) {
      for (NodeIndex d = n + 1; d <= r.end; ++d) {
        const NodeRecord& dr = doc.node(d);
        if (dr.kind == NodeKind::kElement && dr.name_id == name_id) {
          out.push_back(d);
        }
      }
    } else {
      for (NodeIndex c = r.first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        const NodeRecord& cr = doc.node(c);
        if (cr.kind == NodeKind::kElement && cr.name_id == name_id) {
          out.push_back(c);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::optional<IndexQuery> PlanIndexPath(const Expr& e) {
  if (e.kind() != ExprKind::kPath) return std::nullopt;
  std::vector<const Expr*> rhs;
  const Expr* anchor = FlattenChain(&e, &rhs);
  if (rhs.empty()) return std::nullopt;
  // Only literal doc('uri') anchors: the synopsis lives per registered
  // document, and the uri must be known statically for EXPLAIN to show it.
  if (anchor->kind() != ExprKind::kFunctionCall) return std::nullopt;
  const auto* call = static_cast<const FunctionCallExpr*>(anchor);
  if (call->name.local != "doc" && call->name.local != "document") {
    return std::nullopt;
  }
  if (call->NumChildren() != 1 ||
      call->child(0)->kind() != ExprKind::kLiteral) {
    return std::nullopt;
  }
  const auto* lit = static_cast<const LiteralExpr*>(call->child(0));
  if (!lit->value.IsStringLike()) return std::nullopt;

  IndexQuery q;
  q.doc_uri = lit->value.AsString();
  bool pending_descendant = false;
  for (const Expr* raw : rhs) {
    const Expr* base = raw;
    const FilterExpr* filter = nullptr;
    if (raw->kind() == ExprKind::kFilter) {
      filter = static_cast<const FilterExpr*>(raw);
      base = filter->child(0);
    }
    if (IsDosConnector(base)) {
      if (filter != nullptr) return std::nullopt;  // Predicate on "//".
      pending_descendant = true;
      continue;
    }
    const StepExpr* step = AsIndexableStep(base);
    if (step == nullptr) return std::nullopt;
    IndexStep st;
    st.uri = step->test.uri;
    st.local = step->test.local;
    st.attribute = step->axis == Axis::kAttribute;
    st.descendant = step->axis == Axis::kDescendant || pending_descendant;
    pending_descendant = false;
    q.steps.push_back(std::move(st));
    if (filter != nullptr) {
      // All predicates must sit on a single step — the point where the
      // answer materializes and later steps switch to navigation.
      if (!q.predicates.empty()) return std::nullopt;
      bool has_positional = false;
      for (size_t pi = 1; pi < filter->NumChildren(); ++pi) {
        const Expr* bracket = filter->child(pi);
        std::optional<IndexPredicate> direct = PlanPredicate(bracket);
        if (direct.has_value() && direct->positional) {
          // Positional semantics are per parent context, which only holds
          // for child-axis steps: a merged "//" connector keeps child
          // semantics per descendant-or-self node (still grouped by the
          // node's parent), but a genuine descendant:: axis counts per
          // ancestor and attribute order is not positional. One position,
          // applied after any value predicates (later brackets see the
          // positionally filtered sequence, which we cannot reproduce).
          if (has_positional || step->axis != Axis::kChild) {
            return std::nullopt;
          }
          has_positional = true;
          direct->step = q.steps.size() - 1;
          q.predicates.push_back(std::move(*direct));
          continue;
        }
        if (has_positional) return std::nullopt;
        // A conjunction of value predicates: intersect the base sets. A
        // bare numeric literal inside `and` takes EBV semantics, not
        // positional ones — PlanPredicate would mis-classify it, so any
        // positional conjunct declines the whole path.
        std::vector<const Expr*> conjuncts;
        FlattenAnd(bracket, &conjuncts);
        for (const Expr* c : conjuncts) {
          std::optional<IndexPredicate> pred = PlanPredicate(c);
          if (!pred || pred->positional) return std::nullopt;
          pred->step = q.steps.size() - 1;
          q.predicates.push_back(std::move(*pred));
        }
      }
      if (q.predicates.empty()) return std::nullopt;
    }
  }
  if (pending_descendant || q.steps.empty()) return std::nullopt;
  return q;
}

std::optional<std::vector<NodeIndex>> AnswerIndexQuery(
    const DocumentIndexes& idx, const IndexQuery& q) {
  const Document& doc = idx.doc();
  std::vector<int32_t> frontier{0};  // Synopsis node 0: the document root.
  std::vector<NodeIndex> bases;
  bool materialized = false;
  for (size_t si = 0; si < q.steps.size(); ++si) {
    const IndexStep& st = q.steps[si];
    if (materialized) {
      bases = NavigateStep(doc, bases, st);
      continue;
    }
    frontier = ResolveStep(idx, frontier, st,
                           doc.FindNameId(st.uri, st.local));
    if (q.HasPredicates() && q.PredicateStep() == si) {
      std::optional<std::vector<NodeIndex>> filtered;
      const IndexPredicate* positional = nullptr;
      for (const IndexPredicate& pred : q.predicates) {
        if (pred.positional) {
          positional = &pred;  // Always last (planner invariant).
          continue;
        }
        std::optional<std::vector<NodeIndex>> part =
            ApplyPredicate(idx, frontier, pred);
        if (!part.has_value()) return std::nullopt;  // Fall back.
        if (!filtered.has_value()) {
          filtered = std::move(part);
        } else {
          // Conjunction: both sets are sorted and duplicate-free.
          std::vector<NodeIndex> both;
          std::set_intersection(filtered->begin(), filtered->end(),
                                part->begin(), part->end(),
                                std::back_inserter(both));
          *filtered = std::move(both);
        }
      }
      if (positional != nullptr) {
        std::vector<NodeIndex> pool = filtered.has_value()
                                          ? std::move(*filtered)
                                          : MergedPostings(idx, frontier);
        filtered = SelectKthPerParent(doc, pool,
                                      positional->operand.NumericAsDouble());
      }
      bases = std::move(*filtered);
      materialized = true;
    }
  }
  if (materialized) return bases;
  return MergedPostings(idx, frontier);
}

std::vector<int32_t> ResolveSynopsisStep(const DocumentIndexes& idx,
                                         const std::vector<int32_t>& frontier,
                                         const IndexStep& st) {
  return ResolveStep(idx, frontier, st, idx.doc().FindNameId(st.uri, st.local));
}

std::vector<int32_t> ResolveTargetPaths(const DocumentIndexes& idx,
                                        const std::vector<int32_t>& frontier,
                                        const std::vector<IndexStep>& target) {
  const Document& doc = idx.doc();
  std::vector<uint32_t> names;
  names.reserve(target.size());
  for (const IndexStep& st : target) {
    names.push_back(doc.FindNameId(st.uri, st.local));
    if (names.back() == kNoName) return {};  // Never reached.
  }
  std::vector<int32_t> out;
  for (int32_t s : frontier) {
    int32_t t = s;
    for (size_t i = 0; i < target.size() && t >= 0; ++i) {
      t = idx.FindChild(
          t, target[i].attribute ? NodeKind::kAttribute : NodeKind::kElement,
          names[i]);
    }
    if (t >= 0) out.push_back(t);
  }
  return out;
}

size_t CountSynopsisPostings(const DocumentIndexes& idx,
                             const std::vector<int32_t>& syn) {
  size_t total = 0;
  for (int32_t s : syn) total += idx.postings(s).size();
  return total;
}

std::vector<NodeIndex> MergedSynopsisPostings(const DocumentIndexes& idx,
                                              const std::vector<int32_t>& syn) {
  return MergedPostings(idx, syn);
}

std::vector<NodeIndex> NavigateMaterializedStep(
    const Document& doc, const std::vector<NodeIndex>& base,
    const IndexStep& st) {
  return NavigateStep(doc, base, st);
}

std::optional<size_t> CountPredicateMatches(
    const DocumentIndexes& idx, const std::vector<int32_t>& frontier,
    const IndexPredicate& pred) {
  if (pred.positional) return std::nullopt;
  size_t total = 0;
  bool provable = ForEachPredicateMatch(
      idx, frontier, pred, [&](auto, const MatchRanges& m) {
        total += (m.end[0] - m.begin[0]) + (m.end[1] - m.begin[1]);
      });
  if (!provable) return std::nullopt;
  return total;
}

}  // namespace xqp
