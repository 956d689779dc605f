#include "opt/value_join.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "index/index_planner.h"
#include "opt/cost.h"
#include "opt/properties.h"

namespace xqp {

namespace {

/// What a local slot is bound to at the current point of the walk.
struct Binding {
  /// Bound once per execution: a let evaluated outside every loop.
  bool invariant = false;
  /// The let's value expression (invariant lets only), for the estimate.
  const Expr* init = nullptr;
};

/// Scope-tracking walk over the module body. `depth` counts the enclosing
/// constructs that evaluate a subexpression more than once per execution:
/// for-clauses (and everything after them in their FLWOR), quantifier
/// bodies, path right-hand sides and filter predicates.
class Annotator {
 public:
  Annotator(const IndexPeek* peek, bool estimates_only)
      : peek_(peek), estimates_only_(estimates_only) {}

  int planned() const { return planned_; }

  void Visit(Expr* e, int depth) {
    switch (e->kind()) {
      case ExprKind::kFlwor:
        VisitFlwor(static_cast<FlworExpr*>(e), depth);
        return;
      case ExprKind::kQuantified: {
        auto* q = static_cast<QuantifiedExpr*>(e);
        for (size_t i = 0; i < q->bindings.size(); ++i) {
          Visit(q->child(i), i == 0 ? depth : depth + 1);
          Bind(q->bindings[i].var_slot, Binding{});
        }
        Visit(q->child(q->NumChildren() - 1), depth + 1);
        for (size_t i = q->bindings.size(); i-- > 0;) {
          Unbind(q->bindings[i].var_slot);
        }
        return;
      }
      case ExprKind::kTypeswitch: {
        auto* ts = static_cast<TypeswitchExpr*>(e);
        Visit(ts->child(0), depth);
        for (size_t i = 0; i < ts->cases.size(); ++i) {
          const TypeswitchExpr::Case& c = ts->cases[i];
          if (c.has_var()) Bind(c.var_slot, Binding{});
          Visit(ts->child(i + 1), depth);
          if (c.has_var()) Unbind(c.var_slot);
        }
        if (ts->default_has_var()) Bind(ts->default_var_slot, Binding{});
        Visit(ts->child(ts->NumChildren() - 1), depth);
        if (ts->default_has_var()) Unbind(ts->default_var_slot);
        return;
      }
      case ExprKind::kPath:
        Visit(e->child(0), depth);
        Visit(e->child(1), depth + 1);
        return;
      case ExprKind::kFilter:
        Visit(e->child(0), depth);
        for (size_t i = 1; i < e->NumChildren(); ++i) {
          Visit(e->child(i), depth + 1);
        }
        return;
      default:
        for (size_t i = 0; i < e->NumChildren(); ++i) {
          Visit(e->child(i), depth);
        }
        return;
    }
  }

 private:
  void VisitFlwor(FlworExpr* f, int depth) {
    if (!estimates_only_) {
      Plan(f, depth);
    } else if (f->join != ValueJoinMode::kNone) {
      f->join_est = EstimateDomain(f->child(0));
    }
    int d = depth;
    for (size_t i = 0; i < f->clauses.size(); ++i) {
      const FlworExpr::Clause& c = f->clauses[i];
      Visit(f->child(i), d);
      switch (c.type) {
        case FlworExpr::Clause::Type::kFor:
          Bind(c.var_slot, Binding{});
          if (c.pos_slot >= 0) Bind(c.pos_slot, Binding{});
          d = depth + 1;
          break;
        case FlworExpr::Clause::Type::kLet:
          Bind(c.var_slot, d == 0 ? Binding{true, f->child(i)} : Binding{});
          break;
        case FlworExpr::Clause::Type::kWhere:
        case FlworExpr::Clause::Type::kOrderSpec:
          break;
      }
    }
    Visit(f->return_expr(), d);
    for (size_t i = f->clauses.size(); i-- > 0;) {
      const FlworExpr::Clause& c = f->clauses[i];
      if (c.type == FlworExpr::Clause::Type::kFor) {
        if (c.pos_slot >= 0) Unbind(c.pos_slot);
        Unbind(c.var_slot);
      } else if (c.type == FlworExpr::Clause::Type::kLet) {
        Unbind(c.var_slot);
      }
    }
  }

  /// Applies the shape rule to `f` (see value_join.h).
  void Plan(FlworExpr* f, int depth) {
    f->join = ValueJoinMode::kNone;
    f->join_inner_operand = 0;
    f->join_est = 0;
    // Outside every loop the FLWOR runs once: nothing to decorrelate.
    if (depth == 0 || f->clauses.size() < 2) return;
    const FlworExpr::Clause& bind = f->clauses[0];
    if (bind.type != FlworExpr::Clause::Type::kFor ||
        f->clauses[1].type != FlworExpr::Clause::Type::kWhere ||
        f->child(1)->kind() != ExprKind::kComparison) {
      return;
    }
    const auto* cmp = static_cast<const ComparisonExpr*>(f->child(1));
    bool in_loop = false;
    bool lhs_dep = CountVarUses(cmp->child(0), bind.var_slot, &in_loop) > 0;
    bool rhs_dep = CountVarUses(cmp->child(1), bind.var_slot, &in_loop) > 0;
    if (lhs_dep == rhs_dep) return;  // Not a join between $v and the outside.
    const int inner_operand = lhs_dep ? 0 : 1;
    const Expr* domain = f->child(0);
    const Expr* inner = cmp->child(size_t(inner_operand));
    const Expr* probe = cmp->child(size_t(1 - inner_operand));
    f->join = ValueJoinMode::kNestedLoop;
    f->join_inner_operand = uint8_t(inner_operand);
    f->join_est = EstimateDomain(domain);

    bool ok = IsGeneralComp(cmp->op) && cmp->op != CompOp::kGenNe &&
              !bind.has_pos_var();
    for (const FlworExpr::Clause& c : f->clauses) {
      if (c.type == FlworExpr::Clause::Type::kOrderSpec) ok = false;
    }
    ok = ok && Invariant(domain, -1) && Invariant(inner, bind.var_slot) &&
         !probe->props.uses_context;
    if (!ok) return;
    f->join = cmp->op == CompOp::kGenEq ? ValueJoinMode::kHash
                                        : ValueJoinMode::kBand;
    ++planned_;
  }

  /// True when `e` evaluates to the same value every time the enclosing
  /// loops re-run it: it reads no context, constructs no nodes, and every
  /// free local variable is `allowed_slot`, bound inside `e` itself, or an
  /// invariant let.
  bool Invariant(const Expr* e, int allowed_slot) const {
    if (e->props.uses_context || e->props.creates_nodes) return false;
    // Frame slots are allocated uniquely per binder, so a slot bound
    // anywhere inside `e` is never also an outer binding referenced there.
    std::vector<int> internal;
    CollectBoundSlots(e, &internal);
    std::vector<int> used;
    CollectUsedSlots(e, &used);
    for (int slot : used) {
      if (slot == allowed_slot) continue;
      if (std::find(internal.begin(), internal.end(), slot) !=
          internal.end()) {
        continue;
      }
      const Binding* b = Lookup(slot);
      if (b == nullptr || !b->invariant) return false;
    }
    return true;
  }

  /// Synopsis estimate of |D|: substitutes invariant lets (the optimizer
  /// hoists doc('…')/site into one) until D is a doc()-anchored chain,
  /// then counts it. 0 when D is no such chain or the indexes are cold.
  uint64_t EstimateDomain(const Expr* domain) const {
    if (peek_ == nullptr || !*peek_) return 0;
    std::unique_ptr<Expr> resolved = domain->Clone();
    for (int round = 0; round < 8; ++round) {
      std::vector<int> used;
      CollectUsedSlots(resolved.get(), &used);
      bool changed = false;
      for (int slot : used) {
        const Binding* b = Lookup(slot);
        if (b == nullptr || b->init == nullptr) continue;
        if (resolved->kind() == ExprKind::kVarRef) {
          resolved = b->init->Clone();
        } else {
          SubstituteVar(resolved.get(), slot, *b->init);
        }
        changed = true;
        break;
      }
      if (!changed) break;
    }
    std::optional<IndexQuery> q = PlanIndexPath(*resolved);
    if (!q.has_value()) return 0;
    std::shared_ptr<const DocumentIndexes> indexes = (*peek_)(q->doc_uri);
    if (indexes == nullptr) return 0;
    return EstimateCardinality(*indexes, *q).rows;
  }

  void Bind(int slot, Binding b) {
    if (slot < 0) return;
    if (size_t(slot) >= scope_.size()) scope_.resize(size_t(slot) + 1);
    scope_[size_t(slot)].push_back(b);
  }

  void Unbind(int slot) {
    if (slot < 0) return;
    scope_[size_t(slot)].pop_back();
  }

  const Binding* Lookup(int slot) const {
    if (slot < 0 || size_t(slot) >= scope_.size() ||
        scope_[size_t(slot)].empty()) {
      return nullptr;
    }
    return &scope_[size_t(slot)].back();
  }

  const IndexPeek* peek_;
  bool estimates_only_;
  std::vector<std::vector<Binding>> scope_;
  int planned_ = 0;
};

}  // namespace

int AnnotateValueJoins(Expr* root, const IndexPeek* peek) {
  if (root == nullptr) return 0;
  Annotator a(peek, /*estimates_only=*/false);
  a.Visit(root, 0);
  return a.planned();
}

void RefreshValueJoinEstimates(Expr* root, const IndexPeek& peek) {
  if (root == nullptr) return;
  Annotator a(&peek, /*estimates_only=*/true);
  a.Visit(root, 0);
}

}  // namespace xqp
