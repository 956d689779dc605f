#include "base/metrics.h"
#include "exec/interpreter.h"
#include "exec/iterators.h"
#include "exec/profile.h"
#include "exec/value_join.h"

namespace xqp {
namespace lazy_internal {

namespace {

/// Non-owning pass-through; lets a LazySeq buffer a let-clause iterator the
/// FLWOR machine still owns (the paper's buffer iterator factory: the
/// binding's consumers pull through a shared, incrementally filled buffer).
class NonOwningIt : public ItemIterator {
 public:
  explicit NonOwningIt(ItemIterator* inner) : inner_(inner) {}
  Status Reset(DynamicContext* ctx) override { return inner_->Reset(ctx); }
  Result<bool> Next(Item* out) override { return inner_->Next(out); }

 private:
  ItemIterator* inner_;
};

/// Streaming FLWOR tuple machine. Order-by FLWORs are blocking by nature
/// and delegate to the eager evaluator; everything else streams tuples:
/// for-domains are pulled one binding at a time and the return expression
/// is drained per tuple before the machine advances.
///
/// Join mode: a FLWOR planned as a value join (opt/value_join.h) asks the
/// shared runtime for clause 0's matches each time it opens; when the
/// runtime answers, clause 0 iterates over the matching domain items and
/// the where (clause 1) is skipped, since every match satisfies it.
class FlworIt : public ItemIterator {
 public:
  explicit FlworIt(const FlworExpr* e)
      : e_(e),
        planned_join_(e->join == ValueJoinMode::kHash ||
                      e->join == ValueJoinMode::kBand) {}

  Status Init(const LazyFocus* focus) {
    for (const auto& c : e_->clauses) {
      if (c.type == FlworExpr::Clause::Type::kOrderSpec) has_order_ = true;
    }
    if (has_order_) return Status::OK();  // Eager fallback at Reset.
    for (size_t i = 0; i < e_->NumChildren(); ++i) {
      XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> it,
                           CompileIterator(e_->child(i), focus));
      children_.push_back(std::move(it));
    }
    return Status::OK();
  }

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    if (has_order_) {
      ordered_result_.clear();
      ordered_pos_ = 0;
      ordered_done_ = false;
      return Status::OK();
    }
    for_pos_.assign(e_->clauses.size(), 0);
    joined_ = false;
    tuple_open_ = false;
    machine_done_ = false;
    first_tuple_ = true;
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (has_order_) {
      if (!ordered_done_) {
        // Sorting blocks; reuse the reference evaluator for the whole
        // order-by FLWOR (a legitimate materialization point). Suppress
        // per-operator profiling inside the fallback: the enclosing
        // ProfileIt already attributes the whole subtree to this FLWOR
        // node, and letting the interpreter record against the same
        // expression nodes would double-count.
        if (metrics::Enabled()) {
          static metrics::Counter* fallbacks = metrics::MetricsRegistry::
              Global().counter("lazy.flwor.orderby_eager_fallback");
          fallbacks->Increment();
        }
        QueryProfile* saved_profile = ctx_->profile;
        ctx_->profile = nullptr;
        auto ordered = EvalExpr(e_, ctx_);
        ctx_->profile = saved_profile;
        XQP_ASSIGN_OR_RETURN(ordered_result_, std::move(ordered));
        ordered_done_ = true;
      }
      if (ordered_pos_ >= ordered_result_.size()) return false;
      *out = ordered_result_[ordered_pos_++];
      return true;
    }
    while (true) {
      // Per-tuple poll: cartesian for-clauses make the tuple space (and
      // the where-miss stream) unbounded relative to the items returned.
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      if (tuple_open_) {
        XQP_ASSIGN_OR_RETURN(bool got, ReturnIter()->Next(out));
        if (got) return true;
        tuple_open_ = false;
      }
      if (machine_done_) return false;
      XQP_ASSIGN_OR_RETURN(bool have_tuple, NextTuple());
      if (!have_tuple) {
        machine_done_ = true;
        return false;
      }
      XQP_RETURN_NOT_OK(ReturnIter()->Reset(ctx_));
      tuple_open_ = true;
    }
  }

 private:
  ItemIterator* ReturnIter() { return children_.back().get(); }

  /// Establishes the next complete tuple. On the first call it opens all
  /// clauses from 0; afterwards it backtracks to the deepest for clause
  /// with remaining items.
  Result<bool> NextTuple() {
    size_t n = e_->clauses.size();
    size_t i;
    if (first_tuple_) {
      first_tuple_ = false;
      i = 0;
      XQP_ASSIGN_OR_RETURN(bool ok, OpenForward(&i, 0));
      return ok;
    }
    // Backtrack from the end.
    XQP_ASSIGN_OR_RETURN(bool ok, Backtrack(&i, n));
    if (!ok) return false;
    XQP_ASSIGN_OR_RETURN(ok, OpenForward(&i, i));
    return ok;
  }

  /// Runs clauses [start, n) forward, opening for-domains fresh. On a
  /// where-miss or an exhausted fresh for-domain, backtracks.
  Result<bool> OpenForward(size_t* out_i, size_t start) {
    size_t n = e_->clauses.size();
    size_t i = start;
    while (i < n) {
      // Poll here, not just in Next(): a run of where-misses backtracks and
      // reopens entirely inside this loop, so a selective where over a big
      // cartesian domain would otherwise never reach a governor check.
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      const FlworExpr::Clause& c = e_->clauses[i];
      switch (c.type) {
        case FlworExpr::Clause::Type::kLet: {
          XQP_RETURN_NOT_OK(children_[i]->Reset(ctx_));
          // Lazy binding: consumers pull through a shared buffer.
          ctx_->slots[c.var_slot] = LazySeq::FromIterator(
              std::make_unique<NonOwningIt>(children_[i].get()));
          ++i;
          break;
        }
        case FlworExpr::Clause::Type::kWhere: {
          XQP_RETURN_NOT_OK(children_[i]->Reset(ctx_));
          XQP_ASSIGN_OR_RETURN(bool pass, StreamingEbv(children_[i].get()));
          if (pass) {
            ++i;
            break;
          }
          XQP_ASSIGN_OR_RETURN(bool ok, Backtrack(&i, i));
          if (!ok) return false;
          break;
        }
        case FlworExpr::Clause::Type::kFor: {
          for_pos_[i] = 0;
          if (i == 0 && planned_join_) {
            XQP_RETURN_NOT_OK(value_join::Probe(*e_, ctx_, &join_));
            joined_ = !join_.nested_loop;
            join_next_ = 0;
          }
          Item item;
          if (i == 0 && joined_) {
            if (NextJoinMatch(&item)) {
              BindFor(0, std::move(item));
              i = 2;  // Every match satisfies the where.
              break;
            }
            return false;
          }
          XQP_RETURN_NOT_OK(children_[i]->Reset(ctx_));
          XQP_ASSIGN_OR_RETURN(bool got, children_[i]->Next(&item));
          if (got) {
            BindFor(i, std::move(item));
            ++i;
            break;
          }
          XQP_ASSIGN_OR_RETURN(bool ok, Backtrack(&i, i));
          if (!ok) return false;
          break;
        }
        case FlworExpr::Clause::Type::kOrderSpec:
          return Status::Internal("order spec in streaming FLWOR");
      }
    }
    *out_i = i;
    return true;
  }

  /// Finds the deepest for clause before `limit` with another item; binds
  /// it and sets *resume to the following clause. Returns false when the
  /// whole tuple stream is exhausted.
  Result<bool> Backtrack(size_t* resume, size_t limit) {
    for (size_t j = limit; j-- > 0;) {
      if (e_->clauses[j].type != FlworExpr::Clause::Type::kFor) continue;
      Item item;
      if (j == 0 && joined_) {
        if (!NextJoinMatch(&item)) return false;
        BindFor(0, std::move(item));
        *resume = 2;
        return true;
      }
      XQP_ASSIGN_OR_RETURN(bool got, children_[j]->Next(&item));
      if (got) {
        BindFor(j, std::move(item));
        *resume = j + 1;
        return true;
      }
    }
    return false;
  }

  bool NextJoinMatch(Item* out) {
    if (join_next_ >= join_.positions.size()) return false;
    *out = (*join_.domain)[join_.positions[join_next_++]];
    return true;
  }

  void BindFor(size_t i, Item item) {
    const FlworExpr::Clause& c = e_->clauses[i];
    ctx_->slots[c.var_slot] = LazySeq::FromItem(std::move(item));
    ++for_pos_[i];
    if (c.pos_slot >= 0) {
      ctx_->slots[c.pos_slot] =
          LazySeq::FromItem(Item(AtomicValue::Integer(for_pos_[i])));
    }
  }

  const FlworExpr* e_;
  const bool planned_join_;
  std::vector<std::unique_ptr<ItemIterator>> children_;
  DynamicContext* ctx_ = nullptr;
  bool has_order_ = false;
  // Join mode: this opening's matches, when the runtime answered.
  value_join::Matches join_;
  bool joined_ = false;
  size_t join_next_ = 0;
  // Streaming state.
  std::vector<int64_t> for_pos_;
  bool tuple_open_ = false;
  bool machine_done_ = false;
  bool first_tuple_ = true;
  // Order-by fallback state.
  Sequence ordered_result_;
  size_t ordered_pos_ = 0;
  bool ordered_done_ = false;
};

/// some/every with early exit; pulls domains lazily (the paper's
/// endlessOnes() example terminates here).
class QuantifiedIt : public ItemIterator {
 public:
  explicit QuantifiedIt(const QuantifiedExpr* e) : e_(e) {}

  Status Init(const LazyFocus* focus) {
    for (size_t i = 0; i < e_->NumChildren(); ++i) {
      XQP_ASSIGN_OR_RETURN(std::unique_ptr<ItemIterator> it,
                           CompileIterator(e_->child(i), focus));
      children_.push_back(std::move(it));
    }
    return Status::OK();
  }

  Status Reset(DynamicContext* ctx) override {
    ctx_ = ctx;
    done_ = false;
    return Status::OK();
  }

  Result<bool> Next(Item* out) override {
    if (done_) return false;
    done_ = true;
    XQP_ASSIGN_OR_RETURN(bool value, Run(0));
    *out = Item(AtomicValue::Boolean(value));
    return true;
  }

 private:
  Result<bool> Run(size_t bi) {
    if (bi == e_->bindings.size()) {
      XQP_RETURN_NOT_OK(children_.back()->Reset(ctx_));
      return StreamingEbv(children_.back().get());
    }
    XQP_RETURN_NOT_OK(children_[bi]->Reset(ctx_));
    while (true) {
      if (ctx_->governor != nullptr) {
        XQP_RETURN_NOT_OK(ctx_->governor->Poll());
      }
      Item item;
      XQP_ASSIGN_OR_RETURN(bool got, children_[bi]->Next(&item));
      if (!got) break;
      ctx_->slots[e_->bindings[bi].var_slot] = LazySeq::FromItem(std::move(item));
      XQP_ASSIGN_OR_RETURN(bool b, Run(bi + 1));
      if (b != e_->is_every) return b;  // Early exit.
    }
    return e_->is_every;
  }

  const QuantifiedExpr* e_;
  std::vector<std::unique_ptr<ItemIterator>> children_;
  DynamicContext* ctx_ = nullptr;
  bool done_ = false;
};

}  // namespace

Result<std::unique_ptr<ItemIterator>> CompileFlwor(const FlworExpr* e,
                                                   const LazyFocus* focus) {
  auto it = std::make_unique<FlworIt>(e);
  XQP_RETURN_NOT_OK(it->Init(focus));
  return std::unique_ptr<ItemIterator>(std::move(it));
}

Result<std::unique_ptr<ItemIterator>> CompileQuantified(
    const QuantifiedExpr* e, const LazyFocus* focus) {
  auto it = std::make_unique<QuantifiedIt>(e);
  XQP_RETURN_NOT_OK(it->Init(focus));
  return std::unique_ptr<ItemIterator>(std::move(it));
}

}  // namespace lazy_internal
}  // namespace xqp
