#include "query/normalize.h"

#include <unordered_map>
#include <vector>

#include "exec/functions.h"
#include "query/expr.h"

namespace xqp {

namespace {

/// Lexical scope for variable resolution within one frame.
struct ScopeEntry {
  QName name;
  int slot;
  bool one_item;  // See VarRefExpr::one_item.
};

class Normalizer {
 public:
  explicit Normalizer(ParsedModule* module) : module_(module) {}

  Status Run() {
    // Index functions by (expanded name, arity).
    for (size_t i = 0; i < module_->functions.size(); ++i) {
      UserFunction& fn = module_->functions[i];
      std::string key = FnKey(fn.name, fn.params.size());
      if (!fn_index_.emplace(key, static_cast<int>(i)).second) {
        return Status::StaticError("duplicate function declaration: " +
                                   fn.name.Lexical() + "#" +
                                   std::to_string(fn.params.size()));
      }
    }
    // Globals, in declaration order; each init sees earlier globals only.
    for (size_t i = 0; i < module_->globals.size(); ++i) {
      GlobalVariable& g = module_->globals[i];
      for (size_t j = 0; j < i; ++j) {
        if (module_->globals[j].name == g.name) {
          return Status::StaticError("duplicate global variable: $" +
                                     g.name.Lexical());
        }
      }
      g.slot = static_cast<int>(i);
      if (g.init != nullptr) {
        next_slot_ = 0;
        scope_.clear();
        visible_globals_ = i;
        XQP_RETURN_NOT_OK(Resolve(g.init));
        g.num_slots = next_slot_;
      }
    }
    visible_globals_ = module_->globals.size();

    // Function bodies: own frame, params first.
    for (UserFunction& fn : module_->functions) {
      if (fn.body == nullptr) continue;
      next_slot_ = 0;
      scope_.clear();
      fn.param_slots.clear();
      for (const QName& p : fn.params) {
        int slot = next_slot_++;
        fn.param_slots.push_back(slot);
        scope_.push_back(ScopeEntry{p, slot, /*one_item=*/false});
      }
      current_function_ = &fn;
      XQP_RETURN_NOT_OK(Resolve(fn.body));
      current_function_ = nullptr;
      fn.num_slots = next_slot_;
    }

    // Main body.
    next_slot_ = 0;
    scope_.clear();
    XQP_RETURN_NOT_OK(Resolve(module_->body));
    module_->num_slots = next_slot_;

    // Recursion detection (for the inlining rewrite): mark every function
    // whose body can reach itself through the call graph.
    MarkRecursion();
    return Status::OK();
  }

 private:
  static std::string FnKey(const QName& name, size_t arity) {
    return name.uri + "|" + name.local + "#" + std::to_string(arity);
  }

  int PushVar(const QName& name, bool one_item) {
    int slot = next_slot_++;
    scope_.push_back(ScopeEntry{name, slot, one_item});
    return slot;
  }

  Status Resolve(ExprPtr& slot) {
    Expr* e = slot.get();
    switch (e->kind()) {
      case ExprKind::kVarRef: {
        auto* var = static_cast<VarRefExpr*>(e);
        for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
          if (it->name == var->name) {
            var->slot = it->slot;
            var->is_global = false;
            var->one_item = it->one_item;
            return Status::OK();
          }
        }
        for (size_t i = 0; i < visible_globals_; ++i) {
          if (module_->globals[i].name == var->name) {
            var->slot = module_->globals[i].slot;
            var->is_global = true;
            return Status::OK();
          }
        }
        return Status::StaticError("undefined variable: $" +
                                   var->name.Lexical());
      }
      case ExprKind::kFlwor: {
        auto* flwor = static_cast<FlworExpr*>(e);
        size_t mark = scope_.size();
        for (size_t i = 0; i < flwor->clauses.size(); ++i) {
          XQP_RETURN_NOT_OK(Resolve(flwor->child_slot(i)));
          FlworExpr::Clause& c = flwor->clauses[i];
          if (c.type == FlworExpr::Clause::Type::kFor ||
              c.type == FlworExpr::Clause::Type::kLet) {
            c.var_slot =
                PushVar(c.var, c.type == FlworExpr::Clause::Type::kFor);
            if (c.has_pos_var()) c.pos_slot = PushVar(c.pos_var, true);
          }
        }
        XQP_RETURN_NOT_OK(Resolve(flwor->child_slot(flwor->NumChildren() - 1)));
        scope_.resize(mark);
        return Status::OK();
      }
      case ExprKind::kQuantified: {
        auto* q = static_cast<QuantifiedExpr*>(e);
        size_t mark = scope_.size();
        for (size_t i = 0; i < q->bindings.size(); ++i) {
          XQP_RETURN_NOT_OK(Resolve(q->child_slot(i)));
          q->bindings[i].var_slot = PushVar(q->bindings[i].var, true);
        }
        XQP_RETURN_NOT_OK(Resolve(q->child_slot(q->NumChildren() - 1)));
        scope_.resize(mark);
        return Status::OK();
      }
      case ExprKind::kTypeswitch: {
        auto* ts = static_cast<TypeswitchExpr*>(e);
        XQP_RETURN_NOT_OK(Resolve(ts->child_slot(0)));
        for (size_t i = 0; i < ts->cases.size(); ++i) {
          size_t mark = scope_.size();
          if (ts->cases[i].has_var()) {
            ts->cases[i].var_slot = PushVar(ts->cases[i].var, false);
          }
          XQP_RETURN_NOT_OK(Resolve(ts->child_slot(i + 1)));
          scope_.resize(mark);
        }
        size_t mark = scope_.size();
        if (ts->default_has_var()) {
          ts->default_var_slot = PushVar(ts->default_var, false);
        }
        XQP_RETURN_NOT_OK(Resolve(ts->child_slot(ts->NumChildren() - 1)));
        scope_.resize(mark);
        return Status::OK();
      }
      case ExprKind::kFunctionCall:
        return ResolveCall(slot);
      default: {
        for (size_t i = 0; i < e->NumChildren(); ++i) {
          XQP_RETURN_NOT_OK(Resolve(e->child_slot(i)));
        }
        return Status::OK();
      }
    }
  }

  Status ResolveCall(ExprPtr& slot) {
    auto* call = static_cast<FunctionCallExpr*>(slot.get());
    for (size_t i = 0; i < call->NumChildren(); ++i) {
      XQP_RETURN_NOT_OK(Resolve(call->child_slot(i)));
    }
    // xs:T(arg) constructor calls become casts.
    if (call->name.uri == kXsNamespace || call->name.uri == kXdtNamespace) {
      if (call->NumChildren() != 1) {
        return Status::StaticError("constructor function " +
                                   call->name.Lexical() +
                                   " expects exactly one argument");
      }
      auto type = XsTypeFromName(call->name.local);
      if (!type.ok()) return type.status();
      slot = std::make_unique<CastExpr>(call->TakeChild(0), type.value(),
                                        /*optional=*/true);
      return Status::OK();
    }
    // User functions take precedence over builtins outside the fn namespace.
    auto it = fn_index_.find(FnKey(call->name, call->NumChildren()));
    if (it != fn_index_.end()) {
      call->user_index = it->second;
      if (current_function_ != nullptr) {
        callers_[it->second].push_back(CurrentFunctionIndex());
      } else {
        callers_[it->second].push_back(-1);
      }
      return Status::OK();
    }
    const BuiltinDesc* desc =
        LookupBuiltin(call->name.uri, call->name.local, call->NumChildren());
    if (desc != nullptr) {
      call->builtin = static_cast<int>(desc->id);
      return Status::OK();
    }
    const BuiltinDesc* by_name =
        LookupBuiltinByName(call->name.uri, call->name.local);
    if (by_name != nullptr) {
      return Status::StaticError(
          "wrong number of arguments for fn:" + std::string(by_name->local) +
          " (got " + std::to_string(call->NumChildren()) + ")");
    }
    return Status::StaticError("unknown function: " + call->name.Lexical() +
                               "#" + std::to_string(call->NumChildren()));
  }

  int CurrentFunctionIndex() const {
    return static_cast<int>(current_function_ - module_->functions.data());
  }

  void MarkRecursion() {
    // callers_[callee] lists caller function indices (-1 = main). A function
    // is recursive if it can reach itself; simple DFS per function.
    size_t n = module_->functions.size();
    for (size_t f = 0; f < n; ++f) {
      std::vector<bool> seen(n, false);
      std::vector<int> stack;
      // Start from functions called by f's body: invert view — walk callees
      // reachable from f via the call edges recorded per callee.
      // Build adjacency: caller -> callee.
      // (Rebuilt per function; function counts are tiny.)
      std::vector<std::vector<int>> adj(n);
      for (const auto& [callee, callers] : callers_) {
        for (int caller : callers) {
          if (caller >= 0) adj[caller].push_back(callee);
        }
      }
      stack.push_back(static_cast<int>(f));
      bool first = true;
      while (!stack.empty()) {
        int cur = stack.back();
        stack.pop_back();
        if (!first) {
          if (cur == static_cast<int>(f)) {
            module_->functions[f].recursive = true;
            break;
          }
          if (seen[cur]) continue;
          seen[cur] = true;
        }
        first = false;
        for (int next : adj[cur]) {
          if (next == static_cast<int>(f)) {
            module_->functions[f].recursive = true;
          }
          if (!seen[next]) stack.push_back(next);
        }
        if (module_->functions[f].recursive) break;
      }
    }
  }

  ParsedModule* module_;
  std::unordered_map<std::string, int> fn_index_;
  std::unordered_map<int, std::vector<int>> callers_;
  std::vector<ScopeEntry> scope_;
  int next_slot_ = 0;
  size_t visible_globals_ = 0;
  UserFunction* current_function_ = nullptr;
};

}  // namespace

Status NormalizeModule(ParsedModule* module) {
  Normalizer normalizer(module);
  return normalizer.Run();
}

}  // namespace xqp
