#include "query/expr.h"

namespace xqp {

Expr::~Expr() {
  // Flatten the subtree into a worklist before any child destructor runs:
  // each unique_ptr reset then frees a node whose children vector is
  // already empty, so destruction is O(depth 1) in C++ stack no matter
  // how deep the expression tree is (100k nested parens included).
  std::vector<std::unique_ptr<Expr>> worklist;
  for (auto& c : children_) {
    if (c != nullptr) worklist.push_back(std::move(c));
  }
  children_.clear();
  while (!worklist.empty()) {
    std::unique_ptr<Expr> e = std::move(worklist.back());
    worklist.pop_back();
    for (auto& c : e->children_) {
      if (c != nullptr) worklist.push_back(std::move(c));
    }
    e->children_.clear();
  }
}

std::string_view ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kLiteral: return "literal";
    case ExprKind::kVarRef: return "var";
    case ExprKind::kContextItem: return "context-item";
    case ExprKind::kSequence: return "sequence";
    case ExprKind::kRange: return "range";
    case ExprKind::kArithmetic: return "arith";
    case ExprKind::kUnary: return "unary";
    case ExprKind::kComparison: return "compare";
    case ExprKind::kLogical: return "logic";
    case ExprKind::kRoot: return "root";
    case ExprKind::kPath: return "path";
    case ExprKind::kStep: return "step";
    case ExprKind::kFilter: return "filter";
    case ExprKind::kFlwor: return "flwor";
    case ExprKind::kQuantified: return "quantified";
    case ExprKind::kIf: return "if";
    case ExprKind::kTypeswitch: return "typeswitch";
    case ExprKind::kInstanceOf: return "instance-of";
    case ExprKind::kTreatAs: return "treat-as";
    case ExprKind::kCastAs: return "cast-as";
    case ExprKind::kCastableAs: return "castable-as";
    case ExprKind::kUnion: return "union";
    case ExprKind::kIntersectExcept: return "intersect-except";
    case ExprKind::kFunctionCall: return "call";
    case ExprKind::kElementCtor: return "element-ctor";
    case ExprKind::kAttributeCtor: return "attribute-ctor";
    case ExprKind::kTextCtor: return "text-ctor";
    case ExprKind::kCommentCtor: return "comment-ctor";
    case ExprKind::kPiCtor: return "pi-ctor";
    case ExprKind::kDocumentCtor: return "document-ctor";
    case ExprKind::kTryCatch: return "try-catch";
  }
  return "?";
}

std::string_view AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild: return "child";
    case Axis::kDescendant: return "descendant";
    case Axis::kDescendantOrSelf: return "descendant-or-self";
    case Axis::kSelf: return "self";
    case Axis::kAttribute: return "attribute";
    case Axis::kParent: return "parent";
    case Axis::kAncestor: return "ancestor";
    case Axis::kAncestorOrSelf: return "ancestor-or-self";
    case Axis::kFollowingSibling: return "following-sibling";
    case Axis::kPrecedingSibling: return "preceding-sibling";
    case Axis::kFollowing: return "following";
    case Axis::kPreceding: return "preceding";
  }
  return "?";
}

bool IsReverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPrecedingSibling:
    case Axis::kPreceding:
      return true;
    default:
      return false;
  }
}

bool NodeTest::Matches(const Document& doc, NodeIndex i,
                       bool principal_attribute) const {
  const NodeRecord& n = doc.node(i);
  switch (kind) {
    case Kind::kAnyKind:
      return true;
    case Kind::kText:
      return n.kind == NodeKind::kText;
    case Kind::kComment:
      return n.kind == NodeKind::kComment;
    case Kind::kDocument:
      return n.kind == NodeKind::kDocument;
    case Kind::kPi:
      if (n.kind != NodeKind::kProcessingInstruction) return false;
      return pi_target.empty() || doc.name(i).local == pi_target;
    case Kind::kElement:
      if (n.kind != NodeKind::kElement) return false;
      break;
    case Kind::kAttribute:
      if (n.kind != NodeKind::kAttribute) return false;
      break;
    case Kind::kName: {
      // The principal node kind depends on the axis.
      NodeKind want = principal_attribute ? NodeKind::kAttribute
                                          : NodeKind::kElement;
      if (n.kind != want) return false;
      break;
    }
  }
  // Name check (for kName / kElement / kAttribute with a name).
  if (kind == Kind::kElement || kind == Kind::kAttribute) {
    if (wildcard_local && wildcard_uri) return true;
  }
  if (!wildcard_local || !wildcard_uri) {
    const QName& qn = doc.name(i);
    if (!wildcard_local && qn.local != local) return false;
    if (!wildcard_uri && qn.uri != uri) return false;
  }
  return true;
}

std::string NodeTest::ToString() const {
  switch (kind) {
    case Kind::kAnyKind:
      return "node()";
    case Kind::kText:
      return "text()";
    case Kind::kComment:
      return "comment()";
    case Kind::kPi:
      return pi_target.empty()
                 ? "processing-instruction()"
                 : "processing-instruction(" + pi_target + ")";
    case Kind::kDocument:
      return "document-node()";
    case Kind::kElement:
      return wildcard_local ? "element()" : "element(" + local + ")";
    case Kind::kAttribute:
      return wildcard_local ? "attribute()" : "attribute(" + local + ")";
    case Kind::kName: {
      std::string s;
      if (wildcard_uri && wildcard_local) return "*";
      if (wildcard_uri) return "*:" + local;
      if (!uri.empty()) s = "{" + uri + "}";
      if (wildcard_local) return s + "*";
      return s + local;
    }
  }
  return "?";
}

void Expr::CloneChildrenInto(Expr* dst) const {
  for (const auto& c : children_) dst->AddChild(c->Clone());
}

std::string Expr::ChildrenToString() const {
  std::string s;
  for (const auto& c : children_) {
    s += " ";
    s += c->ToString();
  }
  return s;
}

std::string Expr::ToString() const {
  return "(" + std::string(ExprKindName(kind_)) + ChildrenToString() + ")";
}

std::string_view ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "div";
    case ArithOp::kIDiv: return "idiv";
    case ArithOp::kMod: return "mod";
  }
  return "?";
}

std::string_view CompOpName(CompOp op) {
  switch (op) {
    case CompOp::kValueEq: return "eq";
    case CompOp::kValueNe: return "ne";
    case CompOp::kValueLt: return "lt";
    case CompOp::kValueLe: return "le";
    case CompOp::kValueGt: return "gt";
    case CompOp::kValueGe: return "ge";
    case CompOp::kGenEq: return "=";
    case CompOp::kGenNe: return "!=";
    case CompOp::kGenLt: return "<";
    case CompOp::kGenLe: return "<=";
    case CompOp::kGenGt: return ">";
    case CompOp::kGenGe: return ">=";
    case CompOp::kIs: return "is";
    case CompOp::kIsNot: return "isnot";
    case CompOp::kBefore: return "<<";
    case CompOp::kAfter: return ">>";
  }
  return "?";
}

bool IsGeneralComp(CompOp op) {
  return op >= CompOp::kGenEq && op <= CompOp::kGenGe;
}

bool IsValueComp(CompOp op) {
  return op >= CompOp::kValueEq && op <= CompOp::kValueGe;
}

// --- Clone / ToString implementations ---

std::unique_ptr<Expr> LiteralExpr::Clone() const {
  auto e = std::make_unique<LiteralExpr>(value);
  return e;
}

std::string LiteralExpr::ToString() const {
  if (value.type() == XsType::kString || value.type() == XsType::kUntypedAtomic) {
    return "\"" + value.Lexical() + "\"";
  }
  return value.Lexical();
}

std::unique_ptr<Expr> VarRefExpr::Clone() const {
  auto e = std::make_unique<VarRefExpr>(name);
  e->slot = slot;
  e->is_global = is_global;
  e->one_item = one_item;
  return e;
}

std::string VarRefExpr::ToString() const { return "$" + name.Lexical(); }

std::unique_ptr<Expr> ContextItemExpr::Clone() const {
  return std::make_unique<ContextItemExpr>();
}

std::unique_ptr<Expr> RootExpr::Clone() const {
  return std::make_unique<RootExpr>();
}

std::unique_ptr<Expr> StepExpr::Clone() const {
  return std::make_unique<StepExpr>(axis, test);
}

std::string StepExpr::ToString() const {
  return std::string(AxisName(axis)) + "::" + test.ToString();
}

std::unique_ptr<Expr> SequenceExpr::Clone() const {
  auto e = std::make_unique<SequenceExpr>();
  CloneChildrenInto(e.get());
  return e;
}

std::string SequenceExpr::ToString() const {
  return "(seq" + ChildrenToString() + ")";
}

std::unique_ptr<Expr> RangeExpr::Clone() const {
  return std::make_unique<RangeExpr>(child(0)->Clone(), child(1)->Clone());
}

std::string RangeExpr::ToString() const {
  return "(to" + ChildrenToString() + ")";
}

std::unique_ptr<Expr> ArithmeticExpr::Clone() const {
  return std::make_unique<ArithmeticExpr>(op, child(0)->Clone(),
                                          child(1)->Clone());
}

std::string ArithmeticExpr::ToString() const {
  return "(" + std::string(ArithOpName(op)) + ChildrenToString() + ")";
}

std::unique_ptr<Expr> UnaryExpr::Clone() const {
  return std::make_unique<UnaryExpr>(negate, child(0)->Clone());
}

std::string UnaryExpr::ToString() const {
  return std::string(negate ? "(neg" : "(pos") + ChildrenToString() + ")";
}

std::unique_ptr<Expr> ComparisonExpr::Clone() const {
  return std::make_unique<ComparisonExpr>(op, child(0)->Clone(),
                                          child(1)->Clone());
}

std::string ComparisonExpr::ToString() const {
  return "(" + std::string(CompOpName(op)) + ChildrenToString() + ")";
}

std::unique_ptr<Expr> LogicalExpr::Clone() const {
  return std::make_unique<LogicalExpr>(is_and, child(0)->Clone(),
                                       child(1)->Clone());
}

std::string LogicalExpr::ToString() const {
  return std::string(is_and ? "(and" : "(or") + ChildrenToString() + ")";
}

const char* AccessPathName(AccessPath p) {
  switch (p) {
    case AccessPath::kAuto: return "auto";
    case AccessPath::kNav: return "nav";
    case AccessPath::kSJoin: return "sjoin";
    case AccessPath::kTwig: return "twig";
    case AccessPath::kIndex: return "index";
  }
  return "auto";
}

std::optional<AccessPath> ParseAccessPath(std::string_view name) {
  if (name == "auto") return AccessPath::kAuto;
  if (name == "nav") return AccessPath::kNav;
  if (name == "sjoin") return AccessPath::kSJoin;
  if (name == "twig") return AccessPath::kTwig;
  if (name == "index") return AccessPath::kIndex;
  return std::nullopt;
}

std::unique_ptr<Expr> PathExpr::Clone() const {
  auto e = std::make_unique<PathExpr>(child(0)->Clone(), child(1)->Clone());
  e->needs_sort = needs_sort;
  e->needs_dedup = needs_dedup;
  e->index_candidate = index_candidate;
  e->access_path = access_path;
  e->access_est = access_est;
  return e;
}

std::string PathExpr::ToString() const {
  std::string tag = "(path";
  if (needs_sort) tag += "/sort";
  if (needs_dedup) tag += "/dedup";
  return tag + ChildrenToString() + ")";
}

std::unique_ptr<Expr> FilterExpr::Clone() const {
  auto e = std::make_unique<FilterExpr>(child(0)->Clone());
  for (size_t i = 1; i < NumChildren(); ++i) e->AddChild(child(i)->Clone());
  return e;
}

std::string FilterExpr::ToString() const {
  return "(filter" + ChildrenToString() + ")";
}

const char* ValueJoinModeName(ValueJoinMode mode) {
  switch (mode) {
    case ValueJoinMode::kNone: return "-";
    case ValueJoinMode::kNestedLoop: return "nl";
    case ValueJoinMode::kHash: return "hash";
    case ValueJoinMode::kBand: return "band";
  }
  return "?";
}

std::unique_ptr<Expr> FlworExpr::Clone() const {
  auto e = std::make_unique<FlworExpr>();
  e->clauses = clauses;
  CloneChildrenInto(e.get());
  return e;
}

std::string FlworExpr::ToString() const {
  std::string s = "(flwor";
  for (size_t i = 0; i < clauses.size(); ++i) {
    const Clause& c = clauses[i];
    switch (c.type) {
      case Clause::Type::kFor:
        s += " for $" + c.var.Lexical();
        if (c.has_pos_var()) s += " at $" + c.pos_var.Lexical();
        s += " in " + child(i)->ToString();
        break;
      case Clause::Type::kLet:
        s += " let $" + c.var.Lexical() + " := " + child(i)->ToString();
        break;
      case Clause::Type::kWhere:
        s += " where " + child(i)->ToString();
        break;
      case Clause::Type::kOrderSpec:
        s += " order-by " + child(i)->ToString() +
             (c.descending ? " descending" : "");
        break;
    }
  }
  s += " return " + return_expr()->ToString() + ")";
  return s;
}

std::unique_ptr<Expr> QuantifiedExpr::Clone() const {
  auto e = std::make_unique<QuantifiedExpr>(is_every);
  e->bindings = bindings;
  CloneChildrenInto(e.get());
  return e;
}

std::string QuantifiedExpr::ToString() const {
  std::string s = is_every ? "(every" : "(some";
  for (size_t i = 0; i < bindings.size(); ++i) {
    s += " $" + bindings[i].var.Lexical() + " in " + child(i)->ToString();
  }
  s += " satisfies " + child(NumChildren() - 1)->ToString() + ")";
  return s;
}

std::unique_ptr<Expr> IfExpr::Clone() const {
  return std::make_unique<IfExpr>(child(0)->Clone(), child(1)->Clone(),
                                  child(2)->Clone());
}

std::string IfExpr::ToString() const {
  return "(if" + ChildrenToString() + ")";
}

std::unique_ptr<Expr> TypeswitchExpr::Clone() const {
  auto e = std::make_unique<TypeswitchExpr>();
  e->cases = cases;
  e->default_var = default_var;
  e->default_var_slot = default_var_slot;
  CloneChildrenInto(e.get());
  return e;
}

std::string TypeswitchExpr::ToString() const {
  std::string s = "(typeswitch " + child(0)->ToString();
  for (size_t i = 0; i < cases.size(); ++i) {
    s += " case " + cases[i].type.ToString() + " return " +
         child(i + 1)->ToString();
  }
  s += " default " + child(NumChildren() - 1)->ToString() + ")";
  return s;
}

std::unique_ptr<Expr> InstanceOfExpr::Clone() const {
  return std::make_unique<InstanceOfExpr>(child(0)->Clone(), type);
}

std::string InstanceOfExpr::ToString() const {
  return "(instance-of " + child(0)->ToString() + " " + type.ToString() + ")";
}

std::unique_ptr<Expr> TreatExpr::Clone() const {
  return std::make_unique<TreatExpr>(child(0)->Clone(), type);
}

std::string TreatExpr::ToString() const {
  return "(treat-as " + child(0)->ToString() + " " + type.ToString() + ")";
}

std::unique_ptr<Expr> CastExpr::Clone() const {
  return std::make_unique<CastExpr>(child(0)->Clone(), target, optional);
}

std::string CastExpr::ToString() const {
  return "(cast-as " + child(0)->ToString() + " " +
         std::string(XsTypeName(target)) + (optional ? "?" : "") + ")";
}

std::unique_ptr<Expr> CastableExpr::Clone() const {
  return std::make_unique<CastableExpr>(child(0)->Clone(), target, optional);
}

std::string CastableExpr::ToString() const {
  return "(castable-as " + child(0)->ToString() + " " +
         std::string(XsTypeName(target)) + (optional ? "?" : "") + ")";
}

std::unique_ptr<Expr> UnionExpr::Clone() const {
  return std::make_unique<UnionExpr>(child(0)->Clone(), child(1)->Clone());
}

std::string UnionExpr::ToString() const {
  return "(union" + ChildrenToString() + ")";
}

std::unique_ptr<Expr> IntersectExceptExpr::Clone() const {
  return std::make_unique<IntersectExceptExpr>(is_except, child(0)->Clone(),
                                               child(1)->Clone());
}

std::string IntersectExceptExpr::ToString() const {
  return std::string(is_except ? "(except" : "(intersect") +
         ChildrenToString() + ")";
}

std::unique_ptr<Expr> FunctionCallExpr::Clone() const {
  auto e = std::make_unique<FunctionCallExpr>(name);
  e->builtin = builtin;
  e->user_index = user_index;
  CloneChildrenInto(e.get());
  return e;
}

std::string FunctionCallExpr::ToString() const {
  return "(" + name.Lexical() + ChildrenToString() + ")";
}

std::unique_ptr<Expr> ElementCtorExpr::Clone() const {
  auto e = std::make_unique<ElementCtorExpr>();
  e->computed_name = computed_name;
  e->name = name;
  e->ns_decls = ns_decls;
  CloneChildrenInto(e.get());
  return e;
}

std::string ElementCtorExpr::ToString() const {
  std::string s = "(element ";
  s += computed_name ? "<computed>" : name.Lexical();
  s += ChildrenToString() + ")";
  return s;
}

std::unique_ptr<Expr> AttributeCtorExpr::Clone() const {
  auto e = std::make_unique<AttributeCtorExpr>();
  e->computed_name = computed_name;
  e->name = name;
  CloneChildrenInto(e.get());
  return e;
}

std::string AttributeCtorExpr::ToString() const {
  std::string s = "(attribute ";
  s += computed_name ? "<computed>" : name.Lexical();
  s += ChildrenToString() + ")";
  return s;
}

std::unique_ptr<Expr> TextCtorExpr::Clone() const {
  return std::make_unique<TextCtorExpr>(child(0)->Clone());
}

std::string TextCtorExpr::ToString() const {
  return "(text" + ChildrenToString() + ")";
}

std::unique_ptr<Expr> CommentCtorExpr::Clone() const {
  return std::make_unique<CommentCtorExpr>(child(0)->Clone());
}

std::string CommentCtorExpr::ToString() const {
  return "(comment-ctor" + ChildrenToString() + ")";
}

std::unique_ptr<Expr> PiCtorExpr::Clone() const {
  auto e = std::make_unique<PiCtorExpr>();
  e->target = target;
  CloneChildrenInto(e.get());
  return e;
}

std::string PiCtorExpr::ToString() const {
  return "(pi " + target + ChildrenToString() + ")";
}

std::unique_ptr<Expr> TryCatchExpr::Clone() const {
  return std::make_unique<TryCatchExpr>(child(0)->Clone(), child(1)->Clone());
}

std::string TryCatchExpr::ToString() const {
  return "(try" + ChildrenToString() + ")";
}

std::unique_ptr<Expr> DocumentCtorExpr::Clone() const {
  return std::make_unique<DocumentCtorExpr>(child(0)->Clone());
}

std::string DocumentCtorExpr::ToString() const {
  return "(document" + ChildrenToString() + ")";
}

}  // namespace xqp
