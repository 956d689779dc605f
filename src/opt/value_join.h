#ifndef XQP_OPT_VALUE_JOIN_H_
#define XQP_OPT_VALUE_JOIN_H_

#include "opt/access_path.h"
#include "query/expr.h"

namespace xqp {

/// Decorrelation annotation pass (the paper's FLWOR-unnesting and
/// loop-invariant rules): finds inner FLWORs of the shape
///
///   for $v in D where A op B ... return R
///
/// nested under an enclosing loop, where `op` is a general comparison
/// (=, <, <=, >, >=), one comparison operand (the inner key) depends on
/// $v and on nothing bound inside an enclosing loop, the other operand
/// (the probe key) does not depend on $v, and D depends on nothing bound
/// inside an enclosing loop. Such a FLWOR gets FlworExpr::join = kHash
/// (for =) or kBand (for the range operators); the backends then answer
/// clause 0 + clause 1 from the shared runtime in exec/value_join.h.
///
/// Rejected shapes keep their nested loop and are marked kNestedLoop (so
/// EXPLAIN says why a join-looking FLWOR did not decorrelate): `at $pos`,
/// `order by`, `!=` and value comparisons, D or the inner key reading an
/// enclosing loop's variable, the context item or position, and D or the
/// inner key constructing nodes. The tree itself is never restructured.
///
/// Only the module body and global initializers are walked: a FLWOR in a
/// user-function body (one that was not inlined) sees fresh parameter
/// bindings per call and is never planned. Must run after AnalyzeExpr
/// (it reads uses_context / creates_nodes). `peek` (may be null) supplies
/// cached indexes for the EXPLAIN estimate; it must never build. Returns
/// the number of FLWORs planned as hash or band joins.
int AnnotateValueJoins(Expr* root, const IndexPeek* peek);

/// Explain-time refresh: recomputes FlworExpr::join_est of already
/// planned FLWORs against the currently cached indexes. Writes nothing
/// that execution reads, so it may run while the query executes.
void RefreshValueJoinEstimates(Expr* root, const IndexPeek& peek);

}  // namespace xqp

#endif  // XQP_OPT_VALUE_JOIN_H_
