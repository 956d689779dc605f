#ifndef XQP_EXEC_VALUE_JOIN_H_
#define XQP_EXEC_VALUE_JOIN_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "exec/dynamic_context.h"
#include "query/expr.h"

namespace xqp {
namespace value_join {

/// The answer to one evaluation (probe) of a planned FLWOR's clause 0 and
/// clause 1 (`for $v in D where A op B`, see opt/value_join.h).
struct Matches {
  /// True: the caller runs its ordinary nested loop over D and the where
  /// (the first probe of an execution, a build that raised a query error,
  /// or a probe key that could raise against some build key).
  bool nested_loop = true;
  /// Otherwise: D materialized once per execution (owned by the context's
  /// join cache, valid until the execution ends) and the positions of the
  /// items satisfying the where, ascending — domain order, duplicates in
  /// D kept, each position at most once. The where need not be re-run.
  const Sequence* domain = nullptr;
  std::vector<uint32_t> positions;
};

/// Shared value-join runtime behind the lazy FlworIt, the eager
/// EvalFlwor and the VM's kValueJoin opcode. `e.join` must be kHash or
/// kBand. The first probe of an execution reports a nested loop; the
/// second builds a table over the inner keys (hash maps for =, sorted
/// arrays for the range operators) in the execution's cache
/// (DynamicContext::value_joins, keyed by `&e`), and later probes answer
/// from it. D, the inner key (with $v bound through ctx->slots) and the
/// probe key are evaluated by the eager interpreter, so they read every
/// variable from ctx->slots — the VM mirrors those slots. Governor trips
/// and injected faults during the build or a probe return their Status;
/// type and dynamic errors fall back to the nested loop, which then
/// raises exactly what the unjoined plan raises.
Status Probe(const FlworExpr& e, DynamicContext* ctx, Matches* out);

/// Per-execution table store; one per DynamicContext, created on the
/// first probe. Shared by nothing outside that execution.
class Cache;

}  // namespace value_join
}  // namespace xqp

#endif  // XQP_EXEC_VALUE_JOIN_H_
