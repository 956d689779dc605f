#include "exec/value_join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "base/metrics.h"
#include "exec/interpreter.h"

namespace xqp {
namespace value_join {

namespace {

/// Relation of an inner key K to a probe key P: "K rel P".
enum class Rel : uint8_t { kEq, kLt, kLe, kGt, kGe };

/// The where `A op B` rewritten as "inner key rel probe key".
Rel RelationOf(CompOp op, bool inner_is_lhs) {
  switch (op) {
    case CompOp::kGenLt: return inner_is_lhs ? Rel::kLt : Rel::kGt;
    case CompOp::kGenLe: return inner_is_lhs ? Rel::kLe : Rel::kGe;
    case CompOp::kGenGt: return inner_is_lhs ? Rel::kGt : Rel::kLt;
    case CompOp::kGenGe: return inner_is_lhs ? Rel::kGe : Rel::kLe;
    default: return Rel::kEq;
  }
}

/// Type and dynamic errors are the query's own: the nested loop reproduces
/// them exactly. Everything else (cancellation, budgets, injected faults,
/// internal errors) belongs to the execution and propagates as is.
bool IsQueryError(const Status& s) {
  return s.code() == StatusCode::kTypeError ||
         s.code() == StatusCode::kDynamicError;
}

/// Equality is exact on doubles except for the sign of zero.
double CanonicalZero(double d) { return d == 0 ? 0.0 : d; }

/// One key family: (key, position) rows answering equality probes from a
/// hash map and range probes by binary search over the sorted rows.
template <typename K>
class Column {
 public:
  void Add(K key, uint32_t pos) { rows_.push_back({std::move(key), pos}); }

  /// Freezes the column for `rel`: equality hashes, ranges sort.
  void Seal(Rel rel) {
    if (rel == Rel::kEq) {
      map_.reserve(rows_.size());
      for (auto& [key, pos] : rows_) map_[std::move(key)].push_back(pos);
      rows_.clear();
      rows_.shrink_to_fit();
    } else {
      std::stable_sort(
          rows_.begin(), rows_.end(),
          [](const Row& a, const Row& b) { return a.key < b.key; });
    }
  }

  uint64_t Bytes() const {
    uint64_t n = rows_.size() * sizeof(Row);
    for (const auto& [key, list] : map_) {
      n += sizeof(K) + 32 + list.size() * sizeof(uint32_t);
    }
    return n;
  }

  void Equal(const K& key, std::vector<uint32_t>* out) const {
    auto it = map_.find(key);
    if (it != map_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }

  /// Appends the positions of rows with `row.key rel probe`, comparing
  /// through `as` (the promotion the general comparison applies to K).
  template <typename P, typename As>
  void Range(Rel rel, const P& probe, As as, std::vector<uint32_t>* out) const {
    auto key_less = [&](const Row& r, const P& p) { return as(r.key) < p; };
    auto probe_less = [&](const P& p, const Row& r) { return p < as(r.key); };
    auto begin = rows_.begin();
    auto end = rows_.end();
    switch (rel) {
      case Rel::kLt:
        end = std::lower_bound(rows_.begin(), rows_.end(), probe, key_less);
        break;
      case Rel::kLe:
        end = std::upper_bound(rows_.begin(), rows_.end(), probe, probe_less);
        break;
      case Rel::kGt:
        begin = std::upper_bound(rows_.begin(), rows_.end(), probe, probe_less);
        break;
      case Rel::kGe:
        begin = std::lower_bound(rows_.begin(), rows_.end(), probe, key_less);
        break;
      case Rel::kEq:
        return;  // Equality columns are hashed.
    }
    for (auto it = begin; it < end; ++it) out->push_back(it->pos);
  }

 private:
  struct Row {
    K key;
    uint32_t pos;
  };
  std::vector<Row> rows_;
  std::unordered_map<K, std::vector<uint32_t>> map_;
};

/// The build side of one planned FLWOR: D and its keys split by family —
/// the string family (xs:string/anyURI and untypedAtomic, by string value)
/// and the number family (numerics, plus untypedAtomic keys cast to
/// xs:double) — the value index's by_string/by_number split. Flags record
/// which promotions a probe would need, so a probe that could raise a
/// type error against any key is sent back to the nested loop.
struct Table {
  enum class State : uint8_t { kCold, kBuilt, kNestedLoop };
  State state = State::kCold;
  uint64_t probes = 0;
  Rel rel = Rel::kEq;
  Sequence domain;

  Column<std::string> strings;  // String-like keys, untyped included.
  Column<int64_t> ints;         // xs:integer, compared exactly.
  Column<double> ints_dbl;      // The same keys widened (equality only).
  Column<double> dbls;          // xs:decimal / xs:double, NaN dropped.
  Column<double> untyped_dbl;   // Castable untyped keys, NaN dropped.

  uint64_t keys = 0;
  bool has_typed_string = false;     // Numeric probes raise.
  bool has_numeric = false;          // String probes raise; untyped cast.
  bool has_uncastable_untyped = false;  // Numeric probes raise.
  bool has_other = false;            // Every probe may raise.

  void AddKey(const AtomicValue& k, uint32_t pos) {
    ++keys;
    switch (k.type()) {
      case XsType::kUntypedAtomic: {
        strings.Add(k.AsString(), pos);
        Result<double> d = ParseXsDouble(k.AsString());
        if (!d.ok()) {
          has_uncastable_untyped = true;
        } else if (!std::isnan(d.value())) {
          untyped_dbl.Add(CanonicalZero(d.value()), pos);
        }
        return;
      }
      case XsType::kString:
      case XsType::kAnyUri:
        has_typed_string = true;
        strings.Add(k.AsString(), pos);
        return;
      case XsType::kInteger:
        has_numeric = true;
        ints.Add(k.AsInt(), pos);
        if (rel == Rel::kEq) {
          ints_dbl.Add(CanonicalZero(double(k.AsInt())), pos);
        }
        return;
      case XsType::kDecimal:
      case XsType::kDouble: {
        has_numeric = true;
        double d = k.NumericAsDouble();
        if (!std::isnan(d)) dbls.Add(CanonicalZero(d), pos);
        return;
      }
      default:
        has_other = true;
        return;
    }
  }

  void Seal() {
    strings.Seal(rel);
    ints.Seal(rel);
    ints_dbl.Seal(rel);
    dbls.Seal(rel);
    untyped_dbl.Seal(rel);
  }

  uint64_t Bytes() const {
    return domain.size() * sizeof(Item) + strings.Bytes() + ints.Bytes() +
           ints_dbl.Bytes() + dbls.Bytes() + untyped_dbl.Bytes();
  }

  /// Numeric probe value `d` (already promoted to xs:double) against the
  /// numeric keys, which the general comparison then compares as doubles.
  void MatchDouble(double d, bool with_untyped,
                   std::vector<uint32_t>* out) const {
    if (std::isnan(d)) return;  // NaN never matches.
    d = CanonicalZero(d);
    auto widen = [](int64_t k) { return double(k); };
    auto same = [](double k) { return k; };
    if (rel == Rel::kEq) {
      ints_dbl.Equal(d, out);
      dbls.Equal(d, out);
      if (with_untyped) untyped_dbl.Equal(d, out);
    } else {
      ints.Range(rel, d, widen, out);
      dbls.Range(rel, d, same, out);
      if (with_untyped) untyped_dbl.Range(rel, d, same, out);
    }
  }

  /// Appends the positions whose keys satisfy `rel` against probe key
  /// `p`; false when comparing `p` with some key could raise an error.
  bool Match(const AtomicValue& p, std::vector<uint32_t>* out) const {
    if (keys == 0) return true;  // No pair is ever compared.
    if (has_other) return false;
    auto same = [](const auto& k) -> const auto& { return k; };
    switch (p.type()) {
      case XsType::kUntypedAtomic:
      case XsType::kString:
      case XsType::kAnyUri: {
        const bool untyped = p.type() == XsType::kUntypedAtomic;
        // Typed strings cannot be compared with numbers; untyped probes
        // are cast to xs:double against them.
        if (has_numeric && !untyped) return false;
        const std::string& s = p.AsString();
        if (rel == Rel::kEq) {
          strings.Equal(s, out);
        } else {
          strings.Range(rel, s, same, out);
        }
        if (untyped && has_numeric) {
          Result<double> d = ParseXsDouble(s);
          if (!d.ok()) return false;
          MatchDouble(d.value(), /*with_untyped=*/false, out);
        }
        return true;
      }
      case XsType::kInteger: {
        if (has_typed_string || has_uncastable_untyped) return false;
        const int64_t i = p.AsInt();
        if (rel == Rel::kEq) {
          ints.Equal(i, out);
        } else {
          ints.Range(rel, i, same, out);
        }
        // Integer vs non-integer numerics and untyped compare as doubles.
        const double d = CanonicalZero(double(i));
        if (rel == Rel::kEq) {
          dbls.Equal(d, out);
          untyped_dbl.Equal(d, out);
        } else {
          dbls.Range(rel, d, same, out);
          untyped_dbl.Range(rel, d, same, out);
        }
        return true;
      }
      case XsType::kDecimal:
      case XsType::kDouble:
        if (has_typed_string || has_uncastable_untyped) return false;
        MatchDouble(p.NumericAsDouble(), /*with_untyped=*/true, out);
        return true;
      default:
        return false;  // Booleans, dates, QNames: leave them to the loop.
    }
  }
};

}  // namespace

class Cache {
 public:
  Table* Get(const FlworExpr* e) {
    std::unique_ptr<Table>& t = tables_[e];
    if (t == nullptr) t = std::make_unique<Table>();
    return t.get();
  }

 private:
  std::unordered_map<const FlworExpr*, std::unique_ptr<Table>> tables_;
};

namespace {

/// Runs `e` on the reference evaluator with per-operator profiling
/// suppressed: the backend's own profile already attributes this work to
/// the FLWOR, and recording it again against the same nodes would
/// double-count (the lazy order-by fallback does the same).
Result<Sequence> Evaluate(const Expr* e, DynamicContext* ctx) {
  QueryProfile* saved = ctx->profile;
  ctx->profile = nullptr;
  Result<Sequence> r = EvalExpr(e, ctx);
  ctx->profile = saved;
  return r;
}

/// Materializes D and indexes every inner key. A query error marks the
/// table kNestedLoop (the loop then raises it where the plan would);
/// other failures propagate.
Status Build(const FlworExpr& e, DynamicContext* ctx, Table* t) {
  const auto* cmp = static_cast<const ComparisonExpr*>(e.child(1));
  const Expr* inner = cmp->child(e.join_inner_operand);
  const int slot = e.clauses[0].var_slot;
  t->rel = RelationOf(cmp->op, e.join_inner_operand == 0);
  ResourceGovernor* gov = ctx->governor;

  Result<Sequence> domain = Evaluate(e.child(0), ctx);
  if (!domain.ok()) {
    if (!IsQueryError(domain.status())) return domain.status();
    t->state = Table::State::kNestedLoop;
    return Status::OK();
  }
  t->domain = std::move(domain).value();
  if (t->domain.size() > UINT32_MAX) {
    t->state = Table::State::kNestedLoop;
    t->domain.clear();
    return Status::OK();
  }
  for (size_t i = 0; i < t->domain.size(); ++i) {
    if (gov != nullptr && (i & 255) == 0) XQP_RETURN_NOT_OK(gov->Poll());
    ctx->slots[size_t(slot)] = LazySeq::FromItem(t->domain[i]);
    Result<Sequence> keys = Evaluate(inner, ctx);
    if (!keys.ok()) {
      if (!IsQueryError(keys.status())) return keys.status();
      const uint64_t probes = t->probes;
      *t = Table{};  // Drop the partial columns.
      t->probes = probes;
      t->state = Table::State::kNestedLoop;
      return Status::OK();
    }
    for (const Item& k : keys.value()) {
      t->AddKey(k.Atomized(), uint32_t(i));
    }
  }
  t->Seal();
  if (gov != nullptr) {
    XQP_RETURN_NOT_OK(gov->Poll());
    XQP_RETURN_NOT_OK(gov->ChargeBytes(t->Bytes()));
  }
  t->state = Table::State::kBuilt;
  return Status::OK();
}

/// Sorts `positions` into ascending, duplicate-free order; a bitmap over
/// the domain when the match list is dense.
void Normalize(size_t domain_size, std::vector<uint32_t>* positions) {
  if (positions->size() * 8 < domain_size) {
    std::sort(positions->begin(), positions->end());
    positions->erase(std::unique(positions->begin(), positions->end()),
                     positions->end());
    return;
  }
  std::vector<uint64_t> bits((domain_size + 63) / 64, 0);
  for (uint32_t p : *positions) bits[p >> 6] |= uint64_t(1) << (p & 63);
  positions->clear();
  for (size_t w = 0; w < bits.size(); ++w) {
    uint64_t word = bits[w];
    while (word != 0) {
      positions->push_back(uint32_t(w * 64 + size_t(__builtin_ctzll(word))));
      word &= word - 1;
    }
  }
}

}  // namespace

Status Probe(const FlworExpr& e, DynamicContext* ctx, Matches* out) {
  out->nested_loop = true;
  out->domain = nullptr;
  out->positions.clear();
  if (ctx->value_joins == nullptr) {
    ctx->value_joins = std::make_shared<Cache>();
  }
  Table* t = ctx->value_joins->Get(&e);
  const bool band = e.join == ValueJoinMode::kBand;
  static metrics::OpMetrics hash_metrics("join.value_hash");
  static metrics::OpMetrics band_metrics("join.value_band");
  static metrics::OpMetrics nl_metrics("join.value_nl");
  metrics::OpMetrics& m = band ? band_metrics : hash_metrics;
  metrics::ScopedTimer timer(metrics::Enabled() ? m.wall_ns : nullptr);

  auto nested = [&]() {
    if (metrics::Enabled()) nl_metrics.calls->Increment();
    return Status::OK();
  };
  // The first probe runs the loop: a FLWOR evaluated once per execution
  // never pays for a table it would probe only once.
  if (++t->probes == 1 || t->state == Table::State::kNestedLoop) {
    return nested();
  }
  if (t->state == Table::State::kCold) {
    XQP_RETURN_NOT_OK(Build(e, ctx, t));
    if (t->state == Table::State::kNestedLoop) return nested();
  }
  out->domain = &t->domain;
  out->nested_loop = false;
  if (!t->domain.empty()) {
    // The nested loop never evaluates the probe key over an empty D.
    const auto* cmp = static_cast<const ComparisonExpr*>(e.child(1));
    Result<Sequence> probe =
        Evaluate(cmp->child(1 - e.join_inner_operand), ctx);
    if (!probe.ok()) {
      if (!IsQueryError(probe.status())) return probe.status();
      out->nested_loop = true;
      return nested();
    }
    for (const Item& p : probe.value()) {
      if (!t->Match(p.Atomized(), &out->positions)) {
        out->positions.clear();
        out->nested_loop = true;
        return nested();
      }
    }
    Normalize(t->domain.size(), &out->positions);
  }
  if (metrics::Enabled()) {
    m.calls->Increment();
    m.items->Add(out->positions.size());
  }
  return Status::OK();
}

}  // namespace value_join
}  // namespace xqp
