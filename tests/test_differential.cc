// Randomized differential testing: generated path/FLWOR queries over random
// documents must produce identical results on the eager interpreter and the
// lazy streaming engine, optimized and not. The XMark suite below adds
// ExecuteBatchParallel to the cross-check and asserts the profile
// invariant (plan-root item count == result cardinality) on every
// generated query. The value-join suite checks decorrelated FLWOR joins
// against a brute-force oracle and the nested-loop plan.

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "base/metrics.h"
#include "engine.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace xqp {
namespace {

using testing_util::RandomXml;
using testing_util::RunQuery;

/// Generates a random query from a small grammar over tags a..d.
std::string RandomQuery(SplitMix64* rng) {
  auto tag = [&] {
    return std::string(1, static_cast<char>('a' + rng->Below(4)));
  };
  auto step = [&]() -> std::string {
    switch (rng->Below(6)) {
      case 0:
        return "/" + tag();
      case 1:
        return "//" + tag();
      case 2:
        return "/" + tag() + "[" + std::to_string(1 + rng->Below(3)) + "]";
      case 3:
        return "/" + tag() + "[" + tag() + "]";
      case 4:
        return "/*";
      default:
        return "/" + tag() + "[@k]";
    }
  };
  std::string path = "doc('doc.xml')";
  size_t steps = 1 + rng->Below(4);
  for (size_t i = 0; i < steps; ++i) path += step();

  switch (rng->Below(12)) {
    case 0:
      return "count(" + path + ")";
    case 1:
      return "string-join(for $n in " + path + " return name($n), ',')";
    case 2:
      return "for $n in " + path + " where count($n/*) > 0 return name($n)";
    case 3:
      return "count(" + path + " union doc('doc.xml')//" + tag() + ")";
    case 4:
      return "let $s := " + path +
             " return count($s) + count($s[@k]) * 100";
    case 5:
      return "some $n in " + path + " satisfies count($n/*) > 1";
    case 6:
      return "every $n in " + path + " satisfies exists($n/@k) or "
             "count($n/ancestor::*) > 0";
    case 7:
      return "sum(for $n in " + path + " return string-length(name($n)))";
    case 8:
      // Direct constructor with an attribute value template — the vm's
      // kConstructElem path, serialized as the result.
      return "for $n in " + path +
             " return <v n=\"{name($n)}\">{count($n/*)}</v>";
    case 9:
      // Computed element + attribute constructors with computed names.
      return "for $n in " + path + " return element {concat(name($n), '-', "
             "count($n/*) mod 3)} {attribute k {string($n/@k)}, name($n)}";
    case 10:
      // Multi-key order-by with modifiers (kSortOpen/kSortKey/kSortTuples):
      // possibly-empty first key exercises empty greatest/least.
      return "string-join(for $n in " + path +
             " order by $n/@k empty greatest, "
             "count($n/*) descending, name($n) return name($n), ',')";
    default:
      return "string-join(for $n in " + path +
             " order by string($n/@k) return name($n), '')";
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, EnginesAndOptimizerAgree) {
  SplitMix64 rng(GetParam());
  std::string doc = RandomXml(GetParam() * 31 + 7, 250, 4);
  for (int i = 0; i < 20; ++i) {
    std::string query = RandomQuery(&rng);
    std::string reference = RunQuery(query, doc, /*lazy=*/false,
                                     /*optimize=*/false);
    ASSERT_EQ(reference.find("COMPILE-ERROR"), std::string::npos)
        << query << " -> " << reference;
    EXPECT_EQ(RunQuery(query, doc, true, false), reference) << query;
    EXPECT_EQ(RunQuery(query, doc, false, true), reference) << query;
    EXPECT_EQ(RunQuery(query, doc, true, true), reference) << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15));

// --- XMark differential suite ---------------------------------------------

/// One XMark scale-0.02 document parsed once and shared by every test
/// instance (parsing dominates the suite's runtime otherwise).
std::shared_ptr<const Document> SharedXMarkDoc() {
  static auto* doc = new std::shared_ptr<const Document>([] {
    XMarkOptions options;
    options.scale = 0.02;
    return Document::Parse(GenerateXMarkXml(options)).ValueOrDie();
  }());
  return *doc;
}

/// The shared XMark document frozen through the storage subsystem, indexes
/// included — the snapshot twin below reopens it via mmap, so every
/// generated query also cross-checks parsed-vs-snapshot-loaded execution.
const std::string& SharedXMarkSnapshotPath() {
  static auto* path = new std::string([] {
    std::string p = ::testing::TempDir() + "/xqp_diff_xmark.xqps";
    std::shared_ptr<const Document> doc = SharedXMarkDoc();
    auto indexes = DocumentIndexes::Build(doc, kIndexValueAll).ValueOrDie();
    storage::SnapshotInput input;
    input.doc = doc.get();
    input.indexes = indexes.get();
    Status st = storage::WriteSnapshotFile(p, input);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return p;
  }());
  return *path;
}

/// Random queries over the real XMark vocabulary: anchored descendant
/// paths with positional / existence / twig predicates, wrapped in the
/// aggregate and FLWOR shapes the engines treat differently (streaming vs
/// materializing, rewritten vs not).
std::string RandomXMarkQuery(SplitMix64* rng) {
  static constexpr const char* kTags[] = {
      "item",     "name",     "keyword",  "bidder",   "increase",
      "seller",   "open_auction", "description", "mailbox", "date",
      "price",    "payment",  "category", "location", "quantity",
      "person",   "emph",     "listitem", "bold",     "text"};
  auto tag = [&] {
    return std::string(kTags[rng->Below(std::size(kTags))]);
  };
  // Value predicates over typed XMark content — the shapes the value index
  // answers (index/index_planner.h), so indexed and unindexed plans get
  // cross-checked on numeric ranges, attribute equality, and string
  // comparisons alike, over one-step and multi-step targets (the latter
  // probe the target path and lift each hit to the filtered step). Each
  // comes with the element it naturally filters.
  struct ValuePred {
    std::string base;
    std::string pred;
  };
  auto value_pred = [&]() -> ValuePred {
    switch (rng->Below(8)) {
      case 0:
        return {"item", "[quantity < " + std::to_string(1 + rng->Below(6)) +
                            "]"};
      case 1:
        return {"item", "[quantity = " + std::to_string(1 + rng->Below(6)) +
                            "]"};
      case 2:
        return {"person",
                "[@id = 'person" + std::to_string(rng->Below(40)) + "']"};
      case 3:
        return {"item", "[price >= " + std::to_string(10 * rng->Below(12)) +
                            "]"};
      case 4:
        return {"closed_auction", "[buyer/@person = 'person" +
                                      std::to_string(rng->Below(80)) + "']"};
      case 5:
        return {"open_auction", "[bidder/increase > " +
                                    std::to_string(rng->Below(16)) + "]"};
      case 6:
        return {"person", "[profile/@income >= " +
                              std::to_string(10000 * rng->Below(10)) + "]"};
      default:
        return {"item", "[date != '01/01/2000']"};
    }
  };
  auto step = [&](bool first) -> std::string {
    // At least a quarter of the paths start at a value predicate's own
    // element, so its hits reach the later steps instead of an unrelated
    // empty context.
    switch (first && rng->Below(4) == 0 ? 5 : rng->Below(10)) {
      case 0:
        return "//" + tag();
      case 1:
        return (first ? "//" : "/") + tag();
      case 2:
        return "//" + tag() + "[" + std::to_string(1 + rng->Below(3)) + "]";
      case 3:
        return "//" + tag() + "[" + tag() + "]";
      case 4:
        return first ? "//" + tag() : "/*";
      case 5: {
        ValuePred vp = value_pred();
        return "//" + vp.base + vp.pred;
      }
      case 6:
        return "//" + tag() + value_pred().pred;
      case 7:
        // Pure child segments lower to the vm's kNavStep fast path.
        return (first ? "/site/" : "/") + tag();
      case 8:
        return first ? "//item/@id" : "/@id";
      default:
        return "//" + tag() + "[.//" + tag() + "]";
    }
  };
  std::string path = "doc('xmark.xml')";
  size_t steps = 1 + rng->Below(3);
  for (size_t i = 0; i < steps; ++i) path += step(i == 0);

  switch (rng->Below(11)) {
    case 0:
      return "count(" + path + ")";
    case 1:
      return "string-join(for $n in " + path + " return name($n), ',')";
    case 2:
      return "for $n in " + path + " where count($n/*) > 2 return name($n)";
    case 3:
      return "let $s := " + path +
             " return count($s) * 10 + count($s[.//keyword])";
    case 4:
      return "some $n in " + path + " satisfies count($n/*) > 3";
    case 5:
      return "sum(for $n in " + path + " return string-length(name($n)))";
    case 6:
      return "for $n in " + path +
             " order by string($n/name[1]) return name($n)";
    case 7:
      // Direct constructor return clause — the XMark Q13-style transform
      // the vm now compiles via kConstructElem.
      return "for $n in " + path +
             " return <hit tag=\"{name($n)}\">{string-length($n)}</hit>";
    case 8:
      // Computed element/attribute/text constructors with a computed name.
      return "for $n in " + path + " return element {concat('e', "
             "string-length(name($n)) mod 4)} {attribute src {name($n)}, "
             "text {count($n/*)}}";
    case 9:
      // Multi-key order-by with modifiers; the @id key is empty for
      // attribute-valued $n, exercising empty least.
      return "string-join(for $n in " + path +
             " order by string-length(name($n)) descending, "
             "$n/@id empty least return name($n), '.')";
    default:
      return "count(" + path + " union doc('xmark.xml')//keyword)";
  }
}

class XMarkDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XMarkDifferentialTest, EnginesBatchAndProfileAgree) {
  SplitMix64 rng(GetParam() * 7919 + 13);
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.RegisterDocument("xmark.xml", SharedXMarkDoc()));

  // Twin engine with the index subsystem off: optimized plans here carry no
  // index marks, so comparing its output pins indexed execution to the
  // join/navigation plans byte for byte.
  EngineOptions unindexed_options;
  unindexed_options.enable_indexes = false;
  XQueryEngine unindexed(unindexed_options);
  XQP_ASSERT_OK(unindexed.RegisterDocument("xmark.xml", SharedXMarkDoc()));

  // Snapshot twin: the same document persisted and reopened through the
  // storage subsystem — zero-copy mmap'd node table, adopted
  // snapshot-resident indexes. Results must be bit-identical to the
  // parsed original on every backend.
  XQueryEngine snapped;
  XQP_ASSERT_OK(
      snapped.LoadDocumentSnapshot("xmark.xml", SharedXMarkSnapshotPath())
          .status());
  ASSERT_NE(snapped.PeekDocumentIndexes("xmark.xml"), nullptr);

  XQueryEngine::CompileOptions no_opt;
  no_opt.optimize = false;
  CompiledQuery::ExecOptions eager;
  eager.backend = ExecBackend::kEager;
  CompiledQuery::ExecOptions lazy;
  lazy.backend = ExecBackend::kLazy;
  CompiledQuery::ExecOptions vmexec;
  vmexec.backend = ExecBackend::kVm;

  std::vector<std::string> queries;
  std::vector<std::string> expected;
  for (int i = 0; i < 8; ++i) {
    std::string query = RandomXMarkQuery(&rng);

    // Reference: eager interpreter on the unoptimized plan.
    auto reference = engine.Compile(query, no_opt);
    ASSERT_TRUE(reference.ok()) << query << ": "
                                << reference.status().ToString();
    XQP_ASSERT_OK_AND_ASSIGN(std::string want,
                             reference.value()->ExecuteToXml(eager));
    EXPECT_EQ(reference.value()->ExecuteToXml(lazy).ValueOrDie(), want)
        << query;

    // Optimized plan, all three backends. The vm twin pins the bytecode
    // compiler + VM (and its per-subtree bailouts) bit-identical to lazy.
    auto optimized = engine.Compile(query);
    ASSERT_TRUE(optimized.ok()) << query;
    EXPECT_EQ(optimized.value()->ExecuteToXml(eager).ValueOrDie(), want)
        << query;
    EXPECT_EQ(optimized.value()->ExecuteToXml(lazy).ValueOrDie(), want)
        << query;
    EXPECT_EQ(optimized.value()->ExecuteToXml(vmexec).ValueOrDie(), want)
        << query;

    // Fault injection at the bytecode compiler: the query must fall back
    // to the lazy engine transparently, still bit-identical.
    {
      fault::ScopedFault vm_fault("vm.compile", 1);
      auto faulted = engine.Compile(query);
      ASSERT_TRUE(faulted.ok()) << query;
      EXPECT_EQ(faulted.value()->ExecuteToXml(vmexec).ValueOrDie(), want)
          << query << " (vm.compile fault)";
    }

    // Resource-limit parity: with a tight result cap the vm backend trips
    // the same governor error as lazy, or both succeed with equal results.
    {
      CompiledQuery::ExecOptions capped_lazy = lazy;
      capped_lazy.limits.max_result_items = 3;
      CompiledQuery::ExecOptions capped_vm = vmexec;
      capped_vm.limits.max_result_items = 3;
      auto lazy_r = optimized.value()->Execute(capped_lazy);
      auto vm_r = optimized.value()->Execute(capped_vm);
      ASSERT_EQ(lazy_r.ok(), vm_r.ok()) << query;
      if (lazy_r.ok()) {
        EXPECT_EQ(SerializeSequence(vm_r.value()).ValueOrDie(),
                  SerializeSequence(lazy_r.value()).ValueOrDie())
            << query;
      } else {
        EXPECT_EQ(vm_r.status().code(), lazy_r.status().code()) << query;
      }
    }

    // Optimized plan with indexes disabled engine-wide.
    auto plain = unindexed.Compile(query);
    ASSERT_TRUE(plain.ok()) << query;
    EXPECT_EQ(plain.value()->ExecuteToXml(lazy).ValueOrDie(), want) << query;

    // Snapshot twin, all three backends.
    auto snap = snapped.Compile(query);
    ASSERT_TRUE(snap.ok()) << query;
    EXPECT_EQ(snap.value()->ExecuteToXml(lazy).ValueOrDie(), want)
        << query << " (snapshot twin, lazy)";
    EXPECT_EQ(snap.value()->ExecuteToXml(eager).ValueOrDie(), want)
        << query << " (snapshot twin, eager)";
    EXPECT_EQ(snap.value()->ExecuteToXml(vmexec).ValueOrDie(), want)
        << query << " (snapshot twin, vm)";

    // Profile invariant on the optimized plan, both engines: the root
    // operator's item count is the result cardinality and the profiled
    // result is the reference result.
    for (const auto& exec : {lazy, eager, vmexec}) {
      auto report = optimized.value()->Profile(exec);
      ASSERT_TRUE(report.ok()) << query << ": "
                               << report.status().ToString();
      const OpStats* root = report.value().RootStats();
      ASSERT_NE(root, nullptr) << query;
      EXPECT_EQ(root->items, report.value().result.size())
          << query << " (" << ExecBackendName(*exec.backend) << ")";
      EXPECT_EQ(SerializeSequence(report.value().result).ValueOrDie(), want)
          << query;
    }

    queries.push_back(std::move(query));
    expected.push_back(std::move(want));
  }

  // The whole batch fanned across the thread pool must be positionally
  // identical to the serial reference runs.
  std::vector<std::string_view> views(queries.begin(), queries.end());
  auto batch = engine.ExecuteBatchParallel(views);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok())
        << queries[i] << ": " << batch[i].status().ToString();
    EXPECT_EQ(SerializeSequence(batch[i].value()).ValueOrDie(), expected[i])
        << queries[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XMarkDifferentialTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// --- Value-join differential suite ----------------------------------------
//
// Random correlated inner FLWORs `for $i in D where A op B` under an outer
// loop — the shapes the decorrelation pass plans as hash or band joins —
// checked on every backend (and the snapshot twin) against two
// references: a brute-force nested loop over the generator's own key
// lists, written here with the general-comparison rules spelled out, and
// the same query compiled with optimize=false (which never decorrelates).

/// One pool entry for a <k> key element's text.
struct KeyText {
  const char* text;
  bool is_int;  // xs:integer() accepts it.
};

constexpr KeyText kKeyPool[] = {
    {"1", true},   {"2", true},    {"3", true},  {"5", true},
    {"7", true},   {"10", true},   {"-2", true}, {"0", true},
    {"-0", true},  {" 3 ", true},  {"2.5", false}, {"NaN", false},
    {"INF", false}, {"9007199254740992", true},
    {"9007199254740993", true},   {"abc", false}, {"b", false},
    {"B", false},  {"", false}};

/// A generated document: outer <o> and inner <i> elements, each with zero
/// to three <k> children drawn from kKeyPool; some inner elements carry
/// @dup (they appear twice in the duplicated domain shape).
struct JoinCorpus {
  std::string xml;
  std::vector<std::vector<KeyText>> outer_keys;
  std::vector<std::vector<KeyText>> inner_keys;
  std::vector<bool> inner_dup;
};

JoinCorpus MakeJoinCorpus(SplitMix64* rng, bool numeric_only) {
  JoinCorpus c;
  auto keys = [&] {
    std::vector<KeyText> out;
    size_t n = rng->Below(4);
    for (size_t j = 0; j < n; ++j) {
      // Numeric-only corpora keep every untyped key castable, so numeric
      // probes take the table path instead of the error fallback.
      size_t limit = numeric_only ? 15 : std::size(kKeyPool);
      const KeyText& k = kKeyPool[rng->Below(limit)];
      if (numeric_only && std::string_view(k.text) == "NaN") continue;
      out.push_back(k);
    }
    return out;
  };
  auto element = [&](const char* tag, size_t n,
                     const std::vector<KeyText>& ks, bool dup) {
    std::string e = std::string("<") + tag + " n=\"" + std::to_string(n) +
                    "\"" + (dup ? " dup=\"1\"" : "") + ">";
    for (const KeyText& k : ks) {
      e += std::string("<k") + (k.is_int ? " int=\"1\"" : "") + ">" + k.text +
           "</k>";
    }
    return e + "</" + tag + ">";
  };
  c.xml = "<r>";
  size_t outers = 3 + rng->Below(8);
  size_t inners = 4 + rng->Below(12);
  for (size_t n = 0; n < outers; ++n) {
    c.outer_keys.push_back(keys());
    c.xml += element("o", n, c.outer_keys.back(), false);
  }
  for (size_t n = 0; n < inners; ++n) {
    c.inner_keys.push_back(keys());
    c.inner_dup.push_back(rng->Below(3) == 0);
    c.xml += element("i", n, c.inner_keys.back(), c.inner_dup.back());
  }
  c.xml += "</r>";
  return c;
}

/// An atomized key as the comparison sees it.
struct JoinKey {
  enum Kind { kUntyped, kString, kDouble, kInteger } kind;
  std::string s;
  double d = 0;
  int64_t i = 0;
};

/// Key expression shapes over a variable: the untyped nodes themselves,
/// number() of each (NaN for non-numeric text), string() of each, and
/// xs:integer() of the integer-valued ones.
enum class KeyShape { kUntyped, kNumber, kString, kInteger };

std::string KeyExpr(KeyShape shape, const std::string& var) {
  switch (shape) {
    case KeyShape::kUntyped:
      return var + "/k";
    case KeyShape::kNumber:
      return "(for $y in " + var + "/k return number($y))";
    case KeyShape::kString:
      return "(for $y in " + var + "/k return string($y))";
    case KeyShape::kInteger:
      return "(for $y in " + var + "/k[@int] return xs:integer($y))";
  }
  return "";
}

std::vector<JoinKey> KeyValues(KeyShape shape,
                               const std::vector<KeyText>& texts) {
  std::vector<JoinKey> out;
  for (const KeyText& t : texts) {
    JoinKey k;
    switch (shape) {
      case KeyShape::kUntyped:
        k.kind = JoinKey::kUntyped;
        k.s = t.text;
        break;
      case KeyShape::kString:
        k.kind = JoinKey::kString;
        k.s = t.text;
        break;
      case KeyShape::kNumber: {
        k.kind = JoinKey::kDouble;
        Result<double> d = ParseXsDouble(t.text);
        k.d = d.ok() ? d.value() : std::nan("");
        break;
      }
      case KeyShape::kInteger: {
        if (!t.is_int) continue;
        k.kind = JoinKey::kInteger;
        k.i = ParseXsInteger(t.text).ValueOrDie();
        break;
      }
    }
    out.push_back(std::move(k));
  }
  return out;
}

/// Brute-force general comparison of one pair: nullopt when the pair
/// raises a type error (uncastable untyped vs number, string vs number),
/// else whether `a op b` holds. NaN never satisfies =, <, <=, >, >=.
std::optional<bool> OraclePair(const JoinKey& a, const JoinKey& b,
                               const std::string& op) {
  auto numeric = [](const JoinKey& k) {
    return k.kind == JoinKey::kDouble || k.kind == JoinKey::kInteger;
  };
  auto as_double = [](const JoinKey& k) {
    return k.kind == JoinKey::kInteger ? double(k.i) : k.d;
  };
  int cmp = 0;  // -1 / 0 / 1; 2 = unordered (NaN).
  if (a.kind == JoinKey::kUntyped || b.kind == JoinKey::kUntyped) {
    const JoinKey& u = a.kind == JoinKey::kUntyped ? a : b;
    const JoinKey& other = a.kind == JoinKey::kUntyped ? b : a;
    if (numeric(other)) {
      Result<double> cast = ParseXsDouble(u.s);
      if (!cast.ok()) return std::nullopt;
      double x = a.kind == JoinKey::kUntyped ? cast.value() : as_double(a);
      double y = a.kind == JoinKey::kUntyped ? as_double(b) : cast.value();
      cmp = std::isnan(x) || std::isnan(y) ? 2 : x < y ? -1 : x > y ? 1 : 0;
    } else {
      cmp = a.s < b.s ? -1 : a.s > b.s ? 1 : 0;
    }
  } else if (numeric(a) && numeric(b)) {
    if (a.kind == JoinKey::kInteger && b.kind == JoinKey::kInteger) {
      cmp = a.i < b.i ? -1 : a.i > b.i ? 1 : 0;
    } else {
      double x = as_double(a);
      double y = as_double(b);
      cmp = std::isnan(x) || std::isnan(y) ? 2 : x < y ? -1 : x > y ? 1 : 0;
    }
  } else if (!numeric(a) && !numeric(b)) {
    cmp = a.s < b.s ? -1 : a.s > b.s ? 1 : 0;
  } else {
    return std::nullopt;  // xs:string vs a number.
  }
  if (cmp == 2) return false;
  if (op == "=") return cmp == 0;
  if (op == "<") return cmp < 0;
  if (op == "<=") return cmp <= 0;
  if (op == ">") return cmp > 0;
  return cmp >= 0;
}

enum class DomainShape { kAll, kDuplicated, kEmpty };

struct JoinCase {
  std::string query;
  std::optional<std::string> oracle;  // nullopt: the query raises.
};

JoinCase RandomJoinCase(SplitMix64* rng, const JoinCorpus& c) {
  static constexpr const char* kOps[] = {"=", "<", "<=", ">", ">="};
  constexpr KeyShape kShapes[] = {KeyShape::kUntyped, KeyShape::kNumber,
                                  KeyShape::kString, KeyShape::kInteger};
  const std::string op = kOps[rng->Below(5)];
  const KeyShape inner_shape = kShapes[rng->Below(4)];
  const KeyShape probe_shape = kShapes[rng->Below(4)];
  const bool inner_lhs = rng->Below(2) == 0;
  const uint64_t pick = rng->Below(8);
  const DomainShape domain = pick < 4   ? DomainShape::kAll
                             : pick < 7 ? DomainShape::kDuplicated
                                        : DomainShape::kEmpty;
  std::string d;
  std::vector<size_t> order;  // Inner elements in domain order.
  for (size_t n = 0; n < c.inner_keys.size(); ++n) order.push_back(n);
  switch (domain) {
    case DomainShape::kAll:
      d = "doc('j.xml')/r/i";
      break;
    case DomainShape::kDuplicated:
      d = "(doc('j.xml')/r/i, doc('j.xml')/r/i[@dup])";
      for (size_t n = 0; n < c.inner_keys.size(); ++n) {
        if (c.inner_dup[n]) order.push_back(n);
      }
      break;
    case DomainShape::kEmpty:
      d = "doc('j.xml')/r/none";
      order.clear();
      break;
  }
  std::string inner = KeyExpr(inner_shape, "$i");
  std::string probe = KeyExpr(probe_shape, "$o");
  std::string where = inner_lhs ? inner + " " + op + " " + probe
                                : probe + " " + op + " " + inner;
  JoinCase out;
  out.query = "for $o in doc('j.xml')/r/o return <m>{concat('[', "
              "string-join(for $i in " + d + " where " + where +
              " return string($i/@n), ','), ']')}</m>";

  std::string want;
  for (const std::vector<KeyText>& outer : c.outer_keys) {
    std::vector<JoinKey> probe_keys = KeyValues(probe_shape, outer);
    std::string hits;
    for (size_t n : order) {
      std::vector<JoinKey> inner_keys = KeyValues(inner_shape, c.inner_keys[n]);
      const std::vector<JoinKey>& lhs = inner_lhs ? inner_keys : probe_keys;
      const std::vector<JoinKey>& rhs = inner_lhs ? probe_keys : inner_keys;
      bool matched = false;
      for (const JoinKey& a : lhs) {
        for (const JoinKey& b : rhs) {
          std::optional<bool> r = OraclePair(a, b, op);
          if (!r.has_value()) return out;  // The nested loop raises.
          if (*r) {
            matched = true;
            break;
          }
        }
        if (matched) break;
      }
      if (matched) hits += (hits.empty() ? "" : ",") + std::to_string(n);
    }
    want += "<m>[" + hits + "]</m>";
  }
  out.oracle = want;
  return out;
}

class ValueJoinDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueJoinDifferentialTest, BackendsMatchOracleAndNestedLoop) {
  SplitMix64 rng(GetParam() * 104729 + 3);
  JoinCorpus corpus = MakeJoinCorpus(&rng, /*numeric_only=*/GetParam() % 2);
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("j.xml", corpus.xml).status());

  // Snapshot twin of the same document (indexes included).
  std::string snap_path = ::testing::TempDir() + "/xqp_join_" +
                          std::to_string(GetParam()) + ".xqps";
  {
    auto doc = Document::Parse(corpus.xml).ValueOrDie();
    auto indexes = DocumentIndexes::Build(doc, kIndexValueAll).ValueOrDie();
    storage::SnapshotInput input;
    input.doc = doc.get();
    input.indexes = indexes.get();
    XQP_ASSERT_OK(storage::WriteSnapshotFile(snap_path, input));
  }
  XQueryEngine snapped;
  XQP_ASSERT_OK(snapped.LoadDocumentSnapshot("j.xml", snap_path).status());

  XQueryEngine::CompileOptions no_opt;
  no_opt.optimize = false;
  std::vector<CompiledQuery::ExecOptions> backends(3);
  backends[0].backend = ExecBackend::kLazy;
  backends[1].backend = ExecBackend::kEager;
  backends[2].backend = ExecBackend::kVm;

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  const bool metrics_were_on = registry.enabled();
  registry.set_enabled(true);
  const metrics::MetricsSnapshot before = registry.Snapshot();
  int planned = 0;
  for (int q = 0; q < 24; ++q) {
    JoinCase jc = RandomJoinCase(&rng, corpus);
    const std::string& query = jc.query;
    auto reference = engine.Compile(query, no_opt);
    ASSERT_TRUE(reference.ok()) << query << ": "
                                << reference.status().ToString();
    auto ref = reference.value()->ExecuteToXml(backends[1]);
    // Reference 1: the brute-force nested loop over the key lists.
    ASSERT_EQ(ref.ok(), jc.oracle.has_value())
        << query << "\n" << corpus.xml << "\n"
        << (ref.ok() ? ref.value() : ref.status().ToString());
    if (ref.ok()) {
      ASSERT_EQ(ref.value(), *jc.oracle) << query;
    }

    auto optimized = engine.Compile(query);
    ASSERT_TRUE(optimized.ok()) << query;
    if (optimized.value()->ExplainTree().find("[join: hash") !=
            std::string::npos ||
        optimized.value()->ExplainTree().find("[join: band") !=
            std::string::npos) {
      ++planned;
    }
    auto snap = snapped.Compile(query);
    ASSERT_TRUE(snap.ok()) << query;
    for (const CompiledQuery::ExecOptions& exec : backends) {
      // Reference 2: the unoptimized plan, on every backend.
      for (const CompiledQuery* plan :
           {optimized.value().get(), snap.value().get(),
            reference.value().get()}) {
        // Twice: the first probe of an execution runs the nested loop,
        // later ones the table; every execution starts cold.
        for (int rep = 0; rep < 2; ++rep) {
          auto got = plan->ExecuteToXml(exec);
          ASSERT_EQ(got.ok(), ref.ok()) << query;
          if (ref.ok()) {
            EXPECT_EQ(got.value(), ref.value()) << query;
          } else {
            EXPECT_EQ(got.status().code(), ref.status().code()) << query;
            EXPECT_EQ(got.status().message(), ref.status().message())
                << query;
          }
        }
      }
      // Governance: a result cap trips (or not) exactly as on the nested
      // loop; a cancelled run stops with kCancelled.
      CompiledQuery::ExecOptions capped = exec;
      capped.limits.max_result_items = 2;
      auto cap_opt = optimized.value()->Execute(capped);
      auto cap_ref = reference.value()->Execute(capped);
      ASSERT_EQ(cap_opt.ok(), cap_ref.ok()) << query;
      if (!cap_opt.ok()) {
        EXPECT_EQ(cap_opt.status().code(), cap_ref.status().code()) << query;
      }
      CompiledQuery::ExecOptions cancelled = exec;
      cancelled.limits.cancel = std::make_shared<CancelToken>();
      cancelled.limits.cancel->Cancel();
      auto cancel_r = optimized.value()->Execute(cancelled);
      ASSERT_FALSE(cancel_r.ok()) << query;
      EXPECT_EQ(cancel_r.status().code(), StatusCode::kCancelled) << query;
    }
  }
  metrics::MetricsSnapshot delta = registry.Snapshot().Delta(before);
  registry.set_enabled(metrics_were_on);
  // The generator must actually exercise the join runtime: plans, and
  // probes answered from a table rather than the nested-loop fallback.
  EXPECT_GE(planned, 20);
  EXPECT_GT(delta.counters["join.value_hash.calls"] +
                delta.counters["join.value_band.calls"],
            0u);
  EXPECT_GT(delta.counters["join.value_nl.calls"], 0u);
}

TEST_P(ValueJoinDifferentialTest, InjectedFaultsAlwaysSurface) {
  // A fault that fires anywhere — constructor allocation or an evaluation
  // step inside the join build — must fail the run with its own Status,
  // never be absorbed by the nested-loop fallback.
  SplitMix64 rng(GetParam() * 7 + 1);
  JoinCorpus corpus = MakeJoinCorpus(&rng, /*numeric_only=*/true);
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("j.xml", corpus.xml).status());
  JoinCase jc = RandomJoinCase(&rng, corpus);
  auto compiled = engine.Compile(jc.query);
  ASSERT_TRUE(compiled.ok()) << jc.query;
  auto want = compiled.value()->ExecuteToXml();
  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    for (const char* site : {"alloc", "iterators.next"}) {
      for (uint64_t nth = 1; nth <= 40; ++nth) {
        fault::ScopedFault f(site, nth, StatusCode::kInternal);
        auto got = compiled.value()->ExecuteToXml(exec);
        if (fault::Armed()) {
          // Never reached: the run is the unfaulted one.
          ASSERT_EQ(got.ok(), want.ok()) << jc.query;
          if (want.ok()) {
            EXPECT_EQ(got.value(), want.value()) << jc.query;
          }
          continue;
        }
        ASSERT_FALSE(got.ok()) << site << " #" << nth << ": " << jc.query;
        EXPECT_EQ(got.status().code(), StatusCode::kInternal)
            << site << " #" << nth << ": " << jc.query;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueJoinDifferentialTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38,
                                           39, 40));

// --- Constructor differential suite ---------------------------------------
//
// Element constructors with direct attributes, which construct::Element
// builds inside the element's own document, next to computed and copied
// attributes, which still go through a parentless attribute node. Every
// generated query runs on every backend, optimized and not, on a parsed and
// a snapshot-loaded document, and under an allocation fault sweep, a
// memory budget and a result cap. Queries that deliberately clash carry
// their expected error text, an oracle independent of the engine.

/// A generated constructor query, its copy-path twin and, when it clashes,
/// the exact error message every backend must fail with. The twin builds
/// each direct attribute as a computed attribute inside a sequence, which
/// construct::Element copies from a parentless attribute node instead of
/// building in place; both must serialize identically.
struct CtorCase {
  std::string query;
  std::string twin;
  std::optional<std::string> error;
};

CtorCase RandomCtorCase(SplitMix64* rng) {
  // An attribute value: its direct (attribute value template) spelling
  // and an equivalent XQuery string expression.
  struct Value {
    std::string avt;
    std::string expr;
  };
  // One enclosed expression: its items' lexical forms joined by spaces.
  auto enclosed = [&]() -> Value {
    static constexpr const char* kExprs[] = {
        "()",                     // Empty.
        "$n/@missing",            // Empty path.
        "($n/@k, name($n), 7)",   // Multi-item: joined by spaces.
        "$n/*",                   // Element nodes: their string values.
        "$n",
        "count($n/*)",
        "$n/@k",                  // An attribute node, atomized.
    };
    std::string e = kExprs[rng->Below(7)];
    return {"{" + e + "}",
            "string-join(for $x in " + e + " return string($x), ' ')"};
  };
  auto value = [&]() -> Value {
    switch (rng->Below(5)) {
      case 0:
        return {"lit", "'lit'"};
      case 1:
        return {"", "''"};
      case 2:
        return enclosed();
      case 3: {
        Value e = enclosed();  // Mixed literal and enclosed parts.
        return {"x" + e.avt + "y", "concat('x', " + e.expr + ", 'y')"};
      }
      default: {
        Value a = enclosed();
        Value b = enclosed();
        return {a.avt + "-" + b.avt,
                "concat(" + a.expr + ", '-', " + b.expr + ")"};
      }
    }
  };
  static constexpr const char* kNames[] = {"p", "q", "r", "s"};
  size_t num_attrs = rng->Below(4);
  std::string attrs;
  std::string twin_attrs;
  auto add_attr = [&](const std::string& name, const Value& v) {
    attrs += " " + name + "=\"" + v.avt + "\"";
    twin_attrs += "attribute " + name + " {" + v.expr + "}, ";
  };
  for (size_t i = 0; i < num_attrs; ++i) add_attr(kNames[i], value());

  CtorCase c;
  std::string content;
  switch (rng->Below(num_attrs == 0 ? 6 : 9)) {
    case 0:
      break;
    case 1:
      content = "{count($n/*)}";
      break;
    case 2:
      content = "{$n/@k}";  // Copies the source attribute, when present.
      break;
    case 3:
      content = "<w t=\"{name($n)}\">{$n/@k, string($n)}</w>";
      break;
    case 4:
      content = "{attribute s {name($n)}}";  // Static name: built in place.
      break;
    case 5:
      // Computed attribute after text: the ordering error.
      content = "t{attribute {'s'} {1}}";
      c.error = "attribute \"s\" constructed after non-attribute content "
                "of element";
      break;
    case 6:
      // Same name as a direct attribute, built in place.
      content = "{attribute p {name($n)}}";
      c.error = "duplicate attribute: p";
      break;
    case 7:
      // Same name, computed: copied from a parentless attribute node.
      content = "{attribute {concat('', 'p')} {1}}";
      c.error = "duplicate attribute: p";
      break;
    default:
      // Same name, static but inside a sequence: also copied.
      content = "{(attribute p {2}, ())}";
      c.error = "duplicate attribute: p";
      break;
  }
  if (!c.error && num_attrs >= 2 && rng->Below(4) == 0) {
    add_attr("q", {"dup", "'dup'"});  // Two direct attributes, one name.
    c.error = "duplicate attribute: q";
  }

  std::string tag(1, static_cast<char>('a' + rng->Below(4)));
  std::string domain = "(doc('doc.xml')//" + tag + ")[position() <= 4]";
  const uint64_t shape = rng->Below(3);
  auto wrap = [&](const std::string& ctor) {
    switch (shape) {
      case 0:
        return "for $n in " + domain + " return " + ctor;
      case 1:
        return "for $n in " + domain + " return <o n=\"{name($n)}\">" +
               ctor + "</o>";
      default:
        return "string-join(for $n in " + domain + " return string-join("
               "for $a in " + ctor + "/@* return concat(name($a), '=', "
               "string($a)), ';'), '|')";
    }
  };
  c.query = wrap("<v" + attrs + ">" + content + "</v>");
  c.twin = wrap("<v>{(" + twin_attrs + "())}" + content + "</v>");
  return c;
}

class ConstructorDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ConstructorDifferentialTest, InPlaceAttributesAgreeEverywhere) {
  SplitMix64 rng(GetParam() * 104729 + 3);
  std::string xml = RandomXml(GetParam() * 17 + 5, 120, 4);
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("doc.xml", xml).status());

  std::string snap_path = ::testing::TempDir() + "/xqp_ctor_" +
                          std::to_string(GetParam()) + ".xqps";
  {
    auto doc = Document::Parse(xml).ValueOrDie();
    auto indexes = DocumentIndexes::Build(doc, kIndexValueAll).ValueOrDie();
    storage::SnapshotInput input;
    input.doc = doc.get();
    input.indexes = indexes.get();
    XQP_ASSERT_OK(storage::WriteSnapshotFile(snap_path, input));
  }
  XQueryEngine snapped;
  XQP_ASSERT_OK(snapped.LoadDocumentSnapshot("doc.xml", snap_path).status());

  XQueryEngine::CompileOptions no_opt;
  no_opt.optimize = false;
  std::vector<CompiledQuery::ExecOptions> backends(3);
  backends[0].backend = ExecBackend::kLazy;
  backends[1].backend = ExecBackend::kEager;
  backends[2].backend = ExecBackend::kVm;

  for (int q = 0; q < 16; ++q) {
    CtorCase c = RandomCtorCase(&rng);
    const std::string& query = c.query;
    auto reference = engine.Compile(query, no_opt);
    ASSERT_TRUE(reference.ok()) << query << ": "
                                << reference.status().ToString();
    auto want = reference.value()->ExecuteToXml(backends[1]);
    // The engine-independent oracle: clashes fail with their own message.
    ASSERT_EQ(want.ok(), !c.error.has_value())
        << query << " -> "
        << (want.ok() ? want.value() : want.status().ToString());
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), StatusCode::kDynamicError) << query;
      EXPECT_EQ(want.status().message(), *c.error) << query;
    }
    auto same = [&](const Result<std::string>& got, const std::string& what) {
      ASSERT_EQ(got.ok(), want.ok()) << query << " (" << what << ")";
      if (want.ok()) {
        EXPECT_EQ(got.value(), want.value()) << query << " (" << what << ")";
      } else {
        EXPECT_EQ(got.status().code(), want.status().code()) << query;
        EXPECT_EQ(got.status().message(), want.status().message())
            << query << " (" << what << ")";
      }
    };

    auto optimized = engine.Compile(query);
    ASSERT_TRUE(optimized.ok()) << query;
    auto snap = snapped.Compile(query);
    ASSERT_TRUE(snap.ok()) << query;
    auto twin = engine.Compile(c.twin);
    ASSERT_TRUE(twin.ok()) << c.twin << ": " << twin.status().ToString();
    for (const CompiledQuery::ExecOptions& exec : backends) {
      const std::string name = ExecBackendName(*exec.backend);
      same(reference.value()->ExecuteToXml(exec), name + ", unoptimized");
      same(optimized.value()->ExecuteToXml(exec), name + ", optimized");
      same(snap.value()->ExecuteToXml(exec), name + ", snapshot twin");
      same(twin.value()->ExecuteToXml(exec), name + ", copy-path twin " +
                                                 c.twin);
    }

    // Allocation faults: every node the constructors build passes the
    // "alloc" site in the same order on every backend, so the nth hit
    // fails all three alike, and past the last hit all three run clean.
    for (uint64_t nth = 1; nth <= 24; ++nth) {
      std::vector<bool> fired;
      for (const CompiledQuery::ExecOptions& exec : backends) {
        fault::ScopedFault f("alloc", nth, StatusCode::kInternal);
        auto got = optimized.value()->ExecuteToXml(exec);
        fired.push_back(!fault::Armed());
        if (fault::Armed()) {
          same(got, "alloc #" + std::to_string(nth) + " not reached");
        } else {
          ASSERT_FALSE(got.ok()) << query << " alloc #" << nth;
          EXPECT_EQ(got.status().code(), StatusCode::kInternal)
              << query << " alloc #" << nth;
        }
      }
      EXPECT_EQ(fired[0], fired[1]) << query << " alloc #" << nth;
      EXPECT_EQ(fired[0], fired[2]) << query << " alloc #" << nth;
    }

    // Governance. Backends charge different working sets to a memory
    // budget, so under a tight one each either returns the reference
    // result or fails with the governor's code (or the query's own clash,
    // if that comes first). A result cap trips identically on lazy and vm.
    for (int limit = 0; limit < 2; ++limit) {
      std::vector<Result<std::string>> runs;
      for (CompiledQuery::ExecOptions exec : backends) {
        if (limit == 0) {
          exec.limits.memory_budget_bytes = 2048;
        } else {
          exec.limits.max_result_items = 2;
        }
        runs.push_back(optimized.value()->ExecuteToXml(exec));
      }
      for (const Result<std::string>& r : runs) {
        if (r.ok()) {
          same(r, "under limit " + std::to_string(limit));
        } else if (want.ok() || r.status().message() != *c.error) {
          EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
              << query << " limit " << limit << ": " << r.status().ToString();
        }
      }
      if (limit == 1) {
        ASSERT_EQ(runs[0].ok(), runs[2].ok()) << query;
        if (!runs[0].ok()) {
          EXPECT_EQ(runs[0].status().ToString(), runs[2].status().ToString())
              << query;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstructorDifferentialTest,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48));

// --- Descendant-route differential suite ----------------------------------
//
// A variable-anchored descendant or descendant-or-self name step answers
// from the tag index's postings when the engine already holds a TagIndex
// over exactly the origin's document (the tag-slice route), and scans the
// origin's region otherwise. Every case runs with the index built and
// never built, on every backend, optimized and not, plus the snapshot
// twin; all must serialize byte-identically. Wildcard tests and origins
// from a superseded document must take the scan route.

constexpr char kDescProlog[] =
    "declare namespace p = 'urn:p'; declare namespace q = 'urn:q'; ";

/// A random tree over a, b, c and the namespaced p:a, q:a (two URIs, one
/// local name) and p:b; every element carries a unique @n so a serialized
/// result pins node identity. Text, comments and PIs sit between elements.
std::string DescendantCorpus(SplitMix64* rng, size_t elements) {
  static constexpr const char* kTags[] = {"a", "b", "c", "p:a", "q:a", "p:b"};
  std::string out = "<r xmlns:p=\"urn:p\" xmlns:q=\"urn:q\" n=\"0\">";
  std::vector<const char*> open;
  size_t emitted = 0;
  while (emitted < elements || !open.empty()) {
    uint64_t action = rng->Below(10);
    if (emitted < elements && (action < 5 || open.empty()) &&
        open.size() < 7) {
      const char* tag = kTags[rng->Below(6)];
      out += std::string("<") + tag + " n=\"" + std::to_string(++emitted) +
             "\">";
      open.push_back(tag);
    } else if (action < 8 && !open.empty()) {
      out += std::string("</") + open.back() + ">";
      open.pop_back();
    } else if (action == 8) {
      out += "t" + std::to_string(rng->Below(100));
    } else {
      out += rng->Below(2) == 0 ? "<!--x-->" : "<?pi x?>";
    }
  }
  return out + "</r>";
}

/// `for $o in ORIGIN return ...` over one descendant step: the @n of every
/// selected node, in the order the step delivers them, one group per
/// origin — or the nodes themselves, serialized.
std::string DescendantQuery(const std::string& origin, const std::string& step,
                            bool serialize_nodes) {
  if (serialize_nodes) {
    return std::string(kDescProlog) + "for $o in " + origin + " return $o/" +
           step;
  }
  return std::string(kDescProlog) + "for $o in " + origin +
         " return <g>{for $x in $o/" + step +
         " return string($x/@n)}</g>";
}

constexpr const char* kDescOrigins[] = {
    "doc('d.xml')",                     // The document node.
    "doc('d.xml')/r",                   // The root element.
    "doc('d.xml')//b",                  // Mid-depth elements.
    "(doc('d.xml')//b)[2]",             // One mid-depth element.
    "doc('d.xml')//*[not(*)]",          // Leaves.
    "doc('d.xml')//@n",                 // Attributes.
    "doc('d.xml')//text()",             // Text nodes.
    "doc('d.xml')//p:a",                // Namespaced elements.
};

constexpr const char* kDescTests[] = {
    "a", "b", "c", "p:a", "q:a", "p:b",  // Exact names (q:a vs p:a vs a).
    "zz", "p:zz",                        // Absent from the document.
    "element(a)", "element(q:a)",        // Named kind tests.
    "*", "p:*", "*:a", "element()",      // Wildcards: always scanned.
};

class DescendantRouteTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DescendantRouteTest, SliceAndScanAgreeEverywhere) {
  SplitMix64 rng(GetParam() * 104729 + 7);
  const std::string xml = DescendantCorpus(&rng, 120 + rng.Below(120));

  // Index built: the slice route is available.
  XQueryEngine built;
  XQP_ASSERT_OK(built.ParseAndRegister("d.xml", xml).status());
  XQP_ASSERT_OK(built.GetTagIndex("d.xml").status());
  // Never built: with the index subsystem off no access path asks for a
  // tag index, so every step scans.
  EngineOptions scan_options;
  scan_options.enable_indexes = false;
  XQueryEngine never(scan_options);
  XQP_ASSERT_OK(never.ParseAndRegister("d.xml", xml).status());
  // Snapshot twin, index built over the mmap'd document.
  const std::string snap_path = ::testing::TempDir() + "/xqp_desc_route_" +
                                std::to_string(GetParam()) + ".xqps";
  XQP_ASSERT_OK(built.SaveSnapshot("d.xml", snap_path));
  XQueryEngine snapped;
  XQP_ASSERT_OK(snapped.LoadDocumentSnapshot("d.xml", snap_path).status());
  XQP_ASSERT_OK(snapped.GetTagIndex("d.xml").status());
  // Parsed first, then registered: the Document has no base URI, and the
  // index peek, keyed by identity, must find its tag index all the same.
  XQueryEngine registered;
  XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Document> parsed,
                           Document::Parse(xml));
  ASSERT_TRUE(parsed->base_uri().empty());
  XQP_ASSERT_OK(registered.RegisterDocument("d.xml", parsed));
  XQP_ASSERT_OK(registered.GetTagIndex("d.xml").status());

  XQueryEngine::CompileOptions no_opt;
  no_opt.optimize = false;
  std::vector<CompiledQuery::ExecOptions> backends(3);
  backends[0].backend = ExecBackend::kLazy;
  backends[1].backend = ExecBackend::kEager;
  backends[2].backend = ExecBackend::kVm;

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  const bool metrics_were_on = registry.enabled();
  registry.set_enabled(true);
  uint64_t sliced_on_built = 0;
  uint64_t sliced_on_registered = 0;
  for (const char* origin : kDescOrigins) {
    for (int pick = 0; pick < 4; ++pick) {
      const std::string test = kDescTests[rng.Below(std::size(kDescTests))];
      const bool wildcard = test.find('*') != std::string::npos ||
                            test == "element()";
      for (const char* axis : {"descendant::", "descendant-or-self::", "/"}) {
        const std::string step = std::string(axis) + test;
        const std::string query =
            DescendantQuery(origin, step, rng.Below(3) == 0);
        auto reference = never.Compile(query, no_opt);
        ASSERT_TRUE(reference.ok()) << query << ": "
                                    << reference.status().ToString();
        XQP_ASSERT_OK_AND_ASSIGN(std::string want,
                                 reference.value()->ExecuteToXml(backends[1]));
        for (XQueryEngine* engine : {&built, &never, &snapped, &registered}) {
          for (bool optimize : {true, false}) {
            XQueryEngine::CompileOptions copts;
            copts.optimize = optimize;
            auto compiled = engine->Compile(query, copts);
            ASSERT_TRUE(compiled.ok()) << query;
            for (const CompiledQuery::ExecOptions& exec : backends) {
              const metrics::MetricsSnapshot before = registry.Snapshot();
              auto got = compiled.value()->ExecuteToXml(exec);
              metrics::MetricsSnapshot delta =
                  registry.Snapshot().Delta(before);
              ASSERT_TRUE(got.ok()) << query << ": "
                                    << got.status().ToString();
              EXPECT_EQ(got.value(), want)
                  << query << " (" << ExecBackendName(*exec.backend)
                  << (engine == &built        ? ", index built"
                      : engine == &never      ? ", never built"
                      : engine == &snapped    ? ", snapshot twin"
                                              : ", registered, no base URI")
                  << (optimize ? ", optimized)" : ")");
              const uint64_t sliced =
                  delta.counters["axis.descendant.tag_slice"];
              if (engine == &never || wildcard) {
                EXPECT_EQ(sliced, 0u) << query;
              }
              if (engine == &built) sliced_on_built += sliced;
              if (engine == &registered) sliced_on_registered += sliced;
            }
          }
        }
      }
    }
  }
  registry.set_enabled(metrics_were_on);
  EXPECT_GT(sliced_on_built, 0u);
  EXPECT_GT(sliced_on_registered, 0u);
  XQP_ASSERT_OK_AND_ASSIGN(auto never_doc, never.GetDocument("d.xml"));
  EXPECT_EQ(never.PeekTagIndex(*never_doc), nullptr);
}

TEST_P(DescendantRouteTest, SupersededDocumentTakesTheScanRoute) {
  SplitMix64 rng(GetParam() * 15485863 + 3);
  const std::string old_xml = DescendantCorpus(&rng, 150);
  const std::string new_xml = DescendantCorpus(&rng, 150);
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", old_xml).status());
  XQP_ASSERT_OK(engine.GetTagIndex("d.xml").status());

  // Origins from the old document, bound before it is replaced; its base
  // URI still names "d.xml".
  auto origins_q = engine.Compile("doc('d.xml')//b");
  ASSERT_TRUE(origins_q.ok());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence old_bs, origins_q.value()->Execute());
  ASSERT_FALSE(old_bs.empty());

  const std::string var_query =
      std::string(kDescProlog) +
      "declare variable $o external; "
      "for $x in $o return <g>{for $y in $x//a return string($y/@n)}</g>";
  const std::string doc_query = DescendantQuery("doc('d.xml')//b", "/a", false);
  auto var_compiled = engine.Compile(var_query);
  auto doc_compiled = engine.Compile(doc_query);
  ASSERT_TRUE(var_compiled.ok()) << var_compiled.status().ToString();
  ASSERT_TRUE(doc_compiled.ok()) << doc_compiled.status().ToString();

  // References: the scan route on engines that never build a tag index.
  EngineOptions scan_options;
  scan_options.enable_indexes = false;
  auto scan_reference = [&](const std::string& xml, const std::string& q,
                            const Sequence* bind) {
    XQueryEngine ref(scan_options);
    EXPECT_TRUE(ref.ParseAndRegister("d.xml", xml).ok());
    CompiledQuery::ExecOptions exec;
    exec.backend = ExecBackend::kEager;
    if (bind != nullptr) exec.variables["o"] = *bind;
    return ref.Compile(q).ValueOrDie()->ExecuteToXml(exec).ValueOrDie();
  };
  const std::string want_var = scan_reference(old_xml, var_query, &old_bs);
  const std::string want_doc = scan_reference(new_xml, doc_query, nullptr);

  // Re-register between compile and execute, then build the new
  // document's tag index: the old Document lost its index entry when its
  // URI moved on, so a peek with the old nodes' Document finds nothing,
  // although a tag index is built under the URI they came from.
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", new_xml).status());
  XQP_ASSERT_OK(engine.GetTagIndex("d.xml").status());

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  const bool metrics_were_on = registry.enabled();
  registry.set_enabled(true);
  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    exec.variables["o"] = old_bs;
    const metrics::MetricsSnapshot before = registry.Snapshot();
    EXPECT_EQ(var_compiled.value()->ExecuteToXml(exec).ValueOrDie(), want_var)
        << ExecBackendName(backend);
    metrics::MetricsSnapshot delta = registry.Snapshot().Delta(before);
    EXPECT_EQ(delta.counters["axis.descendant.tag_slice"], 0u);
    EXPECT_GT(delta.counters["axis.descendant.scan"], 0u);
    // doc() now yields the new document, whose index matches.
    EXPECT_EQ(doc_compiled.value()->ExecuteToXml(exec).ValueOrDie(), want_doc)
        << ExecBackendName(backend);
  }
  registry.set_enabled(metrics_were_on);
}

TEST_P(DescendantRouteTest, ConcurrentReregistrationStaysCorrect) {
  // Readers run descendant steps on every backend while a writer swaps the
  // registered document and rebuilds its tag index: each answer must be
  // one of the two documents' scan-route answers, and steps from a held
  // old-document origin must always see the old document.
  SplitMix64 rng(GetParam() * 32452843 + 5);
  const std::string xml[2] = {DescendantCorpus(&rng, 120),
                              DescendantCorpus(&rng, 120)};
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", xml[0]).status());
  XQP_ASSERT_OK(engine.GetTagIndex("d.xml").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence held,
                           engine.Compile("doc('d.xml')//b")
                               .ValueOrDie()
                               ->Execute());

  const std::string doc_query =
      DescendantQuery("doc('d.xml')//b", "/p:a", false);
  const std::string var_query =
      std::string(kDescProlog) +
      "declare variable $o external; "
      "for $x in $o return <g>{for $y in $x/descendant::c "
      "return string($y/@n)}</g>";
  EngineOptions scan_options;
  scan_options.enable_indexes = false;
  std::string want_doc[2];
  for (int d = 0; d < 2; ++d) {
    XQueryEngine ref(scan_options);
    XQP_ASSERT_OK(ref.ParseAndRegister("d.xml", xml[d]).status());
    XQP_ASSERT_OK_AND_ASSIGN(
        want_doc[d], ref.Compile(doc_query).ValueOrDie()->ExecuteToXml());
  }
  std::string want_var;
  {
    XQueryEngine ref(scan_options);
    XQP_ASSERT_OK(ref.ParseAndRegister("d.xml", xml[0]).status());
    CompiledQuery::ExecOptions exec;
    exec.variables["o"] = held;
    XQP_ASSERT_OK_AND_ASSIGN(
        want_var, ref.Compile(var_query).ValueOrDie()->ExecuteToXml(exec));
  }
  auto doc_compiled = engine.Compile(doc_query).ValueOrDie();
  auto var_compiled = engine.Compile(var_query).ValueOrDie();

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  auto reader = [&](ExecBackend backend) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    exec.variables["o"] = held;
    // At least a few rounds, then until the writer is done.
    for (int i = 0; i < 5 || !stop.load(); ++i) {
      auto d = doc_compiled->ExecuteToXml(exec);
      auto v = var_compiled->ExecuteToXml(exec);
      if (!d.ok() || !v.ok()) {
        failures.fetch_add(1);
        continue;
      }
      if ((d.value() != want_doc[0] && d.value() != want_doc[1]) ||
          v.value() != want_var) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::thread writer([&] {
    for (int i = 1; i <= 40; ++i) {
      if (!engine.ParseAndRegister("d.xml", xml[i % 2]).ok() ||
          !engine.GetTagIndex("d.xml").ok()) {
        failures.fetch_add(1);
      }
    }
  });
  std::thread readers[] = {std::thread(reader, ExecBackend::kLazy),
                           std::thread(reader, ExecBackend::kEager),
                           std::thread(reader, ExecBackend::kVm)};
  writer.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescendantRouteTest,
                         ::testing::Values(61, 62, 63, 64));

}  // namespace
}  // namespace xqp
