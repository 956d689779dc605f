// Path-synopsis / value-index subsystem tests: build correctness on edge
// documents, index-answered queries against the navigational reference,
// planner fallback behavior, and resource governance of index builds. The
// engine's per-document index lifecycle is tested in test_engine.cc, the
// randomized indexed-vs-unindexed cross-check in test_differential.cc;
// these are the targeted cases.

#include "index/document_indexes.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "base/metrics.h"
#include "engine.h"
#include "index/index_planner.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace xqp {
namespace {

std::string XMarkXml() {
  XMarkOptions options;
  options.scale = 0.02;
  return GenerateXMarkXml(options);
}

/// Serialized result of `query` on `engine`, lazy or eager.
std::string RunOn(XQueryEngine& engine, const std::string& query,
                bool lazy = true) {
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << ": "
                             << compiled.status().ToString();
  if (!compiled.ok()) return "COMPILE-ERROR";
  CompiledQuery::ExecOptions exec;
  exec.backend = lazy ? ExecBackend::kLazy : ExecBackend::kEager;
  auto result = compiled.value()->ExecuteToXml(exec);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  return result.ok() ? result.value() : "ERROR";
}

/// Asserts `query` produces identical bytes on an indexed and an unindexed
/// engine (both lazy and eager), returning the common serialization.
std::string ExpectIndexedMatchesPlain(const std::string& xml,
                                      const std::string& query) {
  XQueryEngine indexed;
  EngineOptions plain_options;
  plain_options.enable_indexes = false;
  XQueryEngine plain(plain_options);
  EXPECT_TRUE(indexed.ParseAndRegister("doc.xml", xml).ok());
  EXPECT_TRUE(plain.ParseAndRegister("doc.xml", xml).ok());
  std::string want = RunOn(plain, query);
  EXPECT_EQ(RunOn(indexed, query, /*lazy=*/true), want) << query;
  EXPECT_EQ(RunOn(indexed, query, /*lazy=*/false), want) << query;
  return want;
}

// --- DocumentIndexes build ------------------------------------------------

TEST(DocumentIndexes, EmptyDocument) {
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse("<r/>"));
  XQP_ASSERT_OK_AND_ASSIGN(auto idx,
                           DocumentIndexes::Build(doc, kIndexValueAll));
  // Synopsis: document node + one path ("/r").
  EXPECT_EQ(idx->NumSynopsisNodes(), 2u);
  int32_t r = idx->FindChild(0, NodeKind::kElement, doc->FindNameId("", "r"));
  ASSERT_GE(r, 0);
  EXPECT_EQ(idx->postings(r).size(), 1u);
  // <r/> has empty text content, indexed as the empty string.
  const auto vp = idx->values(r);
  ASSERT_TRUE(vp.has_value());
  EXPECT_TRUE(vp->indexable);
  ASSERT_EQ(vp->by_string.size(), 1u);
  EXPECT_EQ(idx->StringValue(vp->by_string[0].ref), "");
}

TEST(DocumentIndexes, DuplicateLocalsInDifferentNamespacesStayDistinct) {
  const char* xml =
      "<r xmlns:a='urn:a' xmlns:b='urn:b'>"
      "<a:x>1</a:x><b:x>2</b:x><a:x>3</a:x></r>";
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse(xml));
  XQP_ASSERT_OK_AND_ASSIGN(auto idx,
                           DocumentIndexes::Build(doc, kIndexValueAll));
  int32_t r = idx->FindChild(0, NodeKind::kElement, doc->FindNameId("", "r"));
  ASSERT_GE(r, 0);
  int32_t ax =
      idx->FindChild(r, NodeKind::kElement, doc->FindNameId("urn:a", "x"));
  int32_t bx =
      idx->FindChild(r, NodeKind::kElement, doc->FindNameId("urn:b", "x"));
  ASSERT_GE(ax, 0);
  ASSERT_GE(bx, 0);
  EXPECT_NE(ax, bx);
  EXPECT_EQ(idx->postings(ax).size(), 2u);
  EXPECT_EQ(idx->postings(bx).size(), 1u);
}

TEST(DocumentIndexes, ElementContentPoisonsValuePostings) {
  XQP_ASSERT_OK_AND_ASSIGN(auto doc,
                           Document::Parse("<r><a>1</a><a><b/>2</a></r>"));
  XQP_ASSERT_OK_AND_ASSIGN(auto idx,
                           DocumentIndexes::Build(doc, kIndexValueAll));
  int32_t r = idx->FindChild(0, NodeKind::kElement, doc->FindNameId("", "r"));
  int32_t a = idx->FindChild(r, NodeKind::kElement, doc->FindNameId("", "a"));
  ASSERT_GE(a, 0);
  const auto vp = idx->values(a);
  ASSERT_TRUE(vp.has_value());
  // The second <a> has an element child: the whole (path, tag) family is
  // unindexable, and the planner must fall back.
  EXPECT_FALSE(vp->indexable);
}

TEST(DocumentIndexes, MixedTypeValuesDisableNumericFamily) {
  XQP_ASSERT_OK_AND_ASSIGN(
      auto doc, Document::Parse("<r><v>10</v><v>abc</v><v>2</v></r>"));
  XQP_ASSERT_OK_AND_ASSIGN(auto idx,
                           DocumentIndexes::Build(doc, kIndexValueAll));
  int32_t r = idx->FindChild(0, NodeKind::kElement, doc->FindNameId("", "r"));
  int32_t v = idx->FindChild(r, NodeKind::kElement, doc->FindNameId("", "v"));
  ASSERT_GE(v, 0);
  const auto vp = idx->values(v);
  ASSERT_TRUE(vp.has_value());
  EXPECT_TRUE(vp->indexable);
  EXPECT_FALSE(vp->all_numeric);  // "abc" does not cast to xs:double.
  EXPECT_TRUE(vp->by_number.empty());
  EXPECT_EQ(vp->by_string.size(), 3u);  // String family still serves = / !=.
}

TEST(DocumentIndexes, BuildFailsUnderFaultInjection) {
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse(XMarkXml()));
  fault::ScopedFault fault("alloc", 1);
  auto idx = DocumentIndexes::Build(doc, kIndexValueAll);
  ASSERT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kInternal);
}

// --- Value families against a brute-force reference -----------------------

/// One path's value families, computed the slow way the index used to: a
/// std::string per node (attribute value, or the element's text children
/// concatenated), the general-comparison cast per string, and a full sort.
struct ReferenceFamilies {
  bool indexable = true;
  bool all_numeric = true;
  std::vector<std::pair<std::string, NodeIndex>> strings;
  std::vector<std::pair<double, NodeIndex>> numbers;
};

ReferenceFamilies Reference(const Document& d,
                            std::span<const NodeIndex> postings) {
  ReferenceFamilies r;
  for (NodeIndex n : postings) {
    std::string text;
    if (d.node(n).kind == NodeKind::kAttribute) {
      text = d.value(n);
    } else {
      for (NodeIndex c = d.node(n).first_child; c != kNullNode;
           c = d.node(c).next_sibling) {
        if (d.node(c).kind == NodeKind::kElement) {
          r.indexable = false;
          return r;
        }
        if (d.node(c).kind == NodeKind::kText) text += d.value(c);
      }
    }
    r.strings.emplace_back(std::move(text), n);
  }
  for (const auto& [str, n] : r.strings) {
    auto cast = AtomicValue::Untyped(str).CastTo(XsType::kDouble);
    if (!cast.ok()) {
      r.all_numeric = false;
      r.numbers.clear();
      break;
    }
    r.numbers.emplace_back(cast.value().AsRawDouble(), n);
  }
  std::sort(r.strings.begin(), r.strings.end());
  std::sort(r.numbers.begin(), r.numbers.end(),
            [](const auto& a, const auto& b) {
              const bool a_nan = std::isnan(a.first);
              const bool b_nan = std::isnan(b.first);
              if (a_nan != b_nan) return b_nan;
              if (!a_nan && a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  return r;
}

/// Every path's families of `idx` equal the reference, entry by entry
/// (numbers bit for bit), with the families `kinds` disables left empty.
void ExpectFamiliesMatchReference(const DocumentIndexes& idx,
                                  uint32_t kinds) {
  const Document& d = idx.doc();
  for (size_t s = 1; s < idx.NumSynopsisNodes(); ++s) {
    SCOPED_TRACE("synopsis path " + std::to_string(s));
    const auto vp = idx.values(static_cast<int32_t>(s));
    ASSERT_TRUE(vp.has_value());
    const ReferenceFamilies want =
        Reference(d, idx.postings(static_cast<int32_t>(s)));
    EXPECT_EQ(vp->indexable, want.indexable);
    if (!want.indexable) {
      EXPECT_TRUE(vp->by_string.empty());
      EXPECT_TRUE(vp->by_number.empty());
      continue;
    }
    if (kinds & kIndexValueString) {
      ASSERT_EQ(vp->by_string.size(), want.strings.size());
      for (size_t i = 0; i < want.strings.size(); ++i) {
        EXPECT_EQ(vp->by_string[i].node, want.strings[i].second) << i;
        EXPECT_EQ(idx.StringValue(vp->by_string[i].ref),
                  want.strings[i].first)
            << i;
      }
    } else {
      EXPECT_TRUE(vp->by_string.empty());
    }
    const bool numeric = want.all_numeric && (kinds & kIndexValueNumeric);
    EXPECT_EQ(vp->all_numeric, numeric);
    if (!numeric) {
      EXPECT_TRUE(vp->by_number.empty());
      continue;
    }
    ASSERT_EQ(vp->by_number.size(), want.numbers.size());
    for (size_t i = 0; i < want.numbers.size(); ++i) {
      uint64_t got_bits, want_bits;
      std::memcpy(&got_bits, &vp->by_number[i].value, sizeof(got_bits));
      std::memcpy(&want_bits, &want.numbers[i].first, sizeof(want_bits));
      EXPECT_EQ(got_bits, want_bits) << i;
      EXPECT_EQ(vp->by_number[i].node, want.numbers[i].second) << i;
    }
  }
}

/// Builds `doc`'s indexes for each family mask, checks them against the
/// reference, and checks the indexes a snapshot round trip adopts too.
void ExpectReferenceOrder(std::shared_ptr<const Document> doc) {
  for (uint32_t kinds :
       {uint32_t{kIndexValueAll}, uint32_t{kIndexValueString},
        uint32_t{kIndexValueNumeric}}) {
    SCOPED_TRACE("value kinds " + std::to_string(kinds));
    XQP_ASSERT_OK_AND_ASSIGN(auto idx, DocumentIndexes::Build(doc, kinds));
    ExpectFamiliesMatchReference(*idx, kinds);

    storage::SnapshotInput input;
    input.doc = doc.get();
    input.indexes = idx.get();
    XQP_ASSERT_OK_AND_ASSIGN(std::string bytes,
                             storage::SerializeSnapshot(input));
    XQP_ASSERT_OK_AND_ASSIGN(
        storage::LoadedSnapshot loaded,
        storage::OpenSnapshotBuffer(
            std::make_shared<const std::string>(std::move(bytes))));
    ASSERT_NE(loaded.indexes, nullptr);
    ExpectFamiliesMatchReference(*loaded.indexes, kinds);
  }
}

TEST(ValueFamilyOrder, XMarkMatchesReference) {
  XMarkOptions options;
  options.scale = 0.05;
  XQP_ASSERT_OK_AND_ASSIGN(auto doc,
                           Document::Parse(GenerateXMarkXml(options)));
  ExpectReferenceOrder(std::move(doc));
}

TEST(ValueFamilyOrder, EdgeCasesMatchReference) {
  const char* docs[] = {
      // Empty elements next to values: "" sorts first and does not cast.
      "<r><v/><v>3</v><v></v><v>1</v></r>",
      // Text split by a comment or PI (side-arena values), equal to and
      // interleaved with one-piece values.
      "<r><v>1<!--c-->2</v><v>12</v><v>1<?pi x?>0</v><v>9</v>"
      "<v>1<!--a-->2<!--b-->3</v></r>",
      // Non-ASCII bytes sort after ASCII, byte-wise.
      "<r><v>\xc3\xa9t\xc3\xa9</v><v>zebra</v><v>\xe6\x97\xa5</v>"
      "<v>Zebra</v><v>\xc3\xa9</v><w a='\xc3\xbc'/><w a='u'/></r>",
      // Special doubles: NaN last, -0 ties with 0 (node order), INF.
      "<r><v>NaN</v><v>INF</v><v>-0</v><v>0</v><v>-INF</v><v>1e3</v>"
      "<v> 7 </v><v>NaN</v><v>+5</v><v>0.1</v><v>.5</v><v>1.</v>"
      "<v>123456789012345678</v><v>0.30000000000000004</v><v>-1.5</v>"
      "<w a='-0'/><w a='0'/></r>",
      // One uncastable value (here also an underflow) turns the numeric
      // family off for its path.
      "<r><v>1</v><v>x1</v><v>2</v><u>1e-400</u><u>1</u>"
      "<w a='4'/><w a='2'/></r>",
      // Element content makes a path unindexable.
      "<r><v>1</v><v><x/>2</v></r>",
  };
  for (const char* xml : docs) {
    for (bool pool : {true, false}) {
      SCOPED_TRACE(std::string(xml) + (pool ? " pooled" : " unpooled"));
      ParseOptions options;
      options.pool_strings = pool;
      XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse(xml, options));
      ExpectReferenceOrder(std::move(doc));
    }
  }
}

// --- Engine integration ---------------------------------------------------

TEST(EngineIndex, RootedPathAnsweredBySynopsis) {
  ExpectIndexedMatchesPlain(XMarkXml(),
                            "doc('doc.xml')/site/people/person/name");
}

TEST(EngineIndex, DescendantPathAnsweredBySynopsis) {
  ExpectIndexedMatchesPlain(XMarkXml(), "doc('doc.xml')//item/name");
}

TEST(EngineIndex, NumericPredicateAnsweredByValueIndex) {
  ExpectIndexedMatchesPlain(XMarkXml(), "doc('doc.xml')//item[quantity < 3]");
  ExpectIndexedMatchesPlain(XMarkXml(), "doc('doc.xml')//item[quantity = 1]");
}

TEST(EngineIndex, AttributePredicateAnsweredByValueIndex) {
  ExpectIndexedMatchesPlain(XMarkXml(),
                            "doc('doc.xml')//person[@id = 'person0']");
  ExpectIndexedMatchesPlain(XMarkXml(),
                            "doc('doc.xml')//person[@id != 'person1']/name");
}

TEST(EngineIndex, MixedTypeContentFallsBackAndAgrees) {
  // "abc" poisons the numeric family, but string-family equality on the
  // same (path, tag) stays index-answered; dot predicates are not
  // plannable, so both engines navigate and must agree.
  const std::string xml = "<r><v>10</v><v>abc</v><v>2</v><v>7</v></r>";
  ExpectIndexedMatchesPlain(xml, "doc('doc.xml')/r[v = '7']");
  ExpectIndexedMatchesPlain(xml, "doc('doc.xml')/r[v != '2']");
  ExpectIndexedMatchesPlain(xml, "count(doc('doc.xml')//v[. = '7'])");
}

TEST(EngineIndex, EmptyAndMissingNamesAgree) {
  ExpectIndexedMatchesPlain("<r/>", "count(doc('doc.xml')//nothing)");
  ExpectIndexedMatchesPlain("<r/>", "doc('doc.xml')/r");
  ExpectIndexedMatchesPlain(
      "<r xmlns:a='urn:a'><a:x>1</a:x></r>",
      "count(doc('doc.xml')//x)");  // Unprefixed test: no-namespace only.
}

TEST(EngineIndex, DisabledEngineCompilesUnmarkedPlans) {
  EngineOptions options;
  options.enable_indexes = false;
  XQueryEngine plain(options);
  XQP_ASSERT_OK(plain.ParseAndRegister("d.xml", "<r><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto q, plain.Compile("doc('d.xml')/r/a"));
  EXPECT_EQ(q->ExplainTree().find("[index]"), std::string::npos);

  XQueryEngine indexed;
  XQP_ASSERT_OK(indexed.ParseAndRegister("d.xml", "<r><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto qi, indexed.Compile("doc('d.xml')/r/a"));
  EXPECT_NE(qi->ExplainTree().find("[index]"), std::string::npos);
}

TEST(EngineIndex, ReRegistrationInvalidatesAndReindexes) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><a>1</a></r>").status());
  EXPECT_EQ(RunOn(engine, "count(doc('d.xml')/r/a)"), "1");
  // Re-register under the same URI; the synopsis must describe the new
  // snapshot, not the cached one.
  XQP_ASSERT_OK(
      engine.ParseAndRegister("d.xml", "<r><a>1</a><a>2</a></r>").status());
  EXPECT_EQ(RunOn(engine, "count(doc('d.xml')/r/a)"), "2");
  EXPECT_EQ(RunOn(engine, "doc('d.xml')/r/a[. = 2]"), "<a>2</a>");
}

TEST(EngineIndex, BuildFailureUnderFaultPropagates) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", XMarkXml()).status());
  // Armed after registration so the first "alloc" hit lands in the index
  // build, not document parsing.
  fault::ScopedFault fault("alloc", 1);
  auto r = engine.Execute("doc('d.xml')/site/people/person/name");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  // Disarmed: the same query now succeeds and is index-answered.
  fault::Disarm();
  XQP_ASSERT_OK(engine.Execute("doc('d.xml')/site/people/person/name")
                    .status());
}

TEST(EngineIndex, BuildChargesMemoryBudget) {
  EngineOptions options;
  options.default_limits.memory_budget_bytes = 64 * 1024;  // Too small.
  XQueryEngine engine(options);
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", XMarkXml()).status());
  auto r = engine.Execute("doc('d.xml')/site/people/person/name");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineIndex, ValueKindsKnobLimitsFamilies) {
  EngineOptions options;
  options.index_value_kinds = 0;  // Synopsis only.
  XQueryEngine engine(options);
  XQP_ASSERT_OK(engine.ParseAndRegister(
                    "d.xml", "<r><a>1</a><a>2</a></r>")
                    .status());
  // Value predicates fall back to navigation but still answer correctly.
  EXPECT_EQ(RunOn(engine, "count(doc('d.xml')/r/a[. = 2])"), "1");
  // Pure paths remain synopsis-answerable.
  EXPECT_EQ(RunOn(engine, "count(doc('d.xml')/r/a)"), "2");
}

// --- Multi-step predicate targets -----------------------------------------

/// Result (or error) of `query` on every backend, plus the index counters
/// the runs moved.
struct BackendRuns {
  std::vector<std::string> results;  // lazy, eager, vm.
  uint64_t value_hits = 0;
  uint64_t fallbacks = 0;
};

BackendRuns RunAllBackends(XQueryEngine& engine, const std::string& query) {
  auto& registry = metrics::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const metrics::MetricsSnapshot before = registry.Snapshot();
  BackendRuns runs;
  auto compiled = engine.Compile(query);
  EXPECT_TRUE(compiled.ok()) << query << ": "
                             << compiled.status().ToString();
  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    if (!compiled.ok()) break;
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    auto result = compiled.value()->ExecuteToXml(exec);
    runs.results.push_back(result.ok()
                               ? result.value()
                               : "ERROR: " + result.status().ToString());
  }
  metrics::MetricsSnapshot delta = registry.Snapshot().Delta(before);
  registry.set_enabled(was_enabled);
  runs.value_hits = delta.counters["index.value_hits"];
  runs.fallbacks = delta.counters["index.fallbacks"];
  return runs;
}

/// Runs `query` on an indexed and an unindexed engine over `xml` and
/// expects every backend of the indexed one to reproduce the unindexed
/// lazy result or error. Returns the indexed engine's runs.
BackendRuns ExpectBackendsMatchPlain(const std::string& xml,
                                     const std::string& query,
                                     const EngineOptions& options = {}) {
  XQueryEngine indexed(options);
  EngineOptions plain_options;
  plain_options.enable_indexes = false;
  XQueryEngine plain(plain_options);
  EXPECT_TRUE(indexed.ParseAndRegister("doc.xml", xml).ok());
  EXPECT_TRUE(plain.ParseAndRegister("doc.xml", xml).ok());
  const std::string want = RunAllBackends(plain, query).results.at(0);
  BackendRuns runs = RunAllBackends(indexed, query);
  for (const std::string& got : runs.results) EXPECT_EQ(got, want) << query;
  return runs;
}

TEST(EngineIndex, MultiStepTargetAnsweredByValueIndex) {
  // The serve workload's buyer read: probe buyer/@person, lift two levels.
  const std::string xml = XMarkXml();
  for (const char* person : {"person27", "person3"}) {
    SCOPED_TRACE(person);
    BackendRuns runs = ExpectBackendsMatchPlain(
        xml,
        std::string("count(doc('doc.xml')/site/closed_auctions/"
                    "closed_auction[buyer/@person = \"") +
            person + "\"])");
    EXPECT_GE(runs.value_hits, 1u);
    EXPECT_EQ(runs.fallbacks, 0u);
  }
}

TEST(EngineIndex, MultiStepUncastableValueRaisesLikeNavigation) {
  // One `c` is not a number: the numeric family is off for a/b/c, the
  // index declines, and navigation raises FORG0001 (a failed cast) on
  // every backend.
  const std::string xml =
      "<r><a><b><c>1</c></b></a><a><b><c>x</c></b></a>"
      "<a><b><c>7</c></b></a></r>";
  BackendRuns runs =
      ExpectBackendsMatchPlain(xml, "doc('doc.xml')/r/a[b/c > 0]");
  for (const std::string& got : runs.results) {
    EXPECT_NE(got.find("Type error: cannot cast \"x\" to xs:double"),
              std::string::npos)
        << got;
  }
  EXPECT_EQ(runs.value_hits, 0u);
  // The string family over the same path still answers.
  runs = ExpectBackendsMatchPlain(xml, "doc('doc.xml')/r/a[b/c = 'x']");
  EXPECT_EQ(runs.results.at(0), "<a><b><c>x</c></b></a>");
  EXPECT_GE(runs.value_hits, 1u);
}

TEST(EngineIndex, MultiStepElementContentDeclinesAndAgrees) {
  // The second `c` has element content: its path is unindexable, yet its
  // string value "1" still satisfies the predicate under navigation.
  const std::string xml =
      "<r><a><b><c>1</c></b></a><a><b><c><d/>1</c></b></a>"
      "<a><b><c>2</c></b></a></r>";
  BackendRuns runs =
      ExpectBackendsMatchPlain(xml, "count(doc('doc.xml')/r/a[b/c = '1'])");
  EXPECT_EQ(runs.results.at(0), "2");
  EXPECT_EQ(runs.value_hits, 0u);
}

TEST(EngineIndex, MultiStepDisabledFamilyDeclinesAndAgrees) {
  const std::string xml = XMarkXml();
  for (uint32_t kinds : {0u, uint32_t{kIndexValueString},
                         uint32_t{kIndexValueNumeric}}) {
    SCOPED_TRACE(kinds);
    EngineOptions options;
    options.index_value_kinds = kinds;
    BackendRuns runs = ExpectBackendsMatchPlain(
        xml,
        "count(doc('doc.xml')//closed_auction[buyer/@person = 'person27']),"
        "count(doc('doc.xml')//open_auction[bidder/increase > 10])",
        options);
    // Each family answers only its own operand kind.
    EXPECT_EQ(runs.value_hits, kinds == 0 ? 0u : 3u);
  }
}

// --- Forced twig through the access-path dispatcher ------------------------

TEST(EngineIndex, TwigJoinWithSynopsisListsMatchesExecute) {
  const std::string xml = XMarkXml();
  for (const char* q : {"doc('xmark.xml')/site/people/person",
                        "doc('xmark.xml')//open_auction//increase",
                        "doc('xmark.xml')/site/regions//item/location"}) {
    testing_util::ExpectForcedPathsAgree(q, /*chain=*/true, "xmark.xml", xml);
  }
  for (const char* q : {"doc('xmark.xml')//open_auction[bidder]//increase",
                        "doc('xmark.xml')//item[location][quantity]"}) {
    testing_util::ExpectForcedPathsAgree(q, /*chain=*/false, "xmark.xml", xml);
  }
}

}  // namespace
}  // namespace xqp
