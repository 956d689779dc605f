#include "engine.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/limits.h"
#include "base/metrics.h"
#include "tests/test_util.h"

namespace xqp {
namespace {

TEST(Engine, RegisterAndQueryDocument) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("a.xml", "<a><b/></a>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r, engine.Execute("count(doc('a.xml')//b)"));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 1);
}

TEST(Engine, MissingDocumentIsDynamicError) {
  XQueryEngine engine;
  auto r = engine.Execute("doc('nope.xml')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDynamicError);
}

TEST(Engine, CompileErrorsSurfaceAsStaticErrors) {
  XQueryEngine engine;
  auto r = engine.Compile("for $x in");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kStaticError);
}

TEST(Engine, ExternalVariables) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(
      auto q, engine.Compile("declare variable $n external; $n * 2"));
  CompiledQuery::ExecOptions options;
  options.variables["n"] = Sequence{Item(AtomicValue::Integer(21))};
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r, q->Execute(options));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 42);
  // Unbound external is a dynamic error.
  EXPECT_FALSE(q->Execute().ok());
}

TEST(Engine, ContextItem) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto doc,
                           engine.ParseAndRegister("d.xml", "<r><x/></r>"));
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("count(//x)"));
  CompiledQuery::ExecOptions options;
  options.has_context_item = true;
  options.context_item = Item(Node(doc, 0));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r, q->Execute(options));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 1);
  // Without a context item, '//' has nothing to anchor on.
  EXPECT_FALSE(q->Execute().ok());
}

TEST(Engine, CompiledQueryIsReusable) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x/><x/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("count(doc('d.xml')//x)"));
  for (int i = 0; i < 3; ++i) {
    XQP_ASSERT_OK_AND_ASSIGN(Sequence r, q->Execute());
    EXPECT_EQ(r[0].AsAtomic().AsInt(), 2);
  }
}

TEST(Engine, ExplainShowsOptimizedPlan) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("1 + 2"));
  EXPECT_EQ(q->Explain(), "3");
  XQueryEngine::CompileOptions raw;
  raw.optimize = false;
  XQP_ASSERT_OK_AND_ASSIGN(auto q2, engine.Compile("1 + 2", raw));
  EXPECT_EQ(q2->Explain(), "(+ 1 2)");
}

TEST(Engine, RewriteStatsExposed) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto q,
                           engine.Compile("let $x := 1 return $x + 1"));
  EXPECT_FALSE(q->rewrite_stats().empty());
}

TEST(Engine, SerializeSequenceMixesNodesAndAtomics) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("(1, 2, <a/>, 'x')"));
  XQP_ASSERT_OK_AND_ASSIGN(std::string xml, q->ExecuteToXml());
  EXPECT_EQ(xml, "1 2<a/>x");
}

TEST(Engine, DocumentsVisibleAcrossQueries) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("x.xml", "<x/>").status());
  XQP_ASSERT_OK(engine.ParseAndRegister("y.xml", "<y/>").status());
  XQP_ASSERT_OK_AND_ASSIGN(
      Sequence r,
      engine.Execute("count((doc('x.xml')/x, doc('y.xml')/y))"));
  EXPECT_EQ(r[0].AsAtomic().AsInt(), 2);
}

TEST(Engine, NullDocumentRejected) {
  XQueryEngine engine;
  EXPECT_FALSE(engine.RegisterDocument("z.xml", nullptr).ok());
}

TEST(Engine, ResultStreamPullsIncrementally) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x>1</x><x>2</x><x>3</x></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto q,
                           engine.Compile("doc('d.xml')//x/string()"));
  XQP_ASSERT_OK_AND_ASSIGN(auto stream, q->Open());
  Item item;
  XQP_ASSERT_OK_AND_ASSIGN(bool got, stream->Next(&item));
  ASSERT_TRUE(got);
  EXPECT_EQ(item.AsAtomic().Lexical(), "1");
  // Remaining items drain to text.
  XQP_ASSERT_OK_AND_ASSIGN(std::string rest, stream->DrainToXml());
  EXPECT_EQ(rest, "2 3");
}

TEST(Engine, ResultStreamOnHugeSequenceIsLazy) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto q, engine.Compile("1 to 100000000"));
  XQP_ASSERT_OK_AND_ASSIGN(auto stream, q->Open());
  Item item;
  for (int i = 1; i <= 3; ++i) {
    XQP_ASSERT_OK_AND_ASSIGN(bool got, stream->Next(&item));
    ASSERT_TRUE(got);
    EXPECT_EQ(item.AsAtomic().AsInt(), i);
  }
}

// Structural and twig joins run only through the access-path dispatcher:
// forcing each strategy on the same query gives the auto plan's bytes.
TEST(Engine, TwigJoinExecutionMatchesEngine) {
  using testing_util::ExpectForcedPathsAgree;
  const std::string xml = "<r><a><b/><c/></a><a><b/></a><a><c/></a></r>";
  ExpectForcedPathsAgree("doc('d.xml')//a/c", /*chain=*/true, "d.xml", xml);
  ExpectForcedPathsAgree("doc('d.xml')/r/a/b", /*chain=*/true, "d.xml", xml);
  // A branching pattern is not a chain: every force declines it.
  ExpectForcedPathsAgree("doc('d.xml')//a[b]/c", /*chain=*/false, "d.xml",
                         xml);
  EXPECT_EQ(testing_util::RunWithForcedPath("doc('d.xml')//a[b]/c",
                                            AccessPath::kTwig, "d.xml", xml)
                .result,
            "<c/>");
}

TEST(Engine, TwigJoinRejectsNonPath) {
  testing_util::ExpectForcedPathsAgree("1 + 1", /*chain=*/false);
  EXPECT_EQ(testing_util::RunWithForcedPath("1 + 1", AccessPath::kTwig).result,
            "2");
}

// --- Per-document index entries -------------------------------------------
//
// Each registered Document owns one entry holding its TagIndex and its
// DocumentIndexes. Registration drops only the entry of the Document it
// displaces, and only once no URI names that Document any more.

class IndexEntryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = registry().enabled();
    registry().set_enabled(true);
  }
  void TearDown() override { registry().set_enabled(was_enabled_); }

  static metrics::MetricsRegistry& registry() {
    return metrics::MetricsRegistry::Global();
  }
  static uint64_t IndexBuilds() {
    return registry().Snapshot().counters["index.builds"];
  }

  /// Builds A's tag index and DocumentIndexes and remembers them.
  void BuildA(XQueryEngine* engine) {
    XQP_ASSERT_OK_AND_ASSIGN(tags_, engine->GetTagIndex("a.xml"));
    XQP_ASSERT_OK_AND_ASSIGN(indexes_, engine->GetDocumentIndexes("a.xml"));
    ASSERT_NE(tags_, nullptr);
    ASSERT_NE(indexes_, nullptr);
  }

  /// A's entry still holds the structures BuildA saw, and asking for them
  /// again builds nothing.
  void ExpectAKept(XQueryEngine* engine) {
    const uint64_t builds = IndexBuilds();
    XQP_ASSERT_OK_AND_ASSIGN(auto tags, engine->GetTagIndex("a.xml"));
    XQP_ASSERT_OK_AND_ASSIGN(auto indexes, engine->GetDocumentIndexes("a.xml"));
    EXPECT_EQ(tags.get(), tags_.get());
    EXPECT_EQ(indexes.get(), indexes_.get());
    EXPECT_EQ(IndexBuilds(), builds);
    XQP_ASSERT_OK_AND_ASSIGN(auto doc, engine->GetDocument("a.xml"));
    EXPECT_EQ(engine->PeekTagIndex(*doc).get(), tags_.get());
    EXPECT_EQ(engine->PeekDocumentIndexes("a.xml").get(), indexes_.get());
  }

  bool was_enabled_ = false;
  std::shared_ptr<const TagIndex> tags_;
  std::shared_ptr<const DocumentIndexes> indexes_;
};

TEST_F(IndexEntryTest, BuildsOncePerDocument) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("a.xml", "<r><a>1</a></r>").status());
  const uint64_t before = IndexBuilds();
  BuildA(&engine);
  EXPECT_EQ(IndexBuilds(), before + 1);
  ExpectAKept(&engine);
  EXPECT_FALSE(engine.GetTagIndex("missing.xml").ok());
  EXPECT_FALSE(engine.GetDocumentIndexes("missing.xml").ok());
  EXPECT_EQ(engine.PeekDocumentIndexes("missing.xml"), nullptr);
}

TEST_F(IndexEntryTest, RegisteringAnotherUriKeepsTheEntry) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("a.xml", "<r><a>1</a></r>").status());
  BuildA(&engine);
  XQP_ASSERT_OK(engine.ParseAndRegister("b.xml", "<s/>").status());
  XQP_ASSERT_OK_AND_ASSIGN(auto b, Document::Parse("<t/>"));
  XQP_ASSERT_OK(engine.RegisterDocument("b.xml", b));
  ExpectAKept(&engine);
}

TEST_F(IndexEntryTest, NewDocumentUnderTheUriDropsTheEntry) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(
      auto old_doc, engine.ParseAndRegister("a.xml", "<r><a>1</a></r>"));
  BuildA(&engine);
  XQP_ASSERT_OK_AND_ASSIGN(
      auto new_doc, engine.ParseAndRegister("a.xml", "<r><a>2</a></r>"));
  EXPECT_EQ(engine.PeekTagIndex(*old_doc), nullptr);
  EXPECT_EQ(engine.PeekTagIndex(*new_doc), nullptr);
  EXPECT_EQ(engine.PeekDocumentIndexes("a.xml"), nullptr);

  const uint64_t before = IndexBuilds();
  XQP_ASSERT_OK_AND_ASSIGN(auto tags, engine.GetTagIndex("a.xml"));
  XQP_ASSERT_OK_AND_ASSIGN(auto indexes, engine.GetDocumentIndexes("a.xml"));
  EXPECT_EQ(IndexBuilds(), before + 1);
  EXPECT_NE(tags.get(), tags_.get());
  EXPECT_NE(indexes.get(), indexes_.get());
  EXPECT_EQ(&tags->doc(), new_doc.get());
  EXPECT_EQ(indexes->doc_ptr(), new_doc);
  EXPECT_EQ(engine.PeekTagIndex(*old_doc), nullptr);
}

TEST_F(IndexEntryTest, SameDocumentReregisteredKeepsTheEntry) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(
      auto doc, engine.ParseAndRegister("a.xml", "<r><a>1</a></r>"));
  BuildA(&engine);
  XQP_ASSERT_OK(engine.RegisterDocument("a.xml", doc));
  ExpectAKept(&engine);
}

TEST_F(IndexEntryTest, DocumentUnderTwoUrisKeepsItsEntryUntilBothMove) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, Document::Parse("<r><a>1</a></r>"));
  XQP_ASSERT_OK(engine.RegisterDocument("a.xml", doc));
  XQP_ASSERT_OK(engine.RegisterDocument("alias.xml", doc));
  BuildA(&engine);
  // The alias shares the entry.
  XQP_ASSERT_OK_AND_ASSIGN(auto alias_tags, engine.GetTagIndex("alias.xml"));
  EXPECT_EQ(alias_tags.get(), tags_.get());

  XQP_ASSERT_OK(engine.ParseAndRegister("alias.xml", "<other/>").status());
  ExpectAKept(&engine);
  XQP_ASSERT_OK(engine.ParseAndRegister("a.xml", "<other/>").status());
  EXPECT_EQ(engine.PeekTagIndex(*doc), nullptr);
}

TEST_F(IndexEntryTest, CollectionsAndBatchesForOtherUrisKeepTheEntry) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("a.xml", "<r><a>1</a></r>").status());
  BuildA(&engine);

  XQP_ASSERT_OK(engine.RegisterCollection("c", Sequence()));
  ExpectAKept(&engine);

  std::vector<XQueryEngine::BulkDocument> batch = {{"b.xml", "<b/>"},
                                                   {"c.xml", "<c/>"}};
  for (const auto& r : engine.LoadDocumentsParallel(batch)) {
    XQP_ASSERT_OK(r.status());
  }
  ExpectAKept(&engine);

  // A batch member for A that fails to parse leaves A registered as it
  // was, entry included.
  std::vector<XQueryEngine::BulkDocument> failing = {{"a.xml", "<r><a>"},
                                                     {"d.xml", "<d/>"}};
  auto out = engine.LoadDocumentsParallel(failing);
  EXPECT_FALSE(out[0].ok());
  XQP_ASSERT_OK(out[1].status());
  ExpectAKept(&engine);
}

TEST_F(IndexEntryTest, AdoptedSnapshotIndexesSurviveOtherRegistrations) {
  const std::string path = ::testing::TempDir() + "/xqp_index_entry.xqps";
  {
    XQueryEngine writer;
    XQP_ASSERT_OK(
        writer.ParseAndRegister("a.xml", "<r><a>1</a><a>2</a></r>").status());
    XQP_ASSERT_OK(writer.SaveSnapshot("a.xml", path));
  }
  XQueryEngine engine;
  const uint64_t before = IndexBuilds();
  XQP_ASSERT_OK(engine.LoadDocumentSnapshot("a.xml", path).status());
  indexes_ = engine.PeekDocumentIndexes("a.xml");
  ASSERT_NE(indexes_, nullptr);
  XQP_ASSERT_OK_AND_ASSIGN(tags_, engine.GetTagIndex("a.xml"));

  XQP_ASSERT_OK(engine.ParseAndRegister("b.xml", "<b/>").status());
  ExpectAKept(&engine);
  EXPECT_EQ(IndexBuilds(), before);
  std::remove(path.c_str());
}

TEST_F(IndexEntryTest, BudgetTripDuringABuildCachesNothing) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(
      auto doc, engine.ParseAndRegister("a.xml", "<r><a>1</a><b>2</b></r>"));
  {
    QueryLimits limits;
    limits.memory_budget_bytes = 1;
    ResourceGovernor governor(limits);
    GovernorScope scope(&governor);
    auto tags = engine.GetTagIndex("a.xml");
    ASSERT_FALSE(tags.ok());
    EXPECT_EQ(tags.status().code(), StatusCode::kResourceExhausted);
  }
  {
    QueryLimits limits;
    limits.memory_budget_bytes = 1;
    ResourceGovernor governor(limits);
    GovernorScope scope(&governor);
    auto indexes = engine.GetDocumentIndexes("a.xml");
    ASSERT_FALSE(indexes.ok());
    EXPECT_EQ(indexes.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(engine.PeekTagIndex(*doc), nullptr);
  EXPECT_EQ(engine.PeekDocumentIndexes("a.xml"), nullptr);
  // Without the budget the next caller builds and caches them.
  BuildA(&engine);
  ExpectAKept(&engine);
}

TEST_F(IndexEntryTest, ConcurrentFirstBuildsConverge) {
  XQueryEngine engine;
  std::string xml = "<r>";
  for (int i = 0; i < 2000; ++i) {
    xml += "<a n='" + std::to_string(i) + "'><b>" + std::to_string(i) +
           "</b></a>";
  }
  xml += "</r>";
  XQP_ASSERT_OK(engine.ParseAndRegister("a.xml", xml).status());
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const TagIndex>> tags(kThreads);
  std::vector<std::shared_ptr<const DocumentIndexes>> indexes(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto tag = engine.GetTagIndex("a.xml");
        auto idx = engine.GetDocumentIndexes("a.xml");
        if (tag.ok()) tags[t] = tag.value();
        if (idx.ok()) indexes[t] = idx.value();
      });
    }
    for (auto& th : threads) th.join();
  }
  tags_ = engine.GetTagIndex("a.xml").ValueOrDie();
  indexes_ = engine.GetDocumentIndexes("a.xml").ValueOrDie();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tags[t].get(), tags_.get());
    EXPECT_EQ(indexes[t].get(), indexes_.get());
  }
  ExpectAKept(&engine);
}

TEST(Engine, MemoizationCachesPureQueries) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x/><x/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r1,
                           engine.ExecuteCached("count(doc('d.xml')//x)"));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r2,
                           engine.ExecuteCached("count(doc('d.xml')//x)"));
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  EXPECT_TRUE(SequencesIdentical(r1, r2));
}

TEST(Engine, MemoizationInvalidatedByRegistration) {
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r1,
                           engine.ExecuteCached("count(doc('d.xml')//x)"));
  EXPECT_EQ(r1[0].AsAtomic().AsInt(), 1);
  // Re-register with different content: the cache must not serve stale data.
  XQP_ASSERT_OK(engine.ParseAndRegister("d.xml", "<r><x/><x/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r2,
                           engine.ExecuteCached("count(doc('d.xml')//x)"));
  EXPECT_EQ(r2[0].AsAtomic().AsInt(), 2);
  EXPECT_GE(engine.cache_stats().invalidations, 1u);
}

TEST(Engine, MemoizationSkipsNodeConstructors) {
  XQueryEngine engine;
  // Two runs must yield distinct node identities, so constructor queries
  // are never cached.
  XQP_ASSERT_OK_AND_ASSIGN(Sequence a, engine.ExecuteCached("<a/>"));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence b, engine.ExecuteCached("<a/>"));
  EXPECT_FALSE(a[0].AsNode().SameNode(b[0].AsNode()));
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().uncacheable, 2u);
}

TEST(Engine, BaseUriRecorded) {
  XQueryEngine engine;
  XQP_ASSERT_OK_AND_ASSIGN(auto doc, engine.ParseAndRegister("u.xml", "<u/>"));
  EXPECT_EQ(doc->base_uri(), "u.xml");
}

}  // namespace
}  // namespace xqp
