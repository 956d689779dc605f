// Heap-allocation regression test for node construction. A counting global
// operator new measures the bytes one execution allocates; a constructed
// element with a direct attribute must cost what it holds, not a bulk-load
// string arena per node. Lives in its own executable because replacing the
// global allocator affects every test linked with it.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "engine.h"
#include "tests/test_util.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_calls{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    g_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xqp {
namespace {

/// Heap bytes and allocation calls made while one Execute() runs, with the
/// result it returned.
struct CountedRun {
  Sequence result;
  uint64_t bytes = 0;
  uint64_t calls = 0;
};

CountedRun ExecuteCounted(const CompiledQuery& query, ExecBackend backend) {
  CompiledQuery::ExecOptions exec;
  exec.backend = backend;
  CountedRun run;
  g_bytes = 0;
  g_calls = 0;
  g_counting = true;
  auto result = query.Execute(exec);
  g_counting = false;
  run.bytes = g_bytes;
  run.calls = g_calls;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) run.result = std::move(result).value();
  return run;
}

TEST(ConstructAlloc, ElementWithDirectAttributeCostsWhatItHolds) {
  constexpr int kItems = 5000;
  // Each item is one element node with one attribute and one text child.
  // Before chunk growth, every constructed node's string pool opened with
  // a zero-filled 64 KiB arena (~130 KiB per item with the orphan
  // attribute); the bound leaves room for the node table, name table and
  // handles, not for an arena.
  constexpr uint64_t kMaxBytesPerItem = 4 * 1024;

  XQueryEngine engine;
  auto compiled = engine.Compile(
      "for $i in 1 to " + std::to_string(kItems) +
      " return <person name=\"{$i}\">{$i}</person>");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const CompiledQuery& query = *compiled.value();

  CompiledQuery::ExecOptions lazy;
  lazy.backend = ExecBackend::kLazy;
  auto want = query.ExecuteToXml(lazy);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_NE(want.value().find("<person name=\"5000\">5000</person>"),
            std::string::npos);

  for (ExecBackend backend :
       {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
    CompiledQuery::ExecOptions exec;
    exec.backend = backend;
    auto xml = query.ExecuteToXml(exec);  // Also warms lazy statics.
    ASSERT_TRUE(xml.ok()) << xml.status().ToString();
    EXPECT_EQ(xml.value(), want.value()) << ExecBackendName(backend);

    CountedRun run = ExecuteCounted(query, backend);
    ASSERT_EQ(run.result.size(), size_t{kItems}) << ExecBackendName(backend);
    uint64_t per_item = run.bytes / kItems;
    EXPECT_LT(per_item, kMaxBytesPerItem)
        << ExecBackendName(backend) << ": " << run.bytes << " bytes in "
        << run.calls << " allocations for " << kItems << " items";
    auto serialized = SerializeSequence(run.result);
    ASSERT_TRUE(serialized.ok());
    EXPECT_EQ(serialized.value(), want.value()) << ExecBackendName(backend);
  }
}

}  // namespace
}  // namespace xqp
