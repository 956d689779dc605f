#include "xml/string_pool.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace xqp {
namespace {

/// A distinct string of length 1..~300 (most short, some wide enough to
/// overflow the small early chunks), unique per `i`.
std::string MixedString(int i) {
  std::string s = "s" + std::to_string(i) + ":";
  size_t len = (i % 7 == 0) ? 64 + (i * 37) % 240 : (i * 13) % 24;
  s.append(len, static_cast<char>('a' + i % 26));
  return s;
}

TEST(StringPool, DeduplicatesWhenPoolingOn) {
  StringPool pool;
  auto a = pool.Intern("hello");
  auto b = pool.Intern("world");
  auto c = pool.Intern("hello");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Get(a), "hello");
  EXPECT_EQ(pool.Get(b), "world");
}

TEST(StringPool, NoDedupWhenPoolingOff) {
  StringPool pool;
  pool.set_pooling_enabled(false);
  auto a = pool.Intern("hello");
  auto b = pool.Intern("hello");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Get(a), "hello");
  EXPECT_EQ(pool.Get(b), "hello");
}

TEST(StringPool, FindDoesNotInsert) {
  StringPool pool;
  EXPECT_EQ(pool.Find("missing"), StringPool::kInvalid);
  auto id = pool.Intern("present");
  EXPECT_EQ(pool.Find("present"), id);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(StringPool, StableViewsAcrossGrowth) {
  // Tens of thousands of mixed-length strings walk the pool through the
  // whole chunk-size doubling schedule and many steady-state chunks; every
  // view handed out along the way must still point at its bytes.
  constexpr int kCount = 60000;
  StringPool pool;
  std::vector<StringPool::Id> ids;
  std::vector<std::string_view> views;
  for (int i = 0; i < kCount; ++i) {
    StringPool::Id id = pool.Intern(MixedString(i));
    ids.push_back(id);
    views.push_back(pool.Get(id));
  }
  ASSERT_EQ(pool.size(), size_t{kCount});
  for (int i = 0; i < kCount; ++i) {
    std::string want = MixedString(i);
    ASSERT_EQ(views[i], want) << i;
    ASSERT_EQ(pool.Get(ids[i]), want) << i;
    ASSERT_EQ(pool.Get(ids[i]).data(), views[i].data()) << i;
    ASSERT_EQ(pool.Find(want), ids[i]) << i;
  }
}

TEST(StringPool, EmptyString) {
  StringPool pool;
  auto id = pool.Intern("");
  EXPECT_EQ(pool.Get(id), "");
  EXPECT_EQ(pool.Intern(""), id);
}

TEST(StringPool, MemoryUsageGrowsWithContent) {
  StringPool pool;
  size_t before = pool.MemoryUsage();
  pool.Intern(std::string(1000, 'x'));
  EXPECT_GT(pool.MemoryUsage(), before + 900);
}

TEST(StringPool, DuplicateInternRollsBackArena) {
  // The single-probe intern appends first and rolls the bytes back on a
  // duplicate hit: repeated interning of the same strings must not grow the
  // accounted footprint at all.
  StringPool pool;
  for (int i = 0; i < 50; ++i) pool.Intern("value" + std::to_string(i));
  size_t after_first = pool.MemoryUsage();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 50; ++i) pool.Intern("value" + std::to_string(i));
  }
  EXPECT_EQ(pool.MemoryUsage(), after_first);
  EXPECT_EQ(pool.size(), 50u);
}

TEST(StringPool, OversizedStringsSpanChunks) {
  // A string wider than the steady-state chunk sits in a dedicated chunk;
  // the small strings on both sides keep their bytes, and the chunk
  // schedule carries on afterwards.
  StringPool pool;
  std::vector<StringPool::Id> before;
  for (int i = 0; i < 100; ++i) before.push_back(pool.Intern(MixedString(i)));
  std::string big(200 * 1024, 'B');
  big[0] = 'A';
  StringPool::Id big_id = pool.Intern(big);
  std::vector<StringPool::Id> after;
  for (int i = 100; i < 5000; ++i) after.push_back(pool.Intern(MixedString(i)));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(pool.Get(before[i]), MixedString(i));
  EXPECT_EQ(pool.Get(big_id), big);
  for (int i = 100; i < 5000; ++i) {
    EXPECT_EQ(pool.Get(after[i - 100]), MixedString(i));
  }
  EXPECT_EQ(pool.Intern(big), big_id);
  EXPECT_EQ(pool.size(), size_t{5001});
  EXPECT_GE(pool.MemoryUsage(), big.size());
}

TEST(StringPool, ReservePreservesSemantics) {
  StringPool pool;
  pool.Reserve(10000);
  auto a = pool.Intern("alpha");
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Find("alpha"), a);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(StringPool, MemoryUsageCountsBytesWrittenNotCapacity) {
  // A pool holding a handful of short strings must account roughly what was
  // written, not the full chunk capacity (64 KiB).
  StringPool pool;
  pool.Intern("a");
  pool.Intern("b");
  EXPECT_LT(pool.MemoryUsage(), 8 * 1024u);
}

TEST(StringPool, PoolingSavesMemoryOnRepeats) {
  StringPool pooled;
  StringPool unpooled;
  unpooled.set_pooling_enabled(false);
  std::string payload(100, 'p');
  for (int i = 0; i < 1000; ++i) {
    pooled.Intern(payload);
    unpooled.Intern(payload);
  }
  EXPECT_EQ(pooled.size(), 1u);
  EXPECT_EQ(unpooled.size(), 1000u);
  EXPECT_LT(pooled.MemoryUsage(), unpooled.MemoryUsage() / 10);
}

TEST(StringPool, DuplicateRollbackAtChunkBoundary) {
  // Fill the first chunk almost to the brim, then intern a duplicate too
  // wide for the remaining tail: its tentative copy opens a new chunk and
  // is rolled back. Nothing is accounted for it, and the strings interned
  // afterwards land in the new chunk with valid views.
  StringPool pool;
  std::string wide(100, 'w');
  StringPool::Id wide_id = pool.Intern(wide);
  std::vector<StringPool::Id> fill;
  for (int i = 0; i < 15; ++i) {
    fill.push_back(pool.Intern("fill" + std::to_string(i) + "!!"));
  }
  size_t before = pool.MemoryUsage();
  EXPECT_EQ(pool.Intern(wide), wide_id);  // Opens a chunk, rolls back.
  EXPECT_EQ(pool.MemoryUsage(), before);
  EXPECT_EQ(pool.size(), size_t{16});
  StringPool::Id next = pool.Intern("next");
  EXPECT_EQ(pool.Intern(wide), wide_id);  // Fits the new chunk; rolls back.
  StringPool::Id last = pool.Intern(std::string(300, 'L'));
  EXPECT_EQ(pool.Get(wide_id), wide);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(pool.Get(fill[i]), "fill" + std::to_string(i) + "!!");
  }
  EXPECT_EQ(pool.Get(next), "next");
  EXPECT_EQ(pool.Get(last), std::string(300, 'L'));
  EXPECT_EQ(pool.size(), size_t{18});
}

TEST(StringPool, PoolingDisabledAcrossGrowth) {
  // Without deduplication every Intern appends a fresh copy; repeats of
  // the same string still get distinct ids and stable views while the
  // arena grows through its chunk schedule.
  StringPool pool;
  pool.set_pooling_enabled(false);
  std::vector<StringPool::Id> ids;
  std::vector<std::string_view> views;
  for (int i = 0; i < 20000; ++i) {
    StringPool::Id id = pool.Intern(MixedString(i % 500));
    ids.push_back(id);
    views.push_back(pool.Get(id));
  }
  ASSERT_EQ(pool.size(), size_t{20000});
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(ids[i], StringPool::Id(i));
    ASSERT_EQ(views[i], MixedString(i % 500)) << i;
    ASSERT_EQ(pool.Get(ids[i]).data(), views[i].data()) << i;
  }
  EXPECT_EQ(pool.Find(MixedString(0)), StringPool::kInvalid);
}

}  // namespace
}  // namespace xqp
