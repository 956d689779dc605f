#ifndef XQP_XML_STRING_POOL_H_
#define XQP_XML_STRING_POOL_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xqp {

namespace storage {
class SnapshotLoader;
}  // namespace storage

/// Dictionary-compressing string pool: each distinct string is stored once
/// and referenced by a dense 32-bit id ("Pooling: store strings only once",
/// the TokenStream optimization in the paper). Ids are stable for the
/// lifetime of the pool; returned string_views remain valid as well because
/// the backing storage is a bump arena of chunks that never relocate.
///
/// Chunks grow geometrically: the first holds kFirstChunkBytes and each
/// later one doubles, up to kChunkBytes. Every node constructor builds its
/// own small Document, so a pool that opened with a full bulk-load chunk
/// would charge each constructed node a 64 KiB allocation; a parsed
/// document reaches the 64 KiB steady state after about 64 KiB of strings.
/// A string wider than the next chunk gets a dedicated chunk of exactly its
/// size.
///
/// Intern is a single hash probe: the candidate bytes are appended to the
/// arena first, then try_emplace'd into the index keyed by the arena copy;
/// a duplicate rolls the (tail) append back. Compared with the classic
/// find-then-insert this halves the number of times long values are hashed.
class StringPool {
 public:
  using Id = uint32_t;
  static constexpr Id kInvalid = UINT32_MAX;

  StringPool() = default;
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;
  StringPool(StringPool&&) = default;
  StringPool& operator=(StringPool&&) = default;

  /// Interns `s`, returning the id of its unique copy. When pooling is
  /// disabled every call appends a fresh copy (used by the E4 ablation).
  Id Intern(std::string_view s);

  /// The interned string for `id`.
  std::string_view Get(Id id) const { return views_[id]; }

  /// Looks up `s` without inserting; returns kInvalid when absent.
  Id Find(std::string_view s) const;

  /// Number of entries (distinct strings when pooling is on).
  size_t size() const { return views_.size(); }

  /// Sizes the id table and hash index for an expected number of distinct
  /// strings (bulk-load hint; purely an optimization).
  void Reserve(size_t expected_strings);

  /// Approximate heap bytes used by the pooled strings and the index:
  /// arena bytes actually written (each chunk at its high-water mark), the
  /// id table, and the hash-index nodes.
  size_t MemoryUsage() const;

  /// Disables deduplication: Intern always appends. Exists so benchmarks can
  /// measure what pooling buys (paper's dictionary-compression claim).
  void set_pooling_enabled(bool enabled) { pooling_enabled_ = enabled; }
  bool pooling_enabled() const { return pooling_enabled_; }

 private:
  friend class storage::SnapshotLoader;

  /// Points the id table at strings resident in an mmap'd snapshot (kept
  /// alive by the owning Document's backing pointer), replacing any
  /// current contents. The hash index is left empty — Find() on a frozen
  /// pool reports absent, and the (unused on loaded documents) Intern path
  /// simply appends to fresh arena chunks without deduplicating against
  /// the frozen entries.
  void AdoptFrozen(std::vector<std::string_view> views);

  /// Copies `s` to the arena tail and returns the stable stored view.
  std::string_view Append(std::string_view s);

  static constexpr size_t kFirstChunkBytes = 256;
  static constexpr size_t kChunkBytes = 64 * 1024;

  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t chunk_cap_ = 0;        // Capacity of chunks_.back(); 0 when empty.
  size_t chunk_used_ = 0;       // Bytes written into chunks_.back().
  size_t next_chunk_ = kFirstChunkBytes;  // Capacity of the next chunk.
  size_t retired_bytes_ = 0;    // Bytes written into all earlier chunks.
  std::vector<std::string_view> views_;
  std::unordered_map<std::string_view, Id> index_;
  bool pooling_enabled_ = true;
  size_t frozen_bytes_ = 0;  // Mapped bytes referenced by frozen views.
};

}  // namespace xqp

#endif  // XQP_XML_STRING_POOL_H_
