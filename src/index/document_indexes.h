#ifndef XQP_INDEX_DOCUMENT_INDEXES_H_
#define XQP_INDEX_DOCUMENT_INDEXES_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/status.h"
#include "xml/document.h"

namespace xqp {

/// Which value-index families DocumentIndexes builds; a bitmask carried in
/// EngineOptions::index_value_kinds and overridable via XQP_INDEXES.
enum IndexValueKinds : uint32_t {
  kIndexValueString = 1u << 0,
  kIndexValueNumeric = 1u << 1,
  kIndexValueAll = kIndexValueString | kIndexValueNumeric,
};

/// Per-document secondary index structures — the paper's "separate indexes
/// from data" design point made concrete:
///
///   1. A *path synopsis* (DataGuide): every distinct root-to-node label
///      path in the document becomes one synopsis node, with a posting list
///      of the document nodes on that path (in document order). Rooted and
///      //-suffix paths then resolve by traversing the synopsis — typically
///      a few dozen nodes — instead of structural-joining full per-tag
///      posting lists. Attribute paths are first-class synopsis nodes.
///
///   2. A *value index*: per synopsis path, the typed values of the nodes on
///      it, sorted for range scans — strings byte-wise (exactly the general-
///      comparison string semantics) and, when every value on the path
///      parses as xs:double, numerically with NaN entries last. Selective
///      predicates like [price < 50] or [@id = "person0"] become one range
///      scan plus a doc-order merge.
///
/// The index stores references into the document, not copies of its
/// values: a string entry names its value by the node's own pool id (see
/// kSideRefBit), and only an element whose text is split over several text
/// children has its concatenation copied, once, into a side arena. Every
/// structure below the synopsis is a flat array (FlatArrays); a snapshot
/// persists those arrays as sections and the loader adopts them straight
/// from the mapping, which `doc_` keeps alive.
///
/// Instances are immutable after Build() and shared freely across threads;
/// the engine caches them in each registered document's index entry.
class DocumentIndexes {
 public:
  /// One distinct root-to-node label path. Node 0 is the document root
  /// (kind kDocument, no name); element and attribute paths hang off their
  /// parent path. Synopsis ids are dense and stable for the lifetime of the
  /// index.
  struct SynopsisNode {
    uint32_t name_id = kNoName;
    NodeKind kind = NodeKind::kDocument;
    int32_t parent = -1;
    std::vector<int32_t> children;
  };

  /// How a string entry names its value (StringEntry::ref):
  ///   - below kSideRefBit: a pool id of the document (an attribute's
  ///     value, or an element's single text child's value);
  ///   - kEmptyRef: the empty string (an element without text, or a node
  ///     whose value id is kNoValue);
  ///   - otherwise: byte offset (ref & ~kSideRefBit) of a record in the
  ///     side arena — a uint32 length followed by that many bytes.
  /// Equal refs always mean equal values; distinct refs may still hold
  /// equal bytes (pooling off, or a split value equal to a pooled one).
  /// A path with a one-piece value whose pool id does not fit below
  /// kSideRefBit is not indexed.
  static constexpr uint32_t kEmptyRef = kNoValue;
  static constexpr uint32_t kSideRefBit = 1u << 31;

  /// One string-family entry. 8 bytes, persisted as is.
  struct StringEntry {
    NodeIndex node;
    uint32_t ref;
  };

  /// One numeric-family entry. 16 bytes, persisted as is.
  struct NumberEntry {
    double value;
    NodeIndex node;
    uint32_t reserved;  // Zero.
  };

  /// ValueFlags bits: one uint32 per synopsis path.
  enum ValueFlags : uint32_t {
    /// Clear when some element on the path has element content: its typed
    /// value is not a plain text concatenation of direct children, so
    /// value predicates on this path fall back to normal evaluation.
    kIndexable = 1u << 0,
    /// Set when every value on the path casts to xs:double — the
    /// precondition for answering numeric general comparisons without
    /// risking a cast error the fallback plan would have raised.
    kAllNumeric = 1u << 1,
  };

  /// Typed values of every node on one synopsis path (a view).
  struct ValuePostings {
    bool indexable = false;
    bool all_numeric = false;
    /// Sorted by value then node. Byte-wise string order matches the
    /// general-comparison string semantics. Empty when the string family
    /// is disabled or the path is not indexable.
    std::span<const StringEntry> by_string;
    /// Sorted by value then node, NaN entries last. Empty unless
    /// all_numeric.
    std::span<const NumberEntry> by_number;
  };

  /// The arrays behind every accessor, in the order a snapshot persists
  /// them. Offsets arrays are CSR row starts with one entry per synopsis
  /// node plus a final end; the value arrays are empty when value_kinds ==
  /// 0.
  struct FlatArrays {
    std::span<const uint64_t> posting_offsets;
    std::span<const NodeIndex> posting_data;
    std::span<const uint32_t> value_flags;
    std::span<const uint64_t> string_offsets;
    std::span<const StringEntry> string_entries;
    std::span<const uint64_t> number_offsets;
    std::span<const NumberEntry> number_entries;
    std::span<const char> side_arena;
  };

  /// Builds both structures in one scan of the node table plus one value
  /// pass. Hosts the "alloc" fault-injection site (index construction is an
  /// allocation burst) — the error path is exercised by XQP_FAULT=alloc:N.
  static Result<std::shared_ptr<const DocumentIndexes>> Build(
      std::shared_ptr<const Document> doc, uint32_t value_kinds);

  const Document& doc() const { return *doc_; }
  const std::shared_ptr<const Document>& doc_ptr() const { return doc_; }
  uint32_t value_kinds() const { return value_kinds_; }

  size_t NumSynopsisNodes() const { return nodes_.size(); }
  const SynopsisNode& synopsis_node(int32_t s) const { return nodes_[s]; }

  /// Document nodes on synopsis path `s`, in document order. Posting lists
  /// of distinct synopsis nodes are disjoint by construction.
  std::span<const NodeIndex> postings(int32_t s) const {
    return Row(flat_.posting_data, flat_.posting_offsets, s);
  }

  /// Value postings for synopsis path `s`, or nullopt when the value index
  /// was not built (value_kinds == 0).
  std::optional<ValuePostings> values(int32_t s) const;

  /// The string a StringEntry::ref names.
  std::string_view StringValue(uint32_t ref) const {
    return RefString(*doc_, flat_.side_arena, ref);
  }

  const FlatArrays& flat() const { return flat_; }

  // flat_ may point into this object's own arrays: a copy would dangle.
  DocumentIndexes(const DocumentIndexes&) = delete;
  DocumentIndexes& operator=(const DocumentIndexes&) = delete;

  /// The child of `s` matching (kind, name_id), or -1.
  int32_t FindChild(int32_t s, NodeKind kind, uint32_t name_id) const;

  /// Appends every synopsis node strictly below `s` matching (kind,
  /// name_id) to `out` (the //-edge resolution step).
  void FindDescendants(int32_t s, NodeKind kind, uint32_t name_id,
                       std::vector<int32_t>* out) const;

  /// Approximate heap footprint (synopsis + the arrays this instance
  /// owns); charged to the building query's ResourceGovernor memory
  /// budget. Arrays adopted from a snapshot live in its mapping, which
  /// the loader charges as a whole.
  size_t MemoryUsage() const;

 private:
  friend class storage::SnapshotLoader;

  /// The text an element or attribute contributes to its typed value:
  /// one pool id (kNoValue for none), several text pieces, or element
  /// content (no indexable value).
  enum class ValueShape { kSingle, kPieces, kElementContent };
  static ValueShape ShapeOf(const Document& d, NodeIndex n, uint32_t* id);
  /// The typed-value text of node `n` of shape kSingle (pool id `id`) or
  /// kPieces (concatenated into `*scratch`).
  static std::string_view TextOf(const Document& d, NodeIndex n,
                                 ValueShape shape, uint32_t id,
                                 std::string* scratch);
  /// The numeric family's order: value, every NaN after all ordered
  /// values. Values it does not order — equal values, -0 and +0, two NaNs
  /// — tie, and the node breaks the tie.
  static bool NumberBefore(double a, double b);
  /// The string `ref` names, with side-arena records read from `arena`.
  static std::string_view RefString(const Document& d,
                                    std::span<const char> arena,
                                    uint32_t ref);

  template <typename T>
  static std::span<const T> Row(std::span<const T> data,
                                std::span<const uint64_t> offsets,
                                int32_t s) {
    if (offsets.empty()) return {};
    return data.subspan(offsets[s], offsets[s + 1] - offsets[s]);
  }

  /// Backing store of flat_ for a built index; empty for one adopted from
  /// a snapshot.
  struct OwnedArrays {
    std::vector<uint64_t> posting_offsets;
    std::vector<NodeIndex> posting_data;
    std::vector<uint32_t> value_flags;
    std::vector<uint64_t> string_offsets;
    std::vector<StringEntry> string_entries;
    std::vector<uint64_t> number_offsets;
    std::vector<NumberEntry> number_entries;
    std::vector<char> side_arena;
  };

  DocumentIndexes() = default;
  /// Pass 2 of Build: the value families of every synopsis path into
  /// own_, reading postings from own_ (flat_ is not set yet).
  Status BuildValues();

  std::shared_ptr<const Document> doc_;
  uint32_t value_kinds_ = 0;
  std::vector<SynopsisNode> nodes_;
  FlatArrays flat_;
  OwnedArrays own_;
};

static_assert(sizeof(DocumentIndexes::StringEntry) == 8);
static_assert(sizeof(DocumentIndexes::NumberEntry) == 16);
static_assert(std::is_trivially_copyable_v<DocumentIndexes::StringEntry>);
static_assert(std::is_trivially_copyable_v<DocumentIndexes::NumberEntry>);

}  // namespace xqp

#endif  // XQP_INDEX_DOCUMENT_INDEXES_H_
