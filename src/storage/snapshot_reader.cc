#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/fault.h"
#include "base/limits.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"

namespace xqp {
namespace storage {
namespace {

Status Corrupt(std::string what) {
  return Status::SnapshotCorrupt(std::move(what));
}

/// Bounds-checked reader over one serialized section. Every getter reports
/// failure instead of advancing past the end, so a forged length field can
/// never walk a pointer out of the mapping.
class Cursor {
 public:
  Cursor(const uint8_t* p, size_t n) : p_(p), n_(n) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool Bytes(size_t len, std::string_view* out) {
    if (len > n_) return false;
    *out = std::string_view(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    n_ -= len;
    return true;
  }
  bool done() const { return n_ == 0; }

 private:
  bool Raw(void* out, size_t len) {
    if (len > n_) return false;
    std::memcpy(out, p_, len);
    p_ += len;
    n_ -= len;
    return true;
  }

  const uint8_t* p_;
  size_t n_;
};

/// Validation reads every page (the section CRCs), so populate the mapping
/// in one call instead of one page fault per page.
#ifdef MAP_POPULATE
constexpr int kMapFlags = MAP_PRIVATE | MAP_POPULATE;
#else
constexpr int kMapFlags = MAP_PRIVATE;
#endif

/// One mmap'd snapshot file; unmapped when the last document view dies.
struct Mapping {
  const uint8_t* data = nullptr;
  size_t size = 0;
  ~Mapping() {
    if (data != nullptr) {
      ::munmap(const_cast<uint8_t*>(data), size);
    }
  }
};

/// Per-section checksum gate; hosts the "storage.crc" fault site (nth
/// selects which of the checks — header, table, section 1, ... — fails).
Status CheckCrc(const char* what, uint32_t expected, const void* data,
                size_t n) {
  if (fault::Armed()) {
    Status injected = fault::MaybeInject("storage.crc");
    if (!injected.ok()) {
      return Corrupt(std::string(what) +
                     ": injected checksum failure: " + injected.message());
    }
  }
  if (Crc32c(data, n) != expected) {
    return Corrupt(std::string(what) + ": CRC-32C mismatch");
  }
  return Status::OK();
}

bool ValidNodeKind(uint8_t k) {
  return k <= static_cast<uint8_t>(NodeKind::kProcessingInstruction);
}

/// CSR row starts: one per row plus the end, from 0 to `data_count`, never
/// decreasing.
bool ValidRowStarts(std::span<const uint64_t> starts, size_t rows,
                    uint64_t data_count) {
  if (starts.size() != rows + 1 || starts[0] != 0 ||
      starts[rows] != data_count) {
    return false;
  }
  for (size_t r = 0; r < rows; ++r) {
    if (starts[r + 1] < starts[r]) return false;
  }
  return true;
}

}  // namespace

/// The validating loader. Friend of Document, StringPool, and
/// DocumentIndexes: after the hostile-input checks pass it installs views
/// into the mapping (node table, pooled strings, index arrays) and
/// materializes the small variable-length structures, without re-running
/// any builder logic.
class SnapshotLoader {
 public:
  static Result<LoadedSnapshot> Load(const uint8_t* base, size_t size,
                                     std::shared_ptr<const void> backing);

 private:
  struct Sec {
    const uint8_t* data = nullptr;
    uint64_t size = 0;
    uint64_t count = 0;
    bool present = false;
  };

  /// `sec` as an array of T: its size must be exactly `count` elements.
  template <typename T>
  static bool AsArray(const Sec& sec, std::span<const T>* out) {
    if (sec.count > sec.size / sizeof(T) || sec.size != sec.count * sizeof(T)) {
      return false;
    }
    *out = std::span<const T>(reinterpret_cast<const T*>(sec.data), sec.count);
    return true;
  }

  static Result<std::vector<QName>> ParseNames(const Sec& sec);
  /// What the node-table replay learns besides validity.
  struct NodeFacts {
    /// Nodes a path synopsis lists: the document node, elements and
    /// attributes.
    uint64_t listable = 0;
    /// When requested (non-empty on entry), per element and attribute: the
    /// StringEntry::ref its value must have — its pool id or kEmptyRef for
    /// a one-piece value, kSideRefBit for a side-arena record — or
    /// kUnindexable where Build indexes no value (element content, or a
    /// pool id at or above kSideRefBit). The replay's twin of
    /// DocumentIndexes::ShapeOf.
    std::vector<uint32_t> value_ref;
  };
  static constexpr uint32_t kUnindexable = DocumentIndexes::kSideRefBit + 1;

  static Status ValidateNodes(const Sec& nodes, size_t names_count,
                              size_t pool_count, NodeFacts* facts);
  static Result<std::shared_ptr<const DocumentIndexes>> AdoptIndexes(
      const Sec* secs, std::shared_ptr<const Document> doc,
      uint32_t value_kinds, const NodeFacts& facts);
  static Status AdoptValues(const Sec* secs, DocumentIndexes* idx,
                            const std::vector<int32_t>& syn_of,
                            const std::vector<uint32_t>& value_ref);
};

Result<std::vector<QName>> SnapshotLoader::ParseNames(const Sec& sec) {
  std::vector<QName> names;
  Cursor cur(sec.data, sec.size);
  for (uint64_t i = 0; i < sec.count; ++i) {
    uint32_t uri_len, prefix_len, local_len;
    std::string_view uri, prefix, local;
    if (!cur.U32(&uri_len) || !cur.U32(&prefix_len) || !cur.U32(&local_len) ||
        !cur.Bytes(uri_len, &uri) || !cur.Bytes(prefix_len, &prefix) ||
        !cur.Bytes(local_len, &local)) {
      return Corrupt("names: truncated name entry");
    }
    names.emplace_back(std::string(uri), std::string(prefix),
                       std::string(local));
  }
  if (!cur.done()) {
    return Corrupt("names: trailing bytes after name table");
  }
  return names;
}

Status SnapshotLoader::ValidateNodes(const Sec& nodes, size_t names_count,
                                     size_t pool_count, NodeFacts* facts) {
  const auto* recs = reinterpret_cast<const NodeRecord*>(nodes.data);
  const size_t n = nodes.count;

  const NodeRecord& root = recs[0];
  if (root.kind != NodeKind::kDocument || root.level != 0 ||
      root.name_id != kNoName || root.value_id != kNoValue ||
      root.parent != kNullNode || root.next_sibling != kNullNode ||
      root.end != n - 1) {
    return Corrupt("node 0 is not a well-formed document node");
  }

  // Preorder replay. The region-encoding stack recovers each node's
  // expected parent and depth from the `end` labels alone; each stored
  // link is checked the moment the replay fixes its value — a first_attr /
  // first_child when the parent's first attribute / child arrives (or is
  // null when the parent's region closes without one), a next_sibling when
  // the next sibling arrives (or is null when the parent closes). Any link
  // or label that disagrees with the replay — overlapping regions, a
  // forward parent pointer, an attribute after child content, a cycle
  // spliced into a sibling chain — is rejected before the table is ever
  // navigated, so traversal can neither crash nor hang.
  struct Open {
    NodeIndex node;
    NodeIndex last_attr = kNullNode;
    NodeIndex last_child = kNullNode;
    uint32_t first_text = kNoValue;  // Value id of the first text child.
    uint32_t texts = 0;              // Text children.
    bool element_child = false;
  };
  const bool want_refs = !facts->value_ref.empty();
  auto one_piece = [](uint32_t id) {
    return id < DocumentIndexes::kSideRefBit || id == DocumentIndexes::kEmptyRef
               ? id
               : kUnindexable;
  };
  // The region of `f.node` has closed: its chains must end where the
  // replay ended them, and its typed value is known.
  auto close = [&](const Open& f) {
    const NodeRecord& r = recs[f.node];
    if (want_refs) {
      facts->value_ref[f.node] = f.element_child ? kUnindexable
                                 : f.texts > 1
                                     ? DocumentIndexes::kSideRefBit
                                     : one_piece(f.first_text);
    }
    return (f.last_attr == kNullNode
                ? r.first_attr == kNullNode
                : recs[f.last_attr].next_sibling == kNullNode) &&
           (f.last_child == kNullNode
                ? r.first_child == kNullNode
                : recs[f.last_child].next_sibling == kNullNode);
  };
  auto link = [recs](NodeIndex parent_first, NodeIndex* last, NodeIndex i) {
    const bool ok = *last == kNullNode ? parent_first == i
                                       : recs[*last].next_sibling == i;
    *last = i;
    return ok;
  };
  auto broken = [] {
    return Corrupt("sibling/child links disagree with preorder replay");
  };
  std::vector<Open> stack;
  stack.push_back(Open{0});
  facts->listable = 1;
  for (size_t i = 1; i < n; ++i) {
    while (!stack.empty() && recs[stack.back().node].end < i) {
      if (!close(stack.back())) return broken();
      stack.pop_back();
    }
    if (stack.empty()) return Corrupt("node outside every open region");
    Open& top = stack.back();
    const NodeIndex p = top.node;
    const NodeRecord& r = recs[i];
    if (!ValidNodeKind(static_cast<uint8_t>(r.kind))) {
      return Corrupt("invalid node kind");
    }
    if (r.parent != p) return Corrupt("parent link disagrees with regions");
    if (r.level != stack.size()) return Corrupt("level disagrees with depth");
    if (r.end < i || r.end > recs[p].end) {
      return Corrupt("region end outside parent region");
    }
    const bool named = r.kind == NodeKind::kElement ||
                       r.kind == NodeKind::kAttribute ||
                       r.kind == NodeKind::kProcessingInstruction;
    if (named ? r.name_id >= names_count : r.name_id != kNoName) {
      return Corrupt("name id out of range");
    }
    if (r.value_id != kNoValue && r.value_id >= pool_count) {
      return Corrupt("value id out of range");
    }
    if (r.kind == NodeKind::kDocument) {
      return Corrupt("nested document node");
    }
    const auto self = static_cast<NodeIndex>(i);
    facts->listable +=
        r.kind == NodeKind::kElement || r.kind == NodeKind::kAttribute;
    if (r.kind == NodeKind::kAttribute) {
      if (top.last_child != kNullNode) {
        return Corrupt("attribute after child content");
      }
      if (r.end != i || r.first_attr != kNullNode ||
          r.first_child != kNullNode) {
        return Corrupt("attribute with a subtree");
      }
      if (!link(recs[p].first_attr, &top.last_attr, self)) return broken();
      if (want_refs) facts->value_ref[i] = one_piece(r.value_id);
      continue;
    }
    if (!link(recs[p].first_child, &top.last_child, self)) return broken();
    if (r.kind == NodeKind::kText && top.texts++ == 0) {
      top.first_text = r.value_id;
    }
    top.element_child |= r.kind == NodeKind::kElement;
    if (r.kind == NodeKind::kElement) {
      stack.push_back(Open{self});
    } else if (r.end != i || r.first_attr != kNullNode ||
               r.first_child != kNullNode) {
      return Corrupt("leaf node with a subtree");
    }
  }
  for (; !stack.empty(); stack.pop_back()) {
    if (!close(stack.back())) return broken();
  }
  return Status::OK();
}

Result<LoadedSnapshot> SnapshotLoader::Load(
    const uint8_t* base, size_t size, std::shared_ptr<const void> backing) {
  // --- Header. ----------------------------------------------------------
  if (size < sizeof(SnapshotHeader)) {
    return Corrupt("file shorter than snapshot header");
  }
  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(header.magic)) != 0) {
    return Corrupt("bad magic");
  }
  if (header.version != kSnapshotVersion) {
    return Corrupt("unsupported snapshot version " +
                   std::to_string(header.version));
  }
  if (header.endian != kEndianTag) {
    return Corrupt("snapshot written with different byte order");
  }
  if (header.arch_bits != 8 * sizeof(void*)) {
    return Corrupt("snapshot written with different pointer width");
  }
  if (header.node_record_size != sizeof(NodeRecord)) {
    return Corrupt("snapshot written with different record layout");
  }
  {
    SnapshotHeader crc_view = header;
    crc_view.header_crc = 0;
    XQP_RETURN_NOT_OK(CheckCrc("header", header.header_crc, &crc_view,
                               sizeof(crc_view)));
  }
  if ((header.flags & ~kFlagHasIndexes) != 0 || header.reserved != 0) {
    return Corrupt("unknown flag or reserved bits");
  }
  const bool has_indexes = (header.flags & kFlagHasIndexes) != 0;
  if ((header.value_kinds & ~kIndexValueAll) != 0 ||
      (!has_indexes && header.value_kinds != 0)) {
    return Corrupt("invalid value-kind mask");
  }
  if (header.file_size != size) {
    return Corrupt("file size disagrees with header (truncated?)");
  }

  // Exactly the sections the flags promise, nothing else.
  std::vector<SectionId> expected = {
      SectionId::kNodes,   SectionId::kNames,   SectionId::kPoolIndex,
      SectionId::kPoolArena, SectionId::kNsDecls, SectionId::kBaseUri};
  if (has_indexes) {
    expected.insert(expected.end(),
                    {SectionId::kSynopsis, SectionId::kPostingsOffsets,
                     SectionId::kPostingsData});
    if (header.value_kinds != 0) {
      expected.insert(expected.end(),
                      {SectionId::kValueFlags, SectionId::kStringOffsets,
                       SectionId::kStringEntries, SectionId::kNumberOffsets,
                       SectionId::kNumberEntries, SectionId::kValueArena});
    }
  }
  if (header.section_count != expected.size()) {
    return Corrupt("unexpected section count");
  }

  // --- Section table. ---------------------------------------------------
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(SectionEntry);
  if (table_bytes > size - sizeof(SnapshotHeader)) {
    return Corrupt("section table extends past end of file");
  }
  const uint8_t* table = base + sizeof(SnapshotHeader);
  XQP_RETURN_NOT_OK(
      CheckCrc("section table", header.table_crc, table, table_bytes));

  constexpr uint32_t kMaxSectionId =
      static_cast<uint32_t>(SectionId::kValueArena);
  Sec secs[kMaxSectionId + 1];
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry e;
    std::memcpy(&e, table + i * sizeof(SectionEntry), sizeof(e));
    if (e.id == 0 || e.id > kMaxSectionId) return Corrupt("unknown section id");
    Sec& s = secs[e.id];
    if (s.present) return Corrupt("duplicate section");
    if ((e.offset & 7) != 0) return Corrupt("misaligned section offset");
    if (e.offset > size || e.size > size - e.offset) {
      return Corrupt("section extends past end of file");
    }
    s.data = base + e.offset;
    s.size = e.size;
    s.count = e.count;
    s.present = true;
    XQP_RETURN_NOT_OK(CheckCrc("section", e.crc, s.data, s.size));
  }
  for (SectionId id : expected) {
    if (!secs[static_cast<uint32_t>(id)].present) {
      return Corrupt("missing required section");
    }
  }
  auto sec = [&secs](SectionId id) -> const Sec& {
    return secs[static_cast<uint32_t>(id)];
  };

  // --- Document: node table, names, pool, namespaces, base URI. ---------
  const Sec& nodes = sec(SectionId::kNodes);
  if (nodes.count == 0 || nodes.count >= kNullNode ||
      nodes.size != nodes.count * sizeof(NodeRecord)) {
    return Corrupt("node table size mismatch");
  }
  const size_t node_count = nodes.count;

  XQP_ASSIGN_OR_RETURN(std::vector<QName> names,
                       ParseNames(sec(SectionId::kNames)));
  if (names.size() != sec(SectionId::kNames).count) {
    return Corrupt("name count mismatch");
  }

  const Sec& pool_index = sec(SectionId::kPoolIndex);
  const Sec& pool_arena = sec(SectionId::kPoolArena);
  if (pool_index.size != pool_index.count * sizeof(PoolEntry) ||
      pool_index.count >= StringPool::kInvalid) {
    return Corrupt("pool index size mismatch");
  }
  std::vector<std::string_view> pool_views;
  pool_views.reserve(pool_index.count);
  {
    const auto* entries = reinterpret_cast<const PoolEntry*>(pool_index.data);
    const char* arena = reinterpret_cast<const char*>(pool_arena.data);
    for (uint64_t i = 0; i < pool_index.count; ++i) {
      if (entries[i].offset > pool_arena.size ||
          entries[i].length > pool_arena.size - entries[i].offset) {
        return Corrupt("pool entry outside arena");
      }
      pool_views.emplace_back(arena + entries[i].offset, entries[i].length);
    }
  }

  NodeFacts facts;
  if (has_indexes && header.value_kinds != 0) {
    facts.value_ref.resize(node_count);
  }
  XQP_RETURN_NOT_OK(
      ValidateNodes(nodes, names.size(), pool_views.size(), &facts));

  std::unordered_map<NodeIndex, std::vector<Document::NsDecl>> ns_decls;
  {
    const Sec& ns = sec(SectionId::kNsDecls);
    Cursor cur(ns.data, ns.size);
    uint32_t prev_node = 0;
    for (uint64_t e = 0; e < ns.count; ++e) {
      uint32_t node, n_decls;
      if (!cur.U32(&node) || !cur.U32(&n_decls) || n_decls == 0) {
        return Corrupt("truncated namespace entry");
      }
      if (node >= node_count || (e > 0 && node <= prev_node)) {
        return Corrupt("namespace entry out of order or out of range");
      }
      prev_node = node;
      std::vector<Document::NsDecl>& decls = ns_decls[node];
      for (uint32_t d = 0; d < n_decls; ++d) {
        uint32_t plen, ulen;
        std::string_view prefix, uri;
        if (!cur.U32(&plen) || !cur.U32(&ulen) || !cur.Bytes(plen, &prefix) ||
            !cur.Bytes(ulen, &uri)) {
          return Corrupt("truncated namespace declaration");
        }
        decls.push_back(
            Document::NsDecl{std::string(prefix), std::string(uri)});
      }
    }
    if (!cur.done()) return Corrupt("trailing bytes after namespace section");
  }

  const Sec& base_uri = sec(SectionId::kBaseUri);
  if (base_uri.count != base_uri.size) {
    return Corrupt("base-uri size mismatch");
  }

  auto doc = std::shared_ptr<Document>(new Document());
  doc->backing_ = backing;
  doc->nodes_data_ = reinterpret_cast<const NodeRecord*>(nodes.data);
  doc->nodes_count_ = node_count;
  doc->names_ = std::move(names);
  for (uint32_t id = 0; id < doc->names_.size(); ++id) {
    if (!doc->name_index_.emplace(doc->names_[id], id).second) {
      return Corrupt("duplicate entry in name table");
    }
  }
  doc->pool_.AdoptFrozen(std::move(pool_views));
  doc->ns_decls_ = std::move(ns_decls);
  doc->base_uri_.assign(reinterpret_cast<const char*>(base_uri.data),
                        base_uri.size);

  LoadedSnapshot out;
  out.document = doc;
  out.value_kinds = header.value_kinds;
  out.content_hash = header.content_hash;
  out.content_bytes = header.content_bytes;
  out.mapped_bytes = size;

  // --- Path/value indexes (optional). -----------------------------------
  if (has_indexes) {
    XQP_ASSIGN_OR_RETURN(
        out.indexes, AdoptIndexes(secs, doc, header.value_kinds, facts));
  }

  return out;
}

Result<std::shared_ptr<const DocumentIndexes>> SnapshotLoader::AdoptIndexes(
    const Sec* secs, std::shared_ptr<const Document> doc,
    uint32_t value_kinds, const NodeFacts& facts) {
  auto sec = [secs](SectionId id) -> const Sec& {
    return secs[static_cast<uint32_t>(id)];
  };
  const size_t node_count = doc->NumNodes();

  // --- Synopsis. ---------------------------------------------------------
  std::span<const SynopsisRec> srecs;
  if (!AsArray(sec(SectionId::kSynopsis), &srecs) || srecs.empty() ||
      srecs.size() > INT32_MAX) {
    return Corrupt("synopsis size mismatch");
  }
  if (srecs[0].parent != -1 || srecs[0].name_id != kNoName ||
      srecs[0].kind != static_cast<uint32_t>(NodeKind::kDocument)) {
    return Corrupt("synopsis node 0 is not the document root");
  }
  const size_t n_syn = srecs.size();
  auto idx = std::shared_ptr<DocumentIndexes>(new DocumentIndexes());
  idx->doc_ = doc;
  idx->value_kinds_ = value_kinds;
  idx->nodes_.resize(n_syn);
  std::unordered_set<uint64_t> edges;
  for (size_t s = 1; s < n_syn; ++s) {
    const SynopsisRec& r = srecs[s];
    const bool is_elem = r.kind == static_cast<uint32_t>(NodeKind::kElement);
    const bool is_attr =
        r.kind == static_cast<uint32_t>(NodeKind::kAttribute);
    if ((!is_elem && !is_attr) || r.parent < 0 ||
        static_cast<uint64_t>(r.parent) >= s ||
        r.name_id >= doc->NumNames()) {
      return Corrupt("invalid synopsis node");
    }
    DocumentIndexes::SynopsisNode& sn = idx->nodes_[s];
    sn.name_id = r.name_id;
    sn.kind = static_cast<NodeKind>(r.kind);
    sn.parent = r.parent;
    // One synopsis node per (parent, kind, name): a duplicate could hide
    // postings from FindChild.
    if (!edges.insert((uint64_t{r.name_id} << 32) | (uint64_t{is_attr} << 31) |
                      static_cast<uint32_t>(r.parent))
             .second) {
      return Corrupt("duplicate synopsis path");
    }
    // Synopsis ids are assigned in first-appearance order, so id order
    // reproduces every children list exactly as Build() made it.
    idx->nodes_[r.parent].children.push_back(static_cast<int32_t>(s));
  }

  // --- Postings: every element and attribute on exactly its own path. ----
  DocumentIndexes::FlatArrays& flat = idx->flat_;
  if (!AsArray(sec(SectionId::kPostingsOffsets), &flat.posting_offsets) ||
      !AsArray(sec(SectionId::kPostingsData), &flat.posting_data) ||
      !ValidRowStarts(flat.posting_offsets, n_syn, flat.posting_data.size())) {
    return Corrupt("postings size mismatch");
  }
  const std::span<const NodeIndex> root_row = idx->postings(0);
  if (root_row.size() != 1 || root_row[0] != 0) {
    return Corrupt("root synopsis path does not list the document node");
  }
  // syn_of[n]: the path listing node n. A posting must carry its path's
  // kind and name, and its parent must be listed on the parent path (rows
  // are checked in id order, and a parent path has the smaller id).
  std::vector<int32_t> syn_of(node_count, -1);
  syn_of[0] = 0;
  for (size_t s = 1; s < n_syn; ++s) {
    const std::span<const NodeIndex> row =
        idx->postings(static_cast<int32_t>(s));
    const DocumentIndexes::SynopsisNode& sn = idx->nodes_[s];
    for (size_t j = 0; j < row.size(); ++j) {
      const NodeIndex n = row[j];
      if (n >= node_count || (j > 0 && n <= row[j - 1])) {
        return Corrupt("posting list not in document order");
      }
      const NodeRecord& r = doc->node(n);
      if (syn_of[n] != -1 || r.kind != sn.kind || r.name_id != sn.name_id ||
          syn_of[r.parent] != sn.parent) {
        return Corrupt("posting does not match its synopsis path");
      }
      syn_of[n] = static_cast<int32_t>(s);
    }
  }
  // Disjoint rows of matching kinds: they cover every element and
  // attribute exactly when the counts agree.
  if (facts.listable != flat.posting_data.size()) {
    return Corrupt("postings do not cover every element and attribute");
  }

  if (value_kinds != 0) {
    XQP_RETURN_NOT_OK(AdoptValues(secs, idx.get(), syn_of, facts.value_ref));
  }
  return std::shared_ptr<const DocumentIndexes>(idx);
}

Status SnapshotLoader::AdoptValues(const Sec* secs, DocumentIndexes* idx,
                                   const std::vector<int32_t>& syn_of,
                                   const std::vector<uint32_t>& value_ref) {
  using DI = DocumentIndexes;
  auto sec = [secs](SectionId id) -> const Sec& {
    return secs[static_cast<uint32_t>(id)];
  };
  const Document& doc = *idx->doc_;
  const size_t n_syn = idx->nodes_.size();
  DI::FlatArrays& flat = idx->flat_;
  if (!AsArray(sec(SectionId::kValueFlags), &flat.value_flags) ||
      !AsArray(sec(SectionId::kStringOffsets), &flat.string_offsets) ||
      !AsArray(sec(SectionId::kStringEntries), &flat.string_entries) ||
      !AsArray(sec(SectionId::kNumberOffsets), &flat.number_offsets) ||
      !AsArray(sec(SectionId::kNumberEntries), &flat.number_entries) ||
      !AsArray(sec(SectionId::kValueArena), &flat.side_arena) ||
      flat.value_flags.size() != n_syn ||
      !ValidRowStarts(flat.string_offsets, n_syn, flat.string_entries.size()) ||
      !ValidRowStarts(flat.number_offsets, n_syn,
                      flat.number_entries.size())) {
    return Corrupt("value-postings size mismatch");
  }

  auto on_path = [&syn_of](NodeIndex n, int32_t path) {
    return n < syn_of.size() && syn_of[n] == path;
  };
  // The typed-value text of a node on an indexable path.
  std::string scratch;
  auto text_of = [&](NodeIndex n) {
    if (value_ref[n] != DI::kSideRefBit) return idx->StringValue(value_ref[n]);
    uint32_t id;
    const DI::ValueShape shape = DI::ShapeOf(doc, n, &id);
    return DI::TextOf(doc, n, shape, id, &scratch);
  };
  // Whether `ref` names node n's own value: its pool id (or the empty ref)
  // where the value is one piece, else a side-arena record of its text.
  auto names_own_value = [&](NodeIndex n, uint32_t ref) {
    const uint32_t want = value_ref[n];
    if (want == kUnindexable) return false;
    if (want != DI::kSideRefBit) return ref == want;
    const uint64_t off = ref & ~DI::kSideRefBit;
    uint32_t len;
    if (ref < DI::kSideRefBit || ref == DI::kEmptyRef ||
        flat.side_arena.size() < sizeof(len) ||
        off > flat.side_arena.size() - sizeof(len)) {
      return false;
    }
    std::memcpy(&len, flat.side_arena.data() + off, sizeof(len));
    return len <= flat.side_arena.size() - off - sizeof(len) &&
           idx->StringValue(ref) == text_of(n);
  };

  const bool strings_on = (idx->value_kinds_ & kIndexValueString) != 0;
  const bool numbers_on = (idx->value_kinds_ & kIndexValueNumeric) != 0;
  for (size_t s = 0; s < n_syn; ++s) {
    const auto path = static_cast<int32_t>(s);
    const DI::ValuePostings vp = *idx->values(path);
    const uint32_t flags = flat.value_flags[s];
    const std::span<const NodeIndex> row = idx->postings(path);
    // Each family holds every node on the path or none, as Build() leaves
    // it.
    if ((flags & ~(DI::kIndexable | DI::kAllNumeric)) != 0 ||
        (s == 0 && flags != 0) || (vp.all_numeric && !vp.indexable) ||
        (vp.all_numeric && !numbers_on) ||
        vp.by_string.size() != (vp.indexable && strings_on ? row.size() : 0) ||
        vp.by_number.size() != (vp.all_numeric ? row.size() : 0)) {
      return Corrupt("value family shape disagrees with its path");
    }
    for (size_t i = 0; i < vp.by_string.size(); ++i) {
      const DI::StringEntry& e = vp.by_string[i];
      if (!on_path(e.node, path)) {
        return Corrupt("value entry's node is not on its path");
      }
      if (!names_own_value(e.node, e.ref)) {
        return Corrupt("value reference is not the node's own value");
      }
      if (i > 0) {
        const DI::StringEntry& prev = vp.by_string[i - 1];
        const int cmp = prev.ref == e.ref ? 0
                                          : idx->StringValue(prev.ref).compare(
                                                idx->StringValue(e.ref));
        if (cmp > 0 || (cmp == 0 && prev.node >= e.node)) {
          return Corrupt("string value index not sorted");
        }
      }
    }
    for (size_t i = 0; i < vp.by_number.size(); ++i) {
      const DI::NumberEntry& e = vp.by_number[i];
      if (!on_path(e.node, path) || e.reserved != 0) {
        return Corrupt("value entry's node is not on its path");
      }
      // The stored number must be the runtime's cast of the node's own
      // value, bit for bit.
      double cast;
      if (value_ref[e.node] == kUnindexable ||
          !TryParseXsDouble(text_of(e.node), &cast) ||
          std::memcmp(&cast, &e.value, sizeof(cast)) != 0) {
        return Corrupt("numeric value is not the node's own value");
      }
      if (i > 0) {
        const DI::NumberEntry& prev = vp.by_number[i - 1];
        if (!DI::NumberBefore(prev.value, e.value) &&
            (DI::NumberBefore(e.value, prev.value) || prev.node >= e.node)) {
          return Corrupt("numeric value index not sorted");
        }
      }
    }
  }
  return Status::OK();
}

Result<LoadedSnapshot> OpenSnapshot(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status err = Status::IoError("stat " + path + ": " +
                                 std::string(std::strerror(errno)));
    ::close(fd);
    return err;
  }
  if (st.st_size <= 0) {
    ::close(fd);
    return Corrupt("empty snapshot file");
  }
  if (fault::Armed()) {
    Status injected = fault::MaybeInject("storage.map");
    if (!injected.ok()) {
      ::close(fd);
      return injected;
    }
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* m = ::mmap(nullptr, size, PROT_READ, kMapFlags, fd, 0);
  ::close(fd);
  if (m == MAP_FAILED) {
    return Status::IoError("mmap " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->data = static_cast<const uint8_t*>(m);
  mapping->size = size;
  const uint8_t* base = mapping->data;  // read before the move below
  XQP_ASSIGN_OR_RETURN(
      LoadedSnapshot loaded,
      SnapshotLoader::Load(base, size, std::move(mapping)));
  // The mapped extent is memory the caller's query now holds; charge it
  // like any other load-time allocation.
  if (ResourceGovernor* gov = CurrentGovernor()) {
    XQP_RETURN_NOT_OK(gov->ChargeBytes(loaded.mapped_bytes));
  }
  return loaded;
}

Result<LoadedSnapshot> OpenSnapshotBuffer(
    std::shared_ptr<const std::string> bytes) {
  if (bytes == nullptr) return Status::InvalidArgument("null buffer");
  if (fault::Armed()) {
    XQP_RETURN_NOT_OK(fault::MaybeInject("storage.map"));
  }
  const auto* p = reinterpret_cast<const uint8_t*>(bytes->data());
  // Zero-copy sections require the 8-byte alignment a mapping guarantees;
  // realign the rare unaligned buffer (e.g. a substring) by copying.
  if ((reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    auto aligned =
        std::make_shared<std::vector<uint64_t>>((bytes->size() + 7) / 8);
    std::memcpy(aligned->data(), bytes->data(), bytes->size());
    const auto* ap = reinterpret_cast<const uint8_t*>(aligned->data());
    return SnapshotLoader::Load(ap, bytes->size(), std::move(aligned));
  }
  size_t size = bytes->size();
  return SnapshotLoader::Load(p, size, std::move(bytes));
}

}  // namespace storage
}  // namespace xqp
