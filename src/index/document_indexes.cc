#include "index/document_indexes.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "base/fault.h"

namespace xqp {
namespace {

/// Exact synopsis-edge key: (parent synopsis id, kind-is-attribute bit,
/// name id). Synopsis ids fit in 31 bits (they are bounded by the node
/// count), so the packing is collision-free.
uint64_t EdgeKey(int32_t parent, NodeKind kind, uint32_t name_id) {
  return (static_cast<uint64_t>(parent) << 33) |
         (static_cast<uint64_t>(kind == NodeKind::kAttribute) << 32) |
         name_id;
}

/// Dense ranks for the slots listed in sorted `order`: a slot takes its
/// predecessor's rank unless `before(prev, cur)`. Returns the rank count.
template <typename Before>
uint32_t RankSorted(const std::vector<uint32_t>& order, Before before,
                    std::vector<uint32_t>* rank_of_slot) {
  rank_of_slot->resize(order.size());
  uint32_t rank = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && before(order[i - 1], order[i])) ++rank;
    (*rank_of_slot)[order[i]] = rank;
  }
  return order.empty() ? 0 : rank + 1;
}

/// Stable counting sort of one path's entries by rank: entry k has rank
/// `rank_of_slot[entry_slot[k]]` and goes to position `emit(k, pos)`.
/// Entries arrive in posting order, which is document order, so ties come
/// out by node — the family order (value, node) without comparing nodes.
template <typename Emit>
void EmitByRank(const std::vector<uint32_t>& entry_slot,
                const std::vector<uint32_t>& rank_of_slot, uint32_t ranks,
                std::vector<uint32_t>* next, Emit emit) {
  next->assign(ranks + 1, 0);
  for (uint32_t slot : entry_slot) ++(*next)[rank_of_slot[slot] + 1];
  for (uint32_t r = 1; r <= ranks; ++r) (*next)[r] += (*next)[r - 1];
  for (size_t k = 0; k < entry_slot.size(); ++k) {
    emit(k, (*next)[rank_of_slot[entry_slot[k]]]++);
  }
}

}  // namespace

bool DocumentIndexes::NumberBefore(double a, double b) {
  bool a_nan = std::isnan(a);
  bool b_nan = std::isnan(b);
  if (a_nan != b_nan) return b_nan;
  return !a_nan && a < b;
}

std::string_view DocumentIndexes::TextOf(const Document& d, NodeIndex n,
                                         ValueShape shape, uint32_t id,
                                         std::string* scratch) {
  if (shape == ValueShape::kSingle) {
    return id == kNoValue ? std::string_view() : d.pool().Get(id);
  }
  scratch->clear();
  for (NodeIndex c = d.node(n).first_child; c != kNullNode;
       c = d.node(c).next_sibling) {
    if (d.node(c).kind == NodeKind::kText) *scratch += d.value(c);
  }
  return *scratch;
}

DocumentIndexes::ValueShape DocumentIndexes::ShapeOf(const Document& d,
                                                     NodeIndex n,
                                                     uint32_t* id) {
  const NodeRecord& r = d.node(n);
  if (r.kind == NodeKind::kAttribute) {
    *id = r.value_id;
    return ValueShape::kSingle;
  }
  // Element: simple content only — a single element child anywhere on the
  // path disqualifies the whole path from value indexing. Comments and
  // PIs contribute nothing to the typed value.
  *id = kNoValue;
  size_t texts = 0;
  for (NodeIndex c = r.first_child; c != kNullNode;
       c = d.node(c).next_sibling) {
    const NodeRecord& child = d.node(c);
    if (child.kind == NodeKind::kElement) return ValueShape::kElementContent;
    if (child.kind == NodeKind::kText && texts++ == 0) *id = child.value_id;
  }
  return texts > 1 ? ValueShape::kPieces : ValueShape::kSingle;
}

Result<std::shared_ptr<const DocumentIndexes>> DocumentIndexes::Build(
    std::shared_ptr<const Document> doc, uint32_t value_kinds) {
  auto idx = std::shared_ptr<DocumentIndexes>(new DocumentIndexes());
  idx->doc_ = std::move(doc);
  idx->value_kinds_ = value_kinds;
  const Document& d = *idx->doc_;
  const NodeIndex num_nodes = static_cast<NodeIndex>(d.NumNodes());

  // --- Pass 1: path synopsis + postings, one preorder sweep. ------------
  idx->nodes_.push_back(SynopsisNode{});  // Synopsis node 0: document root.
  // Synopsis id of each element/attribute node, -1 elsewhere (parents
  // precede children in preorder, so a parent's entry is always set
  // first), and the length of each posting list.
  std::vector<int32_t> syn_of(num_nodes, -1);
  std::vector<uint64_t> row_len(1, num_nodes > 0 ? 1 : 0);
  if (num_nodes > 0) syn_of[0] = 0;
  std::unordered_map<uint64_t, int32_t> edge;

  for (NodeIndex i = 1; i < num_nodes; ++i) {
    if ((i & 4095u) == 0 && fault::Armed()) {
      XQP_RETURN_NOT_OK(fault::MaybeInject("alloc"));
    }
    const NodeRecord& r = d.node(i);
    if (r.kind != NodeKind::kElement && r.kind != NodeKind::kAttribute) {
      continue;
    }
    int32_t parent = syn_of[r.parent];
    uint64_t key = EdgeKey(parent, r.kind, r.name_id);
    auto [it, inserted] =
        edge.try_emplace(key, static_cast<int32_t>(idx->nodes_.size()));
    if (inserted) {
      SynopsisNode s;
      s.name_id = r.name_id;
      s.kind = r.kind;
      s.parent = parent;
      idx->nodes_[parent].children.push_back(it->second);
      idx->nodes_.push_back(std::move(s));
      row_len.push_back(0);
    }
    ++row_len[it->second];
    syn_of[i] = it->second;
  }

  // Postings as CSR: row starts, then one scatter in document order.
  const size_t num_syn = idx->nodes_.size();
  std::vector<uint64_t>& offsets = idx->own_.posting_offsets;
  offsets.resize(num_syn + 1);
  offsets[0] = 0;
  for (size_t s = 0; s < num_syn; ++s) offsets[s + 1] = offsets[s] + row_len[s];
  std::vector<NodeIndex>& data = idx->own_.posting_data;
  data.resize(offsets[num_syn]);
  std::vector<uint64_t> fill(offsets.begin(), offsets.end() - 1);
  for (NodeIndex i = 0; i < num_nodes; ++i) {
    if (syn_of[i] >= 0) data[fill[syn_of[i]]++] = i;
  }

  if (value_kinds != 0) XQP_RETURN_NOT_OK(idx->BuildValues());
  const OwnedArrays& own = idx->own_;
  idx->flat_ = FlatArrays{own.posting_offsets, own.posting_data,
                          own.value_flags,     own.string_offsets,
                          own.string_entries,  own.number_offsets,
                          own.number_entries,  own.side_arena};
  return std::shared_ptr<const DocumentIndexes>(idx);
}

Status DocumentIndexes::BuildValues() {
  // Each path's values are collected as refs, deduplicated into "slots"
  // (distinct refs), ranked by sorting the slots, and emitted with one
  // counting sort — no string is materialized, and equal pool ids are
  // recognized without comparing bytes.
  const Document& d = *doc_;
  const StringPool& pool = d.pool();
  const size_t num_syn = nodes_.size();
  std::vector<uint32_t>& flags = own_.value_flags;
  std::vector<uint64_t>& str_offsets = own_.string_offsets;
  std::vector<StringEntry>& strings = own_.string_entries;
  std::vector<uint64_t>& num_offsets = own_.number_offsets;
  std::vector<NumberEntry>& numbers = own_.number_entries;
  std::vector<char>& arena = own_.side_arena;
  flags.assign(num_syn, 0);
  str_offsets.assign(num_syn + 1, 0);
  num_offsets.assign(num_syn + 1, 0);

  constexpr uint32_t kNoSlot = UINT32_MAX;
  std::vector<uint32_t> slot_of_id(pool.size(), kNoSlot);
  std::vector<uint32_t> slot_ref;    // Ref of each distinct slot.
  std::vector<uint32_t> entry_slot;  // Slot of each entry, posting order.
  std::vector<std::string_view> text;
  std::vector<double> number;
  std::vector<uint32_t> order, rank_of_slot, next;
  std::string pieces;

  for (size_t s = 1; s < num_syn; ++s) {
    str_offsets[s + 1] = str_offsets[s];
    num_offsets[s + 1] = num_offsets[s];
    if (fault::Armed()) XQP_RETURN_NOT_OK(fault::MaybeInject("alloc"));
    const std::span<const NodeIndex> row =
        Row<NodeIndex>(own_.posting_data, own_.posting_offsets,
                       static_cast<int32_t>(s));
    slot_ref.clear();
    entry_slot.clear();
    uint32_t empty_slot = kNoSlot;
    const size_t arena_mark = arena.size();
    bool indexable = true;
    for (NodeIndex n : row) {
      uint32_t id;
      ValueShape shape = ShapeOf(d, n, &id);
      // Element content, or a pool id no ref can name: fall back.
      if (shape == ValueShape::kElementContent ||
          (shape == ValueShape::kSingle && id != kEmptyRef &&
           id >= kSideRefBit)) {
        indexable = false;
        break;
      }
      uint32_t slot;
      if (shape == ValueShape::kSingle && id == kEmptyRef) {
        if (empty_slot == kNoSlot) {
          empty_slot = static_cast<uint32_t>(slot_ref.size());
          slot_ref.push_back(kEmptyRef);
        }
        slot = empty_slot;
      } else if (shape == ValueShape::kSingle) {
        if (slot_of_id[id] == kNoSlot) {
          slot_of_id[id] = static_cast<uint32_t>(slot_ref.size());
          slot_ref.push_back(id);
        }
        slot = slot_of_id[id];
      } else {
        // Several text pieces: copy the value into the side arena, once
        // per node.
        std::string_view value = TextOf(d, n, shape, id, &pieces);
        const uint64_t off = arena.size();
        if (off + sizeof(uint32_t) + value.size() >= kSideRefBit - 1) {
          indexable = false;  // Arena offsets exhausted: fall back.
          break;
        }
        const auto len = static_cast<uint32_t>(value.size());
        arena.insert(arena.end(), reinterpret_cast<const char*>(&len),
                     reinterpret_cast<const char*>(&len) + sizeof(len));
        arena.insert(arena.end(), value.begin(), value.end());
        slot = static_cast<uint32_t>(slot_ref.size());
        slot_ref.push_back(kSideRefBit | static_cast<uint32_t>(off));
      }
      entry_slot.push_back(slot);
    }
    for (uint32_t ref : slot_ref) {
      if (ref < kSideRefBit) slot_of_id[ref] = kNoSlot;
    }
    if (!indexable) {
      arena.resize(arena_mark);
      continue;  // flags[s] stays 0: neither family answers this path.
    }

    // The arena is final for this path: resolve every slot's text.
    text.resize(slot_ref.size());
    for (size_t k = 0; k < slot_ref.size(); ++k) {
      text[k] = RefString(d, arena, slot_ref[k]);
    }
    order.resize(slot_ref.size());

    if (value_kinds_ & kIndexValueString) {
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [&](uint32_t a, uint32_t b) { return text[a] < text[b]; });
      const uint32_t ranks = RankSorted(
          order, [&](uint32_t a, uint32_t b) { return text[a] != text[b]; },
          &rank_of_slot);
      const size_t base = strings.size();
      strings.resize(base + row.size());
      EmitByRank(entry_slot, rank_of_slot, ranks, &next,
                 [&](size_t k, uint32_t pos) {
                   strings[base + pos] = StringEntry{row[k],
                                                     slot_ref[entry_slot[k]]};
                 });
      str_offsets[s + 1] = strings.size();
    }

    // Mirror the runtime exactly: general comparison casts the node's
    // untyped value with CastTo(xs:double), i.e. TryParseXsDouble. Any
    // value that would raise a cast error poisons numeric indexing for the
    // whole path, so the fallback plan gets to raise that error itself.
    bool all_numeric = (value_kinds_ & kIndexValueNumeric) != 0;
    if (all_numeric) {
      number.resize(slot_ref.size());
      for (size_t k = 0; k < slot_ref.size() && all_numeric; ++k) {
        all_numeric = TryParseXsDouble(text[k], &number[k]);
      }
    }
    if (all_numeric) {
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return NumberBefore(number[a], number[b]);
      });
      const uint32_t ranks = RankSorted(
          order,
          [&](uint32_t a, uint32_t b) {
            return NumberBefore(number[a], number[b]);
          },
          &rank_of_slot);
      const size_t base = numbers.size();
      numbers.resize(base + row.size());
      EmitByRank(entry_slot, rank_of_slot, ranks, &next,
                 [&](size_t k, uint32_t pos) {
                   numbers[base + pos] =
                       NumberEntry{number[entry_slot[k]], row[k], 0};
                 });
      num_offsets[s + 1] = numbers.size();
    }
    flags[s] = kIndexable | (all_numeric ? kAllNumeric : 0u);
  }
  return Status::OK();
}

std::optional<DocumentIndexes::ValuePostings> DocumentIndexes::values(
    int32_t s) const {
  if (flat_.value_flags.empty()) return std::nullopt;
  ValuePostings vp;
  vp.indexable = (flat_.value_flags[s] & kIndexable) != 0;
  vp.all_numeric = (flat_.value_flags[s] & kAllNumeric) != 0;
  vp.by_string = Row(flat_.string_entries, flat_.string_offsets, s);
  vp.by_number = Row(flat_.number_entries, flat_.number_offsets, s);
  return vp;
}

std::string_view DocumentIndexes::RefString(const Document& d,
                                            std::span<const char> arena,
                                            uint32_t ref) {
  if (ref == kEmptyRef) return {};
  if (ref < kSideRefBit) return d.pool().Get(ref);
  const size_t off = ref & ~kSideRefBit;
  uint32_t len;
  std::memcpy(&len, arena.data() + off, sizeof(len));
  return std::string_view(arena.data() + off + sizeof(len), len);
}

int32_t DocumentIndexes::FindChild(int32_t s, NodeKind kind,
                                   uint32_t name_id) const {
  for (int32_t c : nodes_[s].children) {
    if (nodes_[c].kind == kind && nodes_[c].name_id == name_id) return c;
  }
  return -1;
}

void DocumentIndexes::FindDescendants(int32_t s, NodeKind kind,
                                      uint32_t name_id,
                                      std::vector<int32_t>* out) const {
  for (int32_t c : nodes_[s].children) {
    if (nodes_[c].kind == kind && nodes_[c].name_id == name_id) {
      out->push_back(c);
    }
    FindDescendants(c, kind, name_id, out);
  }
}

size_t DocumentIndexes::MemoryUsage() const {
  size_t total = nodes_.capacity() * sizeof(SynopsisNode);
  for (const auto& n : nodes_) total += n.children.capacity() * sizeof(int32_t);
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return total + bytes(own_.posting_offsets) + bytes(own_.posting_data) +
         bytes(own_.value_flags) + bytes(own_.string_offsets) +
         bytes(own_.string_entries) + bytes(own_.number_offsets) +
         bytes(own_.number_entries) + bytes(own_.side_arena);
}

}  // namespace xqp
