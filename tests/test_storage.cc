// Persistent snapshot subsystem (storage/): bit-identical save/load
// roundtrips, the crash-atomic write protocol under injected faults, and a
// corruption matrix — bit flips, truncations, zeroed sections, and forged
// offsets/links over every section must come back as kSnapshotCorrupt and
// degrade to a clean re-ingest, never a crash or a wrong answer. Run under
// ASan/UBSan by tools/run_ci.sh.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault.h"
#include "engine.h"
#include "index/document_indexes.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"
#include "tests/test_util.h"
#include "xml/document.h"

namespace xqp {
namespace {

using storage::LoadedSnapshot;
using storage::SectionEntry;
using storage::SectionId;
using storage::SnapshotHeader;
using storage::SnapshotInput;

// Namespaces, attributes, mixed content, comment, PI, CDATA, a pooled
// repeated string, text split by a comment (its value goes to the index's
// side arena), an all-numeric path, and a mixed-type path — every
// snapshot section ends up non-trivial.
constexpr char kXml[] =
    "<bib xmlns:p='urn:pub'>"
    "<book year='1994'><p:title>TCP/IP</p:title><price>65.95</price>"
    "<note>dup</note></book>"
    "<book year='2000'><p:title>Data on the Web</p:title>"
    "<price>39.95</price><note>dup</note></book>"
    "<book year='1999'><p:title>no price</p:title><price>n/a</price>"
    "<!--c--><?pi data?><blob><![CDATA[<raw>]]></blob>"
    "<note>d<!--split-->up</note></book>"
    "</bib>";

std::shared_ptr<const Document> ParseDoc(std::string_view xml = kXml) {
  auto doc = Document::Parse(xml).value();
  doc->set_base_uri("bib.xml");
  return doc;
}

struct Frozen {
  std::shared_ptr<const Document> doc;
  std::shared_ptr<const DocumentIndexes> indexes;
  SnapshotInput input;
};

Frozen FreezeAll(std::string_view xml = kXml) {
  Frozen f;
  f.doc = ParseDoc(xml);
  f.indexes = DocumentIndexes::Build(f.doc, kIndexValueAll).value();
  f.input.doc = f.doc.get();
  f.input.indexes = f.indexes.get();
  f.input.content_hash = storage::HashContent(xml);
  f.input.content_bytes = xml.size();
  return f;
}

Result<LoadedSnapshot> OpenBytes(std::string bytes) {
  return storage::OpenSnapshotBuffer(
      std::make_shared<const std::string>(std::move(bytes)));
}

// --- corruption-matrix plumbing --------------------------------------------

SnapshotHeader ReadHeader(const std::string& bytes) {
  SnapshotHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  return h;
}

std::vector<SectionEntry> ReadTable(const std::string& bytes) {
  SnapshotHeader h = ReadHeader(bytes);
  std::vector<SectionEntry> table(h.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(h),
              h.section_count * sizeof(SectionEntry));
  return table;
}

/// Recomputes table_crc and header_crc after a deliberate header/table
/// edit, so the forged value reaches the validation stage it targets
/// instead of tripping the checksum.
void ResealHeader(std::string* bytes) {
  SnapshotHeader h = ReadHeader(*bytes);
  h.table_crc = storage::Crc32c(bytes->data() + sizeof(h),
                                h.section_count * sizeof(SectionEntry));
  h.header_crc = 0;
  std::memcpy(bytes->data(), &h, sizeof(h));
  h.header_crc = storage::Crc32c(bytes->data(), sizeof(h));
  std::memcpy(bytes->data(), &h, sizeof(h));
}

void WriteTableEntry(std::string* bytes, size_t i, const SectionEntry& e) {
  std::memcpy(bytes->data() + sizeof(SnapshotHeader) + i * sizeof(e), &e,
              sizeof(e));
  ResealHeader(bytes);
}

/// Recomputes section i's payload CRC (and the dependent table/header
/// CRCs) after a deliberate payload edit — forged content that must be
/// caught by structural validation, not the checksum.
void ResealSection(std::string* bytes, size_t i) {
  std::vector<SectionEntry> table = ReadTable(*bytes);
  table[i].crc = storage::Crc32c(bytes->data() + table[i].offset,
                                 table[i].size);
  WriteTableEntry(bytes, i, table[i]);
}

size_t SectionIndex(const std::vector<SectionEntry>& table, SectionId id) {
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].id == static_cast<uint32_t>(id)) return i;
  }
  ADD_FAILURE() << "section " << static_cast<uint32_t>(id) << " missing";
  return 0;
}

/// Every outcome the matrix accepts: a clean typed error. Anything else —
/// crash, hang, wrong answer — fails the suite (or ASan) instead.
void ExpectCorrupt(std::string bytes, const std::string& what) {
  Result<LoadedSnapshot> r = OpenBytes(std::move(bytes));
  ASSERT_FALSE(r.ok()) << what << ": corruption went undetected";
  EXPECT_EQ(r.status().code(), StatusCode::kSnapshotCorrupt)
      << what << ": " << r.status().ToString();
}

// --- roundtrip fidelity -----------------------------------------------------

// --- CRC32C --------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // RFC 3720 appendix B.4.
  std::string zeros(32, '\0');
  std::string ones(32, '\xff');
  std::string up(32, '\0');
  std::string down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  for (bool portable : {false, true}) {
    SCOPED_TRACE(portable ? "portable" : storage::Crc32cImplName());
    auto crc = [portable](const std::string& s) {
      return portable ? storage::Crc32cExtendPortable(0, s.data(), s.size())
                      : storage::Crc32c(s.data(), s.size());
    };
    EXPECT_EQ(crc(zeros), 0x8A9136AAu);
    EXPECT_EQ(crc(ones), 0x62A8AB43u);
    EXPECT_EQ(crc(up), 0x46DD794Eu);
    EXPECT_EQ(crc(down), 0x113FDB5Cu);
    EXPECT_EQ(crc("123456789"), 0xE3069283u);
    EXPECT_EQ(crc(""), 0u);
  }
}

/// Deterministic pseudo-random bytes.
std::string RandomBytes(size_t n, uint64_t seed) {
  std::string out(n, '\0');
  for (char& c : out) {
    seed = seed * 6364136223846793005u + 1442695040888963407u;
    c = static_cast<char>(seed >> 56);
  }
  return out;
}

TEST(Crc32c, DispatchedMatchesPortable) {
  // Every length up to 4096 at every start offset mod 8 covers the serial
  // tail and the short-block three-stream kernel; a few larger lengths
  // cover the long blocks and their transitions.
  const std::string buf = RandomBytes(4096 + 8, 1);
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 4096; ++len) {
      const char* p = buf.data() + off;
      ASSERT_EQ(storage::Crc32c(p, len),
                storage::Crc32cExtendPortable(0, p, len))
          << "off=" << off << " len=" << len;
    }
  }
  const std::string big = RandomBytes(6 * 8192 + 3 * 256 + 29, 2);
  for (size_t len : {size_t{3 * 8192 - 1}, size_t{3 * 8192},
                     size_t{3 * 8192 + 3 * 256 + 7}, big.size() - 3,
                     big.size()}) {
    for (size_t off : {size_t{0}, size_t{3}}) {
      if (off + len > big.size()) continue;
      const char* p = big.data() + off;
      EXPECT_EQ(storage::Crc32c(p, len),
                storage::Crc32cExtendPortable(0, p, len))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32c, ExtendAtEverySplitMatchesOneShot) {
  const std::string buf = RandomBytes(4096, 3);
  const uint32_t whole = storage::Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    uint32_t crc = storage::Crc32cExtend(0, buf.data(), split);
    crc = storage::Crc32cExtend(crc, buf.data() + split, buf.size() - split);
    ASSERT_EQ(crc, whole) << "split=" << split;
  }
  const std::string big = RandomBytes(7 * 8192 + 100, 4);
  const uint32_t big_whole = storage::Crc32c(big.data(), big.size());
  for (size_t split = 0; split <= big.size(); split += 997) {
    uint32_t crc = storage::Crc32cExtend(0, big.data(), split);
    crc = storage::Crc32cExtend(crc, big.data() + split, big.size() - split);
    ASSERT_EQ(crc, big_whole) << "split=" << split;
  }
}

TEST(SnapshotRoundtrip, DocumentIsBitIdentical) {
  Frozen f = FreezeAll();
  std::string bytes = storage::SerializeSnapshot(f.input).value();
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, OpenBytes(bytes));
  const Document& a = *f.doc;
  const Document& b = *loaded.document;

  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  for (NodeIndex i = 0; i < a.NumNodes(); ++i) {
    // Whole-record equality: every link, the region labels, and — because
    // pool ids are written positionally — the pool/name ids themselves.
    EXPECT_EQ(0, std::memcmp(&a.node(i), &b.node(i), sizeof(NodeRecord)))
        << "node " << i;
    EXPECT_EQ(a.value(i), b.value(i)) << "node " << i;
  }
  ASSERT_EQ(a.NumNames(), b.NumNames());
  for (uint32_t n = 0; n < a.NumNames(); ++n) {
    EXPECT_EQ(a.name_at(n).uri, b.name_at(n).uri);
    EXPECT_EQ(a.name_at(n).prefix, b.name_at(n).prefix);
    EXPECT_EQ(a.name_at(n).local, b.name_at(n).local);
  }
  EXPECT_EQ(a.base_uri(), b.base_uri());
  for (NodeIndex i = 0; i < a.NumNodes(); ++i) {
    const auto* na = a.NamespaceDecls(i);
    const auto* nb = b.NamespaceDecls(i);
    ASSERT_EQ(na == nullptr, nb == nullptr) << "node " << i;
    if (na == nullptr) continue;
    ASSERT_EQ(na->size(), nb->size());
    for (size_t d = 0; d < na->size(); ++d) {
      EXPECT_EQ((*na)[d].prefix, (*nb)[d].prefix);
      EXPECT_EQ((*na)[d].uri, (*nb)[d].uri);
    }
  }
  EXPECT_EQ(a.StringValue(0), b.StringValue(0));
  EXPECT_EQ(loaded.content_hash, f.input.content_hash);
  EXPECT_EQ(loaded.content_bytes, f.input.content_bytes);
}

TEST(SnapshotRoundtrip, IndexesAreBitIdentical) {
  Frozen f = FreezeAll();
  std::string bytes = storage::SerializeSnapshot(f.input).value();
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, OpenBytes(bytes));
  ASSERT_NE(loaded.indexes, nullptr);
  EXPECT_EQ(loaded.value_kinds, kIndexValueAll);
  const DocumentIndexes& a = *f.indexes;
  const DocumentIndexes& b = *loaded.indexes;
  ASSERT_EQ(a.NumSynopsisNodes(), b.NumSynopsisNodes());
  for (size_t s = 0; s < a.NumSynopsisNodes(); ++s) {
    const auto& sa = a.synopsis_node(static_cast<int32_t>(s));
    const auto& sb = b.synopsis_node(static_cast<int32_t>(s));
    EXPECT_EQ(sa.name_id, sb.name_id) << "synopsis " << s;
    EXPECT_EQ(sa.kind, sb.kind) << "synopsis " << s;
    EXPECT_EQ(sa.parent, sb.parent) << "synopsis " << s;
    EXPECT_EQ(sa.children, sb.children) << "synopsis " << s;
    const auto pa = a.postings(static_cast<int32_t>(s));
    const auto pb = b.postings(static_cast<int32_t>(s));
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
        << "postings " << s;
    const auto va = a.values(static_cast<int32_t>(s));
    const auto vb = b.values(static_cast<int32_t>(s));
    ASSERT_EQ(va.has_value(), vb.has_value());
    if (!va) continue;
    EXPECT_EQ(va->indexable, vb->indexable) << "values " << s;
    EXPECT_EQ(va->all_numeric, vb->all_numeric) << "values " << s;
    ASSERT_EQ(va->by_string.size(), vb->by_string.size());
    for (size_t v = 0; v < va->by_string.size(); ++v) {
      EXPECT_EQ(va->by_string[v].node, vb->by_string[v].node);
      EXPECT_EQ(va->by_string[v].ref, vb->by_string[v].ref);
      EXPECT_EQ(a.StringValue(va->by_string[v].ref),
                b.StringValue(vb->by_string[v].ref))
          << "by_string " << s << "/" << v;
    }
    ASSERT_EQ(va->by_number.size(), vb->by_number.size());
    for (size_t v = 0; v < va->by_number.size(); ++v) {
      // Bit equality, not ==: NaN payloads must survive too.
      uint64_t da, db;
      std::memcpy(&da, &va->by_number[v].value, 8);
      std::memcpy(&db, &vb->by_number[v].value, 8);
      EXPECT_EQ(da, db) << "by_number " << s << "/" << v;
      EXPECT_EQ(va->by_number[v].node, vb->by_number[v].node);
    }
  }
  // The adopted index must serve the loaded document, not the original.
  EXPECT_EQ(b.doc_ptr().get(), loaded.document.get());
}

TEST(SnapshotRoundtrip, ReserializingALoadedSnapshotIsByteIdentical) {
  Frozen f = FreezeAll();
  std::string bytes = storage::SerializeSnapshot(f.input).value();
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, OpenBytes(bytes));
  SnapshotInput again;
  again.doc = loaded.document.get();
  again.indexes = loaded.indexes.get();
  again.content_hash = loaded.content_hash;
  again.content_bytes = loaded.content_bytes;
  EXPECT_EQ(storage::SerializeSnapshot(again).value(), bytes);
}

TEST(SnapshotRoundtrip, MinimalDocumentWithoutIndexes) {
  auto doc = ParseDoc("<only/>");
  SnapshotInput input;
  input.doc = doc.get();
  std::string bytes = storage::SerializeSnapshot(input).value();
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded, OpenBytes(bytes));
  EXPECT_EQ(loaded.indexes, nullptr);
  EXPECT_EQ(loaded.document->NumNodes(), doc->NumNodes());
  EXPECT_EQ(loaded.document->StringValue(0), doc->StringValue(0));
}

TEST(SnapshotRoundtrip, FileRoundtripServesQueries) {
  std::string dir = ::testing::TempDir() + "/xqp_snap_file_rt";
  ::mkdir(dir.c_str(), 0755);
  std::string path = dir + "/bib.xqps";
  Frozen f = FreezeAll();
  XQP_ASSERT_OK(storage::WriteSnapshotFile(path, f.input));
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot loaded,
                           storage::OpenSnapshot(path));
  EXPECT_EQ(loaded.mapped_bytes, std::filesystem::file_size(path));
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.RegisterDocument("bib.xml", loaded.document));
  XQP_ASSERT_OK_AND_ASSIGN(
      Sequence result,
      engine.Execute("count(doc('bib.xml')//book[number(price) < 50])"));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].AsAtomic().Lexical(), "1");
}

// --- corruption matrix ------------------------------------------------------

TEST(SnapshotCorruption, BitFlipInEverySectionDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  std::vector<SectionEntry> table = ReadTable(good);
  for (const SectionEntry& e : table) {
    ASSERT_GT(e.size, 0u) << "section " << e.id << " unexpectedly empty";
    for (uint64_t at : {uint64_t{0}, e.size / 2, e.size - 1}) {
      std::string bad = good;
      bad[e.offset + at] ^= 0x40;
      ExpectCorrupt(std::move(bad), "flip in section " +
                                        std::to_string(e.id) + " at +" +
                                        std::to_string(at));
    }
  }
}

TEST(SnapshotCorruption, BitFlipInHeaderAndTableDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const size_t covered =
      sizeof(SnapshotHeader) + ReadTable(good).size() * sizeof(SectionEntry);
  for (size_t at = 0; at < covered; ++at) {
    std::string bad = good;
    bad[at] ^= 0x01;
    ExpectCorrupt(std::move(bad), "flip at header/table byte " +
                                      std::to_string(at));
  }
}

TEST(SnapshotCorruption, ZeroedSectionsDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  for (const SectionEntry& e : ReadTable(good)) {
    std::string bad = good;
    bool was_zero = true;
    for (uint64_t i = 0; i < e.size; ++i) {
      was_zero = was_zero && bad[e.offset + i] == 0;
      bad[e.offset + i] = 0;
    }
    ASSERT_FALSE(was_zero) << "section " << e.id << " carries no entropy";
    ExpectCorrupt(std::move(bad), "zeroed section " + std::to_string(e.id));
  }
}

TEST(SnapshotCorruption, TruncationsDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const size_t table_end =
      sizeof(SnapshotHeader) + ReadTable(good).size() * sizeof(SectionEntry);
  for (size_t len : {size_t{0}, size_t{1}, size_t{7},
                     sizeof(SnapshotHeader) - 1, sizeof(SnapshotHeader),
                     table_end - 1, table_end, good.size() / 2,
                     good.size() - 1}) {
    ExpectCorrupt(good.substr(0, len),
                  "truncated to " + std::to_string(len));
  }
}

TEST(SnapshotCorruption, WrongMagicVersionEndianLayoutDetected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  auto mutate = [&](auto fn, const char* what) {
    std::string bad = good;
    SnapshotHeader h = ReadHeader(bad);
    fn(&h);
    std::memcpy(bad.data(), &h, sizeof(h));
    ResealHeader(&bad);  // Valid CRCs: the field check itself must fire.
    ExpectCorrupt(std::move(bad), what);
  };
  mutate([](SnapshotHeader* h) { h->magic[0] = 'Y'; }, "magic");
  mutate([](SnapshotHeader* h) { h->version = 99; }, "version");
  mutate([](SnapshotHeader* h) { h->endian = 0x04030201; }, "endianness");
  mutate([](SnapshotHeader* h) { h->arch_bits ^= 96; }, "arch width");
  mutate([](SnapshotHeader* h) { h->node_record_size += 4; },
         "node record layout");
  mutate([](SnapshotHeader* h) { h->file_size += 8; }, "file size");
  mutate([](SnapshotHeader* h) { h->section_count += 1; }, "section count");
  mutate([](SnapshotHeader* h) { h->flags = 0xff; }, "unknown flags");
  mutate([](SnapshotHeader* h) { h->reserved = 1; }, "reserved field");
}

TEST(SnapshotCorruption, ForgedSectionTableRejected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const std::vector<SectionEntry> table = ReadTable(good);
  auto forge = [&](size_t i, auto fn, const char* what) {
    std::string bad = good;
    SectionEntry e = table[i];
    fn(&e);
    WriteTableEntry(&bad, i, e);  // Reseals CRCs: bounds checks must fire.
    ExpectCorrupt(std::move(bad), what);
  };
  forge(0, [&](SectionEntry* e) { e->offset = good.size(); },
        "offset past the end");
  forge(0, [&](SectionEntry* e) { e->offset = UINT64_MAX - 4; e->size = 64; },
        "offset+size overflow");
  forge(0, [&](SectionEntry* e) { e->size = good.size(); },
        "size past the end");
  forge(0, [&](SectionEntry* e) { e->offset += 1; }, "misaligned offset");
  forge(1, [&](SectionEntry* e) { e->id = table[0].id; },
        "duplicate section id");
  forge(1, [&](SectionEntry* e) { e->id = 999; }, "unknown section id");
  forge(SectionIndex(table, SectionId::kNodes),
        [&](SectionEntry* e) { e->count += 1; },
        "node count disagreeing with section size");
}

TEST(SnapshotCorruption, ForgedNodeLinksRejected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const std::vector<SectionEntry> table = ReadTable(good);
  const size_t nodes_i = SectionIndex(table, SectionId::kNodes);
  const SectionEntry nodes = table[nodes_i];
  ASSERT_GE(nodes.count, 3u);
  auto forge = [&](size_t rec, auto fn, const std::string& what) {
    std::string bad = good;
    NodeRecord n;
    std::memcpy(&n, bad.data() + nodes.offset + rec * sizeof(NodeRecord),
                sizeof(n));
    fn(&n);
    std::memcpy(bad.data() + nodes.offset + rec * sizeof(NodeRecord), &n,
                sizeof(n));
    ResealSection(&bad, nodes_i);  // CRC-clean: structural replay must fire.
    ExpectCorrupt(std::move(bad), what);
  };
  const auto count = static_cast<NodeIndex>(nodes.count);
  forge(1, [&](NodeRecord* n) { n->parent = count + 7; },
        "parent out of range");
  forge(1, [&](NodeRecord* n) { n->end = count + 7; }, "end out of range");
  forge(1, [&](NodeRecord* n) { n->first_child = 1; },
        "self-referential child link");
  forge(2, [&](NodeRecord* n) { n->level ^= 5; }, "wrong level");
  forge(1, [&](NodeRecord* n) { n->next_sibling = 2; },
        "sibling link into own subtree");
  forge(2, [&](NodeRecord* n) { n->kind = static_cast<NodeKind>(200); },
        "kind out of range");
  forge(2, [&](NodeRecord* n) { n->name_id = 0xffff0000; },
        "name id out of range");
  forge(2, [&](NodeRecord* n) { n->value_id = 0x7fff0000; },
        "value id out of range");
}

TEST(SnapshotCorruption, ForgedPostingsRejected) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const std::vector<SectionEntry> table = ReadTable(good);
  const size_t data_i = SectionIndex(table, SectionId::kPostingsData);
  const SectionEntry data = table[data_i];
  ASSERT_GE(data.count, 2u);
  {
    // Non-increasing postings within a synopsis row.
    std::string bad = good;
    uint32_t huge = 0xfffffff0;
    std::memcpy(bad.data() + data.offset, &huge, sizeof(huge));
    ResealSection(&bad, data_i);
    ExpectCorrupt(std::move(bad), "posting out of node range");
  }
  {
    const size_t off_i = SectionIndex(table, SectionId::kPostingsOffsets);
    std::string bad = good;
    uint64_t evil = data.count + 100;  // CSR row start past the payload.
    std::memcpy(bad.data() + table[off_i].offset + 8, &evil, sizeof(evil));
    ResealSection(&bad, off_i);
    ExpectCorrupt(std::move(bad), "CSR offset past postings payload");
  }
  // A posting of another name, or another kind, still in document order:
  // /bib/book/price's first posting moved onto the preceding p:title
  // element, then onto that title's text node.
  const DocumentIndexes& idx = *f.indexes;
  const Document& doc = *f.doc;
  const int32_t bib = idx.FindChild(0, NodeKind::kElement,
                                    doc.FindNameId("", "bib"));
  const int32_t book = idx.FindChild(bib, NodeKind::kElement,
                                     doc.FindNameId("", "book"));
  const int32_t price = idx.FindChild(book, NodeKind::kElement,
                                      doc.FindNameId("", "price"));
  ASSERT_GE(price, 0);
  const uint64_t first = idx.flat().posting_offsets[price];
  const NodeIndex price_node = idx.postings(price)[0];
  const NodeIndex title_node = doc.node(price_node).parent + 2;  // @year, title
  ASSERT_EQ(doc.name(title_node).local, "title");
  for (NodeIndex forged : {title_node, title_node + 1}) {
    std::string bad = good;
    std::memcpy(bad.data() + data.offset + first * sizeof(NodeIndex), &forged,
                sizeof(forged));
    ResealSection(&bad, data_i);
    ExpectCorrupt(std::move(bad), "posting of another name or kind");
  }
  {
    // The first title and the first price trade rows: every node is still
    // listed once, in document order, under the right parent path. (No
    // value families here: they would catch the swap on their own.)
    auto bare = DocumentIndexes::Build(f.doc, 0).value();
    SnapshotInput input = f.input;
    input.indexes = bare.get();
    const std::string plain = storage::SerializeSnapshot(input).value();
    const std::vector<SectionEntry> plain_table = ReadTable(plain);
    const size_t plain_i = SectionIndex(plain_table, SectionId::kPostingsData);
    const int32_t title = bare->FindChild(book, NodeKind::kElement,
                                          doc.node(title_node).name_id);
    ASSERT_GE(title, 0);
    ASSERT_EQ(bare->postings(title)[0], title_node);
    ASSERT_EQ(bare->postings(price)[0], price_node);
    const uint64_t at = plain_table[plain_i].offset;
    std::string bad = plain;
    std::memcpy(bad.data() + at +
                    bare->flat().posting_offsets[price] * sizeof(NodeIndex),
                &title_node, sizeof(NodeIndex));
    std::memcpy(bad.data() + at +
                    bare->flat().posting_offsets[title] * sizeof(NodeIndex),
                &price_node, sizeof(NodeIndex));
    ResealSection(&bad, plain_i);
    ExpectCorrupt(std::move(bad), "postings swapped between paths");
  }
}

// Split text, a NaN, a string path, a value repeated on another path and a
// path with element content — the shapes every value-family check covers.
constexpr char kValueXml[] =
    "<r><n>NaN</n><n>2</n><n>1</n>"
    "<s>b</s><s>a</s><s>c<!--x-->d</s>"
    "<t>a</t><e><x/></e></r>";

TEST(SnapshotCorruption, ForgedValuePostingsRejected) {
  Frozen f = FreezeAll(kValueXml);
  const std::string good = storage::SerializeSnapshot(f.input).value();
  XQP_ASSERT_OK(OpenBytes(good).status());
  const std::vector<SectionEntry> table = ReadTable(good);
  const DocumentIndexes& idx = *f.indexes;
  const Document& doc = *f.doc;
  const int32_t r = idx.FindChild(0, NodeKind::kElement, doc.FindNameId("", "r"));
  auto path = [&](const char* name) {
    return idx.FindChild(r, NodeKind::kElement, doc.FindNameId("", name));
  };
  const int32_t n = path("n");
  const int32_t s = path("s");
  const int32_t e = path("e");
  ASSERT_GE(n, 0);
  ASSERT_GE(s, 0);
  ASSERT_GE(e, 0);
  using Entry = DocumentIndexes::StringEntry;
  using Number = DocumentIndexes::NumberEntry;
  const auto strings = idx.values(s)->by_string;  // a, b, cd
  const auto numbers = idx.values(n)->by_number;  // 1, 2, NaN
  ASSERT_EQ(strings.size(), 3u);
  ASSERT_EQ(numbers.size(), 3u);
  ASSERT_GE(strings[2].ref, DocumentIndexes::kSideRefBit);  // "cd", split.

  // Rewrites element `at` of section `id` (an array of T) and reseals.
  auto forge = [&](SectionId id, uint64_t at, const auto& value,
                   const std::string& what) {
    const size_t i = SectionIndex(table, id);
    std::string bad = good;
    std::memcpy(bad.data() + table[i].offset + at * sizeof(value), &value,
                sizeof(value));
    ResealSection(&bad, i);
    ExpectCorrupt(std::move(bad), what);
  };
  const uint64_t s0 = idx.flat().string_offsets[s];
  const uint64_t n0 = idx.flat().number_offsets[n];

  // Unsorted entries: each still pairs a node with its own value.
  forge(SectionId::kStringEntries, s0, strings[1], "strings out of order");
  forge(SectionId::kStringEntries, s0 + 1, strings[0],
        "duplicate string entry");
  // A foreign node: the <t> element, whose value is "a" too, listed on the
  // <s> path in place of <s>a</s>.
  const int32_t t = path("t");
  ASSERT_GE(t, 0);
  ASSERT_EQ(idx.values(t)->by_string[0].ref, strings[0].ref);
  forge(SectionId::kStringEntries, s0,
        Entry{idx.postings(t)[0], strings[0].ref}, "foreign node");
  // A wrong value reference that keeps the row sorted: "a"'s node bound to
  // "1" (an <n> value, which also sorts before "b").
  const uint32_t one = idx.values(n)->by_string[0].ref;
  ASSERT_EQ(idx.StringValue(one), "1");
  forge(SectionId::kStringEntries, s0, Entry{strings[0].node, one},
        "wrong value reference");
  // A side-arena value where the node has a pooled one.
  forge(SectionId::kStringEntries, s0,
        Entry{strings[0].node, strings[2].ref}, "side ref for pooled value");
  // An out-of-bounds side-arena offset.
  forge(SectionId::kStringEntries, s0 + 2,
        Entry{strings[2].node,
              DocumentIndexes::kSideRefBit |
                  static_cast<uint32_t>(idx.flat().side_arena.size() + 64)},
        "side-arena offset out of bounds");
  // A NaN before a number.
  forge(SectionId::kNumberEntries, n0 + 1, numbers[2], "NaN before a number");
  // A number that is not the node's value.
  forge(SectionId::kNumberEntries, n0, Number{0.5, numbers[0].node, 0},
        "wrong number");
  // The element-content path claimed indexable.
  forge(SectionId::kValueFlags, e,
        uint32_t{DocumentIndexes::kIndexable | DocumentIndexes::kAllNumeric},
        "element content claimed indexable");

  // A file of the previous format, otherwise intact, is refused.
  std::string v2 = good;
  SnapshotHeader h = ReadHeader(v2);
  h.version = 2;
  std::memcpy(v2.data(), &h, sizeof(h));
  ResealHeader(&v2);
  ExpectCorrupt(std::move(v2), "version-2 file");
}

TEST(SnapshotCorruption, EveryStrideOfBitFlipsIsCrashFree) {
  Frozen f = FreezeAll();
  const std::string good = storage::SerializeSnapshot(f.input).value();
  const std::string expect = f.doc->StringValue(0);
  // A flip in inter-section alignment padding is legitimately undetectable
  // (padding carries no data); everything else must be caught. Either way
  // the invariant is: valid load with identical content, or a typed error.
  for (size_t at = 0; at < good.size(); at += 131) {
    for (uint8_t bit : {uint8_t{1}, uint8_t{0x80}}) {
      std::string bad = good;
      bad[at] ^= bit;
      Result<LoadedSnapshot> r = OpenBytes(std::move(bad));
      if (r.ok()) {
        EXPECT_EQ(r.value().document->StringValue(0), expect)
            << "silent corruption at byte " << at;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kSnapshotCorrupt)
            << "byte " << at << ": " << r.status().ToString();
      }
    }
  }
}

TEST(SnapshotCorruption, GarbageBuffersAreCleanErrors) {
  ExpectCorrupt(std::string(), "empty buffer");
  ExpectCorrupt(std::string(3, 'x'), "tiny garbage");
  ExpectCorrupt(std::string(4096, '\0'), "zero page");
  ExpectCorrupt(std::string(4096, '\xff'), "ff page");
  std::string fake_magic = "XQPSNAP1";
  fake_magic.resize(256, '\x5a');
  ExpectCorrupt(std::move(fake_magic), "magic-only garbage");
}

// --- crash-atomic write protocol --------------------------------------------

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

size_t DirEntryCount(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SnapshotWrite, FaultAtEveryStageLeavesNoPartialFile) {
  Frozen f = FreezeAll();
  for (uint64_t stage : {1, 2, 3}) {
    std::string dir = FreshDir("xqp_snap_write_fault");
    std::string path = dir + "/doc.xqps";
    fault::ScopedFault fault("storage.write", stage, StatusCode::kIoError);
    Status st = storage::WriteSnapshotFile(path, f.input);
    ASSERT_FALSE(st.ok()) << "stage " << stage;
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    // No target, and no orphaned temp either — the failure path unlinks.
    EXPECT_EQ(DirEntryCount(dir), 0u) << "stage " << stage;
  }
}

TEST(SnapshotWrite, FaultedOverwriteKeepsThePreviousSnapshot) {
  std::string dir = FreshDir("xqp_snap_overwrite_fault");
  std::string path = dir + "/doc.xqps";
  Frozen v1 = FreezeAll();
  XQP_ASSERT_OK(storage::WriteSnapshotFile(path, v1.input));
  Frozen v2 = FreezeAll("<other><content/></other>");
  for (uint64_t stage : {1, 2, 3}) {
    fault::ScopedFault fault("storage.write", stage, StatusCode::kIoError);
    ASSERT_FALSE(storage::WriteSnapshotFile(path, v2.input).ok());
  }
  XQP_ASSERT_OK_AND_ASSIGN(LoadedSnapshot still,
                           storage::OpenSnapshot(path));
  EXPECT_EQ(still.content_hash, v1.input.content_hash);
  EXPECT_EQ(still.document->NumNodes(), v1.doc->NumNodes());
  EXPECT_EQ(DirEntryCount(dir), 1u);  // Just the intact snapshot.
}

TEST(SnapshotWrite, MapAndCrcFaultSitesFire) {
  std::string dir = FreshDir("xqp_snap_map_fault");
  std::string path = dir + "/doc.xqps";
  Frozen f = FreezeAll();
  XQP_ASSERT_OK(storage::WriteSnapshotFile(path, f.input));
  {
    fault::ScopedFault fault("storage.map", 1, StatusCode::kIoError);
    Result<LoadedSnapshot> r = storage::OpenSnapshot(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  {
    // An injected checksum failure surfaces as corruption, like real rot.
    fault::ScopedFault fault("storage.crc", 1);
    Result<LoadedSnapshot> r = storage::OpenSnapshot(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kSnapshotCorrupt);
  }
  XQP_ASSERT_OK(storage::OpenSnapshot(path).status());  // Disarmed: fine.
}

// --- engine integration -----------------------------------------------------

TEST(EngineSnapshot, ParseAndRegisterPersistsThenReloads) {
  std::string dir = FreshDir("xqp_snap_engine_rt");
  EngineOptions opts;
  opts.snapshot_dir = dir;
  std::string expect;
  {
    XQueryEngine writer(opts);
    XQP_ASSERT_OK(writer.ParseAndRegister("bib.xml", kXml).status());
    EXPECT_TRUE(std::filesystem::exists(writer.SnapshotPathFor("bib.xml")));
    XQP_ASSERT_OK_AND_ASSIGN(
        Sequence r, writer.Execute("count(doc('bib.xml')//book)"));
    expect = r[0].AsAtomic().Lexical();
  }
  XQueryEngine reader(opts);
  XQP_ASSERT_OK(reader.ParseAndRegister("bib.xml", kXml).status());
  // The reload adopted the snapshot's indexes: they are cached before any
  // query ran.
  EXPECT_NE(reader.PeekDocumentIndexes("bib.xml"), nullptr);
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           reader.Execute("count(doc('bib.xml')//book)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), expect);
}

TEST(EngineSnapshot, StaleSnapshotIsReplacedNotServed) {
  std::string dir = FreshDir("xqp_snap_engine_stale");
  EngineOptions opts;
  opts.snapshot_dir = dir;
  {
    XQueryEngine writer(opts);
    XQP_ASSERT_OK(
        writer.ParseAndRegister("d.xml", "<r><a/><a/></r>").status());
  }
  XQueryEngine reader(opts);
  // Same URI, different content: the persisted snapshot must not win.
  XQP_ASSERT_OK(
      reader.ParseAndRegister("d.xml", "<r><a/><a/><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           reader.Execute("count(doc('d.xml')//a)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), "3");
  // And the snapshot on disk now reflects the new content.
  XQP_ASSERT_OK_AND_ASSIGN(
      LoadedSnapshot snap,
      storage::OpenSnapshot(reader.SnapshotPathFor("d.xml")));
  EXPECT_EQ(snap.content_hash,
            storage::HashContent("<r><a/><a/><a/></r>"));
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  bytes.resize(std::filesystem::file_size(path));
  FILE* in = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), in), bytes.size());
  std::fclose(in);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* out = std::fopen(path.c_str(), "wb");
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);
}

TEST(EngineSnapshot, CorruptSnapshotDegradesToReingest) {
  struct Damage {
    const char* what;
    void (*apply)(std::string* bytes);
  };
  const Damage damages[] = {
      {"rotted byte",
       [](std::string* bytes) { (*bytes)[bytes->size() / 2] ^= 0x10; }},
      // A well-formed file of the previous format: only the version
      // differs, and the header CRC is valid for it.
      {"version-1 header",
       [](std::string* bytes) {
         SnapshotHeader h = ReadHeader(*bytes);
         h.version = 1;
         h.header_crc = 0;
         h.header_crc = storage::Crc32c(&h, sizeof(h));
         std::memcpy(bytes->data(), &h, sizeof(h));
       }},
      // Version 2 stored the value index as copied strings.
      {"version-2 header",
       [](std::string* bytes) {
         SnapshotHeader h = ReadHeader(*bytes);
         h.version = 2;
         h.header_crc = 0;
         h.header_crc = storage::Crc32c(&h, sizeof(h));
         std::memcpy(bytes->data(), &h, sizeof(h));
       }},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.what);
    std::string dir = FreshDir("xqp_snap_engine_corrupt");
    EngineOptions opts;
    opts.snapshot_dir = dir;
    opts.collect_stats = true;
    {
      XQueryEngine writer(opts);
      XQP_ASSERT_OK(writer.ParseAndRegister("bib.xml", kXml).status());
    }
    XQueryEngine reader(opts);
    const std::string path = reader.SnapshotPathFor("bib.xml");
    std::string bytes = ReadFileBytes(path);
    damage.apply(&bytes);
    WriteFileBytes(path, bytes);

    metrics::MetricsSnapshot before =
        metrics::MetricsRegistry::Global().Snapshot();
    XQP_ASSERT_OK(reader.ParseAndRegister("bib.xml", kXml).status());
    XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                             reader.Execute("count(doc('bib.xml')//book)"));
    EXPECT_EQ(r[0].AsAtomic().Lexical(), "3");
    metrics::MetricsSnapshot delta =
        metrics::MetricsRegistry::Global().Snapshot().Delta(before);
    EXPECT_EQ(delta.counters["storage.corrupt"], 1u);
    EXPECT_EQ(delta.counters["storage.loads"], 0u);
    EXPECT_EQ(delta.counters["storage.saves"], 1u);  // Repaired on the way.
    // The rewritten snapshot is a valid current-version file...
    XQP_ASSERT_OK(storage::OpenSnapshot(path).status());
    EXPECT_EQ(ReadHeader(ReadFileBytes(path)).version,
              storage::kSnapshotVersion);

    // ...that the next engine adopts instead of parsing.
    XQueryEngine next(opts);
    before = metrics::MetricsRegistry::Global().Snapshot();
    XQP_ASSERT_OK(next.ParseAndRegister("bib.xml", kXml).status());
    delta = metrics::MetricsRegistry::Global().Snapshot().Delta(before);
    EXPECT_EQ(delta.counters["storage.loads"], 1u);
    EXPECT_EQ(delta.counters["storage.corrupt"], 0u);
    for (const char* q : {"count(doc('bib.xml')//book)",
                          "doc('bib.xml')//book[@year > 1995]"}) {
      XQP_ASSERT_OK_AND_ASSIGN(std::string want,
                               reader.Compile(q).value()->ExecuteToXml());
      XQP_ASSERT_OK_AND_ASSIGN(std::string got,
                               next.Compile(q).value()->ExecuteToXml());
      EXPECT_EQ(got, want) << q;
    }
  }
}

TEST(EngineSnapshot, LoadDocumentSnapshotFallsBackOnMissingFile) {
  XQueryEngine engine;
  std::string missing = ::testing::TempDir() + "/xqp_no_such.xqps";
  // Without a fallback the error propagates...
  EXPECT_FALSE(engine.LoadDocumentSnapshot("d.xml", missing).ok());
  // ...with one, ingestion succeeds and the document serves queries.
  XQP_ASSERT_OK(
      engine.LoadDocumentSnapshot("d.xml", missing, "<r><a/></r>").status());
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           engine.Execute("count(doc('d.xml')//a)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), "1");
}

TEST(EngineSnapshot, SaveSnapshotThenLoadDocumentSnapshot) {
  std::string dir = FreshDir("xqp_snap_save_load");
  std::string path = dir + "/explicit.xqps";
  XQueryEngine a;
  XQP_ASSERT_OK(a.ParseAndRegister("bib.xml", kXml).status());
  XQP_ASSERT_OK(a.SaveSnapshot("bib.xml", path));
  XQueryEngine b;
  XQP_ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Document> doc,
                           b.LoadDocumentSnapshot("bib.xml", path));
  EXPECT_EQ(doc->base_uri(), "bib.xml");
  XQP_ASSERT_OK_AND_ASSIGN(Sequence r,
                           b.Execute("count(doc('bib.xml')//book)"));
  EXPECT_EQ(r[0].AsAtomic().Lexical(), "3");
  // The explicit save holds the document and its indexes, nothing else...
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(ReadHeader(bytes).flags, storage::kFlagHasIndexes);
  std::vector<uint32_t> ids;
  for (const SectionEntry& e : ReadTable(bytes)) ids.push_back(e.id);
  std::vector<uint32_t> want;
  for (SectionId id :
       {SectionId::kNodes, SectionId::kNames, SectionId::kPoolIndex,
        SectionId::kPoolArena, SectionId::kNsDecls, SectionId::kBaseUri,
        SectionId::kSynopsis, SectionId::kPostingsOffsets,
        SectionId::kPostingsData, SectionId::kValueFlags,
        SectionId::kStringOffsets, SectionId::kStringEntries,
        SectionId::kNumberOffsets, SectionId::kNumberEntries,
        SectionId::kValueArena}) {
    want.push_back(static_cast<uint32_t>(id));
  }
  EXPECT_EQ(ids, want);
  // ...so it is the same format, and size, as the ParseAndRegister
  // write-back of the same document under the same options.
  EngineOptions persisting;
  persisting.snapshot_dir = dir;
  XQueryEngine c(persisting);
  XQP_ASSERT_OK(c.ParseAndRegister("bib.xml", kXml).status());
  EXPECT_EQ(std::filesystem::file_size(c.SnapshotPathFor("bib.xml")),
            bytes.size());
}

TEST(EngineSnapshot, SnapshotPathsAreDistinctAndSafe) {
  EngineOptions opts;
  opts.snapshot_dir = "/tmp/snaps";
  XQueryEngine engine(opts);
  std::string a = engine.SnapshotPathFor("a/b.xml");
  std::string b = engine.SnapshotPathFor("a_b.xml");
  EXPECT_NE(a, b);  // Sanitization must not merge distinct URIs.
  EXPECT_EQ(a.find('/', strlen("/tmp/snaps/")), std::string::npos)
      << a << " escapes the snapshot directory";
  EXPECT_EQ(a.substr(0, 11), "/tmp/snaps/");
  EXPECT_EQ(a.substr(a.size() - 5), ".xqps");
}

// --- XQP_FAULT spec validation (the satellite bugfix) -----------------------

TEST(FaultSpec, ValidSpecsArmExactly) {
  XQP_ASSERT_OK(fault::ArmFromSpec("parse.next:2:io"));
  EXPECT_TRUE(fault::Armed());
  EXPECT_TRUE(fault::MaybeInject("parse.next").ok());  // Hit 1 of 2.
  Status st = fault::MaybeInject("parse.next");        // Hit 2 fires.
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_FALSE(fault::Armed());
  fault::Disarm();

  XQP_ASSERT_OK(fault::ArmFromSpec("storage.write:1"));
  EXPECT_EQ(fault::MaybeInject("storage.write").code(),
            StatusCode::kInternal);
  fault::Disarm();
  XQP_ASSERT_OK(fault::ArmFromSpec("storage.crc:1:exhausted"));
  fault::Disarm();
  XQP_ASSERT_OK(fault::ArmFromSpec("vm.compile:10:cancelled"));
  fault::Disarm();
}

TEST(FaultSpec, MalformedSpecsRejectedWithoutArming) {
  const char* bad[] = {
      "",                      // Empty.
      "alloc",                 // No nth.
      ":3",                    // No site.
      "alloc:",                // Empty nth.
      "alloc:x",               // Non-numeric nth.
      "alloc:3x",              // Trailing garbage in nth.
      "alloc:0",               // Zero nth.
      "alloc:1:bogus",         // Unknown code.
      "no.such.site:1",        // Unknown site.
      "storage:1",             // Prefix of a site, not a site.
  };
  for (const char* spec : bad) {
    Status st = fault::ArmFromSpec(spec);
    EXPECT_FALSE(st.ok()) << "accepted: \"" << spec << "\"";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.ToString().find("bad fault spec"), std::string::npos)
        << st.ToString();
    EXPECT_FALSE(fault::Armed()) << spec;
  }
  // The unknown-site message teaches the valid vocabulary.
  Status st = fault::ArmFromSpec("no.such.site:1");
  EXPECT_NE(st.ToString().find("storage.write"), std::string::npos)
      << st.ToString();
}

using FaultSpecDeathTest = ::testing::Test;

TEST(FaultSpecDeathTest, MalformedEnvIsAStartupError) {
  // A typo'd XQP_FAULT must kill the process (exit 2) with the reason —
  // the regression this guards: it used to be silently ignored, running
  // the whole "fault" test unfaulted.
  EXPECT_EXIT(
      {
        setenv("XQP_FAULT", "no.such.site:1", 1);
        fault::ArmFromEnv();
      },
      ::testing::ExitedWithCode(2), "unknown site");
  EXPECT_EXIT(
      {
        setenv("XQP_FAULT", "alloc:zero", 1);
        fault::ArmFromEnv();
      },
      ::testing::ExitedWithCode(2), "not a number");
}

}  // namespace
}  // namespace xqp
