#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/fault.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"

namespace xqp {
namespace storage {
namespace {

/// Little-endian-agnostic byte sink for the variable-length sections. All
/// multi-byte fields are written by memcpy in native order — the header's
/// endian tag rejects cross-endian files, so no swapping is ever needed.
class ByteSink {
 public:
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(std::string_view s) { PutRaw(s.data(), s.size()); }
  void PutRaw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

void PutQName(ByteSink* out, const QName& q) {
  out->PutU32(static_cast<uint32_t>(q.uri.size()));
  out->PutU32(static_cast<uint32_t>(q.prefix.size()));
  out->PutU32(static_cast<uint32_t>(q.local.size()));
  out->PutBytes(q.uri);
  out->PutBytes(q.prefix);
  out->PutBytes(q.local);
}

/// One contiguous run of payload bytes, written from where it lives.
struct Piece {
  const void* data;
  size_t size;
};

/// A whole snapshot file as a list of pieces — header, section table,
/// alignment padding and section payloads — plus the storage of the few
/// sections built here. The node table, pool strings and index arrays are
/// written and checksummed from their own memory; nothing is staged in one
/// buffer. Pieces point into the layout itself, so it never moves.
class Layout {
 public:
  Layout() = default;
  Layout(const Layout&) = delete;
  Layout& operator=(const Layout&) = delete;

  /// A section whose payload lives elsewhere and outlives the layout.
  void AddPieces(SectionId id, uint64_t count, std::vector<Piece> pieces) {
    sections_.push_back(Section{id, count, std::move(pieces)});
  }
  void AddView(SectionId id, uint64_t count, const void* data, size_t size) {
    AddPieces(id, count, {Piece{data, size}});
  }
  template <typename T>
  void AddSpan(SectionId id, std::span<const T> span) {
    AddView(id, span.size(), span.data(), span.size_bytes());
  }
  /// A section built by the writer; the layout keeps its bytes.
  void AddOwned(SectionId id, uint64_t count, std::string bytes) {
    owned_.push_back(std::make_unique<std::string>(std::move(bytes)));
    AddView(id, count, owned_.back()->data(), owned_.back()->size());
  }

  /// Places every section at an 8-byte-aligned offset, checksums each
  /// payload, and seals the table and the header.
  void Finish(SnapshotHeader header) {
    const size_t table_bytes = sections_.size() * sizeof(SectionEntry);
    uint64_t cursor = sizeof(SnapshotHeader) + table_bytes;
    table_.clear();
    for (const Section& s : sections_) {
      cursor = (cursor + 7) & ~uint64_t{7};
      uint32_t crc = 0;
      uint64_t size = 0;
      for (const Piece& p : s.pieces) {
        crc = Crc32cExtend(crc, p.data, p.size);
        size += p.size;
      }
      table_.push_back(SectionEntry{static_cast<uint32_t>(s.id), crc, cursor,
                                    size, s.count});
      cursor += size;
    }
    header.section_count = static_cast<uint32_t>(sections_.size());
    header.file_size = cursor;
    header.table_crc = Crc32c(table_.data(), table_bytes);
    header.header_crc = 0;
    header.header_crc = Crc32c(&header, sizeof(header));
    header_ = header;

    static constexpr char kZeros[8] = {};
    file_.clear();
    file_.push_back(Piece{&header_, sizeof(header_)});
    file_.push_back(Piece{table_.data(), table_bytes});
    uint64_t at = sizeof(SnapshotHeader) + table_bytes;
    for (size_t i = 0; i < sections_.size(); ++i) {
      if (table_[i].offset > at) {
        file_.push_back(Piece{kZeros, table_[i].offset - at});
      }
      for (const Piece& p : sections_[i].pieces) file_.push_back(p);
      at = table_[i].offset + table_[i].size;
    }
    size_ = cursor;
  }

  const std::vector<Piece>& file() const { return file_; }
  uint64_t size() const { return size_; }

 private:
  struct Section {
    SectionId id;
    uint64_t count;
    std::vector<Piece> pieces;
  };

  std::vector<Section> sections_;
  std::vector<std::unique_ptr<std::string>> owned_;
  SnapshotHeader header_{};
  std::vector<SectionEntry> table_;
  std::vector<Piece> file_;
  uint64_t size_ = 0;
};

/// Adds one string pool as (index, arena) section pair. Ids are
/// positional, so the roundtrip preserves every StringPool::Id bit-exactly.
/// The arena is the pool's strings in id order; strings adjacent in memory
/// (one arena chunk, or a mapped snapshot's arena) share one piece.
void AddPoolSections(const StringPool& pool, Layout* out) {
  ByteSink index;
  std::vector<Piece> arena;
  uint64_t offset = 0;
  for (StringPool::Id id = 0; id < pool.size(); ++id) {
    std::string_view s = pool.Get(id);
    PoolEntry e{offset, static_cast<uint32_t>(s.size()), 0};
    index.PutRaw(&e, sizeof(e));
    offset += s.size();
    if (s.empty()) continue;
    if (!arena.empty() && static_cast<const char*>(arena.back().data) +
                                  arena.back().size ==
                              s.data()) {
      arena.back().size += s.size();
    } else {
      arena.push_back(Piece{s.data(), s.size()});
    }
  }
  out->AddOwned(SectionId::kPoolIndex, pool.size(), index.Take());
  out->AddPieces(SectionId::kPoolArena, offset, std::move(arena));
}

/// Writes every piece in order, IOV_MAX at a time, resuming after short
/// writes.
Status WriteAll(int fd, const std::vector<Piece>& pieces,
                const std::string& name) {
  std::vector<iovec> iov;
  iov.reserve(pieces.size());
  for (const Piece& p : pieces) {
    if (p.size > 0) iov.push_back(iovec{const_cast<void*>(p.data), p.size});
  }
  size_t i = 0;
  while (i < iov.size()) {
    const int batch = static_cast<int>(std::min<size_t>(iov.size() - i, IOV_MAX));
    ssize_t n = ::writev(fd, &iov[i], batch);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write " + name + ": " +
                             std::string(std::strerror(errno)));
    }
    auto left = static_cast<size_t>(n);
    while (i < iov.size() && left >= iov[i].iov_len) left -= iov[i++].iov_len;
    if (left > 0) {
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + left;
      iov[i].iov_len -= left;
    }
  }
  return Status::OK();
}

/// Lays `input` out as a snapshot file: the one section list behind both
/// SerializeSnapshot and WriteSnapshotFile.
Status LayOut(const SnapshotInput& input, Layout* out) {
  if (input.doc == nullptr) {
    return Status::InvalidArgument("SerializeSnapshot: null document");
  }
  const Document& doc = *input.doc;
  if (doc.NumNodes() == 0) {
    return Status::InvalidArgument("SerializeSnapshot: empty document");
  }

  // --- Document sections (always present). ------------------------------
  out->AddView(SectionId::kNodes, doc.NumNodes(), &doc.node(0),
               doc.NumNodes() * sizeof(NodeRecord));
  {
    ByteSink names;
    for (uint32_t id = 0; id < doc.NumNames(); ++id) {
      PutQName(&names, doc.name_at(id));
    }
    out->AddOwned(SectionId::kNames, doc.NumNames(), names.Take());
  }
  AddPoolSections(doc.pool(), out);
  {
    // Namespace declarations in node order (deterministic bytes; the live
    // map is unordered).
    ByteSink ns;
    uint64_t entries = 0;
    for (NodeIndex i = 0; i < doc.NumNodes(); ++i) {
      const auto* decls = doc.NamespaceDecls(i);
      if (decls == nullptr || decls->empty()) continue;
      ns.PutU32(i);
      ns.PutU32(static_cast<uint32_t>(decls->size()));
      for (const Document::NsDecl& d : *decls) {
        ns.PutU32(static_cast<uint32_t>(d.prefix.size()));
        ns.PutU32(static_cast<uint32_t>(d.uri.size()));
        ns.PutBytes(d.prefix);
        ns.PutBytes(d.uri);
      }
      ++entries;
    }
    out->AddOwned(SectionId::kNsDecls, entries, ns.Take());
  }
  out->AddView(SectionId::kBaseUri, doc.base_uri().size(),
               doc.base_uri().data(), doc.base_uri().size());

  // --- Index sections (optional): the index's own flat arrays. ----------
  uint32_t flags = 0;
  uint32_t value_kinds = 0;
  if (input.indexes != nullptr) {
    flags |= kFlagHasIndexes;
    const DocumentIndexes& idx = *input.indexes;
    value_kinds = idx.value_kinds();
    const size_t n_syn = idx.NumSynopsisNodes();
    ByteSink syn;
    for (size_t s = 0; s < n_syn; ++s) {
      const DocumentIndexes::SynopsisNode& sn =
          idx.synopsis_node(static_cast<int32_t>(s));
      SynopsisRec rec{sn.name_id, sn.parent, static_cast<uint32_t>(sn.kind)};
      syn.PutRaw(&rec, sizeof(rec));
    }
    out->AddOwned(SectionId::kSynopsis, n_syn, syn.Take());

    const DocumentIndexes::FlatArrays& flat = idx.flat();
    out->AddSpan(SectionId::kPostingsOffsets, flat.posting_offsets);
    out->AddSpan(SectionId::kPostingsData, flat.posting_data);
    if (value_kinds != 0) {
      out->AddSpan(SectionId::kValueFlags, flat.value_flags);
      out->AddSpan(SectionId::kStringOffsets, flat.string_offsets);
      out->AddSpan(SectionId::kStringEntries, flat.string_entries);
      out->AddSpan(SectionId::kNumberOffsets, flat.number_offsets);
      out->AddSpan(SectionId::kNumberEntries, flat.number_entries);
      out->AddSpan(SectionId::kValueArena, flat.side_arena);
    }
  }

  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.endian = kEndianTag;
  header.arch_bits = 8 * sizeof(void*);
  header.node_record_size = sizeof(NodeRecord);
  header.flags = flags;
  header.value_kinds = value_kinds;
  header.content_hash = input.content_hash;
  header.content_bytes = input.content_bytes;
  out->Finish(header);
  return Status::OK();
}

}  // namespace

uint64_t HashContent(std::string_view bytes) {
  // FNV-1a, 64-bit.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Result<std::string> SerializeSnapshot(const SnapshotInput& input) {
  Layout layout;
  XQP_RETURN_NOT_OK(LayOut(input, &layout));
  std::string out;
  out.reserve(layout.size());
  for (const Piece& p : layout.file()) {
    out.append(static_cast<const char*>(p.data), p.size);
  }
  return out;
}

Status WriteSnapshotFile(const std::string& path, const SnapshotInput& input) {
  Layout layout;
  XQP_RETURN_NOT_OK(LayOut(input, &layout));

  // Stage 1 of the "storage.write" site: before the temp file exists.
  if (fault::Armed()) {
    XQP_RETURN_NOT_OK(fault::MaybeInject("storage.write"));
  }

  // Unique temp name in the target directory so the final rename is
  // same-filesystem atomic; O_EXCL refuses to clobber a concurrent writer.
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("create " + tmp + ": " +
                           std::string(std::strerror(errno)));
  }
  auto fail = [&](Status st) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  };

  Status written = WriteAll(fd, layout.file(), tmp);
  if (!written.ok()) return fail(std::move(written));
  // Stage 2: full payload written, not yet durable — a fault here models a
  // crash before fsync; the temp file must vanish, the target survive.
  if (fault::Armed()) {
    Status injected = fault::MaybeInject("storage.write");
    if (!injected.ok()) return fail(std::move(injected));
  }
  if (::fsync(fd) != 0) {
    return fail(Status::IoError("fsync " + tmp + ": " +
                                std::string(std::strerror(errno))));
  }
  if (::close(fd) != 0) {
    fd = -1;
    ::unlink(tmp.c_str());
    return Status::IoError("close " + tmp + ": " +
                           std::string(std::strerror(errno)));
  }
  fd = -1;

  // Stage 3: durable temp, not yet published.
  if (fault::Armed()) {
    Status injected = fault::MaybeInject("storage.write");
    if (!injected.ok()) {
      ::unlink(tmp.c_str());
      return injected;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IoError("rename " + tmp + " -> " + path + ": " +
                                std::string(std::strerror(errno)));
    ::unlink(tmp.c_str());
    return st;
  }

  // Persist the directory entry so the rename survives a crash. Failure
  // here is not fatal to correctness (the worst case is the old file after
  // a crash), but surface it: callers treat snapshot writes as best-effort.
  std::string dir = ".";
  if (size_t slash = path.find_last_of('/'); slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace xqp
