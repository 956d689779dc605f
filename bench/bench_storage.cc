// Experiment E3 — XML storage modes (paper: "Possible XML Storage Modes"):
// plain text vs. tree/node-table vs. token array. We measure build time and
// bytes-per-node for each representation over XMark data.
//
// Experiment E20 — persistent snapshots: cold-start cost of mmap-opening a
// saved snapshot (document + indexes, full validation) vs. re-parsing the
// XML and rebuilding the indexes from scratch. The ratio is the payoff of
// the storage subsystem's O(1) reopen path. BM_Snapshot_Save times the
// write side.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <sys/stat.h>

#include "bench/bench_util.h"
#include "index/document_indexes.h"
#include "storage/snapshot.h"
#include "tokens/token_iterator.h"
#include "tokens/token_stream.h"

namespace xqp {
namespace {

void BM_Build_NodeTable(benchmark::State& state) {
  const std::string& xml = bench::XMarkXml(bench::ScaleFromArg(state.range(0)));
  size_t nodes = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    auto doc = Document::Parse(xml);
    nodes = doc.value()->NumNodes();
    bytes = doc.value()->MemoryUsage();
    benchmark::DoNotOptimize(doc);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["bytes_per_node"] =
      static_cast<double>(bytes) / static_cast<double>(nodes);
  state.counters["xml_bytes"] = static_cast<double>(xml.size());
  state.SetBytesProcessed(static_cast<int64_t>(xml.size()) *
                          state.iterations());
}
BENCHMARK(BM_Build_NodeTable)->Arg(50)->Arg(200);

void BM_Build_TokenStream(benchmark::State& state) {
  const std::string& xml = bench::XMarkXml(bench::ScaleFromArg(state.range(0)));
  size_t tokens = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    auto ts = TokenStream::FromXml(xml);
    tokens = ts.value().size();
    bytes = ts.value().MemoryUsage();
    benchmark::DoNotOptimize(ts);
  }
  state.counters["tokens"] = static_cast<double>(tokens);
  state.counters["bytes_per_token"] =
      static_cast<double>(bytes) / static_cast<double>(tokens);
  state.counters["xml_bytes"] = static_cast<double>(xml.size());
  state.SetBytesProcessed(static_cast<int64_t>(xml.size()) *
                          state.iterations());
}
BENCHMARK(BM_Build_TokenStream)->Arg(50)->Arg(200);

/// Plain text "storage" is free to build but must re-parse on every use
/// (paper: "need to re-parse all the time; not an option for XQuery
/// processing"). This measures one forced re-parse per access.
void BM_Access_PlainText_Reparse(benchmark::State& state) {
  const std::string& xml = bench::XMarkXml(bench::ScaleFromArg(state.range(0)));
  for (auto _ : state) {
    // Access = count all <item> elements, which requires a parse.
    ParserTokenIterator it(xml);
    (void)it.Open();
    int64_t items = 0;
    while (true) {
      auto t = it.Next();
      if (!t.ok() || t.value() == nullptr) break;
      if (t.value()->kind == TokenKind::kStartElement &&
          it.name(*t.value()).local == "item") {
        ++items;
      }
    }
    benchmark::DoNotOptimize(items);
  }
}
BENCHMARK(BM_Access_PlainText_Reparse)->Arg(50)->Arg(200);

void BM_Access_NodeTable(benchmark::State& state) {
  auto doc = bench::XMarkDoc(bench::ScaleFromArg(state.range(0)));
  uint32_t name_id = doc->FindNameId("", "item");
  for (auto _ : state) {
    int64_t items = 0;
    for (NodeIndex i = 0; i < doc->NumNodes(); ++i) {
      const NodeRecord& n = doc->node(i);
      if (n.kind == NodeKind::kElement && n.name_id == name_id) ++items;
    }
    benchmark::DoNotOptimize(items);
  }
}
BENCHMARK(BM_Access_NodeTable)->Arg(50)->Arg(200);

void BM_Access_TokenStream(benchmark::State& state) {
  const std::string& xml = bench::XMarkXml(bench::ScaleFromArg(state.range(0)));
  TokenStream ts = std::move(TokenStream::FromXml(xml)).ValueOrDie();
  for (auto _ : state) {
    StreamTokenIterator it(&ts);
    (void)it.Open();
    int64_t items = 0;
    while (true) {
      auto t = it.Next();
      if (!t.ok() || t.value() == nullptr) break;
      if (t.value()->kind == TokenKind::kStartElement &&
          it.name(*t.value()).local == "item") {
        ++items;
      }
    }
    benchmark::DoNotOptimize(items);
  }
}
BENCHMARK(BM_Access_TokenStream)->Arg(50)->Arg(200);

/// Memory-footprint summary row (single iteration, counters only).
void BM_MemoryFootprint(benchmark::State& state) {
  double scale = bench::ScaleFromArg(state.range(0));
  const std::string& xml = bench::XMarkXml(scale);
  auto doc = Document::Parse(xml).value();
  TokenStream ts = TokenStream::FromDocument(*doc);
  TokenStreamOptions no_ids;
  no_ids.with_node_ids = false;
  TokenStream ts_no_ids = TokenStream::FromDocument(*doc, no_ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc);
  }
  state.counters["text_bytes"] = static_cast<double>(xml.size());
  state.counters["node_table_bytes"] = static_cast<double>(doc->MemoryUsage());
  state.counters["token_stream_bytes"] =
      static_cast<double>(ts.MemoryUsage());
  state.counters["token_stream_noid_bytes"] =
      static_cast<double>(ts_no_ids.MemoryUsage());
}
BENCHMARK(BM_MemoryFootprint)->Arg(50)->Arg(200);

// --- E20: persistent-snapshot cold start ------------------------------------

/// A saved snapshot (document + path/value indexes) for the given scale,
/// written once per process into the working directory.
const std::string& SnapshotPath(double scale) {
  static auto* cache = new std::map<double, std::string>();
  auto it = cache->find(scale);
  if (it == cache->end()) {
    std::string path =
        "bench_snapshot_" + std::to_string(int(scale * 1000)) + ".xqps";
    auto doc = bench::XMarkDoc(scale);
    auto indexes = DocumentIndexes::Build(doc, kIndexValueAll).ValueOrDie();
    storage::SnapshotInput input;
    input.doc = doc.get();
    input.indexes = indexes.get();
    Status st = storage::WriteSnapshotFile(path, input);
    if (!st.ok()) std::abort();
    it = cache->emplace(scale, std::move(path)).first;
  }
  return it->second;
}

/// Cold start via storage: mmap + full validation (header, section CRCs,
/// node-table replay, index adoption). No parse, no index build.
void BM_ColdStart_SnapshotOpen(benchmark::State& state) {
  double scale = bench::ScaleFromArg(state.range(0));
  const std::string& path = SnapshotPath(scale);
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto loaded = storage::OpenSnapshot(path);
    if (!loaded.ok()) std::abort();
    bytes = loaded.value().mapped_bytes;
    benchmark::DoNotOptimize(loaded.value().document->NumNodes());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
}
BENCHMARK(BM_ColdStart_SnapshotOpen)->Arg(50)->Arg(200);

/// Saving a snapshot (document + path/value indexes) with the crash-atomic
/// write protocol: section layout and checksums, the writev of every
/// section from its own memory, fsync and rename.
void BM_Snapshot_Save(benchmark::State& state) {
  double scale = bench::ScaleFromArg(state.range(0));
  auto doc = bench::XMarkDoc(scale);
  auto indexes = DocumentIndexes::Build(doc, kIndexValueAll).ValueOrDie();
  storage::SnapshotInput input;
  input.doc = doc.get();
  input.indexes = indexes.get();
  const std::string path =
      "bench_snapshot_save_" + std::to_string(int(scale * 1000)) + ".xqps";
  for (auto _ : state) {
    Status st = storage::WriteSnapshotFile(path, input);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    state.counters["snapshot_bytes"] = static_cast<double>(st.st_size);
    state.SetBytesProcessed(static_cast<int64_t>(st.st_size) *
                            state.iterations());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_Snapshot_Save)->Arg(50)->Arg(200)->UseRealTime();

/// The path the snapshot replaces: parse the XML text and rebuild both
/// index families.
void BM_ColdStart_ReparseReindex(benchmark::State& state) {
  double scale = bench::ScaleFromArg(state.range(0));
  const std::string& xml = bench::XMarkXml(scale);
  for (auto _ : state) {
    auto doc = Document::Parse(xml);
    if (!doc.ok()) std::abort();
    auto indexes = DocumentIndexes::Build(
        std::shared_ptr<const Document>(std::move(doc.value())),
        kIndexValueAll);
    if (!indexes.ok()) std::abort();
    benchmark::DoNotOptimize(indexes.value()->NumSynopsisNodes());
  }
  state.counters["xml_bytes"] = static_cast<double>(xml.size());
  state.SetBytesProcessed(static_cast<int64_t>(xml.size()) *
                          state.iterations());
}
BENCHMARK(BM_ColdStart_ReparseReindex)->Arg(50)->Arg(200);

/// End-to-end engine cold start with a warm snapshot directory: the
/// ParseAndRegister fast path (hash check + mmap + adoption).
void BM_ColdStart_EngineWithSnapshotDir(benchmark::State& state) {
  double scale = bench::ScaleFromArg(state.range(0));
  const std::string& xml = bench::XMarkXml(scale);
  std::string dir = "bench_snapdir";
  ::mkdir(dir.c_str(), 0755);
  EngineOptions options;
  options.snapshot_dir = dir;
  {
    XQueryEngine warmup(options);  // First ingest saves the snapshot.
    if (!warmup.ParseAndRegister("xmark.xml", xml).ok()) std::abort();
  }
  for (auto _ : state) {
    XQueryEngine engine(options);
    auto doc = engine.ParseAndRegister("xmark.xml", xml);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc.value()->NumNodes());
  }
  state.SetBytesProcessed(static_cast<int64_t>(xml.size()) *
                          state.iterations());
}
BENCHMARK(BM_ColdStart_EngineWithSnapshotDir)->Arg(50)->Arg(200);

}  // namespace
}  // namespace xqp

XQP_BENCH_JSON_MAIN("BENCH_storage.json")
