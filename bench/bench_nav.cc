// E25 — navigation cost per match: the XMark navigation queries (Q2–Q7,
// Q13–Q20) timed on all three backends, with and without a tag index the
// descendant-step peek can use, and with the optimizer on and off.
//
//   bench_nav            # human-readable
//   bench_nav --json     # emit BENCH_nav.json
//
// Args: {query index, XMark permille scale, backend, tags, optimize}.
// tags=1 builds the tag index up front, so a variable-anchored descendant
// name step ($p//description) binary-searches that name's postings.
// tags=0 never builds one, so every descendant step scans its region row
// by row; the benchmark fails if its warm-up run took a tag slice (which
// would mean a sjoin/twig access path built the index on demand).
// optimize=0 also turns off ddo elision, which is where for-bound
// variables ($b/bidder) stop sorting their one-parent results. Each
// configuration reports the median of 3 repetitions.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "engine.h"
#include "xmark/queries.h"

namespace xqp {
namespace {

using bench::MustCompile;
using bench::ScaleFromArg;

constexpr ExecBackend kBackends[] = {ExecBackend::kLazy, ExecBackend::kEager,
                                     ExecBackend::kVm};

/// One engine per (scale, tags) setting, built on first use and shared by
/// every benchmark of that setting (engines are safe to share).
XQueryEngine* NavEngine(double scale, bool tags) {
  static auto* mu = new std::mutex();
  static auto* cache =
      new std::map<std::pair<double, bool>, std::unique_ptr<XQueryEngine>>();
  std::lock_guard<std::mutex> lock(*mu);
  auto& slot = (*cache)[{scale, tags}];
  if (slot == nullptr) {
    auto engine = std::make_unique<XQueryEngine>();
    if (!engine->RegisterDocument("xmark.xml", bench::XMarkDoc(scale)).ok() ||
        (tags && !engine->GetTagIndex("xmark.xml").ok())) {
      std::abort();
    }
    slot = std::move(engine);
  }
  return slot.get();
}

void BM_Nav(benchmark::State& state) {
  const XMarkQuery& q = XMarkQuerySet()[size_t(state.range(0))];
  const double scale = ScaleFromArg(state.range(1));
  const ExecBackend backend = kBackends[state.range(2)];
  const bool tags = state.range(3) != 0;
  XQueryEngine::CompileOptions copts;
  copts.optimize = state.range(4) != 0;
  auto compiled = MustCompile(NavEngine(scale, tags), q.text, copts);
  CompiledQuery::ExecOptions exec;
  exec.backend = backend;
  // Warm the path/value indexes and the vm program outside the timed loop.
  {
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
    const bool metrics_were_on = registry.enabled();
    registry.set_enabled(true);
    const metrics::MetricsSnapshot before = registry.Snapshot();
    auto warm = compiled->Execute(exec);
    metrics::MetricsSnapshot delta = registry.Snapshot().Delta(before);
    registry.set_enabled(metrics_were_on);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
    } else if (!tags && delta.counters["axis.descendant.tag_slice"] != 0) {
      state.SkipWithError("tags=0 engine took the tag-slice route");
    }
  }
  size_t items = 0;
  for (auto _ : state) {
    auto result = compiled->Execute(exec);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    items = result.value().size();
    benchmark::DoNotOptimize(result.value());
  }
  state.counters["items"] = static_cast<double>(items);
  state.SetLabel(q.id + std::string(tags ? " tags" : " scan") +
                 (copts.optimize ? " opt" : " no-opt"));
}

void RegisterAll() {
  // Q2–Q7 and Q13–Q20 (0-based indexes into the XMark query set).
  const int queries[] = {1, 2, 3, 4, 5, 6, 12, 13, 14, 15, 16, 17, 18, 19};
  for (int query : queries) {
    for (int scale : {50, 1000}) {
      for (int backend = 0; backend < 3; ++backend) {
        for (int tags : {1, 0}) {
          for (int optimize : {1, 0}) {
            benchmark::RegisterBenchmark("BM_Nav", &BM_Nav)
                ->Args({query, scale, backend, tags, optimize})
                ->ArgNames({"q", "permille", "backend", "tags", "opt"})
                ->Repetitions(3)
                ->ReportAggregatesOnly(true)
                ->Unit(benchmark::kMillisecond)
                ->UseRealTime();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace xqp

int main(int argc, char** argv) {
  xqp::RegisterAll();
  return xqp::bench::JsonAwareMain(argc, argv, "BENCH_nav.json");
}
