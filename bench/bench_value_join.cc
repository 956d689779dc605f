// E23 — decorrelated FLWOR value joins: the correlated inner FLWORs of
// XMark Q8 and Q9 (equality joins) and Q11 and Q12 (range joins on
// `@income > 5000 * $i`), timed at three scales on all three backends,
// once as planned (decorrelate: the shared hash/band join runtime answers
// the inner for + where) and once compiled with optimize=false (the
// nested-loop baseline, which re-runs the where for every pair). Growth
// from scale 0.05 to 0.2 (4x the data) is the headline: near-linear with
// the join, quadratic without it.
//
//   bench_value_join            # human-readable
//   bench_value_join --json     # emit BENCH_value_join.json
//
// Args: {query index, XMark permille scale, backend, decorrelate}. Each
// configuration reports the median of 5 repetitions. Q9's nested-loop
// baseline runs at scale 0.05 only: unoptimized, its innermost loop
// re-walks regions//item for every (person, auction) pair, which takes
// ~4 s per run on the eager backend at 0.05; quadratic growth would put
// 0.2 near a minute and 1.0 near half an hour.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "engine.h"
#include "xmark/queries.h"

namespace xqp {
namespace {

using bench::MakeXMarkEngine;
using bench::MustCompile;
using bench::ScaleFromArg;

constexpr ExecBackend kBackends[] = {ExecBackend::kLazy, ExecBackend::kEager,
                                     ExecBackend::kVm};

void BM_ValueJoin(benchmark::State& state) {
  const XMarkQuery& q = XMarkQuerySet()[size_t(state.range(0))];
  const double scale = ScaleFromArg(state.range(1));
  const ExecBackend backend = kBackends[state.range(2)];
  const bool decorrelate = state.range(3) != 0;
  auto engine = MakeXMarkEngine(scale);
  XQueryEngine::CompileOptions copts;
  copts.optimize = decorrelate;
  auto compiled = MustCompile(engine.get(), q.text, copts);
  CompiledQuery::ExecOptions exec;
  exec.backend = backend;
  // Warm the document indexes (and the vm program) outside the timed
  // region; every backend shares the engine-level caches.
  {
    auto warm = compiled->Execute(exec);
    if (!warm.ok()) state.SkipWithError(warm.status().ToString().c_str());
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
  state.SetLabel(q.id + std::string(decorrelate ? " join" : " nested-loop"));
}

void RegisterAll() {
  // Q8, Q9, Q11, Q12 (0-based indexes into the XMark query set).
  for (int query : {7, 8, 10, 11}) {
    for (int scale : {50, 200, 1000}) {
      for (int backend = 0; backend < 3; ++backend) {
        for (int decorrelate : {1, 0}) {
          if (query == 8 && decorrelate == 0 && scale != 50) continue;
          benchmark::RegisterBenchmark("BM_ValueJoin", &BM_ValueJoin)
              ->Args({query, scale, backend, decorrelate})
              ->ArgNames({"q", "permille", "backend", "join"})
              ->Repetitions(5)
              ->ReportAggregatesOnly(true)
              ->Unit(benchmark::kMillisecond)
              ->UseRealTime();
        }
      }
    }
  }
}

}  // namespace
}  // namespace xqp

int main(int argc, char** argv) {
  xqp::RegisterAll();
  return xqp::bench::JsonAwareMain(argc, argv, "BENCH_value_join.json");
}
