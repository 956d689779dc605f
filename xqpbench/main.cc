// xqp end-to-end benchmark driver.
//
//   xqp_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--trace-file <path>]
//
// Untraced (--trace 0): sets up several times (set-up time is the median),
// runs one warm-up pass per backend, then interleaves timed passes on the
// lazy, eager and vm backends for --seconds, with an engine-independent
// yardstick between them. Prints detail lines, then one JSON line with every
// end-to-end metric; times are scaled to the yardstick's reference speed.
//
// Traced (--trace 1): the same passes, first untraced and then with the
// engine's metrics registry and the benchmark's span tracer on; in between,
// each workload times the calls into the modules that set-up and
// compilation make. Prints the per-layer metrics, the tracing overhead and
// any deterministic count that failed to repeat; spans go to --trace-file.
//
// Every answer is checked against an engine-independent oracle; any
// mismatch makes "correct" false and the exit code 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace xqpbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string trace_file;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "xqp_bench: %s\nusage: xqp_bench --workload <", why);
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    std::fprintf(stderr, "%s%s", i ? "|" : "", WorkloadNames()[i].c_str());
  }
  std::fprintf(stderr,
               "> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--trace-file <path>]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) Usage("bad --trace");
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

/// Environment knobs the engine reads would change what is measured; the
/// benchmark fixes its own configuration instead.
void PinEnvironment() {
  for (const char* knob :
       {"XQP_BACKEND", "XQP_TRACE", "XQP_INDEXES", "XQP_ACCESS_PATH",
        "XQP_SNAPSHOT", "XQP_FAULT", "XQP_DEADLINE_MS", "XQP_MEM_BUDGET"}) {
    unsetenv(knob);
  }
  // Sizes the global worker pool; engines use two workers each.
  setenv("XQP_THREADS", "2", 1);
}

/// Set-ups repeat at least kMinSetups times and then until kSetupBudgetS
/// has gone by (at most kMaxSetups), so small ones get a steady median.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 0.4;
constexpr int kMinRounds = 2;
/// The yardstick's fastest time on the machine the benchmark was defined on
/// (4-CPU Xeon container, Release build); end-to-end times are scaled to it.
constexpr double kYardstickReferenceMs = 50.0;

/// Everything one timed pass left behind.
struct PassLog {
  xqp::ExecBackend backend;
  double ms;
  PassResult result;
  xqp::metrics::MetricsSnapshot counters;  // Registry delta (traced only).
  uint64_t cache[3] = {};                  // hits, misses, invalidations.
};

uint64_t CacheTotals(Workload& w, int which) {
  uint64_t total = 0;
  for (xqp::XQueryEngine* e : w.Engines()) {
    const xqp::XQueryEngine::CacheStats s = e->cache_stats();
    total += which == 0 ? s.hits : which == 1 ? s.misses : s.invalidations;
  }
  return total;
}

/// Rounds of one pass per backend (interleaved, so drift hits all three
/// alike) until `seconds` have passed and at least `min_rounds` are done.
/// The yardstick runs between passes, at most every half second.
std::vector<PassLog> RunPasses(Workload& w, double seconds, bool counters,
                               Yardstick* yardstick,
                               std::vector<double>* yardstick_ms,
                               int min_rounds = kMinRounds) {
  std::vector<PassLog> logs;
  auto& registry = xqp::metrics::MetricsRegistry::Global();
  const Clock::time_point start = Clock::now();
  Clock::time_point last_yardstick = start;
  yardstick_ms->push_back(yardstick->RunMs());
  for (int round = 0;
       round < min_rounds || MsSince(start) < seconds * 1000.0; ++round) {
    for (xqp::ExecBackend b : kBackends) {
      PassLog log{b, 0, {}, {}, {}};
      xqp::metrics::MetricsSnapshot before;
      uint64_t cache_before[3] = {};
      if (counters) {
        before = registry.Snapshot();
        for (int i = 0; i < 3; ++i) cache_before[i] = CacheTotals(w, i);
      }
      log.ms = w.Pass(b, &log.result);
      if (counters) {
        log.counters = registry.Snapshot().Delta(before);
        for (int i = 0; i < 3; ++i) {
          log.cache[i] = CacheTotals(w, i) - cache_before[i];
        }
      }
      logs.push_back(std::move(log));
      if (MsSince(last_yardstick) >= 500) {
        yardstick_ms->push_back(yardstick->RunMs());
        last_yardstick = Clock::now();
      }
    }
  }
  return logs;
}

template <typename F>
std::vector<double> Collect(const std::vector<PassLog>& logs,
                            xqp::ExecBackend b, F field) {
  std::vector<double> out;
  for (const PassLog& log : logs) {
    if (log.backend == b) out.push_back(field(log));
  }
  return out;
}

double PassMs(const PassLog& log) { return log.ms; }

/// The run's figure for one backend: the 10th percentile of its pass
/// times. Other tenants of a shared machine only ever add time, in phases of
/// seconds, so the fast end of the distribution is the steadiest estimate
/// of the engine's cost; medians and tails are printed beside it.
double FastDecileMs(const std::vector<PassLog>& logs, xqp::ExecBackend b) {
  return Percentile(Collect(logs, b, PassMs), 10);
}

/// Prints each backend's pass time (median and tail with sample count).
void PrintPassTimes(const std::vector<PassLog>& logs, const char* label) {
  for (xqp::ExecBackend b : kBackends) {
    std::vector<double> ms = Collect(logs, b, PassMs);
    const double tail = TailPercentileFor(ms.size());
    const std::string name = std::string(label) + "." + xqp::ExecBackendName(b);
    Detail(name + ".p50", Median(ms), "ms", ms.size());
    if (tail > 50) {
      Detail(name + ".p" + std::to_string(int(tail)), Percentile(ms, tail),
             "ms", ms.size());
    }
    Detail(name + ".p10", FastDecileMs(logs, b), "ms", ms.size());
  }
}

/// The per-layer metrics, in the order of BENCHMARK.json. Counts and
/// serialization totals are per round (one pass on each backend).
std::vector<std::pair<std::string, std::string>> LayerMetricNames() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"query.parse_us", "us"},       {"query.normalize_us", "us"},
      {"opt.rewrite_us", "us"},       {"opt.inline_us", "us"},
      {"opt.analyze_us", "us"},       {"opt.annotate_us", "us"},
      {"opt.rewrites_fired", "count"}, {"compile.total_us", "us"},
      {"compile.split_ratio", "ratio"}, {"vm.compile_us", "us"},
      {"vm.instructions", "count"},   {"vm.bailouts", "count"},
      {"exec.execute_ms.lazy", "ms"}, {"exec.execute_ms.eager", "ms"},
      {"exec.execute_ms.vm", "ms"},   {"exec.first_item_us", "us"},
      {"exec.op_self_ms.lazy", "ms"}, {"exec.op_self_ms.eager", "ms"},
      {"join.calls", "count"},        {"join.items", "count"},
      {"twig.calls", "count"},        {"twig.items", "count"},
      {"planner.nav", "count"},       {"planner.sjoin", "count"},
      {"planner.twig", "count"},      {"planner.index", "count"},
      {"index.build_ms", "ms"},       {"tagindex.build_ms", "ms"},
      {"index.bytes", "bytes"},       {"index.value_hits", "count"},
      {"index.fallbacks", "count"},   {"xml.parse_mb_s", "MB/s"},
      {"xml.serialize_ms", "ms"},     {"xml.serialize_bytes", "bytes"},
      {"tokens.build_ms", "ms"},      {"storage.save_ms", "ms"},
      {"storage.open_ms", "ms"},      {"storage.snapshot_bytes", "bytes"},
      {"engine.register_ms", "ms"},   {"engine.cache.hits", "count"},
      {"engine.cache.misses", "count"},
      {"engine.cache.invalidations", "count"},
      {"pool.tasks_submitted", "count"},
      {"trace.overhead_pct", "%"},    {"trace.count_mismatches", "count"},
      {"trace.spans", "count"},
  };
  for (xqp::ExecBackend b : kBackends) {
    for (int q = 1; q <= 20; ++q) {
      names.push_back({std::string("exec.execute_ms.") +
                           xqp::ExecBackendName(b) + ".Q" + std::to_string(q),
                       "ms"});
    }
  }
  return names;
}

/// Sum of a registry counter family over one pass, e.g. every
/// "join.<kernel>.calls".
double CounterFamily(const PassLog& log, const std::string& prefix,
                     const std::string& suffix) {
  double total = 0;
  for (const auto& [name, value] : log.counters.counters) {
    if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += double(value);
    }
  }
  return total;
}

double Counter(const PassLog& log, const std::string& name) {
  auto it = log.counters.counters.find(name);
  return it == log.counters.counters.end() ? 0.0 : double(it->second);
}

/// Per round: the median over each backend's passes, summed over backends.
template <typename F>
double PerRound(const std::vector<PassLog>& logs, F field) {
  double total = 0;
  for (xqp::ExecBackend b : kBackends) total += Median(Collect(logs, b, field));
  return total;
}

/// Counts that must repeat exactly between two identical passes.
std::vector<std::pair<std::string, double>> RepeatableCounts(
    const PassLog& log) {
  std::vector<std::pair<std::string, double>> out;
  for (const char* name : {"vm.instructions", "index.bytes", "planner.nav",
                           "planner.sjoin", "planner.twig", "planner.index"}) {
    out.push_back({name, Counter(log, name)});
  }
  out.push_back({"xml.serialize_bytes", double(log.result.serialize_bytes)});
  out.push_back({"storage.snapshot_bytes", double(log.result.snapshot_bytes)});
  return out;
}

void CompareCounts(const PassLog& a, const PassLog& b,
                   std::vector<std::string>* mismatches) {
  const auto x = RepeatableCounts(a);
  const auto y = RepeatableCounts(b);
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].second != y[i].second) {
      mismatches->push_back(x[i].first + "." +
                            xqp::ExecBackendName(a.backend));
    }
  }
}

void RunUntraced(Workload& w, const Args& args, Report* report) {
  std::vector<double> setup_s;
  double setup_total = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    const Clock::time_point start = Clock::now();
    w.Setup();
    setup_s.push_back(MsSince(start) / 1000.0);
    setup_total += setup_s.back();
  }
  Yardstick yardstick;
  std::vector<double> yardstick_ms;
  RunPasses(w, 0, false, &yardstick, &yardstick_ms, 1);  // Warm-up round.
  // Peak memory after a fixed amount of work (set-up plus one pass per
  // backend), so it does not depend on how many passes fit in the run.
  const double peak_rss_mb = PeakRssMb();
  w.ResetStats();
  yardstick_ms.clear();
  const std::vector<PassLog> logs =
      RunPasses(w, args.seconds, false, &yardstick, &yardstick_ms);
  // Times are stated at the reference speed: scaled by how much slower (or
  // faster) the yardstick ran at its fastest than on the reference machine.
  const double fastest_yardstick =
      *std::min_element(yardstick_ms.begin(), yardstick_ms.end());
  const double scale = kYardstickReferenceMs / fastest_yardstick;

  PrintPassTimes(logs, "pass_ms");
  std::vector<double> first =
      Collect(logs, xqp::ExecBackend::kLazy,
              [](const PassLog& l) { return l.result.first_item_ms; });
  if (Median(first) > 0) {
    Detail("first_item_ms.lazy", Median(first), "ms", first.size());
  }
  w.Summarize();
  Detail("setup_s.measured", Median(setup_s), "s", setup_s.size());
  Detail("peak_rss_mb.end_of_run", PeakRssMb(), "MB");
  Detail("yardstick_ms.fastest", fastest_yardstick, "ms", yardstick_ms.size());
  Detail("yardstick_ms.p50", Median(yardstick_ms), "ms", yardstick_ms.size());

  report->Add("setup_s", Median(setup_s) * scale, "s");
  for (xqp::ExecBackend b : kBackends) {
    report->Add(std::string("pass_ms.") + xqp::ExecBackendName(b),
                FastDecileMs(logs, b) * scale, "ms");
  }
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void RunTraced(Workload& w, const Args& args, Tracer* tracer,
               std::vector<std::string>* mismatches, Report* report) {
  w.Setup();
  Yardstick yardstick;
  std::vector<double> yardstick_ms;
  RunPasses(w, 0, false, &yardstick, &yardstick_ms, 1);  // Warm-up round.
  const std::vector<PassLog> plain =
      RunPasses(w, args.seconds * 0.4, false, &yardstick, &yardstick_ms);

  // What EngineOptions::collect_stats turns on, for the engines already
  // built; plus the benchmark's own spans.
  xqp::metrics::MetricsRegistry::Global().set_enabled(true);
  tracer->set_enabled(true);
  std::map<std::string, double> layers;
  w.MeasureLayers(&layers);
  if (!w.PassesRepeat()) {
    auto& registry = xqp::metrics::MetricsRegistry::Global();
    for (xqp::ExecBackend b : kBackends) {
      PassLog runs[2] = {{b, 0, {}, {}, {}}, {b, 0, {}, {}, {}}};
      for (PassLog& run : runs) {
        const xqp::metrics::MetricsSnapshot before = registry.Snapshot();
        w.CountPass(b);
        run.counters = registry.Snapshot().Delta(before);
      }
      CompareCounts(runs[0], runs[1], mismatches);
    }
  }
  const std::vector<PassLog> traced =
      RunPasses(w, args.seconds * 0.4, true, &yardstick, &yardstick_ms);
  tracer->set_enabled(false);
  if (w.PassesRepeat()) {
    for (xqp::ExecBackend b : kBackends) {
      std::vector<const PassLog*> runs;
      for (const PassLog& log : traced) {
        if (log.backend == b) runs.push_back(&log);
      }
      CompareCounts(*runs[0], *runs[1], mismatches);
    }
  }

  for (xqp::ExecBackend b : kBackends) {
    const std::string name = xqp::ExecBackendName(b);
    layers["exec.execute_ms." + name] = Median(Collect(
        traced, b, [](const PassLog& l) { return l.result.exec_ms; }));
    for (int q = 1; q <= 20; ++q) {
      const std::string id = std::string("Q") + std::to_string(q);
      std::vector<double> ms;
      for (const PassLog& l : traced) {
        auto it = l.result.query_exec_ms.find(id);
        if (l.backend == b && it != l.result.query_exec_ms.end()) {
          ms.push_back(it->second);
        }
      }
      layers["exec.execute_ms." + name + "." + id] = Median(ms);
    }
  }
  layers["exec.first_item_us"] =
      Median(tracer->DurationsMs("exec.first_item")) * 1000.0;
  for (const char* name : {"vm.instructions", "vm.bailouts"}) {
    layers[name] =
        PerRound(traced, [&](const PassLog& l) { return Counter(l, name); });
  }
  for (const char* family : {"join", "twig"}) {
    for (const char* what : {"calls", "items"}) {
      const std::string prefix = std::string(family) + ".";
      const std::string suffix = std::string(".") + what;
      layers[prefix + what] = PerRound(traced, [&](const PassLog& l) {
        return CounterFamily(l, prefix, suffix);
      });
    }
  }
  for (const char* name :
       {"planner.nav", "planner.sjoin", "planner.twig", "planner.index",
        "index.value_hits", "index.fallbacks", "pool.tasks_submitted"}) {
    layers[name] =
        PerRound(traced, [&](const PassLog& l) { return Counter(l, name); });
  }
  layers["xml.serialize_ms"] =
      PerRound(traced, [](const PassLog& l) { return l.result.serialize_ms; });
  layers["xml.serialize_bytes"] = PerRound(traced, [](const PassLog& l) {
    return double(l.result.serialize_bytes);
  });
  std::vector<double> save, open, bytes;
  for (const PassLog& l : traced) {
    if (l.result.snapshot_bytes == 0) continue;
    save.push_back(l.result.save_ms);
    open.push_back(l.result.open_ms);
    bytes.push_back(double(l.result.snapshot_bytes));
  }
  layers["storage.save_ms"] = Median(save);
  layers["storage.open_ms"] = Median(open);
  layers["storage.snapshot_bytes"] = Median(bytes);
  const char* cache_names[3] = {"engine.cache.hits", "engine.cache.misses",
                                "engine.cache.invalidations"};
  for (int i = 0; i < 3; ++i) {
    layers[cache_names[i]] =
        PerRound(traced, [i](const PassLog& l) { return double(l.cache[i]); });
  }

  // Tracing overhead: traced against untraced passes of this same process,
  // each side by the end-to-end estimator.
  double plain_total = 0, traced_total = 0;
  for (xqp::ExecBackend b : kBackends) {
    const double p = FastDecileMs(plain, b);
    const double t = FastDecileMs(traced, b);
    plain_total += p;
    traced_total += t;
    const std::string name = xqp::ExecBackendName(b);
    Detail("untraced.pass_ms." + name, p, "ms",
           Collect(plain, b, PassMs).size());
    Detail("traced.pass_ms." + name, t, "ms",
           Collect(traced, b, PassMs).size());
  }
  layers["trace.overhead_pct"] =
      100.0 * (traced_total - plain_total) / plain_total;
  layers["trace.count_mismatches"] = double(mismatches->size());
  layers["trace.spans"] = double(tracer->size());
  for (const std::string& m : *mismatches) {
    std::printf("  count did not repeat: %s\n", m.c_str());
  }
  for (const auto& [name, ms] : tracer->SelfTimeMs()) {
    std::printf("  span self time %-24s %12.3f ms\n", name.c_str(), ms);
  }

  for (const auto& [name, unit] : LayerMetricNames()) {
    auto it = layers.find(name);
    report->Add(name, it == layers.end() ? 0.0 : it->second, unit);
  }
  if (!args.trace_file.empty() && !tracer->Write(args.trace_file)) {
    std::fprintf(stderr, "xqp_bench: cannot write %s\n",
                 args.trace_file.c_str());
  }
}

void PrintJson(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace xqpbench

int main(int argc, char** argv) {
  using namespace xqpbench;
  const Args args = ParseArgs(argc, argv);
  PinEnvironment();
  Report report;
  Tracer tracer(false);
  std::vector<std::string> mismatches;
  RunContext ctx{args.seed, args.workdir, &report, &tracer, &mismatches};
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, ctx);
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());

  std::printf("xqp_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, int(args.trace));
  if (args.trace) {
    RunTraced(*workload, args, &tracer, &mismatches, &report);
  } else {
    RunUntraced(*workload, args, &report);
  }
  const double error_rate =
      report.attempted == 0 ? 0.0
                            : double(report.failed) / double(report.attempted);
  Detail("error_rate", error_rate, "ratio", report.attempted);
  workload.reset();
  PrintJson(report);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
