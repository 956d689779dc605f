// Shared plumbing of the xqp benchmark driver: timing, statistics, the
// in-memory span tracer and the result report.

#ifndef XQPBENCH_HARNESS_H_
#define XQPBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xqpbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Percentile `p` (0..100) by linear interpolation (0 when empty).
double Percentile(std::vector<double> v, double p);

/// The highest of p50/p90/p95/p99/p99.9 that leaves at least ten samples
/// beyond it, so a tail figure is never read off a handful of points.
double TailPercentileFor(size_t samples);

/// 64-bit FNV-1a over `s` (output digests compared across backends).
uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ull);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// A fixed C++ workload that does not involve the engine: build a string
/// map, look every key up, sort a copy. Its fastest time in a run measures
/// how fast the shared machine currently runs this kind of pointer-heavy
/// code, so engine times can be stated at a fixed reference speed.
class Yardstick {
 public:
  Yardstick();
  /// Runs the workload once; returns its wall time in ms.
  double RunMs();

 private:
  std::vector<std::string> words_;
};

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run reports: the correctness verdict, operation
/// counts, the metrics of the final JSON line, and human-readable detail
/// lines printed above it.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one attempted operation; a false `ok` marks it failed and
  /// prints `what` to stderr (the first few only).
  void Check(bool ok, const std::string& what);
};

/// Prints a detail line ("name value unit (n=samples)") to stdout.
void Detail(const std::string& name, double value, const std::string& unit,
            size_t samples = 0);

/// In-memory span recorder for the traced run. Each thread appends to its
/// own buffer; spans carry name, tag, start, end, parent (index in the same
/// thread's buffer, -1 for roots) and the request they belong to: every
/// root span starts a new request, its descendants share the id. Nothing
/// is written until Write() at the end of the run. A disabled tracer
/// records nothing and costs one branch per scope.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::string tag;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t request;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// RAII span around one call into a layer.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::string tag = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Elapsed milliseconds so far (also valid when tracing is off).
    double ElapsedMs() const { return MsSince(start_); }

   private:
    Tracer* tracer_;
    Clock::time_point start_;
    int32_t index_ = -1;
  };

  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(std::string_view name) const;

  /// Total self time (ms) per span name: duration minus the part covered
  /// by child spans.
  std::map<std::string, double> SelfTimeMs() const;

  size_t size() const;

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;
    int thread = 0;
  };
  ThreadBuffer* Buffer();

  bool enabled_;
  std::atomic<uint64_t> next_request_{1};
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace xqpbench

#endif  // XQPBENCH_HARNESS_H_
