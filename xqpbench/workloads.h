// The benchmark's workloads. Each one drives the public XQueryEngine /
// CompiledQuery API over inputs generated from the run's seed and checks
// every answer against an engine-independent oracle.

#ifndef XQPBENCH_WORKLOADS_H_
#define XQPBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine.h"
#include "harness.h"

namespace xqpbench {

constexpr xqp::ExecBackend kBackends[] = {
    xqp::ExecBackend::kLazy, xqp::ExecBackend::kEager, xqp::ExecBackend::kVm};

/// What one pass measured with the benchmark's own timers.
struct PassResult {
  double exec_ms = 0;        // Inside the engine's execute calls.
  double serialize_ms = 0;   // Inside SerializeSequence.
  uint64_t serialize_bytes = 0;
  double first_item_ms = 0;  // Lazy: sum of Open() -> first Next().
  std::map<std::string, double> query_exec_ms;  // Per XMark query id.
  double save_ms = 0;        // SaveSnapshot (ingest_cold).
  double open_ms = 0;        // LoadDocumentSnapshot (ingest_cold).
  uint64_t snapshot_bytes = 0;
};

/// Everything a workload's run shares with the driver.
struct RunContext {
  uint64_t seed = 0;
  std::string workdir;  // Scratch directory inside the checkout.
  Report* report = nullptr;
  Tracer* tracer = nullptr;
  /// Deterministic counts that differed between two repetitions.
  std::vector<std::string>* count_mismatches = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs and engines from the seed, replacing any previous state.
  /// Timed by the driver as set-up.
  virtual void Setup() = 0;

  /// Runs one pass on `backend` and returns its wall time in ms.
  virtual double Pass(xqp::ExecBackend backend, PassResult* out) = 0;

  /// Traced run only, with the metrics registry on: times the calls into
  /// each module that set-up and compilation make (hand-sequenced where the
  /// engine bundles them) and profiles operators. Adds its per-layer
  /// metrics to `layers`.
  virtual void MeasureLayers(std::map<std::string, double>* layers) = 0;

  /// True when two passes on one backend do identical work, so their
  /// counters must repeat exactly. Otherwise CountPass() is used instead.
  virtual bool PassesRepeat() const { return true; }
  /// A single-threaded pass with repeatable counters (see PassesRepeat).
  virtual void CountPass(xqp::ExecBackend backend) {}

  /// Engines whose result-cache statistics the traced run reports.
  virtual std::vector<xqp::XQueryEngine*> Engines() = 0;

  /// Forgets the samples Summarize() reports (after the warm-up).
  virtual void ResetStats() {}

  /// Prints the workload's own end-to-end figures as detail lines.
  virtual void Summarize() = 0;
};

/// Creates the named workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunContext& ctx);

/// Names of all workloads, for the usage message.
const std::vector<std::string>& WorkloadNames();

}  // namespace xqpbench

#endif  // XQPBENCH_WORKLOADS_H_
