// Experiment E24 — constructed-node storage: per XMark query and backend,
// the execution time, the heap bytes one execution allocates, and the
// process's peak RSS. Construction-heavy queries (Q2, Q3, Q13, Q15–Q17,
// Q19) build one small Document per constructed node, so what a
// constructed node costs in the string pool shows up here directly.
//
//   bench_construct_storage [--scale 1.0] [--runs 3] [--query Q17]...
//
// The document is generated and parsed once, and every query runs once
// in the parent so the indexes it uses exist before measuring; the heap
// those runs freed is then handed back to the kernel (malloc_trim). Each
// (query, backend) pair runs in a forked child: one warm-up execution,
// then --runs timed ones. The child resets its RSS high-water mark
// (/proc/self/clear_refs) right after the fork, so its peak RSS is the
// resident document and indexes plus that pair's own high-water mark. Prints one
// JSON object per pair (medians over the timed runs) and the parent's RSS
// at fork time. Run with XQP_THREADS=1 — forked children must
// not depend on pool threads they did not inherit; main() sets it.

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "engine.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace {

std::atomic<uint64_t> g_bytes{0};

void* CountedAlloc(std::size_t n) {
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xqp {
namespace {

/// What a forked child reports back through its pipe.
struct PairResult {
  double exec_ms = 0;
  double heap_bytes = 0;
  double peak_rss_mb = 0;
  uint64_t items = 0;
  bool ok = false;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// A "VmRSS:" / "VmHWM:" field of /proc/self/status, in MB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::atof(line.c_str() + field.size()) / 1024.0;
    }
  }
  return 0;
}

PairResult RunPair(const CompiledQuery& query, ExecBackend backend, int runs) {
  std::ofstream("/proc/self/clear_refs") << "5";  // Reset VmHWM to VmRSS.
  CompiledQuery::ExecOptions exec;
  exec.backend = backend;
  PairResult out;
  if (!query.Execute(exec).ok()) return out;  // Warm-up.
  std::vector<double> ms;
  std::vector<double> bytes;
  for (int r = 0; r < runs; ++r) {
    uint64_t before = g_bytes.load();
    auto start = std::chrono::steady_clock::now();
    auto result = query.Execute(exec);
    auto stop = std::chrono::steady_clock::now();
    bytes.push_back(double(g_bytes.load() - before));
    if (!result.ok()) return out;
    ms.push_back(std::chrono::duration<double, std::milli>(stop - start)
                     .count());
    out.items = result.value().size();
  }
  out.exec_ms = Median(ms);
  out.heap_bytes = Median(bytes);
  out.peak_rss_mb = StatusMb("VmHWM:");
  out.ok = true;
  return out;
}

int Main(int argc, char** argv) {
  double scale = 1.0;
  int runs = 3;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--scale" && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (a == "--runs" && i + 1 < argc) {
      runs = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--query" && i + 1 < argc) {
      only.push_back(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_construct_storage [--scale S] [--runs N] "
                   "[--query ID]...\n");
      return 2;
    }
  }

  XQueryEngine engine;
  {
    XMarkOptions options;
    options.scale = scale;
    auto doc = engine.ParseAndRegister("xmark.xml", GenerateXMarkXml(options));
    if (!doc.ok()) {
      std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
      return 1;
    }
  }
  struct Entry {
    const XMarkQuery* q;
    std::unique_ptr<CompiledQuery> compiled;
  };
  std::vector<Entry> entries;
  for (const XMarkQuery& q : XMarkQuerySet()) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), q.id) == only.end()) {
      continue;
    }
    auto compiled = engine.Compile(q.text);
    if (!compiled.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.id,
                   compiled.status().ToString().c_str());
      return 1;
    }
    (void)compiled.value()->Execute();  // Builds the indexes it uses.
    entries.push_back({&q, std::move(compiled).value()});
  }
  malloc_trim(0);
  std::printf("{\"scale\": %.3f, \"runs\": %d, \"parent_rss_mb\": %.1f}\n",
              scale, runs, StatusMb("VmRSS:"));
  std::fflush(stdout);

  for (const Entry& e : entries) {
    for (ExecBackend backend :
         {ExecBackend::kLazy, ExecBackend::kEager, ExecBackend::kVm}) {
      int fds[2];
      if (pipe(fds) != 0) return 1;
      pid_t pid = fork();
      if (pid < 0) return 1;
      if (pid == 0) {
        close(fds[0]);
        PairResult r = RunPair(*e.compiled, backend, runs);
        ssize_t n = write(fds[1], &r, sizeof(r));
        _exit(n == ssize_t(sizeof(r)) ? 0 : 1);
      }
      close(fds[1]);
      PairResult r;
      ssize_t n = read(fds[0], &r, sizeof(r));
      close(fds[0]);
      int status = 0;
      waitpid(pid, &status, 0);
      bool ok = n == ssize_t(sizeof(r)) && r.ok && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0;
      std::printf(
          "{\"query\": \"%s\", \"backend\": \"%s\", \"ok\": %s, "
          "\"items\": %llu, \"exec_ms\": %.3f, \"heap_mb\": %.3f, "
          "\"peak_rss_mb\": %.1f}\n",
          e.q->id, ExecBackendName(backend), ok ? "true" : "false",
          static_cast<unsigned long long>(r.items), r.exec_ms,
          r.heap_bytes / (1024.0 * 1024.0), r.peak_rss_mb);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace
}  // namespace xqp

int main(int argc, char** argv) {
  setenv("XQP_THREADS", "1", 1);
  return xqp::Main(argc, argv);
}
