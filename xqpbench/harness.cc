#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

namespace xqpbench {

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * double(v.size() - 1);
  const size_t lo = size_t(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

double TailPercentileFor(size_t samples) {
  double best = 50;
  for (double p : {90.0, 95.0, 99.0, 99.9}) {
    if (double(samples) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

Yardstick::Yardstick() {
  std::mt19937_64 rng(20040301);
  words_.resize(40000);
  for (std::string& w : words_) {
    const size_t len = 5 + rng() % 12;
    for (size_t k = 0; k < len; ++k) w.push_back(char('a' + rng() % 26));
  }
}

double Yardstick::RunMs() {
  const Clock::time_point start = Clock::now();
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < words_.size(); ++i) index[words_[i]] = i;
  size_t sum = 0;
  for (const std::string& w : words_) sum += index.find(w)->second;
  std::vector<std::string> sorted(words_);
  std::sort(sorted.begin(), sorted.end());
  const double ms = MsSince(start);
  // Keeps the work observable.
  if (sum == 0 && sorted.empty()) std::fprintf(stderr, "yardstick\n");
  return ms;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (failed <= 5) std::fprintf(stderr, "xqp_bench: FAILED %s\n", what.c_str());
}

void Detail(const std::string& name, double value, const std::string& unit,
            size_t samples) {
  if (samples > 0) {
    std::printf("  %-36s %14.4f %-8s (n=%zu)\n", name.c_str(), value,
                unit.c_str(), samples);
  } else {
    std::printf("  %-36s %14.4f %s\n", name.c_str(), value, unit.c_str());
  }
}

Tracer::ThreadBuffer* Tracer::Buffer() {
  thread_local const Tracer* owner = nullptr;
  thread_local ThreadBuffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->thread = int(buffers_.size()) - 1;
    owner = this;
  }
  return buffer;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::string tag)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      start_(Clock::now()) {
  if (tracer_ == nullptr) return;
  ThreadBuffer* b = tracer_->Buffer();
  const int32_t parent = b->open.empty() ? -1 : b->open.back();
  const uint64_t request =
      parent >= 0
          ? b->spans[parent].request
          : tracer_->next_request_.fetch_add(1, std::memory_order_relaxed);
  const int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start_ -
                                                           tracer_->epoch_)
          .count();
  index_ = int32_t(b->spans.size());
  b->spans.push_back({name, std::move(tag), start_ns, start_ns, parent,
                      request});
  b->open.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  ThreadBuffer* b = tracer_->Buffer();
  b->spans[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           tracer_->epoch_)
          .count();
  b->open.pop_back();
}

std::vector<double> Tracer::DurationsMs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (name != s.name) continue;
      out.push_back(double(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfTimeMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& b : buffers_) {
    std::vector<int64_t> child_ns(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      out[s.name] += double(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"tag\":\"%s\",\"thread\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                   "\"request\":%llu}\n",
                   s.name, s.tag.c_str(), b->thread,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace xqpbench
