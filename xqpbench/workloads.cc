#include "workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <thread>

#include "exec/profile.h"
#include "opt/access_path.h"
#include "opt/inline_functions.h"
#include "opt/properties.h"
#include "opt/rewriter.h"
#include "oracle.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "tokens/token_stream.h"
#include "vm/compiler.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace xqpbench {
namespace {

using xqp::CompiledQuery;
using xqp::ExecBackend;
using xqp::XQueryEngine;

constexpr const char* kDocUri = "xmark.xml";

const char* Name(ExecBackend b) { return xqp::ExecBackendName(b); }

/// Two worker threads for the engine's parallel kernels: with at most two
/// client threads the benchmark never runs more busy threads than a 4-CPU
/// machine has.
xqp::EngineOptions EngineFor(ExecBackend backend) {
  xqp::EngineOptions options;
  options.num_threads = 2;
  options.backend = backend;
  return options;
}

/// splitmix64 over (seed, a, b): independent streams per purpose.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t z =
      seed + 0x9e3779b97f4a7c15ull * (a + 1) + 0xbf58476d1ce4e5b9ull * b;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string GenerateXml(double scale, uint64_t seed) {
  xqp::XMarkOptions options;
  options.scale = scale;
  options.seed = seed;
  return xqp::GenerateXMarkXml(options);
}

/// Setup steps cannot be skipped: a failure ends the run without a result.
template <typename T>
T Require(xqp::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    std::fprintf(stderr, "xqp_bench: %s: %s\n", what.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result.value());
}

void Require(const xqp::Status& status, const std::string& what) {
  if (!status.ok()) {
    std::fprintf(stderr, "xqp_bench: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
}

uint64_t CounterValue(const char* name) {
  return xqp::metrics::MetricsRegistry::Global().counter(name)->Value();
}

// --- One query: execute on a backend, then serialize. ----------------------

struct QueryRun {
  xqp::Status status;
  size_t items = 0;
  std::string xml;
  double exec_ms = 0;
  double serialize_ms = 0;
  double first_item_ms = 0;
};

QueryRun RunQuery(const CompiledQuery& query, ExecBackend backend,
                  Tracer* tracer, const std::string& tag) {
  Tracer::Scope request(tracer, "query", tag);
  QueryRun run;
  CompiledQuery::ExecOptions options;
  options.backend = backend;
  xqp::Sequence result;
  {
    Tracer::Scope exec(tracer, "exec.execute", tag);
    if (backend == ExecBackend::kLazy) {
      // The streaming consumer: Open() then pull. Time to the first item is
      // the paper's time-to-first-answer.
      std::unique_ptr<xqp::ResultStream> stream;
      xqp::Item item;
      xqp::Result<bool> got = false;
      {
        Tracer::Scope first(tracer, "exec.first_item", tag);
        xqp::Result<std::unique_ptr<xqp::ResultStream>> opened =
            query.Open(options);
        if (opened.ok()) {
          stream = std::move(opened.value());
          got = stream->Next(&item);
        } else {
          got = opened.status();
        }
        run.first_item_ms = first.ElapsedMs();
      }
      while (got.ok() && got.value()) {
        result.push_back(std::move(item));
        got = stream->Next(&item);
      }
      if (!got.ok()) run.status = got.status();
    } else {
      xqp::Result<xqp::Sequence> executed = query.Execute(options);
      if (executed.ok()) {
        result = std::move(executed.value());
      } else {
        run.status = executed.status();
      }
    }
    run.exec_ms = exec.ElapsedMs();
  }
  if (!run.status.ok()) return run;
  run.items = result.size();
  Tracer::Scope serialize(tracer, "xml.serialize", tag);
  xqp::Result<std::string> xml = xqp::SerializeSequence(result);
  run.serialize_ms = serialize.ElapsedMs();
  if (xml.ok()) {
    run.xml = std::move(xml.value());
  } else {
    run.status = xml.status();
  }
  return run;
}

// --- Compile split. ---------------------------------------------------------

enum Phase { kParse, kNormalize, kRewrite, kInline, kAnalyze, kAnnotate, kVm,
             kNumPhases };
constexpr const char* kPhaseSpan[kNumPhases] = {
    "query.parse", "query.normalize", "opt.rewrite", "opt.inline",
    "opt.analyze", "opt.annotate",    "vm.compile"};
constexpr const char* kPhaseMetric[kNumPhases] = {
    "query.parse_us", "query.normalize_us", "opt.rewrite_us", "opt.inline_us",
    "opt.analyze_us", "opt.annotate_us",    "vm.compile_us"};

struct Split {
  double ms[kNumPhases] = {};
  int rewrites = 0;
  std::string explain;
  xqp::Status status;
};

/// XQueryEngine::Compile, one module call at a time (parse, normalize,
/// rewrite, inline, analyze, access-path annotation), followed by the
/// bytecode lowering the vm backend performs on first use. The plan it
/// yields is checked against Compile's own, so this sequence cannot drift
/// from engine.cc unnoticed.
Split CompileSplit(XQueryEngine& engine, std::string_view text,
                   Tracer* tracer) {
  Split s;
  std::unique_ptr<xqp::ParsedModule> m;
  auto phase = [&](Phase p, auto&& step) {
    if (!s.status.ok()) return;
    Tracer::Scope span(tracer, kPhaseSpan[p]);
    step();
    s.ms[p] = span.ElapsedMs();
  };
  phase(kParse, [&] {
    auto parsed =
        xqp::ParseQuery(text, engine.options().default_limits.max_expr_depth);
    if (parsed.ok()) {
      m = std::move(parsed.value());
    } else {
      s.status = parsed.status();
    }
  });
  phase(kNormalize, [&] { s.status = xqp::NormalizeModule(m.get()); });
  xqp::RewriterOptions rewriter;
  if (!engine.options().enable_indexes) rewriter.index_paths = false;
  phase(kRewrite, [&] {
    auto stats = xqp::OptimizeModule(m.get(), rewriter);
    if (!stats.ok()) {
      s.status = stats.status();
      return;
    }
    for (const auto& [rule, count] : stats.value()) s.rewrites += count;
  });
  phase(kInline, [&] {
    if (!rewriter.function_inlining) return;
    s.status = xqp::InlineSmallFunctions(m.get(), rewriter.inline_size_limit)
                   .status();
  });
  phase(kAnalyze, [&] {
    for (xqp::UserFunction& fn : m->functions) {
      if (fn.body != nullptr) xqp::AnalyzeExpr(fn.body.get(), m.get());
    }
    for (xqp::GlobalVariable& g : m->globals) {
      if (g.init != nullptr) xqp::AnalyzeExpr(g.init.get(), m.get());
    }
    xqp::AnalyzeExpr(m->body.get(), m.get());
  });
  phase(kAnnotate, [&] {
    if (!engine.options().enable_indexes) return;
    xqp::IndexPeek peek = [&engine](const std::string& uri) {
      return engine.PeekDocumentIndexes(uri);
    };
    const xqp::AccessPath force = engine.options().force_access_path;
    for (xqp::UserFunction& fn : m->functions) {
      if (fn.body != nullptr) {
        xqp::AnnotateAccessPaths(fn.body.get(), peek, force);
      }
    }
    for (xqp::GlobalVariable& g : m->globals) {
      if (g.init != nullptr) {
        xqp::AnnotateAccessPaths(g.init.get(), peek, force);
      }
    }
    xqp::AnnotateAccessPaths(m->body.get(), peek, force);
  });
  if (!s.status.ok()) return s;
  s.explain = m->body->ToString();
  phase(kVm, [&] { s.status = xqp::vm::CompileProgram(*m).status(); });
  return s;
}

/// Times the compile split against XQueryEngine::Compile over `texts`
/// (interleaved, medians of repetitions) and checks that both produce the
/// same plan and that the phases add up to Compile's time.
void MeasureCompile(XQueryEngine& engine, const std::vector<std::string>& texts,
                    const RunContext& ctx,
                    std::map<std::string, double>* layers) {
  constexpr int kReps = 15;
  double phase_ms[kNumPhases] = {};
  double compile_ms = 0;
  int rewrites = 0;
  for (const std::string& text : texts) {
    std::vector<double> per_phase[kNumPhases];
    std::vector<double> whole;
    int first_rewrites = -1;
    for (int rep = 0; rep < kReps; ++rep) {
      Split s = CompileSplit(engine, text, ctx.tracer);
      Clock::time_point start = Clock::now();
      xqp::Result<std::unique_ptr<CompiledQuery>> compiled = [&] {
        Tracer::Scope span(ctx.tracer, "engine.compile");
        return engine.Compile(text);
      }();
      whole.push_back(MsSince(start));
      if (!s.status.ok() || !compiled.ok()) {
        ctx.report->Check(false, "compile split: " + s.status.ToString() +
                                     " / " + compiled.status().ToString());
        return;
      }
      if (rep == 0) {
        ctx.report->Check(s.explain == compiled.value()->Explain(),
                          "compile split plan differs from Compile for: " +
                              text);
        first_rewrites = s.rewrites;
        rewrites += s.rewrites;
      } else if (s.rewrites != first_rewrites) {
        ctx.count_mismatches->push_back("opt.rewrites_fired");
      }
      for (int p = 0; p < kNumPhases; ++p) per_phase[p].push_back(s.ms[p]);
    }
    for (int p = 0; p < kNumPhases; ++p) phase_ms[p] += Median(per_phase[p]);
    compile_ms += Median(whole);
  }
  const double n = double(texts.size());
  double split_ms = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    (*layers)[kPhaseMetric[p]] = phase_ms[p] / n * 1000.0;
    if (p != kVm) split_ms += phase_ms[p];
  }
  (*layers)["opt.rewrites_fired"] = rewrites;
  (*layers)["compile.total_us"] = compile_ms / n * 1000.0;
  const double ratio = split_ms / compile_ms;
  (*layers)["compile.split_ratio"] = ratio;
  ctx.report->Check(ratio > 0.5 && ratio < 2.0,
                    "compile split time / Compile time = " +
                        std::to_string(ratio));
}

/// Per-operator self time (inclusive wall minus the children's) from
/// CompiledQuery::Profile on the lazy and eager backends, summed by
/// operator label over `queries`. The largest becomes a layer metric; the
/// top five are printed.
void ProfileOperators(const std::vector<const CompiledQuery*>& queries,
                      const RunContext& ctx,
                      std::map<std::string, double>* layers) {
  for (ExecBackend backend : {ExecBackend::kLazy, ExecBackend::kEager}) {
    std::map<std::string, double> self_ms;
    CompiledQuery::ExecOptions options;
    options.backend = backend;
    for (const CompiledQuery* q : queries) {
      xqp::Result<xqp::ProfileReport> report = q->Profile(options);
      ctx.report->Check(report.ok(), std::string("profile on ") +
                                         Name(backend) + ": " +
                                         report.status().ToString());
      if (!report.ok()) continue;
      const xqp::QueryProfile& ops = report.value().ops;
      auto wall = [&ops](const xqp::Expr* e) {
        const xqp::OpStats* s = ops.Find(e);
        return s == nullptr ? 0.0 : double(s->wall_ns) / 1e6;
      };
      std::vector<const xqp::Expr*> stack = {q->module().body.get()};
      while (!stack.empty()) {
        const xqp::Expr* e = stack.back();
        stack.pop_back();
        double self = wall(e);
        for (size_t i = 0; i < e->NumChildren(); ++i) {
          self -= wall(e->child(i));
          stack.push_back(e->child(i));
        }
        if (ops.Find(e) != nullptr) {
          self_ms[xqp::OperatorLabel(*e)] += std::max(0.0, self);
        }
      }
    }
    std::vector<std::pair<double, std::string>> top;
    for (const auto& [label, ms] : self_ms) top.emplace_back(ms, label);
    std::sort(top.rbegin(), top.rend());
    (*layers)[std::string("exec.op_self_ms.") + Name(backend)] =
        top.empty() ? 0.0 : top[0].first;
    for (size_t i = 0; i < top.size() && i < 5; ++i) {
      std::printf("  profile %-5s self %10.3f ms  %s\n", Name(backend),
                  top[i].first, top[i].second.c_str());
    }
  }
}

/// ParseAndRegister (no snapshot directory) split into Document::Parse and
/// RegisterDocument, followed by the two index builds a first query would
/// trigger. Done twice, replacing the registered document each time, so the
/// index byte count can be checked for repeatability.
void MeasureRegistration(XQueryEngine& engine, const std::string& xml,
                         const RunContext& ctx,
                         std::map<std::string, double>* layers) {
  std::vector<double> parse_ms, register_ms, index_ms, tag_ms;
  uint64_t index_bytes[2] = {};
  for (int rep = 0; rep < 2; ++rep) {
    xqp::ParseOptions options;
    options.max_parse_depth = engine.options().default_limits.max_parse_depth;
    std::shared_ptr<xqp::Document> doc;
    {
      Tracer::Scope span(ctx.tracer, "xml.parse");
      doc = Require(xqp::Document::Parse(xml, options), "parse");
      parse_ms.push_back(span.ElapsedMs());
    }
    doc->set_base_uri(kDocUri);
    {
      Tracer::Scope span(ctx.tracer, "engine.register");
      Require(engine.RegisterDocument(kDocUri, doc), "register");
      register_ms.push_back(span.ElapsedMs());
    }
    const uint64_t before = CounterValue("index.bytes");
    {
      Tracer::Scope span(ctx.tracer, "index.build");
      Require(engine.GetDocumentIndexes(kDocUri), "index build");
      index_ms.push_back(span.ElapsedMs());
    }
    index_bytes[rep] = CounterValue("index.bytes") - before;
    {
      Tracer::Scope span(ctx.tracer, "tagindex.build");
      Require(engine.GetTagIndex(kDocUri), "tag index build");
      tag_ms.push_back(span.ElapsedMs());
    }
  }
  (*layers)["xml.parse_mb_s"] = double(xml.size()) / 1e6 /
                                (Median(parse_ms) / 1000.0);
  (*layers)["engine.register_ms"] = Median(register_ms);
  (*layers)["index.build_ms"] = Median(index_ms);
  (*layers)["tagindex.build_ms"] = Median(tag_ms);
  (*layers)["index.bytes"] = double(index_bytes[0]);
  if (index_bytes[0] != index_bytes[1]) {
    ctx.count_mismatches->push_back("index.bytes");
  }
}

/// Checks one query answer against the oracle and the first answer seen.
void VerifyAnswer(const RunContext& ctx, const XMarkFacts& facts,
                  std::map<std::string, uint64_t>* digests,
                  const std::string& id, ExecBackend backend,
                  const QueryRun& run) {
  const std::string where = id + " on " + Name(backend);
  if (!run.status.ok()) {
    ctx.report->Check(false, where + ": " + run.status.ToString());
    return;
  }
  bool ok = true;
  std::string why;
  auto card = facts.cardinality.find(id);
  if (card != facts.cardinality.end() && card->second != run.items) {
    ok = false;
    why = "returned " + std::to_string(run.items) + " items, oracle " +
          std::to_string(card->second);
  }
  auto value = facts.value.find(id);
  if (ok && value != facts.value.end() && value->second != run.xml) {
    ok = false;
    why = "returned '" + run.xml.substr(0, 80) + "', oracle '" +
          value->second.substr(0, 80) + "'";
  }
  const uint64_t digest = Fnv1a(run.xml);
  auto [it, first] = digests->emplace(id, digest);
  if (ok && !first && it->second != digest) {
    ok = false;
    why = "serialized result differs from the other backends";
  }
  ctx.report->Check(ok, where + ": " + why);
}

// --- xmark_join / xmark_nav ------------------------------------------------

/// A fixed XMark query subset over one generated document, every query
/// compiled once and then executed and serialized once per pass.
class XMarkWorkload : public Workload {
 public:
  XMarkWorkload(const RunContext& ctx, double scale,
                std::vector<std::string> ids)
      : ctx_(ctx), scale_(scale), ids_(std::move(ids)) {}

  void Setup() override {
    queries_.clear();
    engine_.reset();
    xml_ = GenerateXml(scale_, ctx_.seed);
    engine_ = std::make_unique<XQueryEngine>(EngineFor(ExecBackend::kLazy));
    std::shared_ptr<const xqp::Document> doc =
        Require(engine_->ParseAndRegister(kDocUri, xml_), "register");
    Require(engine_->GetDocumentIndexes(kDocUri), "index build");
    Require(engine_->GetTagIndex(kDocUri), "tag index build");
    for (const std::string& id : ids_) {
      queries_.push_back(
          {id, Require(engine_->Compile(xqp::FindXMarkQuery(id)->text),
                       "compile " + id)});
    }
    if (!facts_) {
      facts_ = ComputeXMarkFacts(*doc);
      // The generator's own entity count: Q8, Q9 and Q11 return one item
      // per person.
      const size_t people = xqp::CountsForScale(scale_).people;
      for (const char* id : {"Q8", "Q9", "Q11"}) {
        ctx_.report->Check(facts_->cardinality[id] == people,
                           std::string("CountsForScale people for ") + id);
      }
    }
  }

  double Pass(ExecBackend backend, PassResult* out) override {
    std::vector<QueryRun> runs;
    runs.reserve(queries_.size());
    const Clock::time_point start = Clock::now();
    for (const Query& q : queries_) {
      runs.push_back(RunQuery(*q.compiled, backend, ctx_.tracer,
                              std::string(Name(backend)) + "." + q.id));
    }
    const double ms = MsSince(start);
    for (size_t i = 0; i < runs.size(); ++i) {
      const QueryRun& run = runs[i];
      VerifyAnswer(ctx_, *facts_, &digests_, queries_[i].id, backend, run);
      out->exec_ms += run.exec_ms;
      out->serialize_ms += run.serialize_ms;
      out->serialize_bytes += run.xml.size();
      out->first_item_ms += run.first_item_ms;
      out->query_exec_ms[queries_[i].id] += run.exec_ms;
    }
    return ms;
  }

  void MeasureLayers(std::map<std::string, double>* layers) override {
    MeasureRegistration(*engine_, xml_, ctx_, layers);
    std::vector<std::string> texts;
    std::vector<const CompiledQuery*> compiled;
    for (const Query& q : queries_) {
      texts.push_back(xqp::FindXMarkQuery(q.id)->text);
      compiled.push_back(q.compiled.get());
    }
    MeasureCompile(*engine_, texts, ctx_, layers);
    ProfileOperators(compiled, ctx_, layers);
  }

  std::vector<XQueryEngine*> Engines() override { return {engine_.get()}; }

  void Summarize() override {
    Detail("xml_bytes", double(xml_.size()), "bytes");
  }

 private:
  struct Query {
    std::string id;
    std::unique_ptr<CompiledQuery> compiled;
  };

  RunContext ctx_;
  double scale_;
  std::vector<std::string> ids_;
  std::string xml_;
  std::unique_ptr<XQueryEngine> engine_;
  std::vector<Query> queries_;
  std::optional<XMarkFacts> facts_;
  std::map<std::string, uint64_t> digests_;
};

// --- serve_mixed -----------------------------------------------------------

/// Closed-loop serving: two clients, each sending its next request when the
/// previous one has answered, against one engine per backend. Reads are
/// seeded point and range requests, each with a fresh literal so it misses
/// the result cache and is compiled; one request in 50 registers a small
/// document, which invalidates every cache and index of the engine.
class ServeWorkload : public Workload {
 public:
  static constexpr double kScale = 0.2;
  static constexpr double kWriteScale = 0.005;
  static constexpr int kClients = 2;
  static constexpr int kRequestsPerClient = 50;  // One of them a write.
  static constexpr int kWriteDocs = 8;

  explicit ServeWorkload(const RunContext& ctx) : ctx_(ctx) {}

  void Setup() override {
    for (auto& e : engines_) e.reset();
    xml_ = GenerateXml(kScale, ctx_.seed);
    std::shared_ptr<const xqp::Document> doc;
    for (size_t i = 0; i < 3; ++i) {
      engines_[i] = std::make_unique<XQueryEngine>(EngineFor(kBackends[i]));
      doc = Require(engines_[i]->ParseAndRegister(kDocUri, xml_), "register");
      Require(engines_[i]->GetDocumentIndexes(kDocUri), "index build");
      Require(engines_[i]->GetTagIndex(kDocUri), "tag index build");
    }
    write_docs_.clear();
    for (int k = 0; k < kWriteDocs; ++k) {
      write_docs_.push_back(GenerateXml(kWriteScale, Mix(ctx_.seed, 7, k)));
    }
    if (!facts_) {
      facts_ = ComputeXMarkFacts(*doc);
      currents_ = facts_->open_current;
      std::sort(currents_.begin(), currents_.end());
      currents_.erase(std::unique(currents_.begin(), currents_.end()),
                      currents_.end());
    }
  }

  double Pass(ExecBackend backend, PassResult* out) override {
    const uint64_t batch = next_batch_++;
    std::vector<std::vector<Request>> requests(kClients);
    for (int c = 0; c < kClients; ++c) {
      requests[c] = MakeRequests(batch, c, /*write_first=*/false);
    }
    XQueryEngine& engine = *engines_[size_t(backend)];
    std::vector<std::vector<Answer>> answers(kClients);
    const Clock::time_point start = Clock::now();
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          answers[c] = Serve(engine, backend, requests[c]);
        });
      }
      for (std::thread& t : clients) t.join();
    }
    const double ms = MsSince(start);
    batch_ms_[size_t(backend)] += ms;
    batch_requests_[size_t(backend)] += kClients * kRequestsPerClient;
    for (int c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < requests[c].size(); ++i) {
        const Request& r = requests[c][i];
        const Answer& a = answers[c][i];
        Verify(backend, r, a);
        (r.write ? write_ms_ : read_ms_)[size_t(backend)].push_back(a.ms);
        out->exec_ms += a.ms - a.serialize_ms;
        out->serialize_ms += a.serialize_ms;
        out->serialize_bytes += a.xml.size();
      }
    }
    return ms;
  }

  bool PassesRepeat() const override { return false; }

  void CountPass(ExecBackend backend) override {
    // One client replaying a fixed request list that starts with a write,
    // so every replay starts from invalidated caches and does the same work.
    std::vector<Request> requests =
        MakeRequests(/*batch=*/~uint64_t{0}, 0, /*write_first=*/true);
    std::vector<Answer> answers =
        Serve(*engines_[size_t(backend)], backend, requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      Verify(backend, requests[i], answers[i]);
    }
  }

  void MeasureLayers(std::map<std::string, double>* layers) override {
    XQueryEngine& engine = *engines_[size_t(ExecBackend::kVm)];
    MeasureRegistration(engine, xml_, ctx_, layers);
    // One request of each kind stands for the compile split and the
    // operator profile.
    std::vector<std::string> texts;
    std::vector<std::unique_ptr<CompiledQuery>> compiled;
    std::vector<const CompiledQuery*> profiled;
    std::mt19937_64 rng(Mix(ctx_.seed, 11));
    for (int kind = 0; kind < kReadKinds; ++kind) {
      Request r = MakeRead(kind, rng);
      texts.push_back(r.text);
      compiled.push_back(Require(engine.Compile(r.text), "compile"));
      profiled.push_back(compiled.back().get());
    }
    MeasureCompile(engine, texts, ctx_, layers);
    ProfileOperators(profiled, ctx_, layers);
  }

  std::vector<XQueryEngine*> Engines() override {
    return {engines_[0].get(), engines_[1].get(), engines_[2].get()};
  }

  void ResetStats() override {
    for (size_t i = 0; i < 3; ++i) {
      read_ms_[i].clear();
      write_ms_[i].clear();
      batch_ms_[i] = 0;
      batch_requests_[i] = 0;
    }
  }

  void Summarize() override {
    std::vector<double> all_writes;
    for (ExecBackend b : kBackends) {
      const std::vector<double>& reads = read_ms_[size_t(b)];
      const std::vector<double>& writes = write_ms_[size_t(b)];
      all_writes.insert(all_writes.end(), writes.begin(), writes.end());
      const std::string suffix = std::string(".") + Name(b);
      const double tail = TailPercentileFor(reads.size());
      Detail("serve_qps" + suffix,
             double(batch_requests_[size_t(b)]) /
                 (batch_ms_[size_t(b)] / 1000.0),
             "1/s", batch_requests_[size_t(b)]);
      Detail("serve_p50_ms" + suffix, Median(reads), "ms", reads.size());
      Detail("serve_p" + FormatP(tail) + "_ms" + suffix,
             Percentile(reads, tail), "ms", reads.size());
      Detail("write_p50_ms" + suffix, Median(writes), "ms", writes.size());
    }
    const double tail = TailPercentileFor(all_writes.size());
    Detail("write_p" + FormatP(tail) + "_ms", Percentile(all_writes, tail),
           "ms", all_writes.size());
  }

 private:
  static constexpr int kReadKinds = 5;

  struct Request {
    bool write = false;
    int doc = 0;           // Write: which pre-generated document.
    std::string text;      // Read: the query.
    std::string expected;  // Read: the oracle's serialized answer.
  };
  struct Answer {
    xqp::Status status;
    std::string xml;
    double ms = 0;
    double serialize_ms = 0;
  };

  static std::string FormatP(double p) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%g", p);
    return buf;
  }

  /// A read of `kind` with a fresh request tag literal; its expected answer
  /// comes from the node-table oracle.
  Request MakeRead(int kind, std::mt19937_64& rng) {
    const std::string tag = "r" + std::to_string(next_tag_++);
    const auto& person = facts_->people[rng() % facts_->people.size()];
    Request r;
    switch (kind) {
      case 0:
        r.text = "(\"" + tag +
                 "\", string(doc(\"xmark.xml\")/site/people/person[@id = \"" +
                 person.id + "\"]/name))";
        r.expected = tag + " " + person.name;
        break;
      case 1: {
        const auto& item = facts_->items[rng() % facts_->items.size()];
        r.text = "(\"" + tag +
                 "\", string(doc(\"xmark.xml\")/site/regions//item[@id = \"" +
                 item.id + "\"]/name))";
        r.expected = tag + " " + item.name;
        break;
      }
      case 2: {
        // A threshold strictly between two distinct current prices.
        const size_t i = rng() % (currents_.size() - 1);
        char x[64];
        std::snprintf(x, sizeof(x), "%.6f",
                      (currents_[i] + currents_[i + 1]) / 2);
        const double threshold = std::strtod(x, nullptr);
        size_t n = 0;
        for (double c : facts_->open_current) n += c > threshold;
        r.text = "(\"" + tag +
                 "\", count(doc(\"xmark.xml\")/site/open_auctions/"
                 "open_auction[current > " + x + "]))";
        r.expected = tag + " " + std::to_string(n);
        break;
      }
      case 3: {
        auto bought = facts_->closed_by_buyer.find(person.id);
        r.text = "(\"" + tag +
                 "\", count(doc(\"xmark.xml\")/site/closed_auctions/"
                 "closed_auction[buyer/@person = \"" + person.id + "\"]))";
        r.expected = tag + " " + std::to_string(
            bought == facts_->closed_by_buyer.end() ? 0 : bought->second);
        break;
      }
      default:
        r.text = "<hit id=\"" + person.id + "\" req=\"" + tag +
                 "\">{string(doc(\"xmark.xml\")/site/people/person[@id = \"" +
                 person.id + "\"]/name)}</hit>";
        r.expected = "<hit id=\"" + person.id + "\" req=\"" + tag + "\">" +
                     person.name + "</hit>";
        break;
    }
    return r;
  }

  /// One client's share of a batch. Every batch has the same shape (reads
  /// cycle through the five kinds; client c writes at position 24 + 25c),
  /// so batches do comparable work; the seed and the batch number pick the
  /// entities, thresholds and written documents. `write_first` moves the
  /// write to the front.
  std::vector<Request> MakeRequests(uint64_t batch, int client,
                                    bool write_first) {
    std::mt19937_64 rng(Mix(ctx_.seed, batch, uint64_t(client)));
    const int write_at = write_first ? 0 : 24 + 25 * client;
    std::vector<Request> out;
    for (int i = 0; i < kRequestsPerClient; ++i) {
      if (i == write_at) {
        Request w;
        w.write = true;
        w.doc = int(rng() % kWriteDocs);
        out.push_back(std::move(w));
      } else {
        out.push_back(MakeRead((i + client) % kReadKinds, rng));
      }
    }
    return out;
  }

  /// One client's closed loop.
  std::vector<Answer> Serve(XQueryEngine& engine, ExecBackend backend,
                            const std::vector<Request>& requests) {
    std::vector<Answer> answers(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      Answer& a = answers[i];
      const Clock::time_point start = Clock::now();
      if (r.write) {
        Tracer::Scope span(ctx_.tracer, "serve.write", Name(backend));
        const std::string uri = "w" + std::to_string(r.doc) + ".xml";
        a.status = engine.ParseAndRegister(uri, write_docs_[r.doc]).status();
      } else {
        Tracer::Scope span(ctx_.tracer, "serve.read", Name(backend));
        xqp::Result<xqp::Sequence> result = [&] {
          Tracer::Scope exec(ctx_.tracer, "engine.execute_cached",
                             Name(backend));
          return engine.ExecuteCached(r.text);
        }();
        if (result.ok()) {
          Tracer::Scope ser(ctx_.tracer, "xml.serialize", Name(backend));
          xqp::Result<std::string> xml = xqp::SerializeSequence(result.value());
          a.serialize_ms = ser.ElapsedMs();
          if (xml.ok()) {
            a.xml = std::move(xml.value());
          } else {
            a.status = xml.status();
          }
        } else {
          a.status = result.status();
        }
      }
      a.ms = MsSince(start);
    }
    return answers;
  }

  void Verify(ExecBackend backend, const Request& r, const Answer& a) {
    const std::string where = std::string(r.write ? "write" : "read") +
                              " on " + Name(backend);
    if (!a.status.ok()) {
      ctx_.report->Check(false, where + ": " + a.status.ToString());
      return;
    }
    ctx_.report->Check(r.write || a.xml == r.expected,
                       where + ": '" + r.text + "' returned '" + a.xml +
                           "', oracle '" + r.expected + "'");
  }

  RunContext ctx_;
  std::string xml_;
  std::unique_ptr<XQueryEngine> engines_[3];
  std::vector<std::string> write_docs_;
  std::optional<XMarkFacts> facts_;
  std::vector<double> currents_;  // Distinct open_auction/current, sorted.
  uint64_t next_batch_ = 0;
  uint64_t next_tag_ = 0;
  std::vector<double> read_ms_[3];
  std::vector<double> write_ms_[3];
  double batch_ms_[3] = {};
  uint64_t batch_requests_[3] = {};
};

// --- ingest_cold -----------------------------------------------------------

/// One cycle per pass: parse and register, build both indexes, save the
/// snapshot, open it in a fresh engine and answer the first query there.
class IngestWorkload : public Workload {
 public:
  static constexpr double kScale = 1.0;

  explicit IngestWorkload(const RunContext& ctx)
      : ctx_(ctx), path_(ctx.workdir + "/ingest.xqps") {}

  void Setup() override {
    xml_ = GenerateXml(kScale, ctx_.seed);
    if (!facts_) {
      facts_ = ComputeXMarkFacts(
          *Require(xqp::Document::Parse(xml_), "parse for the oracle"));
    }
  }

  double Pass(ExecBackend backend, PassResult* out) override {
    Cycle c;
    // Each step is timed on its own; a failed step skips the rest.
    std::map<std::string, double> step_ms;
    auto step = [&](const char* name, auto&& body) {
      if (!c.status.ok()) return;
      Tracer::Scope span(ctx_.tracer, name);
      body();
      step_ms[name] = span.ElapsedMs();
    };
    const Clock::time_point start = Clock::now();
    {
      Tracer::Scope cycle(ctx_.tracer, "ingest.cycle", Name(backend));
      step("ingest.register", [&] {
        c.writer = std::make_unique<XQueryEngine>(EngineFor(backend));
        c.status = c.writer->ParseAndRegister(kDocUri, xml_).status();
      });
      step("ingest.index", [&] {
        c.status = c.writer->GetDocumentIndexes(kDocUri).status();
        if (c.status.ok()) c.status = c.writer->GetTagIndex(kDocUri).status();
      });
      step("storage.save", [&] {
        c.status = c.writer->SaveSnapshot(kDocUri, path_);
      });
      step("storage.open", [&] {
        c.reader = std::make_unique<XQueryEngine>(EngineFor(backend));
        c.status = c.reader->LoadDocumentSnapshot(kDocUri, path_).status();
      });
      step("first_query", [&] {
        xqp::Result<std::unique_ptr<CompiledQuery>> q =
            c.reader->Compile(xqp::FindXMarkQuery("Q1")->text);
        if (!q.ok()) {
          c.status = q.status();
          return;
        }
        c.first = std::move(q.value());
        c.run = RunQuery(*c.first, backend, ctx_.tracer,
                         std::string(Name(backend)) + ".Q1");
      });
    }
    const double ms = MsSince(start);

    // Outside the timed cycle: checks, sizes, and engine teardown.
    if (!c.status.ok()) {
      ctx_.report->Check(false, std::string("ingest cycle on ") +
                                    Name(backend) + ": " +
                                    c.status.ToString());
      return ms;
    }
    VerifyAnswer(ctx_, *facts_, &digests_, "Q1", backend, c.run);
    struct stat st{};
    ctx_.report->Check(::stat(path_.c_str(), &st) == 0 && st.st_size > 0,
                       "snapshot file " + path_);
    out->snapshot_bytes = uint64_t(st.st_size);
    out->save_ms = step_ms["storage.save"];
    out->open_ms = step_ms["storage.open"];
    out->exec_ms = c.run.exec_ms;
    out->serialize_ms = c.run.serialize_ms;
    out->serialize_bytes = c.run.xml.size();
    out->first_item_ms = c.run.first_item_ms;
    out->query_exec_ms["Q1"] = c.run.exec_ms;
    const double ingest_ms =
        step_ms["ingest.register"] + step_ms["ingest.index"];
    ingest_mb_s_.push_back(double(xml_.size()) / 1e6 / (ingest_ms / 1000.0));
    cold_ms_.push_back(step_ms["storage.open"] + step_ms["first_query"]);
    bytes_ratio_.push_back(double(st.st_size) / double(xml_.size()));
    return ms;
  }

  void MeasureLayers(std::map<std::string, double>* layers) override {
    XQueryEngine engine(EngineFor(ExecBackend::kVm));
    MeasureRegistration(engine, xml_, ctx_, layers);
    std::shared_ptr<const xqp::Document> doc =
        Require(engine.GetDocument(kDocUri), "document");
    std::vector<double> tokens_ms;
    for (int rep = 0; rep < 2; ++rep) {
      Tracer::Scope span(ctx_.tracer, "tokens.build");
      xqp::TokenStream tokens = xqp::TokenStream::FromDocument(*doc);
      tokens_ms.push_back(span.ElapsedMs());
    }
    (*layers)["tokens.build_ms"] = Median(tokens_ms);
    const std::string q1 = xqp::FindXMarkQuery("Q1")->text;
    MeasureCompile(engine, {q1}, ctx_, layers);
    std::unique_ptr<CompiledQuery> compiled =
        Require(engine.Compile(q1), "compile Q1");
    ProfileOperators({compiled.get()}, ctx_, layers);
  }

  std::vector<XQueryEngine*> Engines() override { return {}; }

  void ResetStats() override {
    ingest_mb_s_.clear();
    cold_ms_.clear();
    bytes_ratio_.clear();
  }

  void Summarize() override {
    Detail("xml_bytes", double(xml_.size()), "bytes");
    Detail("ingest_mb_s", Median(ingest_mb_s_), "MB/s", ingest_mb_s_.size());
    const double tail = TailPercentileFor(cold_ms_.size());
    Detail("cold_start_ms", Median(cold_ms_), "ms", cold_ms_.size());
    Detail("cold_start_ms.p" + std::to_string(int(tail)),
           Percentile(cold_ms_, tail), "ms", cold_ms_.size());
    Detail("snapshot_bytes_per_xml_byte", Median(bytes_ratio_), "ratio",
           bytes_ratio_.size());
  }

  ~IngestWorkload() override { std::remove(path_.c_str()); }

 private:
  struct Cycle {
    xqp::Status status;
    std::unique_ptr<XQueryEngine> writer;
    std::unique_ptr<XQueryEngine> reader;
    std::unique_ptr<CompiledQuery> first;
    QueryRun run;
  };

  RunContext ctx_;
  std::string path_;
  std::string xml_;
  std::optional<XMarkFacts> facts_;
  std::map<std::string, uint64_t> digests_;
  std::vector<double> ingest_mb_s_;
  std::vector<double> cold_ms_;
  std::vector<double> bytes_ratio_;
};

const std::vector<std::string> kJoinQueries = {"Q8", "Q9", "Q10", "Q11",
                                               "Q12"};

std::vector<std::string> NavQueries() {
  std::vector<std::string> out;
  for (const xqp::XMarkQuery& q : xqp::XMarkQuerySet()) {
    if (std::find(kJoinQueries.begin(), kJoinQueries.end(), q.id) ==
        kJoinQueries.end()) {
      out.push_back(q.id);
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "xmark_join", "xmark_nav", "serve_mixed", "ingest_cold"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunContext& ctx) {
  // Q8-Q12 are correlated nested FLWORs (Q10 joins on interest category);
  // today's plans run them as quadratic nested loops, so they use a smaller
  // document than the navigation queries: small enough that one run holds
  // a few dozen passes per backend.
  constexpr double kJoinScale = 0.1;
  if (name == "xmark_join") {
    return std::make_unique<XMarkWorkload>(ctx, kJoinScale, kJoinQueries);
  }
  if (name == "xmark_nav") {
    return std::make_unique<XMarkWorkload>(ctx, 1.0, NavQueries());
  }
  if (name == "serve_mixed") return std::make_unique<ServeWorkload>(ctx);
  if (name == "ingest_cold") return std::make_unique<IngestWorkload>(ctx);
  return nullptr;
}

}  // namespace xqpbench
