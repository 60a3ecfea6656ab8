// perfbench — the repository benchmark's measuring binary (see README.md beside this
// file for the workloads and the definition of every metric).
//
//   perfbench setup   --workload W --dir D --repeats R [--programs a,b]
//   perfbench measure --workload W --seed N --seconds S --trace 0|1 --dir D
//                     [--trace-out F]
//
// `setup` sets the workload up R times in a row and prints
// {"setup_s": <median>, ...}. One set-up writes the workload's inputs into D
// and builds each one's HTG (and, for warm_A, fills the artifact cache and
// records the reference outputs of the filling compiles). `measure` compiles
// the inputs in rounds until --seconds have passed (at least two rounds) and
// prints one JSON object of metrics. With --trace 0 the compiles go through the
// public pipeline API (Session, runBatch); with --trace 1 the benchmark calls each
// layer itself, recording a span around every call, and alternates traced
// rounds with untraced ones so the tracing overhead is measured.
// perfbench/run.py builds this binary and calls both commands.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/codegen/annotate.hpp"
#include "hetpar/codegen/mpa_spec.hpp"
#include "hetpar/codegen/premap_spec.hpp"
#include "hetpar/cost/interp.hpp"
#include "hetpar/frontend/parser.hpp"
#include "hetpar/frontend/sema.hpp"
#include "hetpar/htg/builder.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/ir/dataflow.hpp"
#include "hetpar/ir/sections.hpp"
#include "hetpar/parallel/region_cache.hpp"
#include "hetpar/pipeline/batch.hpp"
#include "hetpar/pipeline/digest.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"
#include "hetpar/sched/flatten.hpp"
#include "hetpar/sim/mpsoc.hpp"
#include "hetpar/support/thread_pool.hpp"
#include "hetpar/verify/invariants.hpp"

namespace {

using namespace hetpar;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { Warm, Batch };

struct Workload {
  const char* name;
  Kind kind;
  platform::Platform (*platform)();
  ir::DependenceMode depMode;
  ir::FlowMode flowMode;
  std::vector<std::string> programs;
};

// Fixed program sets: a set of different total cost per seed would make the
// run-to-run spread measure the draw, not the program. The seed draws the
// submission order of every round instead, which decides which batch job
// starts first and so which one fills a shared region-cache entry first.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"warm_A", Kind::Warm, platform::platformA, ir::DependenceMode::Conservative,
       ir::FlowMode::Conservative, {"adpcm_enc", "edge_detect"}},
      {"batch_B_live", Kind::Batch, platform::platformB, ir::DependenceMode::Affine,
       ir::FlowMode::Live,
       {"adpcm_enc", "edge_detect", "iir_4", "mult_10"}},
  };
  return all;
}

const Workload& findWorkload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return w;
  throw std::runtime_error("unknown workload '" + name + "'");
}

struct Program {
  std::string name;
  std::string source;
};

// Round r's submission order: the r-th Fisher-Yates shuffle drawn from the
// seed's stream (std::shuffle's output is implementation-defined; this is
// not).
std::vector<int> roundOrder(std::uint64_t seed, int round, int n) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(round));
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each layer call, kept in
// memory and written as Chrome trace-event JSON when the run ends.

class Tracer {
 public:
  int begin(const char* name, int parent, int program) {
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, program});
    return static_cast<int>(spans_.size()) - 1;
  }
  void rename(int id, const char* name) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].name = name;
  }
  void end(int id) {
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }
  /// Summed duration per span name.
  std::map<std::string, double> totals() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.end - s.start;
    return out;
  }
  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[320];
      std::snprintf(line, sizeof line,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                    i ? ",\n" : "", s.name, s.program, s.start * 1e6, (s.end - s.start) * 1e6, i,
                    s.parent);
      os << line;
    }
    os << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    double start, end;
    int parent;   ///< index of the enclosing span, -1 at top level
    int program;  ///< compile id (one per compilation in the run)
  };
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int parent, int program)
      : tracer_(t), id_(t.begin(name, parent, program)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// One compilation: parse -> emit. `Products` is what the checks read; it
// points into whichever object owns the artifacts (a Session, or the traced
// path's own bundle).

struct Products {
  const htg::Graph* graph = nullptr;
  const cost::TimingModel* timing = nullptr;
  const parallel::ParallelizeOutcome* outcome = nullptr;
  bool cached = false;
  pipeline::Session::Estimates est;
  pipeline::Session::SimNumbers sim;
  std::string annotated, parspec, premap;
};

struct TracedArtifacts {
  htg::FrontendBundle bundle;
  std::unique_ptr<cost::TimingModel> timing;
  parallel::ParallelizeOutcome outcome;
};

struct Compiled {
  std::string name;
  double seconds = 0.0;
  std::string error;  ///< the compilation threw
  parallel::IlpStatistics stats;
  std::unique_ptr<pipeline::Session> session;
  std::unique_ptr<TracedArtifacts> traced;
  Products products;
  std::string report;  ///< runBatch's per-program report text
  double nodes = 0.0, edges = 0.0, emitBytes = 0.0;

  /// Keeps only the numbers, so a run's memory does not grow with its round
  /// count (peak_rss_mb must not depend on how fast the machine is).
  void release() {
    if (products.graph != nullptr) {
      nodes = static_cast<double>(products.graph->size());
      for (std::size_t i = 0; i < products.graph->size(); ++i)
        edges += static_cast<double>(
            products.graph->node(static_cast<htg::NodeId>(i)).edges.size());
    }
    emitBytes = static_cast<double>(products.annotated.size() + products.parspec.size() +
                                    products.premap.size());
    products.graph = nullptr;
    products.timing = nullptr;
    products.outcome = nullptr;
    products.annotated.clear();
    products.parspec.clear();
    products.premap.clear();
    session.reset();
    traced.reset();
  }
};

struct Config {
  const Workload* workload = nullptr;
  platform::Platform platform;
  platform::ClassId mainClass = 0;
  std::shared_ptr<pipeline::ArtifactCache> artifactCache;
  std::shared_ptr<parallel::IlpRegionCache> regionCache;  ///< null: private per compile
};

pipeline::SessionInputs sessionInputs(const Program& p, const Config& cfg) {
  pipeline::SessionInputs in;
  in.name = p.name;
  in.source = p.source;
  in.platform = cfg.platform;
  in.depMode = cfg.workload->depMode;
  in.flowMode = cfg.workload->flowMode;
  in.parallelizer.jobs = 1;
  in.parallelizer.regionCache = cfg.regionCache;
  in.artifactCache = cfg.artifactCache;
  return in;
}

/// The untraced path: one Session, every public pass.
Compiled compileSession(const Program& p, const Config& cfg) {
  Compiled c;
  c.name = p.name;
  const auto start = Clock::now();
  try {
    c.session = std::make_unique<pipeline::Session>(sessionInputs(p, cfg));
    pipeline::Session& s = *c.session;
    Products& out = c.products;
    out.est = s.estimates(cfg.mainClass);
    out.sim = s.simulate(cfg.mainClass);
    out.annotated = s.emitAnnotated(cfg.mainClass);
    out.parspec = s.emitParspec(cfg.mainClass);
    out.premap = s.emitPremap(cfg.mainClass);
    c.seconds = secondsSince(start);
    out.graph = &s.frontend().graph;
    out.timing = &s.timing();
    out.outcome = &s.parallelize();
    out.cached = s.parallelizeWasCached();
    c.stats = out.outcome->stats;
  } catch (const std::exception& e) {
    c.seconds = secondsSince(start);
    c.error = e.what();
  }
  return c;
}

/// The traced path: the same steps as Session (pipeline/session.cpp), one
/// public layer call at a time, each inside a span.
Compiled compileTraced(const Program& p, const Config& cfg, Tracer& tracer, int program) {
  const bool emit = cfg.workload->kind != Kind::Batch;  // runBatch emits no specs
  Compiled c;
  c.name = p.name;
  const auto start = Clock::now();
  try {
    const ScopedSpan compile(tracer, "compile", -1, program);
    const int top = compile.id();
    c.traced = std::make_unique<TracedArtifacts>();
    TracedArtifacts& t = *c.traced;
    htg::FrontendBundle& b = t.bundle;
    const Workload& w = *cfg.workload;
    {
      const ScopedSpan s(tracer, "frontend.parse", top, program);
      b.program = frontend::parseProgram(p.source);
    }
    {
      const ScopedSpan s(tracer, "frontend.sema", top, program);
      b.sema = frontend::analyze(b.program);
    }
    if (w.flowMode == ir::FlowMode::Live) {
      const ScopedSpan s(tracer, "ir.dataflow", top, program);
      b.defuse = std::make_unique<ir::DefUseAnalysis>(b.program, b.sema);
      b.dataflow = std::make_unique<ir::DataflowAnalysis>(b.program, b.sema, *b.defuse);
      b.sections = b.dataflow->takeSections();
    } else {
      const ScopedSpan s(tracer, "ir.sections", top, program);
      b.defuse = std::make_unique<ir::DefUseAnalysis>(b.program, b.sema);
      b.sections = std::make_unique<ir::SectionAnalysis>(b.program, b.sema);
    }
    {
      const ScopedSpan s(tracer, "cost.interp", top, program);
      b.profile = cost::interpret(b.program, b.sema);
    }
    {
      const ScopedSpan s(tracer, "htg.build", top, program);
      ir::DependenceOptions dep;
      dep.mode = w.depMode;
      dep.sections = b.sections.get();
      dep.flow = w.flowMode;
      dep.dataflow = b.dataflow.get();
      b.graph = htg::buildGraph({b.program, b.sema, *b.defuse, b.profile, dep});
      htg::validateOrThrow(b.graph);
    }
    t.timing = std::make_unique<cost::TimingModel>(cfg.platform);
    Products& out = c.products;
    {
      // The artifact key is the pipeline's own (a Session computes it from
      // its inputs without running a pass).
      const std::string key =
          cfg.artifactCache ? pipeline::Session(sessionInputs(p, cfg)).outcomeKey() : "";
      if (cfg.artifactCache) {
        const ScopedSpan s(tracer, "pipeline.miss", top, program);
        std::string payload;
        out.cached = cfg.artifactCache->load(key, payload) &&
                     pipeline::deserializeOutcome(payload, t.outcome) &&
                     pipeline::outcomeFitsGraph(t.outcome, b.graph);
        if (out.cached) {
          t.outcome.stats = parallel::IlpStatistics{};
          tracer.rename(s.id(), "pipeline.hit");
        }
      }
      if (!out.cached) {
        {
          const ScopedSpan s(tracer, "parallel.run", top, program);
          parallel::ParallelizerOptions po = sessionInputs(p, cfg).parallelizer;
          po.dependenceMode = w.depMode;
          po.flowMode = w.flowMode;
          t.outcome = parallel::Parallelizer(b.graph, *t.timing, po).run();
        }
        if (cfg.artifactCache) {
          const ScopedSpan s(tracer, "pipeline.store", top, program);
          cfg.artifactCache->store(key, pipeline::serializeOutcome(t.outcome));
        }
      }
    }
    const parallel::SolutionRef best = t.outcome.bestRoot(b.graph, cfg.mainClass);
    if (!best.valid()) throw std::runtime_error("no root solution for the main class");
    {
      const auto& rootSet = t.outcome.table.at(b.graph.root());
      out.est.sequentialSeconds = rootSet.at(rootSet.sequentialFor(cfg.mainClass)).timeSeconds;
      out.est.parallelSeconds = rootSet.at(best.index).timeSeconds;
    }
    {
      const ScopedSpan s(tracer, "sim.simulate", top, program);
      const int mainCore = cfg.platform.firstCoreOfClass(cfg.mainClass);
      out.sim.sequentialSeconds =
          sim::simulate(sched::flattenSequential(b.graph, *t.timing, mainCore).graph)
              .makespanSeconds;
      const sched::FlattenResult flat =
          sched::flatten(b.graph, t.outcome.table, best, *t.timing, mainCore);
      out.sim.parallelSeconds = sim::simulate(flat.graph).makespanSeconds;
      out.sim.taskCount = flat.graph.tasks.size();
    }
    if (emit) {
      const ScopedSpan s(tracer, "codegen.emit", top, program);
      out.annotated =
          codegen::annotateSource(b.program, b.graph, t.outcome.table, best, cfg.platform);
      out.parspec = codegen::mpaSpec(b.graph, t.outcome.table, best);
      out.premap = codegen::premapSpec(b.graph, t.outcome.table, best, cfg.platform);
    }
    c.seconds = secondsSince(start);
    out.graph = &b.graph;
    out.timing = t.timing.get();
    out.outcome = &t.outcome;
    c.stats = t.outcome.stats;
  } catch (const std::exception& e) {
    c.seconds = secondsSince(start);
    c.error = e.what();
  }
  return c;
}

// ---------------------------------------------------------------------------
// Checks

/// Digest of everything a compile produced that must not depend on cache
/// state: the plan (statistics excluded: a hit zeroes them), the estimates,
/// the simulated schedule and the three emitted specs.
std::string fingerprint(const Products& p) {
  parallel::ParallelizeOutcome plan = *p.outcome;
  plan.stats = parallel::IlpStatistics{};
  pipeline::Digest d;
  d.put(pipeline::serializeOutcome(plan));
  d.putF64(p.est.sequentialSeconds);
  d.putF64(p.est.parallelSeconds);
  d.putF64(p.sim.sequentialSeconds);
  d.putF64(p.sim.parallelSeconds);
  d.putU64(p.sim.taskCount);
  d.put(p.annotated);
  d.put(p.parspec);
  d.put(p.premap);
  return d.hex();
}

/// The correctness gate of one compilation; returns the problems found.
/// `specs`: the compile emitted the annotated source, parspec and premap.
std::vector<std::string> check(const Compiled& c, bool specs = true) {
  if (!c.error.empty()) return {"threw: " + c.error};
  std::vector<std::string> problems;
  const Products& p = c.products;
  for (const std::string& s : verify::checkSolutionTable(*p.graph, *p.timing, p.outcome->table))
    problems.push_back("invariant: " + s);
  if (!(p.sim.parallelSeconds > 0.0) || p.sim.sequentialSeconds / p.sim.parallelSeconds < 1.0)
    problems.push_back("simulated speedup below 1");
  if (specs && (p.annotated.empty() || p.parspec.empty() || p.premap.empty()))
    problems.push_back("empty emitted artifact");
  return problems;
}

double speedup(const Compiled& c) {
  return c.products.sim.sequentialSeconds / c.products.sim.parallelSeconds;
}

/// Counters that must repeat exactly for a program in every cold compile; a
/// mismatch means the wall-clock ILP limit fired.
std::string counterKey(const parallel::IlpStatistics& s) {
  return std::to_string(s.simplexIterations) + "/" + std::to_string(s.bnbNodes) + "/" +
         std::to_string(s.refactorizations) + "/" + std::to_string(s.numIlps + s.cacheHits);
}

// ---------------------------------------------------------------------------
// Inputs on disk

std::vector<Program> readInputs(const fs::path& dir) {
  std::ifstream list(dir / "inputs" / "programs.txt");
  if (!list) throw std::runtime_error("no inputs in " + dir.string() + " (run setup first)");
  std::vector<Program> programs;
  std::string name;
  while (std::getline(list, name)) {
    if (name.empty()) continue;
    std::ifstream src(dir / "inputs" / (name + ".c"));
    std::stringstream ss;
    ss << src.rdbuf();
    programs.push_back({name, ss.str()});
  }
  return programs;
}

std::map<std::string, std::string> readReferences(const fs::path& dir) {
  std::map<std::string, std::string> refs;
  std::ifstream in(dir / "reference.txt");
  std::string name, digest;
  while (in >> name >> digest) refs[name] = digest;
  return refs;
}

Config makeConfig(const Workload& w) {
  Config cfg;
  cfg.workload = &w;
  cfg.platform = w.platform();
  cfg.mainClass = cfg.platform.slowestClass();
  return cfg;
}

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

class JsonMetrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(value) ? value : 0.0);
    os_ << (first_ ? "" : ", ") << '"' << name << "\": {\"value\": " << buf << ", \"unit\": \""
        << unit << "\"}";
    first_ = false;
  }
  std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// setup

std::vector<Program> selectPrograms(const Workload& w, const std::string& override) {
  std::vector<std::string> names = w.programs;
  if (!override.empty()) {
    names.clear();
    std::stringstream ss(override);
    for (std::string n; std::getline(ss, n, ',');) names.push_back(n);
  }
  std::vector<Program> out;
  for (const std::string& n : names) out.push_back({n, benchsuite::find(n).source});
  return out;
}

/// One set-up of the workload into `dir`; returns its time, or a negative
/// value if an input failed. For warm_A, `counters` collects each fill
/// compile's counterKey by program.
double setupOnce(const Workload& w, const fs::path& dir, const std::vector<Program>& programs,
                 std::map<std::string, std::string>& counters) {
  const auto start = Clock::now();
  fs::remove_all(dir);
  fs::create_directories(dir / "inputs");
  {
    std::ofstream list(dir / "inputs" / "programs.txt");
    for (const Program& p : programs) {
      list << p.name << "\n";
      std::ofstream(dir / "inputs" / (p.name + ".c")) << p.source;
      // Every input must build a valid HTG in the workload's modes, so no
      // timed compile can fail on its input.
      pipeline::buildFrontend(p.source, w.depMode, w.flowMode);
    }
  }
  if (w.kind == Kind::Warm) {
    // Fill the artifact cache with cold compiles and keep what they
    // produced: every warm compile must reproduce it exactly.
    Config cfg = makeConfig(w);
    cfg.artifactCache = std::make_shared<pipeline::ArtifactCache>((dir / "cache").string());
    std::ofstream refs(dir / "reference.txt");
    for (const Program& p : programs) {
      const Compiled c = compileSession(p, cfg);
      const std::vector<std::string> problems = check(c);
      if (!problems.empty()) {
        std::fprintf(stderr, "setup: %s: %s\n", p.name.c_str(), problems.front().c_str());
        return -1.0;
      }
      refs << p.name << " " << fingerprint(c.products) << "\n";
      counters[p.name] = counterKey(c.stats);
    }
  }
  return secondsSince(start);
}

/// Sets up `repeats` times and reports the median. Steadiness check (warm_A):
/// every fill compile's deterministic counters must equal the first fill's;
/// a fill that differs is flagged, counted and kept out of the median.
int runSetup(const Workload& w, const fs::path& dir, const std::string& programsOverride,
             int repeats) {
  if (repeats < 1) throw std::runtime_error("--repeats must be at least 1");
  const std::vector<Program> programs = selectPrograms(w, programsOverride);
  std::map<std::string, std::string> first;
  std::vector<double> samples;
  int unsteady = 0;
  for (int i = 0; i < repeats; ++i) {
    std::map<std::string, std::string> counters;
    const double seconds = setupOnce(w, dir, programs, counters);
    if (seconds < 0.0) return 2;
    if (i == 0) first = counters;
    if (counters != first) {
      ++unsteady;
      for (const auto& [name, key] : counters)
        if (key != first[name])
          std::fprintf(stderr, "UNSTEADY set-up %d %s: counters %s, first set-up %s\n", i,
                       name.c_str(), key.c_str(), first[name].c_str());
      continue;
    }
    samples.push_back(seconds);
  }
  std::ofstream(dir / "unsteady.txt") << unsteady << "\n";
  std::string list;
  for (const double v : samples) list += (list.empty() ? "" : ", ") + std::to_string(v);
  std::fprintf(stderr, "setup_s samples: %s (%d unsteady)\n", list.c_str(), unsteady);
  std::printf("{\"setup_s\": %.10g}\n", median(samples));
  return 0;
}

// ---------------------------------------------------------------------------
// measure

struct RoundResult {
  bool traced = false;
  double wall = 0.0;
  double busy = 0.0;  ///< summed compile time
  int workers = 1;
  std::vector<double> latencies;
  std::vector<Compiled> compiles;  ///< in input order
  pipeline::ArtifactCacheStats cache;
  std::map<std::string, double> spans;  ///< summed span time per layer (traced)
};

struct MeasureState {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  fs::path dir;
  std::vector<Program> programs;
  std::map<std::string, std::string> references;  ///< warm_A only
  int nproc = 1;
  int attempted = 0;
  int failed = 0;
  std::map<std::string, std::string> firstFingerprint;  ///< plan digest / "report:" batch text
  Tracer tracer;
  int nextProgramId = 0;
};

void countFailure(MeasureState& st, const std::string& program, const std::string& why) {
  ++st.failed;
  std::fprintf(stderr, "FAILED %s: %s\n", program.c_str(), why.c_str());
}

RoundResult runRound(MeasureState& st, int round, int draw, bool traced) {
  const Workload& w = *st.workload;
  const int n = static_cast<int>(st.programs.size());
  const std::vector<int> order = roundOrder(st.seed, draw, n);
  Config cfg = makeConfig(w);
  const fs::path roundDir = st.dir / ("round-" + std::to_string(round));
  if (w.kind == Kind::Warm) {
    cfg.artifactCache = std::make_shared<pipeline::ArtifactCache>((st.dir / "cache").string());
  } else {
    fs::remove_all(roundDir);
    cfg.artifactCache = std::make_shared<pipeline::ArtifactCache>(roundDir.string());
    cfg.regionCache = std::make_shared<parallel::IlpRegionCache>();
  }

  RoundResult r;
  r.traced = traced;
  r.compiles.resize(static_cast<std::size_t>(n));
  const std::map<std::string, double> spansBefore = st.tracer.totals();
  const auto start = Clock::now();
  if (w.kind == Kind::Batch && !traced) {
    pipeline::BatchConfig bc;
    bc.platform = cfg.platform;
    bc.mainClass = cfg.mainClass;
    bc.depMode = w.depMode;
    bc.flowMode = w.flowMode;
    bc.simulate = true;
    bc.workers = st.nproc;
    bc.artifactCache = cfg.artifactCache;
    bc.regionCache = cfg.regionCache;
    std::vector<pipeline::BatchJob> jobs;
    for (const int i : order) jobs.push_back({st.programs[static_cast<std::size_t>(i)].name,
                                              st.programs[static_cast<std::size_t>(i)].source});
    const pipeline::BatchReport report = pipeline::runBatch(jobs, bc);
    r.wall = secondsSince(start);
    r.workers = std::min(st.nproc, n);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const pipeline::BatchJobResult& job = report.jobs[k];
      Compiled& c = r.compiles[static_cast<std::size_t>(order[k])];
      c.name = job.name;
      for (const pipeline::PassRecord& rec : job.passes) c.seconds += rec.wallSeconds;
      if (!job.ok) c.error = job.error;
      c.report = job.report;
    }
  } else if (w.kind == Kind::Batch) {
    r.workers = std::min(st.nproc, n);
    support::ThreadPool pool(r.workers);
    std::vector<std::future<Compiled>> futures;
    for (const int i : order) {
      const Program* p = &st.programs[static_cast<std::size_t>(i)];
      const int id = st.nextProgramId++;
      futures.push_back(pool.submit(
          [p, &cfg, &st, id] { return compileTraced(*p, cfg, st.tracer, id); }));
    }
    for (std::size_t k = 0; k < futures.size(); ++k)
      r.compiles[static_cast<std::size_t>(order[k])] = futures[k].get();
    r.wall = secondsSince(start);
  } else {
    for (const int i : order) {
      const Program& p = st.programs[static_cast<std::size_t>(i)];
      r.compiles[static_cast<std::size_t>(i)] =
          traced ? compileTraced(p, cfg, st.tracer, st.nextProgramId++) : compileSession(p, cfg);
    }
    r.wall = secondsSince(start);
  }
  r.cache = cfg.artifactCache->stats();
  r.spans = st.tracer.totals();
  for (const auto& [name, seconds] : spansBefore) r.spans[name] -= seconds;

  // Checks, outside the timed region.
  for (std::size_t i = 0; i < r.compiles.size(); ++i) {
    Compiled& c = r.compiles[i];
    const std::string& name = st.programs[i].name;
    ++st.attempted;
    r.latencies.push_back(c.seconds);
    r.busy += c.seconds;
    if (w.kind == Kind::Batch && !traced) {
      if (!c.error.empty()) {
        countFailure(st, name, "threw: " + c.error);
        continue;
      }
      // The batch report is deterministic per program: it must repeat.
      auto [it, fresh] = st.firstFingerprint.emplace("report:" + name, c.report);
      if (!fresh && it->second != c.report)
        countFailure(st, name, "batch report differs from the first round's");
      continue;
    }
    const std::vector<std::string> problems = check(c, w.kind != Kind::Batch);
    if (!problems.empty()) {
      countFailure(st, name, problems.front());
      continue;
    }
    const std::string fp = fingerprint(c.products);
    if (w.kind == Kind::Warm) {
      if (!c.products.cached) countFailure(st, name, "warm compile missed the artifact cache");
      else if (st.references[name] != fp)
        countFailure(st, name, "warm plan or artifacts differ from the cold compile");
      continue;
    }
    auto [it, fresh] = st.firstFingerprint.emplace(name, fp);
    if (!fresh && it->second != fp) countFailure(st, name, "plan differs from the first round's");
  }
  for (Compiled& c : r.compiles) c.release();
  std::fprintf(stderr, "round %d%s: wall %.4f s,", round, traced ? " (traced)" : "", r.wall);
  for (std::size_t i = 0; i < r.compiles.size(); ++i)
    std::fprintf(stderr, " %s %.4f", st.programs[i].name.c_str(), r.compiles[i].seconds);
  std::fprintf(stderr, "\n");
  // The batch gate reopens round 0's plans after the last round.
  if (w.kind == Kind::Batch && round > 0) fs::remove_all(roundDir);
  return r;
}

/// Batch correctness gate: runBatch keeps no outcome, so each program is
/// reopened as a Session on the first round's artifact cache (a verified
/// hit) and its plan and products go through the full check.
void checkBatchPlans(MeasureState& st, std::vector<double>& speedups) {
  const Workload& w = *st.workload;
  Config cfg = makeConfig(w);
  const fs::path dir = st.dir / "round-0";
  cfg.artifactCache = std::make_shared<pipeline::ArtifactCache>(dir.string());
  support::ThreadPool pool(st.nproc);
  std::vector<std::future<Compiled>> futures;
  for (const Program& p : st.programs)
    futures.push_back(pool.submit([&p, &cfg] { return compileSession(p, cfg); }));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Compiled c = futures[i].get();
    // A job that threw in round 0 stored no plan and is already counted.
    if (st.firstFingerprint.count("report:" + st.programs[i].name) == 0) continue;
    const std::vector<std::string> problems = check(c);
    if (!problems.empty())
      countFailure(st, st.programs[i].name, "plan check: " + problems.front());
    else if (!c.products.cached)
      countFailure(st, st.programs[i].name, "batch stored no plan");
    else
      speedups.push_back(speedup(c));
  }
  fs::remove_all(dir);
}

/// The fastest round of one kind (null when there is none).
const RoundResult* fastestRound(const std::vector<RoundResult>& rounds, bool traced) {
  const RoundResult* best = nullptr;
  for (const RoundResult& r : rounds)
    if (r.traced == traced && (best == nullptr || r.wall < best->wall)) best = &r;
  return best;
}

int runMeasure(MeasureState& st, double seconds, bool trace, const std::string& traceOut) {
  const Workload& w = *st.workload;
  st.programs = readInputs(st.dir);
  if (w.kind == Kind::Warm) st.references = readReferences(st.dir);
  st.nproc = support::ThreadPool::resolveJobs(0);

  std::vector<RoundResult> rounds;
  const auto start = Clock::now();
  // Trace runs alternate untraced and traced rounds in pairs that share one
  // submission order, so the difference of their walls is the tracing
  // overhead; the per-layer numbers come from the traced rounds.
  for (int round = 0; round < 2 || secondsSince(start) < seconds; ++round) {
    const bool traced = trace && round % 2 == 1;
    rounds.push_back(runRound(st, round, trace ? round / 2 : round, traced));
  }

  std::vector<double> speedups;
  if (w.kind == Kind::Batch) {
    checkBatchPlans(st, speedups);
  } else {
    for (const Compiled& c : rounds.front().compiles)
      if (c.error.empty()) speedups.push_back(speedup(c));
  }

  // Timings are the lowest the run observed. On a shared machine the same
  // work ran up to ~1.9x slower in bursts of seconds to minutes, and the
  // interference only ever adds time, so the minimum is the estimate it
  // disturbs least. Each program's latency is its fastest compile of the
  // run; wall_s is the batch's fastest round, or for a serial workload the
  // sum of the latencies (a serial round is its compiles back to back).
  const RoundResult* fastest = fastestRound(rounds, false);
  const RoundResult* fastestTraced = fastestRound(rounds, true);
  std::vector<double> latencies = fastest->latencies;
  for (const RoundResult& r : rounds) {
    if (r.traced) continue;
    for (std::size_t i = 0; i < latencies.size(); ++i)
      latencies[i] = std::min(latencies[i], r.latencies[i]);
  }
  double wall = fastest->wall;
  if (w.kind != Kind::Batch) {
    wall = 0.0;
    for (const double l : latencies) wall += l;
  }
  double logSum = 0.0;
  for (const double s : speedups) logSum += std::log(s);
  const double geomean = speedups.empty() ? 0.0 : std::exp(logSum / speedups.size());
  std::fprintf(stderr,
               "%s seed %llu: %zu rounds, %d compilations, %d failed, nproc %d; "
               "compile_p50_s and compile_p90_s over %zu samples (fewer than 10 beyond p90)\n",
               w.name, static_cast<unsigned long long>(st.seed), rounds.size(),
               st.attempted, st.failed, st.nproc, latencies.size());

  JsonMetrics m;
  if (!trace) {
    m.add("wall_s", wall, "s");
    m.add("compile_p50_s", quantile(latencies, 0.5), "s");
    m.add("compile_p90_s", quantile(latencies, 0.9), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("plan_speedup_geomean", geomean, "x");
    m.add("ok_frac",
          st.attempted ? 1.0 - static_cast<double>(st.failed) / st.attempted : 0.0, "ratio");
  } else {
    // The fastest traced round, as for trace.wall_s, so layer times add up
    // against it (round 1 is traced, so there is one).
    const RoundResult& r = *fastestTraced;
    std::map<std::string, double> span = r.spans;
    parallel::IlpStatistics ilp;
    double nodes = 0, edges = 0, tasks = 0, emitBytes = 0;
    for (const Compiled& c : r.compiles) {
      ilp.merge(c.stats);
      nodes += c.nodes;
      edges += c.edges;
      tasks += static_cast<double>(c.products.sim.taskCount);
      emitBytes += c.emitBytes;
    }
    const auto count = [](long long v) { return static_cast<double>(v); };
    const double regions = count(ilp.numIlps + ilp.cacheHits);
    m.add("frontend.parse_s", span["frontend.parse"], "s");
    m.add("frontend.sema_s", span["frontend.sema"], "s");
    m.add("ir.sections_s", span["ir.sections"], "s");
    m.add("ir.dataflow_s", span["ir.dataflow"], "s");
    m.add("cost.interp_s", span["cost.interp"], "s");
    m.add("htg.build_s", span["htg.build"], "s");
    m.add("htg.nodes", nodes, "count");
    m.add("htg.edges", edges, "count");
    m.add("parallel.run_s", span["parallel.run"], "s");
    m.add("parallel.regions", regions, "count");
    m.add("parallel.region_cache_hits", count(ilp.cacheHits), "count");
    m.add("parallel.region_cache_hit_ratio",
          regions > 0 ? count(ilp.cacheHits) / regions : 0.0, "ratio");
    m.add("ilp.solves", count(ilp.numIlps), "count");
    m.add("ilp.vars", count(ilp.numVars), "count");
    m.add("ilp.constraints", count(ilp.numConstraints), "count");
    m.add("ilp.bnb_nodes", count(ilp.bnbNodes), "count");
    m.add("ilp.simplex_iterations", count(ilp.simplexIterations), "count");
    m.add("ilp.refactorizations", count(ilp.refactorizations), "count");
    m.add("ilp.eta_updates", count(ilp.etaUpdates), "count");
    m.add("ilp.solve_s", ilp.wallSeconds, "s");
    m.add("ilp.refactorizations_per_node",
          ilp.bnbNodes > 0 ? count(ilp.refactorizations) / count(ilp.bnbNodes) : 0.0, "ratio");
    m.add("pipeline.cache_hits", count(r.cache.hits), "count");
    m.add("pipeline.cache_misses", count(r.cache.misses), "count");
    m.add("pipeline.cache_rejected", count(r.cache.rejectedCorrupt + r.cache.rejectedVersion),
          "count");
    m.add("pipeline.cache_store_failures", count(r.cache.storeFailures), "count");
    m.add("pipeline.hit_s", span["pipeline.hit"], "s");
    m.add("pipeline.batch_busy_s", r.busy, "s");
    m.add("pipeline.batch_utilization", r.busy / (r.workers * r.wall), "ratio");
    m.add("sim.simulate_s", span["sim.simulate"], "s");
    m.add("sim.tasks", tasks, "count");
    m.add("codegen.emit_s", span["codegen.emit"], "s");
    m.add("codegen.emit_bytes", emitBytes, "bytes");
    m.add("trace.wall_s", r.wall, "s");
    m.add("trace.overhead_s", r.wall - fastest->wall, "s");
    int unsteady = 0;
    std::ifstream(st.dir / "unsteady.txt") >> unsteady;
    m.add("bench.unsteady_setups", unsteady, "count");
    if (!traceOut.empty()) st.tracer.write(traceOut);
  }
  const bool correct = st.failed == 0 && st.attempted > 0 && !speedups.empty();
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", st.attempted, st.failed, m.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench setup|measure --workload W ...");
    const std::string command = argv[1];
    std::map<std::string, std::string> opt;
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0)
        throw std::runtime_error(std::string("unexpected argument '") + argv[i] + "'");
      opt[argv[i] + 2] = argv[i + 1];
    }
    const Workload& w = findWorkload(opt["workload"]);
    if (opt["dir"].empty()) throw std::runtime_error("--dir is required");
    const fs::path dir = opt["dir"];
    if (command == "setup")
      return runSetup(w, dir, opt["programs"],
                      std::stoi(opt.count("repeats") ? opt["repeats"] : "1"));
    if (command != "measure") throw std::runtime_error("unknown command '" + command + "'");
    MeasureState st;
    st.workload = &w;
    st.seed = std::stoull(opt.count("seed") ? opt["seed"] : "1");
    st.dir = dir;
    return runMeasure(st, std::stod(opt.count("seconds") ? opt["seconds"] : "10"),
                      opt["trace"] == "1", opt["trace-out"]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
