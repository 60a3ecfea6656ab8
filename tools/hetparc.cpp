// hetparc — command-line driver for the hetpar tool flow.
//
//   hetparc [options] <source.c>
//   hetparc [options] --batch <dir>
//   hetparc [options] --programs <a.c> <b.c> ...
//
//   --preset A|B            builtin evaluation platform (default: A)
//   --platform <file>       platform description file (overrides --preset)
//   --main-class <name>     processor class running the main task
//                           (default: the slowest class)
//   --emit-annotated <f>    write the pragma-annotated source
//   --emit-parspec <f>      write the MPA-style parallel specification
//   --emit-premap <f>       write the task-to-class pre-mapping
//   --emit-dot <f>          write the HTG as Graphviz (in affine mode the
//                           pruned conservative edges are overlaid in grey)
//   --dep-mode <m>          dependence analysis mode: conservative (default,
//                           whole-object name matching) or affine
//                           (array-section refinement)
//   --flow-mode <m>         communication payload mode: conservative
//                           (default, historical byte-identical output) or
//                           live (liveness-pruned CommIn/CommOut payloads,
//                           constprop-sharpened trip counts)
//   --diagnose              print dataflow lint findings (uninitialized
//                           reads, dead stores, write-only variables) as
//                           `file:line:col: warning: ...` lines
//   --dump-live             print per-statement live-after / upward-exposed
//                           variable sets (runs the dataflow pass)
//   --dump-deps             print every region's dependence edges (kind,
//                           variables, sections, payload bytes)
//   --simulate              simulate sequential vs parallel on the MPSoC
//   --baseline              also run the heterogeneity-oblivious baseline [6]
//   --stats                 print ILP statistics (Table I columns)
//   --seq-only              stop after HTG extraction (no ILPs)
//   --jobs <n>              solver threads; in batch mode, concurrent
//                           programs (0 = all hardware threads; default 1;
//                           at most 1024; the outcome is identical for
//                           any n)
//   --batch <dir>           compile every *.c file under <dir> (sorted)
//   --programs <f>...       compile the listed files (all later positional
//                           arguments are inputs)
//   --cache-dir <dir>       persistent artifact cache for parallelization
//                           outcomes, shared across runs and processes
//   --explain-timings       print per-pass wall times, artifact sizes and
//                           cache counters (to stderr)
//
// Exit codes: 0 success, 1 usage error, 2 input error (or any other error;
// each exit 2 prints a `hetparc: error:` line).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hetpar/parallel/region_cache.hpp"
#include "hetpar/pipeline/batch.hpp"
#include "hetpar/pipeline/evaluate.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/parser.hpp"
#include "hetpar/platform/presets.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"
#include "hetpar/support/thread_pool.hpp"

namespace {

struct Options {
  std::string sourcePath;
  std::vector<std::string> programPaths;  ///< --programs / --batch inputs
  std::string batchDir;
  std::string preset = "A";
  std::string platformPath;
  std::string mainClassName;
  std::string emitAnnotated;
  std::string emitParspec;
  std::string emitPremap;
  std::string emitDot;
  std::string depMode = "conservative";
  std::string flowMode = "conservative";
  std::string cacheDir;
  bool diagnose = false;
  bool dumpLive = false;
  bool dumpDeps = false;
  bool simulate = false;
  bool baseline = false;
  bool stats = false;
  bool seqOnly = false;
  bool explainTimings = false;
  bool programsMode = false;
  int jobs = 1;
};

void usage() {
  std::fprintf(stderr,
               "usage: hetparc [options] <source.c>\n"
               "       hetparc [options] --batch <dir> | --programs <f>...\n"
               "  --preset A|B  --platform <file>  --main-class <name>\n"
               "  --emit-annotated <f>  --emit-parspec <f>  --emit-premap <f>  --emit-dot <f>\n"
               "  --dep-mode conservative|affine  --flow-mode conservative|live\n"
               "  --diagnose  --dump-live  --dump-deps\n"
               "  --simulate  --baseline  --stats  --seq-only  --jobs <n>\n"
               "  --batch <dir>  --programs <f>...  --cache-dir <dir>  --explain-timings\n");
}

bool parseArgs(int argc, char** argv, Options& opts) {
  auto needValue = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--preset") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.preset = value;
    } else if (arg == "--platform") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.platformPath = value;
    } else if (arg == "--main-class") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.mainClassName = value;
    } else if (arg == "--emit-annotated") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.emitAnnotated = value;
    } else if (arg == "--emit-parspec") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.emitParspec = value;
    } else if (arg == "--emit-premap") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.emitPremap = value;
    } else if (arg == "--emit-dot") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.emitDot = value;
    } else if (arg == "--dep-mode") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.depMode = value;
      if (opts.depMode != "conservative" && opts.depMode != "affine") {
        std::fprintf(stderr, "hetparc: --dep-mode expects 'conservative' or 'affine'\n");
        return false;
      }
    } else if (arg == "--flow-mode") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.flowMode = value;
      if (opts.flowMode != "conservative" && opts.flowMode != "live") {
        std::fprintf(stderr, "hetparc: --flow-mode expects 'conservative' or 'live'\n");
        return false;
      }
    } else if (arg == "--diagnose") {
      opts.diagnose = true;
    } else if (arg == "--dump-live") {
      opts.dumpLive = true;
    } else if (arg == "--dump-deps") {
      opts.dumpDeps = true;
    } else if (arg == "--simulate") {
      opts.simulate = true;
    } else if (arg == "--baseline") {
      opts.baseline = true;
    } else if (arg == "--stats") {
      opts.stats = true;
    } else if (arg == "--seq-only") {
      opts.seqOnly = true;
    } else if (arg == "--explain-timings") {
      opts.explainTimings = true;
    } else if (arg == "--batch") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.batchDir = value;
    } else if (arg == "--programs") {
      opts.programsMode = true;
    } else if (arg == "--cache-dir") {
      if ((value = needValue(i)) == nullptr) return false;
      opts.cacheDir = value;
    } else if (arg == "--jobs") {
      if ((value = needValue(i)) == nullptr) return false;
      const std::optional<int> jobs = hetpar::support::ThreadPool::parseJobs(value);
      if (!jobs) {
        std::fprintf(stderr, "hetparc: --jobs expects an integer from 0 to %d, got '%s'\n",
                     hetpar::support::ThreadPool::kMaxJobs, value);
        return false;
      }
      opts.jobs = *jobs;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "hetparc: unknown option '%s'\n", arg.c_str());
      return false;
    } else if (opts.programsMode) {
      opts.programPaths.push_back(arg);
    } else if (opts.sourcePath.empty()) {
      opts.sourcePath = arg;
    } else {
      std::fprintf(stderr, "hetparc: more than one input file (use --programs)\n");
      return false;
    }
  }
  const bool batchMode = !opts.batchDir.empty() || opts.programsMode;
  if (batchMode && !opts.sourcePath.empty()) {
    std::fprintf(stderr, "hetparc: mixing a single input with --batch/--programs\n");
    return false;
  }
  if (opts.programsMode && opts.programPaths.empty()) {
    std::fprintf(stderr, "hetparc: --programs expects at least one file\n");
    return false;
  }
  return batchMode || !opts.sourcePath.empty();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  hetpar::require(in.good(), "cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  hetpar::require(out.good(), "cannot write '" + path + "'");
  out << contents;
  std::fprintf(stderr, "hetparc: wrote %s\n", path.c_str());
}

/// The section an edge transports for one of its variables: the writer's
/// section for flow/output edges, the clobbered reader's for anti edges,
/// the consumer's for comm-in edges.
std::string edgeSection(const hetpar::htg::Graph& g, const hetpar::ir::SectionAnalysis& sa,
                        const hetpar::htg::Node& region, const hetpar::htg::Edge& e,
                        const std::string& v) {
  using hetpar::ir::DepKind;
  const hetpar::frontend::Stmt* stmt = nullptr;
  bool wantWrite = true;
  if (e.from == region.commIn) {
    stmt = g.node(e.to).stmt;
    wantWrite = false;  // inbound: what the consumer reads
  } else {
    stmt = g.node(e.from).stmt;
    wantWrite = e.kind != DepKind::Anti;  // anti: what the earlier reader read
  }
  if (stmt == nullptr) return "?";
  const hetpar::ir::AccessSummary& s = sa.of(*stmt);
  const auto& m = wantWrite ? s.writes : s.reads;
  const auto it = m.find(v);
  if (it == m.end()) return "?";
  return hetpar::ir::SectionAnalysis::toString(it->second.hull);
}

void dumpDeps(const hetpar::htg::FrontendBundle& bundle) {
  using namespace hetpar;
  const htg::Graph& g = bundle.graph;
  const ir::SectionAnalysis& sa = *bundle.sections;
  for (htg::NodeId id = 0; id < static_cast<htg::NodeId>(g.size()); ++id) {
    const htg::Node& n = g.node(id);
    if (!n.isHierarchical() || n.edges.empty()) continue;
    std::printf("region n%d (%s): %zu edges\n", id, n.label.c_str(), n.edges.size());
    for (const htg::Edge& e : n.edges) {
      const char* kind = e.kind == ir::DepKind::Flow     ? "flow"
                         : e.kind == ir::DepKind::Anti   ? "anti"
                                                         : "output";
      const std::string from =
          e.from == n.commIn ? "comm-in" : strings::format("n%d", e.from);
      const std::string to = e.to == n.commOut ? "comm-out" : strings::format("n%d", e.to);
      std::printf("  %-6s %s -> %s  %lldB ", kind, from.c_str(), to.c_str(), e.bytes);
      for (std::size_t i = 0; i < e.vars.size(); ++i)
        std::printf("%s%s=%s", i == 0 ? "" : ", ", e.vars[i].c_str(),
                    edgeSection(g, sa, n, e, e.vars[i]).c_str());
      std::printf("\n");
    }
  }
}

void printDiagnostics(const std::string& sourcePath,
                      const hetpar::ir::DataflowAnalysis& dfa) {
  using namespace hetpar;
  for (const ir::FlowDiagnostic& d : dfa.diagnostics()) {
    std::printf("%s:%d:%d: warning: %s [%s]", sourcePath.c_str(), d.loc.line, d.loc.column,
                ir::flowDiagnosticMessage(d).c_str(),
                ir::flowDiagnosticKindName(d.kind).c_str());
    if (!d.function.empty()) std::printf(" (function '%s')", d.function.c_str());
    std::printf("\n");
  }
  std::fprintf(stderr, "hetparc: %zu dataflow finding(s)\n", dfa.diagnostics().size());
}

void printLiveSets(const hetpar::frontend::Program& program,
                   const hetpar::ir::DataflowAnalysis& dfa) {
  using namespace hetpar;
  const auto joined = [](const std::set<std::string>& names) {
    std::string out;
    for (const std::string& n : names) {
      if (!out.empty()) out += ' ';
      out += n;
    }
    return out.empty() ? std::string("-") : out;
  };
  for (const auto& fn : program.functions) {
    std::printf("function %s:\n", fn->name.c_str());
    for (std::size_t i = 0; i < fn->body.size(); ++i) {
      const frontend::Stmt& s = *fn->body[i];
      std::printf("  stmt %zu (line %d): live-after {%s}  upward-exposed {%s}\n", i,
                  s.loc.line, joined(dfa.liveAfter(s)).c_str(),
                  joined(dfa.upwardExposed(s)).c_str());
    }
  }
}

hetpar::platform::Platform resolvePlatform(const Options& opts) {
  using namespace hetpar;
  return !opts.platformPath.empty() ? platform::parsePlatform(readFile(opts.platformPath))
         : opts.preset == "B"       ? platform::platformB()
                                    : platform::platformA();
}

hetpar::platform::ClassId resolveMainClass(const hetpar::platform::Platform& pf,
                                           const Options& opts) {
  using namespace hetpar;
  platform::ClassId mainClass = pf.slowestClass();
  if (!opts.mainClassName.empty()) {
    mainClass = pf.findClass(opts.mainClassName);
    require(mainClass >= 0, "platform has no class named '" + opts.mainClassName + "'");
  }
  return mainClass;
}

std::shared_ptr<hetpar::pipeline::ArtifactCache> openCache(const Options& opts) {
  if (opts.cacheDir.empty()) return nullptr;
  return std::make_shared<hetpar::pipeline::ArtifactCache>(opts.cacheDir);
}

/// The pass table plus one `lp engine:` line built from the ILP statistics
/// of the run it describes (omitted when that run solved nothing).
void printTimings(const std::vector<hetpar::pipeline::PassRecord>& records,
                  const hetpar::parallel::IlpStatistics& ilp) {
  std::fprintf(stderr, "%s", hetpar::pipeline::formatPassTable(records).c_str());
  if (ilp.numIlps > 0) {
    std::fprintf(stderr,
                 "lp engine: %lld solves, %lld bnb nodes, %lld simplex iters "
                 "(%.0f iters/s), %lld refactorizations, %lld eta updates, "
                 "peak fill %lld nonzeros\n",
                 ilp.numIlps, ilp.bnbNodes, ilp.simplexIterations,
                 ilp.wallSeconds > 0
                     ? static_cast<double>(ilp.simplexIterations) / ilp.wallSeconds
                     : 0.0,
                 ilp.refactorizations, ilp.etaUpdates, ilp.peakFillNonzeros);
  }
}

int runSingle(const Options& opts) {
  using namespace hetpar;
  const platform::Platform pf = resolvePlatform(opts);
  const platform::ClassId mainClass = resolveMainClass(pf, opts);

  std::fprintf(stderr, "hetparc: platform %s, main class %s\n", pf.summary().c_str(),
               pf.classAt(mainClass).name.c_str());

  const ir::DependenceMode depMode = opts.depMode == "affine"
                                         ? ir::DependenceMode::Affine
                                         : ir::DependenceMode::Conservative;
  const ir::FlowMode flowMode =
      opts.flowMode == "live" ? ir::FlowMode::Live : ir::FlowMode::Conservative;
  pipeline::SessionInputs inputs;
  inputs.name = opts.sourcePath;
  inputs.source = readFile(opts.sourcePath);
  inputs.platform = pf;
  inputs.depMode = depMode;
  inputs.flowMode = flowMode;
  inputs.parallelizer.jobs = opts.jobs;
  inputs.artifactCache = openCache(opts);
  pipeline::Session session(std::move(inputs));

  const htg::FrontendBundle& bundle = session.frontend();
  std::fprintf(stderr, "hetparc: HTG %zu nodes (%d hierarchical), %.0f profiled ops, "
                       "checksum %lld [%s deps]\n",
               bundle.graph.size(), bundle.graph.hierarchicalCount(),
               bundle.profile.totalOps, bundle.profile.exitValue, opts.depMode.c_str());
  std::unique_ptr<ir::DataflowAnalysis> localDfa;
  const ir::DataflowAnalysis* dfa = bundle.dataflow.get();
  if ((opts.diagnose || opts.dumpLive) && dfa == nullptr) {
    // Diagnostics without --flow-mode live: run the dataflow pass on the
    // side (it does not influence the graph in conservative mode).
    localDfa =
        std::make_unique<ir::DataflowAnalysis>(bundle.program, bundle.sema, *bundle.defuse);
    dfa = localDfa.get();
  }
  if (opts.diagnose) printDiagnostics(opts.sourcePath, *dfa);
  if (opts.dumpLive) printLiveSets(bundle.program, *dfa);
  if (opts.dumpDeps) dumpDeps(bundle);
  if (!opts.emitDot.empty()) writeFile(opts.emitDot, session.emitDot());
  if (opts.seqOnly) {
    if (opts.explainTimings) printTimings(session.passes(), {});
    return 0;
  }

  const parallel::ParallelizeOutcome& outcome = session.parallelize();
  parallel::IlpStatistics ilp = outcome.stats;  // + the baseline's, when it runs
  if (opts.stats)
    std::printf("heterogeneous ILP statistics: %s\n", outcome.stats.summary().c_str());

  std::printf("%s", pipeline::formatEstimates(session.estimates(mainClass),
                                              pf.theoreticalMaxSpeedup(mainClass))
                        .c_str());

  if (!opts.emitAnnotated.empty())
    writeFile(opts.emitAnnotated, session.emitAnnotated(mainClass));
  if (!opts.emitParspec.empty())
    writeFile(opts.emitParspec, session.emitParspec(mainClass));
  if (!opts.emitPremap.empty())
    writeFile(opts.emitPremap, session.emitPremap(mainClass));

  if (opts.simulate) {
    const pipeline::Session::SimNumbers sim = session.simulate(mainClass);
    std::printf("%s", pipeline::formatSimulation(sim).c_str());
    if (opts.baseline) {
      const pipeline::BaselineRun homog = pipeline::runBaseline(session, mainClass);
      ilp.merge(homog.stats);
      if (opts.stats)
        std::printf("homogeneous ILP statistics:   %s\n", homog.stats.summary().c_str());
      std::printf("baseline [6]: parallel %.3f ms (%.2fx)\n", homog.parallelSeconds * 1e3,
                  sim.sequentialSeconds / homog.parallelSeconds);
    }
  }
  if (opts.explainTimings) printTimings(session.passes(), ilp);
  return 0;
}

int runBatchMode(const Options& opts) {
  using namespace hetpar;
  std::vector<std::string> paths = opts.programPaths;
  if (!opts.batchDir.empty()) {
    namespace fs = std::filesystem;
    require(fs::is_directory(opts.batchDir), "'" + opts.batchDir + "' is not a directory");
    for (const fs::directory_entry& entry : fs::directory_iterator(opts.batchDir))
      if (entry.is_regular_file() && entry.path().extension() == ".c")
        paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
  }
  require(!paths.empty(), "no input programs (*.c) found");

  pipeline::BatchConfig config;
  config.platform = resolvePlatform(opts);
  config.mainClass = resolveMainClass(config.platform, opts);
  config.depMode = opts.depMode == "affine" ? ir::DependenceMode::Affine
                                            : ir::DependenceMode::Conservative;
  config.flowMode = opts.flowMode == "live" ? ir::FlowMode::Live
                                            : ir::FlowMode::Conservative;
  config.simulate = opts.simulate;
  config.workers = opts.jobs;
  config.artifactCache = openCache(opts);
  if (config.parallelizer.enableRegionCache)
    config.regionCache = std::make_shared<parallel::IlpRegionCache>();

  std::fprintf(stderr, "hetparc: platform %s, main class %s, batch of %zu programs\n",
               config.platform.summary().c_str(),
               config.platform.classAt(config.mainClass).name.c_str(), paths.size());

  std::vector<pipeline::BatchJob> jobs;
  jobs.reserve(paths.size());
  for (const std::string& path : paths) jobs.push_back({path, readFile(path)});

  const pipeline::BatchReport report = pipeline::runBatch(jobs, config);

  // Merged output in submission order — bit-identical for any --jobs value.
  for (const pipeline::BatchJobResult& job : report.jobs) {
    std::printf("== %s ==\n", job.name.c_str());
    if (job.ok) {
      std::printf("%s", job.report.c_str());
    } else {
      std::fprintf(stderr, "hetparc: %s: error: %s\n", job.name.c_str(), job.error.c_str());
    }
  }

  if (config.artifactCache != nullptr) {
    const pipeline::ArtifactCacheStats cs = config.artifactCache->stats();
    std::fprintf(stderr,
                 "hetparc: artifact cache %llu hits, %llu misses "
                 "(%llu corrupt, %llu stale-version rejects)\n",
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.rejectedCorrupt),
                 static_cast<unsigned long long>(cs.rejectedVersion));
  }
  std::fprintf(stderr, "hetparc: batch done: %zu programs, %d failures, %.2f s\n",
               report.jobs.size(), report.failures, report.wallSeconds);
  if (opts.explainTimings) {
    parallel::IlpStatistics ilp;
    for (const pipeline::BatchJobResult& job : report.jobs) ilp.merge(job.stats);
    printTimings(report.allPasses(), ilp);
  }
  return report.failures == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetpar;
  Options opts;
  if (!parseArgs(argc, argv, opts)) {
    usage();
    return 1;
  }

  try {
    if (!opts.batchDir.empty() || opts.programsMode) return runBatchMode(opts);
    return runSingle(opts);
  } catch (const std::exception& e) {
    // hetpar::Error for bad input; anything else (bad_alloc, a library
    // exception) is still an error exit, never an abort.
    std::fprintf(stderr, "hetparc: error: %s\n", e.what());
    return 2;
  }
}
