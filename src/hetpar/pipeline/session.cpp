#include "hetpar/pipeline/session.hpp"

#include <chrono>

#include "hetpar/codegen/annotate.hpp"
#include "hetpar/codegen/mpa_spec.hpp"
#include "hetpar/codegen/premap_spec.hpp"
#include "hetpar/cost/interp.hpp"
#include "hetpar/frontend/parser.hpp"
#include "hetpar/htg/dot.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/pipeline/digest.hpp"
#include "hetpar/platform/parser.hpp"
#include "hetpar/sched/flatten.hpp"
#include "hetpar/sim/mpsoc.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void report(std::vector<PassRecord>* records, PassRecord rec) {
  if (records != nullptr) records->push_back(std::move(rec));
}

/// Builds the frontend artifacts into `bundle` where it stands: the
/// analyses keep references to its program and sema.
void fillFrontend(htg::FrontendBundle& bundle, std::string_view source, ir::DependenceMode mode,
                  ir::FlowMode flow, std::vector<PassRecord>* records) {
  {
    const auto start = Clock::now();
    bundle.program = frontend::parseProgram(source);
    report(records, {"parse", secondsSince(start),
                     static_cast<long long>(source.size()), 0, 0});
  }
  {
    const auto start = Clock::now();
    bundle.sema = frontend::analyze(bundle.program);
    report(records, {"sema", secondsSince(start), 0, 0, 0});
  }
  {
    const auto start = Clock::now();
    bundle.defuse = std::make_unique<ir::DefUseAnalysis>(bundle.program, bundle.sema);
    if (flow == ir::FlowMode::Live) {
      // The dataflow pass builds its own constprop-sharpened section
      // analysis; adopt it so every downstream consumer sees one set. Its
      // time (liveness + constprop + diagnostics + the section build) is
      // booked under the separate "dataflow" record.
      bundle.dataflow = std::make_unique<ir::DataflowAnalysis>(bundle.program, bundle.sema,
                                                              *bundle.defuse);
      bundle.sections = bundle.dataflow->takeSections();
      report(records, {"dataflow", secondsSince(start), 0, 0, 0});
    } else {
      bundle.sections = std::make_unique<ir::SectionAnalysis>(bundle.program, bundle.sema);
      report(records, {"sections", secondsSince(start), 0, 0, 0});
    }
  }
  {
    const auto start = Clock::now();
    bundle.profile = cost::interpret(bundle.program, bundle.sema);
    ir::DependenceOptions dep;
    dep.mode = mode;
    dep.sections = bundle.sections.get();
    dep.flow = flow;
    dep.dataflow = bundle.dataflow.get();
    bundle.graph =
        htg::buildGraph({bundle.program, bundle.sema, *bundle.defuse, bundle.profile, dep});
    report(records, {"htg", secondsSince(start),
                     static_cast<long long>(bundle.graph.size() * sizeof(htg::Node)), 0, 0});
  }
}

}  // namespace

htg::FrontendBundle buildFrontend(std::string_view source, ir::DependenceMode mode,
                                  ir::FlowMode flow, std::vector<PassRecord>* records) {
  return htg::FrontendBundle(
      [&](htg::FrontendBundle& bundle) { fillFrontend(bundle, source, mode, flow, records); });
}

Session::Session(SessionInputs inputs) : inputs_(std::move(inputs)) {
  // The session's effective options: the plan, the baseline and the
  // artifact key all read the modes the HTG is built with from here.
  inputs_.parallelizer.dependenceMode = inputs_.depMode;
  inputs_.parallelizer.flowMode = inputs_.flowMode;
  timing_ = std::make_unique<cost::TimingModel>(inputs_.platform);
}

const htg::FrontendBundle& Session::frontend() {
  if (bundle_ != nullptr) return *bundle_;
  // Built in place, never moved: the analyses emitDot and the dumps use
  // after the build still point at this bundle's program and sema.
  auto bundle = std::make_unique<htg::FrontendBundle>();
  fillFrontend(*bundle, inputs_.source, inputs_.depMode, inputs_.flowMode, &records_);
  htg::validateOrThrow(bundle->graph);
  bundle_ = std::move(bundle);
  return *bundle_;
}

std::string Session::outcomeKey() const {
  // Everything the outcome depends on, and nothing it does not: the options
  // enter through parallel::visitOutcomeFields, which leaves out `jobs` and
  // the region cache (DESIGN.md §7); the artifact cache is not an option.
  Digest d;
  d.put("hetpar-parallelize-outcome");
  d.putU64(ArtifactCache::kFormatVersion);
  d.put(inputs_.source);
  d.put(platform::toText(inputs_.platform));
  d.put(parallel::outcomeFieldBytes(inputs_.parallelizer));
  return d.hex();
}

const parallel::ParallelizeOutcome& Session::parallelize() {
  if (outcome_ != nullptr) return *outcome_;
  const htg::FrontendBundle& bundle = frontend();

  PassRecord rec;
  rec.name = "parallelize";
  const auto start = Clock::now();
  const std::string key = inputs_.artifactCache ? outcomeKey() : std::string();

  if (inputs_.artifactCache) {
    std::string payload;
    if (inputs_.artifactCache->load(key, payload)) {
      auto decoded = std::make_unique<parallel::ParallelizeOutcome>();
      if (deserializeOutcome(payload, *decoded) && outcomeFitsGraph(*decoded, bundle.graph)) {
        outcome_ = std::move(decoded);
        parallelizeCached_ = true;
        rec.cacheHits = 1;
        rec.artifactBytes = static_cast<long long>(payload.size());
        rec.wallSeconds = secondsSince(start);
        records_.push_back(std::move(rec));
        return *outcome_;
      }
      // Checksum-valid but undecodable (format bug, key collision): rebuild.
    }
  }

  parallel::Parallelizer tool(bundle.graph, *timing_, inputs_.parallelizer);
  outcome_ = std::make_unique<parallel::ParallelizeOutcome>(tool.run());
  parallelizeCached_ = false;

  const std::string payload = serializeOutcome(*outcome_);
  rec.artifactBytes = static_cast<long long>(payload.size());
  if (inputs_.artifactCache) {
    inputs_.artifactCache->store(key, payload);
    rec.cacheMisses = 1;
  }
  rec.wallSeconds = secondsSince(start);
  records_.push_back(std::move(rec));
  return *outcome_;
}

Session::Estimates Session::estimates(platform::ClassId mainClass) {
  const parallel::ParallelizeOutcome& outcome = parallelize();
  const htg::Graph& graph = frontend().graph;
  const parallel::SolutionRef best = outcome.bestRoot(graph, mainClass);
  require(best.valid(), "no root solution for the requested main class");
  const auto& rootSet = outcome.table.at(graph.root());
  Estimates e;
  e.sequentialSeconds = rootSet.at(rootSet.sequentialFor(mainClass)).timeSeconds;
  e.parallelSeconds = rootSet.at(best.index).timeSeconds;
  return e;
}

Session::SimNumbers Session::simulate(platform::ClassId mainClass) {
  const parallel::ParallelizeOutcome& outcome = parallelize();
  const htg::Graph& graph = frontend().graph;

  const auto start = Clock::now();
  const int mainCore = inputs_.platform.firstCoreOfClass(mainClass);
  SimNumbers numbers;
  numbers.sequentialSeconds =
      sim::simulate(sched::flattenSequential(graph, *timing_, mainCore).graph).makespanSeconds;
  const parallel::SolutionRef best = outcome.bestRoot(graph, mainClass);
  const sched::FlattenResult flat =
      sched::flatten(graph, outcome.table, best, *timing_, mainCore);
  numbers.parallelSeconds = sim::simulate(flat.graph).makespanSeconds;
  numbers.taskCount = flat.graph.tasks.size();
  report(&records_, {"simulate", secondsSince(start),
                     static_cast<long long>(flat.graph.tasks.size() * sizeof(sched::SimTask)),
                     0, 0});
  return numbers;
}

std::string formatEstimates(const Session::Estimates& est, double limit) {
  return strings::format(
      "estimated: sequential %.3f ms, parallel %.3f ms (%.2fx, limit %.2fx)\n",
      est.sequentialSeconds * 1e3, est.parallelSeconds * 1e3, est.speedup(), limit);
}

std::string formatSimulation(const Session::SimNumbers& sim) {
  return strings::format(
      "simulated: sequential %.3f ms, parallel %.3f ms (%.2fx) over %zu tasks\n",
      sim.sequentialSeconds * 1e3, sim.parallelSeconds * 1e3,
      sim.sequentialSeconds / sim.parallelSeconds, sim.taskCount);
}

std::string Session::emitAnnotated(platform::ClassId mainClass) {
  const parallel::ParallelizeOutcome& outcome = parallelize();
  const htg::FrontendBundle& bundle = frontend();
  const auto start = Clock::now();
  const parallel::SolutionRef best = outcome.bestRoot(bundle.graph, mainClass);
  std::string text = codegen::annotateSource(bundle.program, bundle.graph, outcome.table, best,
                                             inputs_.platform);
  report(&records_, {"emit", secondsSince(start), static_cast<long long>(text.size()), 0, 0});
  return text;
}

std::string Session::emitParspec(platform::ClassId mainClass) {
  const parallel::ParallelizeOutcome& outcome = parallelize();
  const htg::Graph& graph = frontend().graph;
  const auto start = Clock::now();
  const parallel::SolutionRef best = outcome.bestRoot(graph, mainClass);
  std::string text = codegen::mpaSpec(graph, outcome.table, best);
  report(&records_, {"emit", secondsSince(start), static_cast<long long>(text.size()), 0, 0});
  return text;
}

std::string Session::emitPremap(platform::ClassId mainClass) {
  const parallel::ParallelizeOutcome& outcome = parallelize();
  const htg::Graph& graph = frontend().graph;
  const auto start = Clock::now();
  const parallel::SolutionRef best = outcome.bestRoot(graph, mainClass);
  std::string text =
      codegen::premapSpec(graph, outcome.table, best, inputs_.platform);
  report(&records_, {"emit", secondsSince(start), static_cast<long long>(text.size()), 0, 0});
  return text;
}

std::string Session::emitDot() {
  const htg::FrontendBundle& bundle = frontend();
  const auto start = Clock::now();
  std::string text;
  if (inputs_.depMode == ir::DependenceMode::Affine ||
      inputs_.flowMode == ir::FlowMode::Live) {
    // Overlay the conservative edges the refined analyses pruned. Program,
    // def/use and profile do not depend on the mode, so the conservative
    // twin is one more graph build over this session's artifacts.
    const htg::Graph cons = htg::buildGraph(
        {bundle.program, bundle.sema, *bundle.defuse, bundle.profile, ir::DependenceOptions{}});
    text = htg::toDotWithBaseline(bundle.graph, cons);
  } else {
    text = htg::toDot(bundle.graph);
  }
  report(&records_, {"emit", secondsSince(start), static_cast<long long>(text.size()), 0, 0});
  return text;
}

}  // namespace hetpar::pipeline
