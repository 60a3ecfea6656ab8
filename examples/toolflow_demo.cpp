// Full tool-flow walkthrough (paper Figure 6) on the edge_detect benchmark:
//
//   sequential C  ->  HTG extraction  ->  ILP parallelization  ->
//   annotated source + MPA-style parallel spec + pre-mapping spec  ->
//   task-graph implementation  ->  MPSoC simulation
//
// Writes the intermediate artifacts next to the binary:
//   edge_detect.htg.dot        Graphviz dump of the hierarchical task graph
//   edge_detect.annotated.c    source with heterogeneous OpenMP-style pragmas
//   edge_detect.parspec        MPA-style parallel section specification
//   edge_detect.premap         task-to-processor-class pre-mapping
#include <cstdio>
#include <fstream>

#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/codegen/annotate.hpp"
#include "hetpar/codegen/mpa_spec.hpp"
#include "hetpar/codegen/premap_spec.hpp"
#include "hetpar/htg/dot.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"
#include "hetpar/sched/flatten.hpp"
#include "hetpar/sim/mpsoc.hpp"

namespace {

void writeFile(const char* path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
  std::printf("  wrote %s (%zu bytes)\n", path, contents.size());
}

}  // namespace

int main() {
  using namespace hetpar;
  const auto& bench = benchsuite::find("edge_detect");
  const platform::Platform pf = platform::platformA();

  std::printf("== 1. Frontend: parse + profile + HTG extraction\n");
  htg::FrontendBundle bundle = pipeline::buildFrontend(bench.source);
  std::printf("  checksum %lld, %.0f abstract ops, HTG %zu nodes\n",
              bundle.profile.exitValue, bundle.profile.totalOps, bundle.graph.size());
  writeFile("edge_detect.htg.dot", htg::toDot(bundle.graph));

  std::printf("== 2. ILP-based parallelization for platform %s\n", pf.summary().c_str());
  const cost::TimingModel timing(pf);
  parallel::Parallelizer tool(bundle.graph, timing);
  parallel::ParallelizeOutcome outcome = tool.run();
  std::printf("  %s\n", outcome.stats.summary().c_str());

  const platform::ClassId mainClass = pf.slowestClass();
  const parallel::SolutionRef best = outcome.bestRoot(bundle.graph, mainClass);

  std::printf("== 3. Source-to-source outputs\n");
  writeFile("edge_detect.annotated.c",
            codegen::annotateSource(bundle.program, bundle.graph, outcome.table, best, pf));
  writeFile("edge_detect.parspec", codegen::mpaSpec(bundle.graph, outcome.table, best));
  writeFile("edge_detect.premap",
            codegen::premapSpec(bundle.graph, outcome.table, best, pf));

  std::printf("== 4. Implementation + MPSoC simulation\n");
  const int mainCore = pf.firstCoreOfClass(mainClass);
  const auto seqFlat = sched::flattenSequential(bundle.graph, timing, mainCore);
  const double seq = sim::simulate(seqFlat.graph).makespanSeconds;
  const auto parFlat = sched::flatten(bundle.graph, outcome.table, best, timing, mainCore);
  const sim::SimReport report = sim::simulate(parFlat.graph);
  std::printf("  task graph: %zu tasks on %d cores, %d bus transfers\n",
              parFlat.graph.tasks.size(), parFlat.graph.numCores, report.busTransfers);
  std::printf("  sequential on %s: %.3f ms\n", pf.classAt(mainClass).name.c_str(), seq * 1e3);
  std::printf("  parallel makespan: %.3f ms  -> speedup %.2fx (limit %.1fx)\n",
              report.makespanSeconds * 1e3, seq / report.makespanSeconds,
              pf.theoreticalMaxSpeedup(mainClass));
  for (int c = 0; c < pf.numCores(); ++c)
    std::printf("  core %d (%s): %4.1f%% busy, %d tasks\n", c,
                pf.classAt(pf.classOfCore(c)).name.c_str(), 100.0 * report.utilization(c),
                report.cores[static_cast<std::size_t>(c)].tasksRun);
  return 0;
}
