// Cross-ISA mapping demo: a platform whose classes differ in WHAT they are
// fast at rather than how fast they clock. Two general-purpose cores and two
// DSP-like cores (4x faster float units, 2x slower control flow) run at the
// same 300 MHz; the ILP's per-statement, per-class execution costs route the
// float-heavy filter to the DSPs and keep the branchy integer quantizer on
// the GPPs. Finishes with an energy report (the paper's future-work
// objective).
#include <cstdio>

#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"
#include "hetpar/sched/flatten.hpp"
#include "hetpar/sim/energy.hpp"
#include "hetpar/sim/mpsoc.hpp"

int main() {
  using namespace hetpar;

  const char* source = R"(
    double wave[8192];
    double filtered[8192];
    int levels[8192];
    int main() {
      for (int i = 0; i < 8192; i = i + 1) { wave[i] = sin(0.01 * i) * 100.0; }
      for (int i = 0; i < 8192; i = i + 1) {
        filtered[i] = sqrt(wave[i] * wave[i] + 1.0) * 0.7 + cos(0.002 * i);
      }
      for (int i = 0; i < 8192; i = i + 1) {
        int v = filtered[i];
        if (v > 64) { v = 64; }
        if (v < -64) { v = -64; }
        levels[i] = v + 64;
      }
      int s = 0;
      for (int i = 0; i < 8192; i = i + 1) { s = s + levels[i]; }
      return s;
    }
  )";

  const platform::Platform pf = platform::crossIsaDemo();
  std::printf("platform %s\n", pf.summary().c_str());
  std::printf("  gpp: baseline ISA; dsp: float 4x faster, control 2x slower\n\n");

  htg::FrontendBundle bundle = pipeline::buildFrontend(source);
  const cost::TimingModel timing(pf);
  parallel::Parallelizer tool(bundle.graph, timing);
  parallel::ParallelizeOutcome outcome = tool.run();

  // Show where each loop's iterations land.
  const platform::ClassId gpp = pf.findClass("gpp");
  const platform::ClassId dsp = pf.findClass("dsp");
  bundle.graph.forEach([&](const htg::Node& n) {
    if (n.kind != htg::NodeKind::Loop || n.stmt == nullptr) return;
    const parallel::ParallelSet& set = outcome.table.at(n.id);
    const int best = set.bestFor(gpp);
    const parallel::SolutionCandidate& cand = set.at(best);
    if (cand.kind != parallel::SolutionKind::LoopChunked) return;
    double onDsp = 0.0;
    double total = 0.0;
    for (int t = 0; t < cand.numTasks(); ++t) {
      total += cand.chunkIterations[static_cast<std::size_t>(t)];
      if (cand.taskClass[static_cast<std::size_t>(t)] == dsp)
        onDsp += cand.chunkIterations[static_cast<std::size_t>(t)];
    }
    const cost::OpMix mix = bundle.graph.subtreeMixPerExec(n.id);
    std::printf("loop at line %-3d  float%%=%4.1f  -> %4.1f%% of iterations on the DSPs\n",
                n.stmt->loc.line, 100.0 * mix.of(cost::OpKind::FloatAlu) / mix.total(),
                total > 0 ? 100.0 * onDsp / total : 0.0);
  });

  // Simulate and report time + energy.
  const int mainCore = pf.firstCoreOfClass(gpp);
  const auto seq = sched::flattenSequential(bundle.graph, timing, mainCore);
  const sim::SimReport seqRep = sim::simulate(seq.graph);
  const auto par = sched::flatten(bundle.graph, outcome.table,
                                  outcome.bestRoot(bundle.graph, gpp), timing, mainCore);
  const sim::SimReport parRep = sim::simulate(par.graph);
  const sim::EnergyReport seqEnergy = sim::energyOf(seqRep, seq.graph, pf);
  const sim::EnergyReport parEnergy = sim::energyOf(parRep, par.graph, pf);

  std::printf("\nsequential on gpp: %7.3f ms, %7.3f mJ (whole chip powered)\n",
              seqRep.makespanSeconds * 1e3, seqEnergy.totalJoules * 1e3);
  std::printf("parallelized     : %7.3f ms, %7.3f mJ  -> %.2fx faster, %.2fx the EDP\n",
              parRep.makespanSeconds * 1e3, parEnergy.totalJoules * 1e3,
              seqRep.makespanSeconds / parRep.makespanSeconds,
              parEnergy.edp(parRep.makespanSeconds) / seqEnergy.edp(seqRep.makespanSeconds));
  return 0;
}
