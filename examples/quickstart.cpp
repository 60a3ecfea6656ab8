// Quickstart: parallelize a tiny program for a heterogeneous platform and
// inspect what the tool decided.
//
//   $ ./quickstart
//
// Walks the whole public API surface in ~80 lines: parse + profile + HTG
// (pipeline::buildFrontend), platform description (platform::platformA), the
// ILP-based parallelizer (parallel::Parallelizer), solution inspection, and
// the annotated-source output (codegen::annotateSource).
#include <cstdio>

#include "hetpar/codegen/annotate.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

int main() {
  using namespace hetpar;

  // A small image-pipeline-shaped program: two independent producer loops
  // feeding a combining loop.
  const char* source = R"(
    int bright[4096];
    int blur[4096];
    int outp[4096];
    int main() {
      for (int i = 0; i < 4096; i = i + 1) { bright[i] = (i * 7) % 256 + 10; }
      for (int i = 0; i < 4096; i = i + 1) { blur[i] = (i * 3) % 256 / 2; }
      for (int i = 0; i < 4096; i = i + 1) { outp[i] = bright[i] + blur[i]; }
      int s = 0;
      for (int i = 0; i < 4096; i = i + 1) { s = s + outp[i]; }
      return s;
    }
  )";

  // 1. Front end: parse, run sema, profile by interpretation, build the
  //    Augmented Hierarchical Task Graph.
  htg::FrontendBundle bundle = pipeline::buildFrontend(source);
  std::printf("program checksum (interpreted): %lld\n", bundle.profile.exitValue);
  std::printf("HTG: %zu nodes, %d hierarchical regions\n\n", bundle.graph.size(),
              bundle.graph.hierarchicalCount());

  // 2. Target platform: the paper's configuration (A).
  const platform::Platform pf = platform::platformA();
  std::printf("platform %s\n", pf.summary().c_str());

  // 3. Parallelize (Algorithm 1 + the Eq 1-18 ILPs).
  const cost::TimingModel timing(pf);
  parallel::Parallelizer tool(bundle.graph, timing);
  parallel::ParallelizeOutcome outcome = tool.run();
  std::printf("solver work: %s\n\n", outcome.stats.summary().c_str());

  // 4. Inspect the best solution when the main task runs on the slow core.
  const platform::ClassId mainClass = pf.slowestClass();
  const auto& rootSet = outcome.table.at(bundle.graph.root());
  const int seq = rootSet.sequentialFor(mainClass);
  const int best = rootSet.bestFor(mainClass);
  const double seqMs = rootSet.at(seq).timeSeconds * 1e3;
  const double parMs = rootSet.at(best).timeSeconds * 1e3;
  std::printf("sequential on %s : %.3f ms\n", pf.classAt(mainClass).name.c_str(), seqMs);
  std::printf("parallelized      : %.3f ms  (%.2fx speedup, limit %.1fx)\n\n", parMs,
              seqMs / parMs, pf.theoreticalMaxSpeedup(mainClass));

  // 5. Show the annotated source (the tool's primary output artifact).
  std::printf("---- annotated source ----\n%s",
              codegen::annotateSource(bundle.program, bundle.graph, outcome.table,
                                      {bundle.graph.root(), best}, pf)
                  .c_str());
  return 0;
}
