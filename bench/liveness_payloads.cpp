// Liveness-pruned communication payloads on the example pair
// (bench/affine_programs.hpp): per program, affine dependence analysis alone
// vs affine + FlowMode::Live. Reports every region's total CommIn/CommOut
// payload bytes and the ILP-estimated whole-program speedup on both preset
// platforms (Accelerator-scenario main class), and updates the
// "liveness_payloads" section of BENCH_parallelizer.json.
//
// Exit code 1 if liveness fails its claim on either program: the Live rows
// must strictly reduce comm bytes and must never worsen the estimate.
#include <cstdio>
#include <sstream>
#include <utility>

#include "affine_programs.hpp"
#include "common.hpp"
#include "hetpar/platform/presets.hpp"

namespace {

using namespace hetpar;

/// Region-boundary communication only: bytes of edges entering from comm-in
/// or leaving to comm-out, summed over every hierarchical region. Sibling
/// flow edges are excluded — liveness pruning must not touch them.
long long commTotals(const htg::Graph& g) {
  long long bytes = 0;
  for (htg::NodeId id = 0; id < static_cast<htg::NodeId>(g.size()); ++id) {
    const htg::Node& n = g.node(id);
    if (!n.isHierarchical()) continue;
    for (const htg::Edge& e : n.edges)
      if (e.from == n.commIn || e.to == n.commOut) bytes += e.bytes;
  }
  return bytes;
}

const char* flowName(ir::FlowMode flow) {
  return flow == ir::FlowMode::Live ? "live" : "conservative";
}

}  // namespace

int main() {
  using namespace hetpar;
  const platform::Platform pa = platform::platformA();
  const platform::Platform pb = platform::platformB();
  const std::pair<const char*, const char*> programs[] = {
      {bench::kStencilName, bench::kStencilSource},
      {bench::kMatmulName, bench::kMatmulSource},
  };

  std::printf("Liveness comm-payload pruning (affine deps, ILP estimate)\n");
  std::printf("%-16s %-13s %10s %11s %11s\n", "program", "flow-mode", "comm B",
              "speedup(A)", "speedup(B)");
  std::printf("%-16s %-13s %10s %11s %11s\n", "-------", "---------", "------",
              "----------", "----------");

  bool ok = true;
  std::ostringstream json;
  json << "{\n    \"programs\": [\n";
  for (std::size_t p = 0; p < 2; ++p) {
    const auto& [name, source] = programs[p];
    long long comm[2];
    double spdA[2], spdB[2];
    for (const ir::FlowMode flow : {ir::FlowMode::Conservative, ir::FlowMode::Live}) {
      std::fprintf(stderr, "[liveness_payloads] evaluating %s (%s) ...\n", name,
                   flowName(flow));
      pipeline::Session onA(bench::exampleInputs(source, pa, ir::DependenceMode::Affine, flow));
      pipeline::Session onB(bench::exampleInputs(source, pb, ir::DependenceMode::Affine, flow));
      const int i = flow == ir::FlowMode::Live ? 1 : 0;
      comm[i] = commTotals(onA.frontend().graph);
      spdA[i] = bench::estimatedSpeedup(onA);
      spdB[i] = bench::estimatedSpeedup(onB);
      std::printf("%-16s %-13s %10lld %10.2fx %10.2fx\n", name, flowName(flow), comm[i],
                  spdA[i], spdB[i]);
    }
    if (comm[1] >= comm[0]) {
      std::fprintf(stderr, "FAIL %s: live comm bytes %lld not strictly below "
                           "conservative %lld\n",
                   name, comm[1], comm[0]);
      ok = false;
    }
    // "No worse" up to float noise: the pruned model removes cost terms, so
    // the optimum can only stay or improve.
    if (spdA[1] < spdA[0] * (1 - 1e-9) || spdB[1] < spdB[0] * (1 - 1e-9)) {
      std::fprintf(stderr, "FAIL %s: live speedup (%.4f, %.4f) below conservative "
                           "(%.4f, %.4f)\n",
                   name, spdA[1], spdB[1], spdA[0], spdB[0]);
      ok = false;
    }
    json << "      {\"name\": \"" << name << "\", \"commBytesConservative\": " << comm[0]
         << ", \"commBytesLive\": " << comm[1] << ",\n       \"speedupA\": [" << spdA[0]
         << ", " << spdA[1] << "], \"speedupB\": [" << spdB[0] << ", " << spdB[1]
         << "]}" << (p == 0 ? ",\n" : "\n");
  }
  json << "    ],\n    \"claim\": \"live comm bytes strictly lower, speedup no worse\"\n  }";

  bench::updateBenchJson("BENCH_parallelizer.json", "liveness_payloads", json.str());
  std::fprintf(stderr, "[liveness_payloads] updated BENCH_parallelizer.json\n");
  return ok ? 0 : 1;
}
