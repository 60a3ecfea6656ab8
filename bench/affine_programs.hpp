// The affine-dependence example pair: a domain-decomposed 1-D stencil and a
// quadrant-blocked matmul. Both are built so the *name-based* dependence
// test chains their kernels into one serial spine (every kernel reads and
// writes the same array name) while the *affine* section test proves the
// kernels touch disjoint sections and prunes every edge between them. The
// kernels themselves are deliberately serial loops (recurrences /
// k-outer blocking), so task-level parallelism between kernels is the only
// speedup lever — exactly the precision the affine mode adds.
//
// Shared between the bench table (bench/affine_deps.cpp) and the
// integration test (tests/integration/affine_examples_test.cpp) so the
// acceptance numbers and the regression guard describe the same programs.
#pragma once

#include "hetpar/htg/graph.hpp"
#include "hetpar/pipeline/evaluate.hpp"
#include "hetpar/pipeline/session.hpp"

namespace hetpar::bench {

/// Gauss-Seidel-style in-place heat dissipation, decomposed into two
/// independent half-domains with a one-cell buffer gap at index 2048.
/// Each sweep is a serial recurrence (reads cell[i-1] it just wrote);
/// the two sweeps' read/write sections are disjoint.
inline constexpr const char* kStencilName = "stencil-halves";
inline constexpr const char* kStencilSource = R"(
double cell[4096];
int main() {
  for (int i = 0; i < 4096; i = i + 1) { cell[i] = i * 0.25; }
  for (int i = 1; i < 2048; i = i + 1) {
    cell[i] = (cell[i - 1] + cell[i] + cell[i + 1]) * 0.333;
  }
  for (int i = 2049; i < 4095; i = i + 1) {
    cell[i] = (cell[i - 1] + cell[i] + cell[i + 1]) * 0.333;
  }
  double heat = 0.0;
  for (int i = 0; i < 4096; i = i + 1) { heat = heat + cell[i]; }
  return heat;
}
)";

/// 16x16 matmul computed as four 8x8 output quadrants, each with the
/// cache-classic k-outer (ikj) ordering. k-outer makes every quadrant nest
/// serial to the loop analysis (c is written without the outer IV in any
/// subscript); the four quadrants write disjoint sections of c.
inline constexpr const char* kMatmulName = "blocked-matmul";
inline constexpr const char* kMatmulSource = R"(
double a[16][16];
double b[16][16];
double c[16][16];
int main() {
  for (int i = 0; i < 16; i = i + 1) {
    for (int j = 0; j < 16; j = j + 1) {
      a[i][j] = i + j * 0.5;
      b[i][j] = i - j * 0.25;
      c[i][j] = 0.0;
    }
  }
  for (int k = 0; k < 16; k = k + 1) {
    for (int i = 0; i < 8; i = i + 1) {
      for (int j = 0; j < 8; j = j + 1) { c[i][j] = c[i][j] + a[i][k] * b[k][j]; }
    }
  }
  for (int k = 0; k < 16; k = k + 1) {
    for (int i = 0; i < 8; i = i + 1) {
      for (int j = 8; j < 16; j = j + 1) { c[i][j] = c[i][j] + a[i][k] * b[k][j]; }
    }
  }
  for (int k = 0; k < 16; k = k + 1) {
    for (int i = 8; i < 16; i = i + 1) {
      for (int j = 0; j < 8; j = j + 1) { c[i][j] = c[i][j] + a[i][k] * b[k][j]; }
    }
  }
  for (int k = 0; k < 16; k = k + 1) {
    for (int i = 8; i < 16; i = i + 1) {
      for (int j = 8; j < 16; j = j + 1) { c[i][j] = c[i][j] + a[i][k] * b[k][j]; }
    }
  }
  double check = 0.0;
  for (int i = 0; i < 16; i = i + 1) {
    for (int j = 0; j < 16; j = j + 1) { check = check + c[i][j]; }
  }
  return check;
}
)";

/// Whole-graph dependence totals: every region's edge count and flow/comm
/// payload bytes (anti/output edges carry 0 bytes by construction).
struct DepTotals {
  int edges = 0;
  long long bytes = 0;
};

inline DepTotals depTotals(const htg::Graph& g) {
  DepTotals t;
  for (htg::NodeId id = 0; id < static_cast<htg::NodeId>(g.size()); ++id) {
    const htg::Node& n = g.node(id);
    if (!n.isHierarchical()) continue;
    t.edges += static_cast<int>(n.edges.size());
    for (const htg::Edge& e : n.edges) t.bytes += e.bytes;
  }
  return t;
}

/// Session inputs for one of the example programs on `pf`.
inline pipeline::SessionInputs exampleInputs(const char* source, const platform::Platform& pf,
                                             ir::DependenceMode dep,
                                             ir::FlowMode flow = ir::FlowMode::Conservative) {
  pipeline::SessionInputs in;
  in.source = source;
  in.platform = pf;
  in.depMode = dep;
  in.flowMode = flow;
  return in;
}

/// The ILP's own whole-program speedup estimate (the root region's sequential
/// time over its best plan's time), main task on the Accelerator-scenario
/// class. This is the objective the dependence precision feeds; the
/// simulator adds bus-contention effects on top.
inline double estimatedSpeedup(pipeline::Session& session) {
  const platform::Platform& pf = session.inputs().platform;
  return session.estimates(pipeline::mainClassFor(pf, pipeline::Scenario::Accelerator))
      .speedup();
}

}  // namespace hetpar::bench
