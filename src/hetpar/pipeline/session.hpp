// Compilation session: one program through the staged tool flow.
//
// The paper's toolflow is inherently staged — sequential C in, HTG
// construction, cost annotation, ILP-based parallelization, simulation,
// spec emission — and before this subsystem existed every entry point
// (hetparc, hetpar-fuzz, each bench binary, the verify harness) wired those
// stages by hand. A Session owns the artifacts of one run (source, AST,
// HTG + FrontendBundle, ParallelizeOutcome, sim numbers, emitted specs) and
// produces them through named passes:
//
//   parse        source -> AST                          (frontend/parser)
//   sema         symbol/type analysis                   (frontend/sema)
//   sections     def/use + array-section analyses       (ir/defuse, ir/sections)
//   htg          profile + graph build + validation     (cost/interp, htg)
//   parallelize  Algorithm 1 / cached outcome           (parallel, artifact cache)
//   simulate     flatten + discrete-event simulation    (sched, sim)
//   emit         annotated source / MPA spec / premap / dot   (codegen, htg/dot)
//
// Every pass execution is recorded (wall time, artifact size, persistent
// cache traffic) in the session's own `passes()`; the ILP statistics of the
// run live on its ParallelizeOutcome. Nothing is reported to process-wide
// state, so concurrent or consecutive sessions never mix their numbers.
//
// Passes are lazy and idempotent: each runs at most once per session (emit
// artifacts once per requested artifact) and pulls in its prerequisites.
// The `parallelize` pass consults the optional persistent ArtifactCache
// under `outcomeKey()` — a digest of source, platform, dependence mode and
// the outcome-relevant parallelizer options — and falls back to a clean
// solve on any miss, corruption or version mismatch. Determinism: everything
// a Session computes is independent of `parallelizer.jobs`, of cache state
// (hits return byte-identical outcomes) and of machine load — the ILP's only
// limit is the deterministic node cap `ilpMaxNodes` (DESIGN.md §7).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hetpar/htg/builder.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/artifact_cache.hpp"
#include "hetpar/pipeline/pass.hpp"
#include "hetpar/platform/platform.hpp"

namespace hetpar::pipeline {

/// Runs the frontend passes (parse, sema, sections or dataflow, htg)
/// standalone, recording timings into `records` (optional). The one way to
/// build a FrontendBundle from source; Session::frontend() calls it too.
htg::FrontendBundle buildFrontend(std::string_view source,
                                  ir::DependenceMode mode = ir::DependenceMode::Conservative,
                                  ir::FlowMode flow = ir::FlowMode::Conservative,
                                  std::vector<PassRecord>* records = nullptr);

struct SessionInputs {
  std::string name;    ///< diagnostic label (file name, benchmark name)
  std::string source;  ///< the sequential mini-C program
  platform::Platform platform;
  ir::DependenceMode depMode = ir::DependenceMode::Conservative;
  /// FlowMode::Live runs the dataflow pass and prunes comm payloads by
  /// liveness; Conservative reproduces the historical graphs bit for bit.
  ir::FlowMode flowMode = ir::FlowMode::Conservative;
  /// Solver knobs. The Session overwrites `dependenceMode`/`flowMode` with
  /// `depMode`/`flowMode`, so `Session::inputs().parallelizer` holds the
  /// options its plans are made with. `jobs` and the region cache do not
  /// affect outcomes (and are excluded from the artifact key).
  parallel::ParallelizerOptions parallelizer;
  /// Optional persistent cache shared across sessions and processes.
  std::shared_ptr<ArtifactCache> artifactCache;
};

class Session {
 public:
  explicit Session(SessionInputs inputs);

  // The timing model and the HTG point into session-owned artifacts
  // (platform, AST), so a Session is pinned to its address.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const SessionInputs& inputs() const { return inputs_; }
  const cost::TimingModel& timing() const { return *timing_; }

  /// parse + sema + sections + htg (validated); lazy, runs once.
  const htg::FrontendBundle& frontend();

  /// Algorithm 1 over the HTG, or a verified artifact-cache hit. A hit
  /// carries zero IlpStatistics (the artifact stores none): nothing solved.
  const parallel::ParallelizeOutcome& parallelize();

  /// True when the last `parallelize()` was served from the artifact cache.
  bool parallelizeWasCached() const { return parallelizeCached_; }

  /// Planning-time estimates for the best root solution with the main task
  /// on `mainClass` (no pass: a table lookup).
  struct Estimates {
    double sequentialSeconds = 0.0;
    double parallelSeconds = 0.0;

    double speedup() const { return sequentialSeconds / parallelSeconds; }
  };
  Estimates estimates(platform::ClassId mainClass);

  /// Flatten + DES for sequential vs best-parallel on `mainClass`.
  struct SimNumbers {
    double sequentialSeconds = 0.0;
    double parallelSeconds = 0.0;
    std::size_t taskCount = 0;
  };
  SimNumbers simulate(platform::ClassId mainClass);

  /// Emit passes. Each renders from the session's artifacts; the dot
  /// emission overlays pruned conservative edges when the session runs in
  /// affine or live mode (building the conservative graph from the
  /// session's program, def/use and profile counts as emit work).
  std::string emitAnnotated(platform::ClassId mainClass);
  std::string emitParspec(platform::ClassId mainClass);
  std::string emitPremap(platform::ClassId mainClass);
  std::string emitDot();

  /// Content-addressed key of the parallelize artifact: digest of format
  /// version, source, platform description and the fields of the effective
  /// parallelizer options that parallel::visitOutcomeFields visits (the
  /// modes included; NOT jobs / cache wiring).
  std::string outcomeKey() const;

  /// Per-pass records in execution order (hetparc --explain-timings).
  const std::vector<PassRecord>& passes() const { return records_; }

 private:
  template <class F>
  auto timedPass(const char* name, long long cacheHits, long long cacheMisses, F&& fn);

  SessionInputs inputs_;
  std::unique_ptr<cost::TimingModel> timing_;  ///< wraps inputs_.platform
  std::vector<PassRecord> records_;

  std::unique_ptr<htg::FrontendBundle> bundle_;
  std::unique_ptr<parallel::ParallelizeOutcome> outcome_;
  bool parallelizeCached_ = false;
};

/// The per-program report lines hetparc prints in single and batch mode
/// alike: `estimated: ...` (with `limit`, the platform's theoretical maximum
/// speedup for the main class) and `simulated: ...`.
std::string formatEstimates(const Session::Estimates& est, double limit);
std::string formatSimulation(const Session::SimNumbers& sim);

}  // namespace hetpar::pipeline
