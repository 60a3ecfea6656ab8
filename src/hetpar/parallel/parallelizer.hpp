// The global parallelization algorithm (paper Algorithm 1).
//
// Walks the HTG bottom-up. Every hierarchical node is parallelized in
// isolation: for each processor class `seqPC` and a shrinking processor
// budget `i`, an ILPPAR instance extracts one parallel solution candidate;
// candidates found deeper in the hierarchy are offered to the parent's ILP
// through the parallel sets (Eq 3-4), so new tasks combine with nested
// parallelism whenever that pays off. DOALL loops additionally offer
// iteration-chunked candidates (the HTG's "loop iteration" granularity
// level), which is where heterogeneity-aware balancing shines: the ILP
// hands fast classes proportionally more iterations.
//
// The solve engine exploits the algorithm's own structure for tool-side
// parallelism (see DESIGN.md "Concurrency model"): sibling subtrees are
// independent, so nodes are scheduled as a bottom-up wavefront, and within a
// node the per-(mode, seqPC) sweep lanes are independent given the phase's
// starting bound, so they fan out across a thread pool (jobs=1 drains the
// same wavefront on the calling thread). Results are merged in the canonical
// (mode, seqPC, budget) order regardless of completion order, which makes
// every jobs count produce the identical outcome.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hetpar/cost/timing.hpp"
#include "hetpar/htg/graph.hpp"
#include "hetpar/parallel/ilppar_model.hpp"
#include "hetpar/parallel/solution.hpp"
#include "hetpar/parallel/stats.hpp"

namespace hetpar::parallel {

class IlpRegionCache;

struct ParallelizerOptions {
  /// Cap on tasks a single ILPPAR call may open (also bounded by the
  /// processor budget and the child count).
  int maxTasksPerRegion = 4;
  /// Iteration-chunk resolution for DOALL loops. Higher values let the ILP
  /// balance finer against class speed ratios at the price of bigger models.
  int chunkCount = 16;
  /// Regions whose sequential time on the fastest class is below this many
  /// task-creation overheads are not worth an ILP (automatic granularity
  /// control, paper contribution 2).
  double minRegionTcoMultiple = 4.0;
  /// Branch-and-bound node cap per ILP, and the only limit on a solve: a
  /// capped solve returns the same incumbent on every machine and at every
  /// `jobs`. 10,000 is ~3.9x the largest solve of the ten benchmark kernels
  /// on presets A and B (2,563 nodes) and bounds a hostile region's solve to
  /// about a minute.
  long long ilpMaxNodes = 10'000;
  /// Enables the LoopChunked mode (ablation hook).
  bool enableChunking = true;
  /// Enables combining nested candidates (ablation hook: when false, only
  /// sequential child candidates are offered, i.e. no Parallel Set Mapping).
  bool enableParallelSetMapping = true;
  /// Menu cap per (node, class): sequential + the fastest others. Keeps the
  /// parent ILPs' p-dimension small.
  int maxCandidatesPerClass = 3;
  /// Solver worker threads. 1 runs the wavefront on the calling thread (no
  /// pool); values < 1 resolve to the hardware concurrency. Any value yields
  /// the identical outcome — only wall-clock time changes.
  int jobs = 1;
  /// Memoizes ILP solves across structurally identical regions.
  bool enableRegionCache = true;
  /// Optional externally owned cache, shared across Parallelizer runs (e.g.
  /// the same program planned against several platform views). When null and
  /// `enableRegionCache` is set, each run uses a private cache.
  std::shared_ptr<IlpRegionCache> regionCache;
  /// Dependence mode the HTG was built with. A key field (see
  /// visitOutcomeFields), so graphs from different modes never share
  /// memoized ILP solutions or stored plans.
  ir::DependenceMode dependenceMode = ir::DependenceMode::Conservative;
  /// Flow mode the HTG was built with; a key field for the same reason
  /// (Live prunes comm payloads, changing region economics).
  ir::FlowMode flowMode = ir::FlowMode::Conservative;
};

/// Calls `visit(value)` for every field of `o` that can change a plan, in
/// declaration order. These fields, and only these, make up the artifact
/// key (pipeline::Session::outcomeKey) and the region-cache keys
/// (outcomeFieldBytes). The binding names every field, so a field added to
/// ParallelizerOptions without being classified here fails to compile.
template <class Visit>
void visitOutcomeFields(const ParallelizerOptions& o, Visit&& visit) {
  const auto& [maxTasksPerRegion, chunkCount, minRegionTcoMultiple, ilpMaxNodes, enableChunking,
               enableParallelSetMapping, maxCandidatesPerClass, jobs, enableRegionCache,
               regionCache, dependenceMode, flowMode] = o;
  // Not key fields: a plan is identical at every `jobs` and with or without
  // the region cache (DESIGN.md §7).
  (void)jobs;
  (void)enableRegionCache;
  (void)regionCache;
  visit(maxTasksPerRegion);
  visit(chunkCount);
  visit(minRegionTcoMultiple);
  visit(ilpMaxNodes);
  visit(enableChunking);
  visit(enableParallelSetMapping);
  visit(maxCandidatesPerClass);
  visit(dependenceMode);
  visit(flowMode);
}

/// The fields visitOutcomeFields visits, as fixed-width bytes
/// (support/bytes.hpp): the region-cache key prefix, and the options part of
/// the artifact key.
std::string outcomeFieldBytes(const ParallelizerOptions& o);

struct ParallelizeOutcome {
  SolutionTable table;  ///< parallel set per hierarchical/leaf node
  IlpStatistics stats;

  /// Best candidate for executing the whole program with the main task on
  /// `mainClass` (what IMPLEMENTBESTSOLUTION consumes).
  SolutionRef bestRoot(const htg::Graph& g, ClassId mainClass) const;
};

/// The always-feasible all-in-main assignment for a task region: one task
/// (the main one), every child on it with the greedily chosen nested
/// candidate that still fits the processor budget. Seeds the ILP's upper
/// bound and doubles as a fallback candidate when the solver hits its
/// node cap first. A `timeSeconds` of 0 signals "no valid greedy candidate"
/// (some child offers no zero-extra-processor option for `region.seqPC`).
SolutionCandidate greedyAllInMain(const IlpRegion& region);

/// The bound `greedyAllInMain` achieves, with the solver's slack factor
/// applied; 0 when no greedy candidate exists.
double allInMainBound(const IlpRegion& region);

class Parallelizer {
 public:
  Parallelizer(const htg::Graph& graph, const cost::TimingModel& timing,
               ParallelizerOptions options = {});

  /// Runs Algorithm 1 over the whole graph.
  ParallelizeOutcome run();

 private:
  /// One (mode, seqPC) slice of a node's sweep: the budget loop's appended
  /// candidates in production order, plus the solve statistics it incurred.
  struct LaneOutput {
    std::vector<SolutionCandidate> adds;
    IlpStatistics stats;
  };
  struct RunState;

  /// Post-order over the subtree reachable from the root (explicit stack;
  /// depth-proof) and, via `parent`, the traversal tree.
  std::vector<htg::NodeId> postOrder(std::vector<htg::NodeId>& parent) const;

  /// Modes worth sweeping for `id` ({} when the region is below the
  /// granularity threshold or not hierarchical).
  std::vector<SolutionKind> enabledModes(htg::NodeId id,
                                         const std::vector<ParallelSet>& sets) const;

  /// Runs one sweep lane. `bestStartSeconds` is the fastest known time for
  /// `seqPC` when the lane's phase began; the lane tightens it with its own
  /// candidates only (no other lane adds candidates tagged `seqPC`).
  LaneOutput runLane(htg::NodeId id, SolutionKind kind, ClassId seqPC,
                     double bestStartSeconds, const std::vector<ParallelSet>& sets,
                     IlpRegionCache* cache) const;

  void runWavefront(int jobs, const std::vector<htg::NodeId>& order,
                    const std::vector<htg::NodeId>& parent, std::vector<ParallelSet>& sets,
                    std::vector<IlpStatistics>& nodeStats, IlpRegionCache* cache) const;
  void processNode(RunState& rs, htg::NodeId id) const;
  void startPhase(RunState& rs, htg::NodeId id) const;
  void completePhase(RunState& rs, htg::NodeId id) const;
  void finalizeNode(RunState& rs, htg::NodeId id) const;

  void addSequentialCandidates(htg::NodeId id, const std::vector<ParallelSet>& sets,
                               ParallelSet& set) const;
  double sequentialSeconds(htg::NodeId id, ClassId c,
                           const std::vector<ParallelSet>& sets) const;

  IlpRegion buildTaskRegion(htg::NodeId id, const std::vector<ParallelSet>& sets, ClassId seqPC,
                            int maxProcs) const;
  ChunkRegion buildChunkRegion(htg::NodeId id, const std::vector<ParallelSet>& sets,
                               ClassId seqPC, int maxProcs) const;
  SolutionCandidate decodeTaskParallel(const IlpRegion& region, const IlpParResult& r) const;
  SolutionCandidate decodeChunked(const ChunkResult& r, ClassId seqPC) const;

  const htg::Graph& graph_;
  const cost::TimingModel& timing_;
  ParallelizerOptions options_;
  std::string keyPrefix_;  ///< outcomeFieldBytes(options_): starts every region key
};

}  // namespace hetpar::parallel
