#include "hetpar/parallel/parallelizer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#include "hetpar/parallel/region_cache.hpp"
#include "hetpar/support/bytes.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"
#include "hetpar/support/thread_pool.hpp"

namespace hetpar::parallel {

using htg::Node;
using htg::NodeId;

SolutionRef ParallelizeOutcome::bestRoot(const htg::Graph& g, ClassId mainClass) const {
  auto it = table.find(g.root());
  require(it != table.end(), "parallelizer has not produced a root parallel set");
  const int idx = it->second.bestFor(mainClass);
  require(idx >= 0, "no root solution for the requested main class");
  return SolutionRef{g.root(), idx};
}

std::string outcomeFieldBytes(const ParallelizerOptions& o) {
  std::string out;
  visitOutcomeFields(o, [&out](auto value) {
    if constexpr (std::is_floating_point_v<decltype(value)>) bytes::putF64(out, value);
    else bytes::putI64(out, static_cast<long long>(value));
  });
  return out;
}

Parallelizer::Parallelizer(const htg::Graph& graph, const cost::TimingModel& timing,
                           ParallelizerOptions options)
    : graph_(graph), timing_(timing), options_(options), keyPrefix_(outcomeFieldBytes(options_)) {}

namespace {

/// Solves a task or chunk region, first consulting the cache when one is
/// active. Hits return the memoized result without touching the solver (and
/// without contributing solve statistics); misses solve, account, and store.
template <class Region>
auto solveCached(const Region& region, ilp::BranchAndBoundSolver& solver, IlpRegionCache* cache,
                 const std::string& keyPrefix, IlpStatistics& stats) {
  constexpr bool kTask = std::is_same_v<Region, IlpRegion>;
  const auto solve = [&] {
    if constexpr (kTask) return solveIlpPar(region, solver);
    else return solveChunkIlp(region, solver);
  };
  decltype(solve()) r;
  std::string key;
  if (cache != nullptr) {
    bool hit = false;
    if constexpr (kTask) {
      key = IlpRegionCache::taskKey(region, keyPrefix);
      hit = cache->lookupTask(key, r);
    } else {
      key = IlpRegionCache::chunkKey(region, keyPrefix);
      hit = cache->lookupChunk(key, r);
    }
    if (hit) {
      ++stats.cacheHits;
      return r;
    }
  }
  r = solve();
  stats.absorb(r.stats);
  if (cache == nullptr) return r;
  ++stats.cacheMisses;
  if constexpr (kTask) cache->storeTask(key, r);
  else cache->storeChunk(key, r);
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Traversal and sweep decomposition
// ---------------------------------------------------------------------------

std::vector<NodeId> Parallelizer::postOrder(std::vector<NodeId>& parent) const {
  parent.assign(graph_.size(), htg::kNoNode);
  std::vector<NodeId> order;
  order.reserve(graph_.size());
  // Explicit stack: the traversal depth equals the HTG depth, which
  // generated inputs can make far deeper than the call stack tolerates.
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.emplace_back(graph_.root(), 0);
  while (!stack.empty()) {
    auto& [id, next] = stack.back();
    const Node& node = graph_.node(id);
    if (node.isHierarchical() && next < node.children.size()) {
      const NodeId child = node.children[next++];
      parent[static_cast<std::size_t>(child)] = id;
      stack.emplace_back(child, 0);
    } else {
      order.push_back(id);
      stack.pop_back();
    }
  }
  return order;
}

std::vector<SolutionKind> Parallelizer::enabledModes(NodeId id,
                                                     const std::vector<ParallelSet>& sets) const {
  const Node& node = graph_.node(id);
  const platform::Platform& pf = timing_.platform();
  const bool worthIt =
      node.isHierarchical() &&
      sequentialSeconds(id, pf.fastestClass(), sets) >=
          options_.minRegionTcoMultiple * timing_.taskCreationSeconds() &&
      node.execCount > 0;
  std::vector<SolutionKind> modes;
  if (!worthIt) return modes;
  if (node.children.size() >= 2) modes.push_back(SolutionKind::TaskParallel);
  if (options_.enableChunking && node.kind == htg::NodeKind::Loop && node.doall &&
      node.iterationsPerExec >= 2.0)
    modes.push_back(SolutionKind::LoopChunked);
  return modes;
}

Parallelizer::LaneOutput Parallelizer::runLane(NodeId id, SolutionKind kind, ClassId seqPC,
                                               double bestStartSeconds,
                                               const std::vector<ParallelSet>& sets,
                                               IlpRegionCache* cache) const {
  LaneOutput out;
  const int numCores = timing_.platform().numCores();
  // Algorithm 1's shrinking processor budget exists to hand the *parent*
  // level solutions with fewer allocated units to combine; the root node
  // has no parent, so only the full-budget candidate can ever be chosen.
  const bool isRoot = id == graph_.root();

  ilp::BranchAndBoundSolver solver({.maxNodes = options_.ilpMaxNodes});

  // Pruning bound: the fastest known candidate for this class. Only this
  // lane produces candidates tagged `seqPC` within its phase, so the phase
  // snapshot plus the lane's own additions is exactly what the sequential
  // sweep would see.
  double bestSeconds = bestStartSeconds;
  int budget = numCores;
  while (budget > 1) {
    SolutionCandidate cand;
    bool feasible = false;
    double upperBound = bestSeconds;
    if (kind == SolutionKind::TaskParallel) {
      IlpRegion region = buildTaskRegion(id, sets, seqPC, budget);
      // The greedy all-in-main assignment is always feasible: it seeds the
      // ILP's upper bound and doubles as a fallback candidate when the
      // solver hits its node cap first.
      SolutionCandidate greedy = greedyAllInMain(region);
      if (greedy.timeSeconds > 0 &&
          (upperBound <= 0 || greedy.timeSeconds * 1.02 < upperBound))
        upperBound = greedy.timeSeconds * 1.02;
      region.upperBoundSeconds = upperBound;
      const IlpParResult r = solveCached(region, solver, cache, keyPrefix_, out.stats);
      feasible = r.feasible;
      if (feasible) cand = decodeTaskParallel(region, r);
      if (greedy.timeSeconds > 0 && greedy.totalProcs() > 1 &&
          (!feasible || greedy.timeSeconds < cand.timeSeconds)) {
        if (greedy.timeSeconds < bestSeconds) bestSeconds = greedy.timeSeconds;
        out.adds.push_back(std::move(greedy));
      }
    } else {
      ChunkRegion region = buildChunkRegion(id, sets, seqPC, budget);
      region.upperBoundSeconds = upperBound;
      const ChunkResult r = solveCached(region, solver, cache, keyPrefix_, out.stats);
      feasible = r.feasible;
      if (feasible) cand = decodeChunked(r, seqPC);
    }
    if (!feasible) break;
    const int procs = cand.totalProcs();
    if (procs > 1) {
      if (cand.timeSeconds < bestSeconds) bestSeconds = cand.timeSeconds;
      out.adds.push_back(std::move(cand));
    }
    if (isRoot) break;
    // Algorithm 1: i <- NUMBEROFTASKS(r) - 1, strictly decreasing.
    budget = std::min(budget - 1, procs - 1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bottom-up wavefront
// ---------------------------------------------------------------------------
//
// Continuation-style scheduling: no task ever blocks waiting for another
// (blocking waits inside a fixed-size pool deadlock once the waiters use up
// all workers). Progress is driven by atomic countdowns — the last lane of
// a phase merges and starts the next phase, the last child of a node posts
// its parent. With jobs > 1 the tasks run on a pool and the calling thread
// waits on a condition variable until every node has been finalized. With
// jobs == 1 there is no pool: the calling thread drains the tasks itself,
// depth-first, so nodes finish in post-order and lanes run in seqPC order.

struct Parallelizer::RunState {
  struct NodeWork {
    ParallelSet set;
    std::vector<SolutionKind> modes;
    std::size_t phaseIndex = 0;
    std::vector<LaneOutput> lanes;
    std::atomic<int> pendingLanes{0};
    std::atomic<int> pendingChildren{0};
  };

  explicit RunState(std::size_t numNodes) : work(numNodes) {}

  std::vector<NodeWork> work;  ///< indexed by NodeId
  const std::vector<NodeId>* parent = nullptr;
  std::vector<ParallelSet>* sets = nullptr;
  std::vector<IlpStatistics>* nodeStats = nullptr;
  IlpRegionCache* cache = nullptr;
  support::ThreadPool* pool = nullptr;  ///< null: tasks go to `posted`
  std::vector<std::function<void()>> posted;
  std::atomic<int> nodesRemaining{0};

  // First failure wins; everything after it short-circuits to bookkeeping
  // so the countdowns still reach zero and the caller can rethrow.
  std::atomic<bool> aborted{false};
  std::mutex errorMutex;
  std::exception_ptr firstError;

  std::mutex doneMutex;
  std::condition_variable doneCv;

  void post(std::function<void()> task) {
    if (pool != nullptr) pool->post(std::move(task));
    else posted.push_back(std::move(task));
  }

  void recordError(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!firstError) firstError = std::move(error);
    }
    aborted.store(true, std::memory_order_release);
  }
};

void Parallelizer::processNode(RunState& rs, NodeId id) const {
  RunState::NodeWork& nw = rs.work[static_cast<std::size_t>(id)];
  if (!rs.aborted.load(std::memory_order_acquire)) {
    try {
      addSequentialCandidates(id, *rs.sets, nw.set);
      nw.modes = enabledModes(id, *rs.sets);
    } catch (...) {
      rs.recordError(std::current_exception());
    }
  }
  if (rs.aborted.load(std::memory_order_acquire) || nw.modes.empty()) {
    finalizeNode(rs, id);
    return;
  }
  startPhase(rs, id);
}

void Parallelizer::startPhase(RunState& rs, NodeId id) const {
  RunState::NodeWork& nw = rs.work[static_cast<std::size_t>(id)];
  const SolutionKind kind = nw.modes[nw.phaseIndex];
  const int C = timing_.platform().numClasses();
  nw.lanes.clear();
  nw.lanes.resize(static_cast<std::size_t>(C));
  nw.pendingLanes.store(C, std::memory_order_relaxed);
  // The phase boundary is a barrier on purpose: a LoopChunked lane's
  // starting bound must include the TaskParallel candidates of the same
  // seqPC, exactly like Algorithm 1's mode ordering.
  for (ClassId seqPC = 0; seqPC < C; ++seqPC) {
    const int best = nw.set.bestFor(seqPC);
    const double bestStart = best >= 0 ? nw.set.at(best).timeSeconds : 0.0;
    rs.post([this, &rs, id, kind, seqPC, bestStart] {
      RunState::NodeWork& w = rs.work[static_cast<std::size_t>(id)];
      if (!rs.aborted.load(std::memory_order_acquire)) {
        try {
          w.lanes[static_cast<std::size_t>(seqPC)] =
              runLane(id, kind, seqPC, bestStart, *rs.sets, rs.cache);
        } catch (...) {
          rs.recordError(std::current_exception());
        }
      }
      if (w.pendingLanes.fetch_sub(1, std::memory_order_acq_rel) == 1)
        completePhase(rs, id);
    });
  }
}

void Parallelizer::completePhase(RunState& rs, NodeId id) const {
  RunState::NodeWork& nw = rs.work[static_cast<std::size_t>(id)];
  if (rs.aborted.load(std::memory_order_acquire)) {
    finalizeNode(rs, id);
    return;
  }
  // Canonical merge order: lanes in seqPC order (the phases themselves run
  // in mode order), regardless of which thread finished when.
  for (LaneOutput& lane : nw.lanes) {
    for (SolutionCandidate& cand : lane.adds) nw.set.add(std::move(cand));
    (*rs.nodeStats)[static_cast<std::size_t>(id)].merge(lane.stats);
  }
  ++nw.phaseIndex;
  if (nw.phaseIndex < nw.modes.size())
    startPhase(rs, id);
  else
    finalizeNode(rs, id);
}

void Parallelizer::finalizeNode(RunState& rs, NodeId id) const {
  RunState::NodeWork& nw = rs.work[static_cast<std::size_t>(id)];
  if (!rs.aborted.load(std::memory_order_acquire)) {
    try {
      nw.set.pruneDominated();
      nw.set.capPerClass(options_.maxCandidatesPerClass);
      (*rs.sets)[static_cast<std::size_t>(id)] = std::move(nw.set);
    } catch (...) {
      rs.recordError(std::current_exception());
    }
  }
  const NodeId p = (*rs.parent)[static_cast<std::size_t>(id)];
  if (p != htg::kNoNode &&
      rs.work[static_cast<std::size_t>(p)].pendingChildren.fetch_sub(
          1, std::memory_order_acq_rel) == 1)
    // Post rather than recurse: a chain of trivial ancestors would otherwise
    // unwind on this thread's call stack.
    rs.post([this, &rs, p] { processNode(rs, p); });
  if (rs.nodesRemaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(rs.doneMutex);
    rs.doneCv.notify_all();
  }
}

void Parallelizer::runWavefront(int jobs, const std::vector<NodeId>& order,
                                const std::vector<NodeId>& parent,
                                std::vector<ParallelSet>& sets,
                                std::vector<IlpStatistics>& nodeStats,
                                IlpRegionCache* cache) const {
  RunState rs(graph_.size());
  rs.parent = &parent;
  rs.sets = &sets;
  rs.nodeStats = &nodeStats;
  rs.cache = cache;
  rs.nodesRemaining.store(static_cast<int>(order.size()), std::memory_order_relaxed);

  std::vector<NodeId> seeds;
  for (NodeId id : order) {
    const Node& node = graph_.node(id);
    const int kids = node.isHierarchical() ? static_cast<int>(node.children.size()) : 0;
    rs.work[static_cast<std::size_t>(id)].pendingChildren.store(kids,
                                                                std::memory_order_relaxed);
    if (kids == 0) seeds.push_back(id);
  }

  std::unique_ptr<support::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<support::ThreadPool>(jobs);
  rs.pool = pool.get();
  for (NodeId id : seeds) rs.post([this, &rs, id] { processNode(rs, id); });

  if (pool == nullptr) {
    // Depth-first drain: the tasks a task posts run next, in posting order.
    std::vector<std::function<void()>>& stack = rs.posted;
    std::reverse(stack.begin(), stack.end());
    while (!stack.empty()) {
      const std::function<void()> task = std::move(stack.back());
      stack.pop_back();
      const auto mark = static_cast<std::ptrdiff_t>(stack.size());
      task();
      std::reverse(stack.begin() + mark, stack.end());
    }
  } else {
    std::unique_lock<std::mutex> lock(rs.doneMutex);
    rs.doneCv.wait(lock, [&rs] {
      return rs.nodesRemaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (rs.firstError) std::rethrow_exception(rs.firstError);
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

ParallelizeOutcome Parallelizer::run() {
  std::vector<NodeId> parent;
  const std::vector<NodeId> order = postOrder(parent);

  std::unique_ptr<IlpRegionCache> privateCache;
  IlpRegionCache* cache = nullptr;
  if (options_.regionCache != nullptr) {
    cache = options_.regionCache.get();
  } else if (options_.enableRegionCache) {
    privateCache = std::make_unique<IlpRegionCache>();
    cache = privateCache.get();
  }

  std::vector<ParallelSet> sets(graph_.size());
  std::vector<IlpStatistics> nodeStats(graph_.size());

  runWavefront(support::ThreadPool::resolveJobs(options_.jobs), order, parent, sets, nodeStats,
               cache);

  ParallelizeOutcome out;
  for (NodeId id : order) {
    // Post-order stats merging keeps the floating-point summation order
    // independent of the jobs count.
    out.stats.merge(nodeStats[static_cast<std::size_t>(id)]);
    out.table.emplace(id, std::move(sets[static_cast<std::size_t>(id)]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Candidate construction helpers
// ---------------------------------------------------------------------------

double Parallelizer::sequentialSeconds(NodeId id, ClassId c,
                                       const std::vector<ParallelSet>& sets) const {
  // Equivalent to the node's Sequential candidate; kept as a direct
  // computation so callers can query before the set exists.
  const Node& n = graph_.node(id);
  double seconds = timing_.seconds(c, n.mixPerExec);
  if (n.isHierarchical()) {
    for (NodeId childId : n.children) {
      const Node& child = graph_.node(childId);
      const double ratio = n.execCount > 0 ? child.execCount / n.execCount : 0.0;
      const ParallelSet& childSet = sets[static_cast<std::size_t>(childId)];
      const int seq = childSet.sequentialFor(c);
      HETPAR_CHECK_MSG(seq >= 0, "child parallel set missing (bottom-up order broken)");
      seconds += ratio * childSet.at(seq).timeSeconds;
    }
  }
  return seconds;
}

void Parallelizer::addSequentialCandidates(NodeId id, const std::vector<ParallelSet>& sets,
                                           ParallelSet& set) const {
  const int C = timing_.platform().numClasses();
  for (ClassId c = 0; c < C; ++c) {
    SolutionCandidate cand;
    cand.kind = SolutionKind::Sequential;
    cand.mainClass = c;
    cand.timeSeconds = sequentialSeconds(id, c, sets);
    cand.extraProcs.assign(static_cast<std::size_t>(C), 0);
    cand.taskClass = {c};
    set.add(std::move(cand));
  }
}

SolutionCandidate greedyAllInMain(const IlpRegion& region) {
  // Convert the bound-producing assignment into a real candidate: one task
  // (the main one), every child on it with the greedily chosen nested
  // candidate. Always valid, so it doubles as a fallback when the ILP hits
  // its node cap before reproducing it.
  const int C = static_cast<int>(region.numProcsPerClass.size());
  SolutionCandidate cand;
  cand.kind = SolutionKind::TaskParallel;
  cand.mainClass = region.seqPC;
  cand.taskClass = {region.seqPC};
  cand.extraProcs.assign(static_cast<std::size_t>(C), 0);
  cand.childTask.assign(region.children.size(), 0);
  cand.childChoice.resize(region.children.size());
  cand.timeSeconds = 0.0;  // the main task pays no creation overhead

  struct Option {
    const IlpCandidate* seq = nullptr;
    const IlpCandidate* best = nullptr;
  };
  std::vector<Option> options(region.children.size());
  for (std::size_t n = 0; n < region.children.size(); ++n) {
    for (const IlpCandidate& c :
         region.children[n].byClass[static_cast<std::size_t>(region.seqPC)]) {
      int extra = 0;
      for (int e : c.extraProcs) extra += e;
      if (extra == 0 &&
          (options[n].seq == nullptr || c.timeSeconds < options[n].seq->timeSeconds))
        options[n].seq = &c;
      if (options[n].best == nullptr || c.timeSeconds < options[n].best->timeSeconds)
        options[n].best = &c;
    }
    if (options[n].seq == nullptr) {
      cand.timeSeconds = 0.0;  // signals "no valid greedy candidate"
      return cand;
    }
  }

  std::vector<std::size_t> order(options.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double sa = options[a].seq->timeSeconds - options[a].best->timeSeconds;
    const double sb = options[b].seq->timeSeconds - options[b].best->timeSeconds;
    return sa > sb;
  });

  std::vector<int> classMax(static_cast<std::size_t>(C), 0);
  std::vector<const IlpCandidate*> chosen(options.size(), nullptr);
  for (std::size_t i = 0; i < options.size(); ++i) chosen[i] = options[i].seq;
  for (std::size_t i : order) {
    const IlpCandidate* best = options[i].best;
    if (best == options[i].seq) continue;
    std::vector<int> trial = classMax;
    for (int c = 0; c < C && c < static_cast<int>(best->extraProcs.size()); ++c)
      trial[static_cast<std::size_t>(c)] = std::max(
          trial[static_cast<std::size_t>(c)], best->extraProcs[static_cast<std::size_t>(c)]);
    int total = 1;
    bool fits = true;
    for (int c = 0; c < C; ++c) {
      total += trial[static_cast<std::size_t>(c)];
      const int available = region.numProcsPerClass[static_cast<std::size_t>(c)] -
                            (c == region.seqPC ? 1 : 0);
      fits = fits && trial[static_cast<std::size_t>(c)] <= available;
    }
    if (!fits || total > region.maxProcs) continue;
    classMax = std::move(trial);
    chosen[i] = best;
  }
  for (std::size_t n = 0; n < options.size(); ++n) {
    cand.timeSeconds += chosen[n]->timeSeconds;
    cand.childChoice[n] = chosen[n]->ref;
  }
  cand.extraProcs.assign(classMax.begin(), classMax.end());
  return cand;
}

double allInMainBound(const IlpRegion& region) {
  const SolutionCandidate greedy = greedyAllInMain(region);
  if (greedy.timeSeconds <= 0) return 0.0;
  // Leave a little slack above the heuristic value so the solver has room
  // to *reach* the bound-achieving corner without tolerance trouble.
  return greedy.timeSeconds * 1.02;
}

IlpRegion Parallelizer::buildTaskRegion(NodeId id, const std::vector<ParallelSet>& sets,
                                        ClassId seqPC, int maxProcs) const {
  const Node& node = graph_.node(id);
  const platform::Platform& pf = timing_.platform();
  const int C = pf.numClasses();

  IlpRegion region;
  region.name = strings::format("n%d_pc%d_b%d", id, seqPC, maxProcs);
  region.seqPC = seqPC;
  region.maxProcs = maxProcs;
  region.maxTasks = std::min({options_.maxTasksPerRegion, maxProcs,
                              static_cast<int>(node.children.size())});
  region.taskCreationSeconds = timing_.taskCreationSeconds();
  for (ClassId c = 0; c < C; ++c)
    region.numProcsPerClass.push_back(pf.classAt(c).count);

  // Children with their iteration-scaled candidate menus.
  std::map<NodeId, int> childIndex;
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    const NodeId childId = node.children[i];
    childIndex[childId] = static_cast<int>(i);
    const Node& child = graph_.node(childId);
    const double ratio = node.execCount > 0 ? child.execCount / node.execCount : 0.0;

    IlpChild ic;
    ic.label = child.label;
    ic.byClass.resize(static_cast<std::size_t>(C));
    const ParallelSet& childSet = sets[static_cast<std::size_t>(childId)];
    for (ClassId c = 0; c < C; ++c) {
      for (int idx : childSet.forClass(c)) {
        const SolutionCandidate& cand = childSet.at(idx);
        if (!options_.enableParallelSetMapping && cand.kind != SolutionKind::Sequential)
          continue;
        IlpCandidate entry;
        entry.timeSeconds = ratio * cand.timeSeconds;
        entry.extraProcs = cand.extraProcs;
        entry.ref = SolutionRef{childId, idx};
        ic.byClass[static_cast<std::size_t>(c)].push_back(std::move(entry));
      }
      HETPAR_CHECK_MSG(!ic.byClass[static_cast<std::size_t>(c)].empty(),
                       "parallel set lost its per-class sequential candidate");
    }
    region.children.push_back(std::move(ic));
  }

  // Edges: per-iteration synchronization for loop regions, one-shot flows
  // elsewhere.
  const double commScale =
      node.kind == htg::NodeKind::Loop ? std::max(1.0, node.iterationsPerExec) : 1.0;
  const int N = static_cast<int>(node.children.size());
  for (const htg::Edge& e : node.edges) {
    IlpEdgeSpec spec;
    spec.orderingOnly = e.kind != ir::DepKind::Flow;
    spec.commSeconds =
        spec.orderingOnly ? 0.0 : commScale * timing_.commSeconds(e.bytes);
    if (e.from == node.commIn) spec.from = -1;
    else spec.from = childIndex.at(e.from);
    if (e.to == node.commOut) spec.to = N;
    else spec.to = childIndex.at(e.to);
    region.edges.push_back(spec);
  }
  return region;
}

ChunkRegion Parallelizer::buildChunkRegion(NodeId id, const std::vector<ParallelSet>& sets,
                                           ClassId seqPC, int maxProcs) const {
  const Node& node = graph_.node(id);
  const platform::Platform& pf = timing_.platform();
  const int C = pf.numClasses();
  HETPAR_CHECK(node.kind == htg::NodeKind::Loop && node.doall);

  const double iterations = std::max(1.0, node.iterationsPerExec);

  ChunkRegion region;
  region.name = strings::format("n%d_chunk_pc%d_b%d", id, seqPC, maxProcs);
  region.iterations = static_cast<long long>(std::llround(iterations));
  region.seqPC = seqPC;
  region.maxProcs = maxProcs;
  region.maxTasks = std::min(options_.maxTasksPerRegion, maxProcs);
  region.taskCreationSeconds = timing_.taskCreationSeconds();
  for (ClassId c = 0; c < C; ++c)
    region.numProcsPerClass.push_back(pf.classAt(c).count);

  // Per-iteration sequential body time per class: loop-control header plus
  // the children's sequential candidates, normalized to one iteration.
  for (ClassId c = 0; c < C; ++c) {
    double bodySeconds = timing_.seconds(c, node.mixPerExec);  // header, per node exec
    for (NodeId childId : node.children) {
      const Node& child = graph_.node(childId);
      const double ratio = node.execCount > 0 ? child.execCount / node.execCount : 0.0;
      const ParallelSet& childSet = sets[static_cast<std::size_t>(childId)];
      const int seq = childSet.sequentialFor(c);
      HETPAR_CHECK(seq >= 0);
      bodySeconds += ratio * childSet.at(seq).timeSeconds;
    }
    region.secondsPerIter.push_back(bodySeconds / iterations);
  }

  // Boundary payloads: inbound/outbound bytes through the comm nodes,
  // proportional to the iteration share; reductions add one scalar merge.
  long long inBytes = 0;
  long long outBytes = 0;
  for (const htg::Edge& e : node.edges) {
    if (e.from == node.commIn && e.kind == ir::DepKind::Flow) inBytes += e.bytes;
    if (e.to == node.commOut && e.kind == ir::DepKind::Flow) outBytes += e.bytes;
  }
  outBytes += 8 * static_cast<long long>(node.reductionVars.size());
  const platform::Interconnect& bus = pf.interconnect();
  if (inBytes > 0) {
    region.commInLatency = bus.latencySeconds;
    region.commInSecondsPerIter =
        static_cast<double>(inBytes) / iterations / bus.bytesPerSecond;
  }
  if (outBytes > 0) {
    region.commOutLatency = bus.latencySeconds;
    region.commOutSecondsPerIter =
        static_cast<double>(outBytes) / iterations / bus.bytesPerSecond;
  }
  return region;
}

SolutionCandidate Parallelizer::decodeTaskParallel(const IlpRegion& region,
                                                   const IlpParResult& r) const {
  const int C = timing_.platform().numClasses();
  SolutionCandidate cand;
  cand.kind = SolutionKind::TaskParallel;
  cand.mainClass = region.seqPC;
  cand.timeSeconds = r.timeSeconds;
  cand.taskClass = r.taskClass;
  cand.extraProcs.assign(static_cast<std::size_t>(C), 0);
  for (std::size_t t = 1; t < r.taskClass.size(); ++t)
    ++cand.extraProcs[static_cast<std::size_t>(r.taskClass[t])];

  cand.childTask = r.childTask;
  cand.childChoice.resize(region.children.size());
  // Children sharing a task run sequentially and reuse the processors their
  // nested solutions borrow, so the per-task footprint is the per-class
  // MAXIMUM over its children (Eq 14's accounting), summed over tasks.
  std::vector<std::vector<int>> perTask(r.taskClass.size(),
                                        std::vector<int>(static_cast<std::size_t>(C), 0));
  for (std::size_t n = 0; n < region.children.size(); ++n) {
    const auto [cls, s] = r.childChoice[n];
    const IlpCandidate& chosen =
        region.children[n].byClass[static_cast<std::size_t>(cls)][static_cast<std::size_t>(s)];
    cand.childChoice[n] = chosen.ref;
    const int t = r.childTask[n];
    if (t < static_cast<int>(perTask.size())) {
      for (int c = 0; c < C && c < static_cast<int>(chosen.extraProcs.size()); ++c)
        perTask[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)] =
            std::max(perTask[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)],
                     chosen.extraProcs[static_cast<std::size_t>(c)]);
    }
  }
  for (const auto& taskExtra : perTask)
    for (int c = 0; c < C; ++c)
      cand.extraProcs[static_cast<std::size_t>(c)] += taskExtra[static_cast<std::size_t>(c)];
  return cand;
}

SolutionCandidate Parallelizer::decodeChunked(const ChunkResult& r, ClassId seqPC) const {
  const int C = timing_.platform().numClasses();
  SolutionCandidate cand;
  cand.kind = SolutionKind::LoopChunked;
  cand.mainClass = seqPC;
  cand.timeSeconds = r.timeSeconds;
  cand.taskClass = r.taskClass;
  cand.extraProcs.assign(static_cast<std::size_t>(C), 0);
  for (std::size_t t = 1; t < r.taskClass.size(); ++t)
    ++cand.extraProcs[static_cast<std::size_t>(r.taskClass[t])];
  cand.chunkIterations = r.taskIterations;
  return cand;
}

}  // namespace hetpar::parallel
