#include "hetpar/verify/metamorphic.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "hetpar/cost/interp.hpp"
#include "hetpar/htg/builder.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/ilp/branch_and_bound.hpp"
#include "hetpar/parallel/genetic.hpp"
#include "hetpar/parallel/homogeneous.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/sched/flatten.hpp"
#include "hetpar/sim/mpsoc.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"
#include "hetpar/verify/dense_factor.hpp"
#include "hetpar/verify/invariants.hpp"
#include "hetpar/verify/oracle.hpp"

namespace hetpar::verify {

namespace {

bool closeEnough(double a, double b, double relTol, double absTol) {
  return std::abs(a - b) <= relTol * std::max(std::abs(a), std::abs(b)) + absTol;
}

RelationResult pass(Relation r) { return RelationResult{r, relationName(r), true, false, ""}; }

RelationResult fail(Relation r, std::string detail) {
  return RelationResult{r, relationName(r), false, false, std::move(detail)};
}

RelationResult skip(Relation r, std::string why) {
  return RelationResult{r, relationName(r), true, true, std::move(why)};
}

/// Every cost in the platform scaled by `factor` (a power of two, so the
/// scaling is exact in floating point): cores `factor`x slower, bus
/// `factor`x slower in both latency and bandwidth, TCO `factor`x larger.
platform::Platform scaledPlatform(const platform::Platform& pf, double factor) {
  std::vector<platform::ProcessorClass> classes = pf.classes();
  for (auto& c : classes) c.frequencyMHz /= factor;
  platform::Interconnect bus = pf.interconnect();
  bus.latencySeconds *= factor;
  bus.bytesPerSecond /= factor;
  return platform::Platform(pf.name() + "_scaled", std::move(classes), bus,
                            pf.taskCreationOverheadSeconds() * factor);
}

// ---------------------------------------------------------------------------
// Program-level relations
// ---------------------------------------------------------------------------

RelationResult checkInvariants(const htg::Graph& graph, const cost::TimingModel& timing,
                               const MetamorphicOptions& options) {
  const parallel::ParallelizeOutcome outcome =
      parallel::Parallelizer(graph, timing, options.parallelizer).run();
  InvariantOptions io;
  io.relTol = options.relTol;
  io.absTolSeconds = options.absTolSeconds;
  const std::vector<std::string> problems =
      checkSolutionTable(graph, timing, outcome.table, io);
  if (problems.empty()) return pass(Relation::Invariants);
  return fail(Relation::Invariants,
              strings::format("%zu invariant violations; first: %s", problems.size(),
                              problems.front().c_str()));
}

RelationResult checkCostScaling(const htg::Graph& graph, const platform::Platform& pf,
                                const MetamorphicOptions& options) {
  constexpr double kFactor = 4.0;
  const cost::TimingModel baseTiming(pf);
  const parallel::ParallelizeOutcome base =
      parallel::Parallelizer(graph, baseTiming, options.parallelizer).run();

  const platform::Platform scaled = scaledPlatform(pf, kFactor);
  const cost::TimingModel scaledTiming(scaled);
  const parallel::ParallelizeOutcome slow =
      parallel::Parallelizer(graph, scaledTiming, options.parallelizer).run();

  const parallel::ParallelSet& baseRoot = base.table.at(graph.root());
  const parallel::ParallelSet& slowRoot = slow.table.at(graph.root());
  for (int c = 0; c < static_cast<int>(pf.classes().size()); ++c) {
    const int bi = baseRoot.bestFor(c);
    const int si = slowRoot.bestFor(c);
    if ((bi < 0) != (si < 0))
      return fail(Relation::CostScaling,
                  strings::format("class %d: best candidate exists only in one run", c));
    if (bi < 0) continue;
    const double expected = baseRoot.at(bi).timeSeconds * kFactor;
    const double actual = slowRoot.at(si).timeSeconds;
    if (!closeEnough(actual, expected, options.relTol, options.absTolSeconds * kFactor))
      return fail(Relation::CostScaling,
                  strings::format("class %d: %gx-scaled platform best %.12g s, expected "
                                  "%.12g s (base %.12g s)",
                                  c, kFactor, actual, expected, baseRoot.at(bi).timeSeconds));
  }
  return pass(Relation::CostScaling);
}

RelationResult checkSingleClassHomogeneous(const htg::Graph& graph,
                                           const platform::Platform& pf,
                                           const MetamorphicOptions& options) {
  if (pf.classes().size() != 1)
    return skip(Relation::SingleClassHomogeneous, "platform has more than one class");
  const cost::TimingModel timing(pf);
  const parallel::ParallelizeOutcome het =
      parallel::Parallelizer(graph, timing, options.parallelizer).run();
  const parallel::HomogeneousRun homog =
      parallel::runHomogeneousBaseline(graph, pf, 0, options.parallelizer);
  const std::string diff = diffSolutionTables(het.table, homog.outcome.table);
  if (diff.empty()) return pass(Relation::SingleClassHomogeneous);
  return fail(Relation::SingleClassHomogeneous,
              "heterogeneous and homogeneous runs disagree on a single-class "
              "platform: " +
                  diff);
}

RelationResult checkJobsInvariance(const htg::Graph& graph, const cost::TimingModel& timing,
                                   const MetamorphicOptions& options) {
  parallel::ParallelizerOptions seq = options.parallelizer;
  seq.jobs = 1;
  parallel::ParallelizerOptions par = options.parallelizer;
  par.jobs = 3;
  const parallel::ParallelizeOutcome a = parallel::Parallelizer(graph, timing, seq).run();
  const parallel::ParallelizeOutcome b = parallel::Parallelizer(graph, timing, par).run();
  const std::string diff = diffSolutionTables(a.table, b.table);
  if (diff.empty()) return pass(Relation::JobsInvariance);
  return fail(Relation::JobsInvariance, "--jobs 1 vs --jobs 3 outcomes differ: " + diff);
}

RelationResult checkCacheInvariance(const htg::Graph& graph, const cost::TimingModel& timing,
                                    const MetamorphicOptions& options) {
  parallel::ParallelizerOptions off = options.parallelizer;
  off.enableRegionCache = false;
  parallel::ParallelizerOptions on = options.parallelizer;
  on.enableRegionCache = true;
  const parallel::ParallelizeOutcome a = parallel::Parallelizer(graph, timing, off).run();
  const parallel::ParallelizeOutcome b = parallel::Parallelizer(graph, timing, on).run();
  const std::string diff = diffSolutionTables(a.table, b.table);
  if (!diff.empty())
    return fail(Relation::CacheInvariance, "region cache changed the outcome: " + diff);
  // Accounting: a hit replaces exactly one solve, so solves without the
  // cache == solves + hits with it.
  if (a.stats.numIlps != b.stats.numIlps + b.stats.cacheHits)
    return fail(Relation::CacheInvariance,
                strings::format("cache accounting broken: %lld uncached solves vs "
                                "%lld cached solves + %lld hits",
                                a.stats.numIlps, b.stats.numIlps, b.stats.cacheHits));
  return pass(Relation::CacheInvariance);
}

RelationResult checkSimConsistency(const htg::Graph& graph, const platform::Platform& pf,
                                   const MetamorphicOptions& options) {
  const cost::TimingModel timing(pf);
  const parallel::ParallelizeOutcome outcome =
      parallel::Parallelizer(graph, timing, options.parallelizer).run();
  const parallel::ParallelSet& root = outcome.table.at(graph.root());

  std::vector<platform::ClassId> mains = {pf.fastestClass()};
  if (pf.slowestClass() != pf.fastestClass()) mains.push_back(pf.slowestClass());
  for (platform::ClassId mainClass : mains) {
    const int mainCore = pf.firstCoreOfClass(mainClass);

    // Sequential: claim and simulation derive from the same profile; only
    // the summation order differs.
    const int seqIdx = root.sequentialFor(mainClass);
    if (seqIdx < 0)
      return fail(Relation::SimConsistency,
                  strings::format("no sequential root candidate for class %d", mainClass));
    const double claimedSeq = root.at(seqIdx).timeSeconds;
    const sched::FlattenResult seq = sched::flattenSequential(graph, timing, mainCore);
    const double simSeq = sim::simulate(seq.graph).makespanSeconds;
    if (!closeEnough(simSeq, claimedSeq, options.seqSimRelTol, options.absTolSeconds))
      return fail(Relation::SimConsistency,
                  strings::format("class %d: sequential sim %.12g s vs claimed %.12g s",
                                  mainClass, simSeq, claimedSeq));

    // Parallel: the DES serializes the bus, so the band is generous.
    const parallel::SolutionRef best = outcome.bestRoot(graph, mainClass);
    if (!best.valid())
      return fail(Relation::SimConsistency,
                  strings::format("no best root candidate for class %d", mainClass));
    const double claimed = outcome.table.at(best.node).at(best.index).timeSeconds;
    const sched::FlattenResult flat =
        sched::flatten(graph, outcome.table, best, timing, mainCore);
    const double simPar = sim::simulate(flat.graph).makespanSeconds;
    if (simPar < claimed * options.simLowerFactor ||
        simPar > claimed * options.simUpperFactor)
      return fail(Relation::SimConsistency,
                  strings::format("class %d: parallel sim %.12g s outside [%g, %g] x "
                                  "claimed %.12g s",
                                  mainClass, simPar, options.simLowerFactor,
                                  options.simUpperFactor, claimed));
  }
  return pass(Relation::SimConsistency);
}

// ---------------------------------------------------------------------------
// Affine-dependence relations
// ---------------------------------------------------------------------------

/// The scope a node's *statement* lives in. Call nodes carry the callee as
/// their scope (their children live there), but the call-site statement —
/// and therefore its access summary — belongs to the caller.
const frontend::Function* stmtScope(const htg::Graph& g, const htg::Node& n) {
  if (n.kind == htg::NodeKind::Call && n.parent != htg::kNoNode)
    return g.node(n.parent).scope;
  return n.scope;
}

/// First variable on which the two nodes' subtree summaries may conflict
/// (write/write, write/read, or read/write on overlapping sections); "" when
/// provably independent. Identical names in different scopes only conflict
/// when the name is a global.
std::string sectionConflict(const htg::Graph& g, const frontend::SemaResult& sema,
                            const ir::SectionAnalysis& sa, htg::NodeId aId,
                            htg::NodeId bId) {
  const htg::Node& na = g.node(aId);
  const htg::Node& nb = g.node(bId);
  if (na.stmt == nullptr || nb.stmt == nullptr) return "";
  const ir::AccessSummary& a = sa.of(*na.stmt);
  const ir::AccessSummary& b = sa.of(*nb.stmt);
  const frontend::Function* fa = stmtScope(g, na);
  const frontend::Function* fb = stmtScope(g, nb);
  const auto clash = [&](const std::map<std::string, ir::SectionInfo>& x,
                         const std::map<std::string, ir::SectionInfo>& y) -> std::string {
    for (const auto& [v, sx] : x) {
      const auto it = y.find(v);
      if (it == y.end()) continue;
      if (fa != fb && sema.globals.count(v) == 0) continue;
      const frontend::Type* type = sa.typeOf(fa, v);
      if (type == nullptr ||
          ir::SectionAnalysis::mayOverlap(sx.hull, it->second.hull, *type))
        return v;
    }
    return "";
  };
  if (std::string v = clash(a.writes, b.writes); !v.empty()) return v;
  if (std::string v = clash(a.writes, b.reads); !v.empty()) return v;
  return clash(a.reads, b.writes);
}

RelationResult checkRefinementSoundness(const std::string& source) {
  constexpr Relation kR = Relation::RefinementSoundness;
  htg::FrontendBundle cons = pipeline::buildFrontend(source, ir::DependenceMode::Conservative);
  htg::FrontendBundle aff = pipeline::buildFrontend(source, ir::DependenceMode::Affine);
  htg::validateOrThrow(aff.graph);
  if (cons.graph.size() != aff.graph.size())
    return fail(kR, strings::format("graph sizes differ: %zu conservative vs %zu affine",
                                    cons.graph.size(), aff.graph.size()));

  for (htg::NodeId id = 0; id < static_cast<htg::NodeId>(cons.graph.size()); ++id) {
    const htg::Node& nc = cons.graph.node(id);
    const htg::Node& na = aff.graph.node(id);
    if (nc.kind != na.kind || nc.children != na.children)
      return fail(kR, strings::format("node %d: modes disagree on graph structure", id));
    if (!nc.isHierarchical()) continue;

    const int n = static_cast<int>(nc.children.size());
    std::map<htg::NodeId, int> childIndex;
    for (int i = 0; i < n; ++i)
      childIndex[nc.children[static_cast<std::size_t>(i)]] = i;

    // Conservative reachability among children (transitive closure), comm
    // variable sets, and the region byte total.
    std::vector<std::vector<bool>> reach(static_cast<std::size_t>(n),
                                         std::vector<bool>(static_cast<std::size_t>(n)));
    std::map<int, std::set<std::string>> consIn, consOut;
    long long consBytes = 0;
    for (const htg::Edge& e : nc.edges) {
      consBytes += e.bytes;
      if (e.from == nc.commIn) {
        auto& vars = consIn[childIndex.at(e.to)];
        vars.insert(e.vars.begin(), e.vars.end());
      } else if (e.to == nc.commOut) {
        auto& vars = consOut[childIndex.at(e.from)];
        vars.insert(e.vars.begin(), e.vars.end());
      } else {
        reach[static_cast<std::size_t>(childIndex.at(e.from))]
             [static_cast<std::size_t>(childIndex.at(e.to))] = true;
      }
    }
    for (int k = 0; k < n; ++k)
      for (int i = 0; i < n; ++i)
        if (reach[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)])
          for (int j = 0; j < n; ++j)
            if (reach[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)])
              reach[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;

    long long affBytes = 0;
    for (const htg::Edge& e : na.edges) {
      affBytes += e.bytes;
      if (e.from == na.commIn) {
        const auto it = consIn.find(childIndex.at(e.to));
        for (const std::string& v : e.vars)
          if (it == consIn.end() || it->second.count(v) == 0)
            return fail(kR, strings::format("node %d child %d: affine comm-in var '%s' "
                                            "absent from the conservative comm-in set",
                                            id, childIndex.at(e.to), v.c_str()));
      } else if (e.to == na.commOut) {
        const auto it = consOut.find(childIndex.at(e.from));
        for (const std::string& v : e.vars)
          if (it == consOut.end() || it->second.count(v) == 0)
            return fail(kR, strings::format("node %d child %d: affine comm-out var '%s' "
                                            "absent from the conservative comm-out set",
                                            id, childIndex.at(e.from), v.c_str()));
      } else {
        const int from = childIndex.at(e.from);
        const int to = childIndex.at(e.to);
        if (!reach[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)])
          return fail(kR, strings::format("node %d: affine edge %d->%d (%s) is not in "
                                          "the conservative closure",
                                          id, from, to,
                                          e.vars.empty() ? "" : e.vars.front().c_str()));
      }
    }
    if (affBytes > consBytes)
      return fail(kR, strings::format("node %d: affine region bytes %lld exceed "
                                      "conservative %lld",
                                      id, affBytes, consBytes));
  }
  return pass(kR);
}

RelationResult checkScheduleValidity(const std::string& source, const platform::Platform& pf,
                                     const MetamorphicOptions& options) {
  constexpr Relation kR = Relation::ScheduleValidity;
  htg::FrontendBundle bundle = pipeline::buildFrontend(source, ir::DependenceMode::Affine);
  htg::validateOrThrow(bundle.graph);
  const cost::TimingModel timing(pf);
  parallel::ParallelizerOptions po = options.parallelizer;
  po.dependenceMode = ir::DependenceMode::Affine;
  const parallel::ParallelizeOutcome outcome =
      parallel::Parallelizer(bundle.graph, timing, po).run();

  std::vector<platform::ClassId> mains = {pf.fastestClass()};
  if (pf.slowestClass() != pf.fastestClass()) mains.push_back(pf.slowestClass());
  for (platform::ClassId mainClass : mains) {
    const parallel::SolutionRef best = outcome.bestRoot(bundle.graph, mainClass);
    if (!best.valid())
      return fail(kR, strings::format("no best root candidate for class %d", mainClass));
    const sched::FlattenResult flat = sched::flatten(
        bundle.graph, outcome.table, best, timing, pf.firstCoreOfClass(mainClass));
    const sim::SimReport report = sim::simulate(flat.graph);

    // Two tasks with conflicting section summaries must never overlap in
    // simulated time (same-core tasks are serialized by the core itself;
    // same-source tasks are chunks of one DOALL loop, independent by the
    // loop-parallelism analysis).
    const auto& tasks = flat.graph.tasks;
    for (std::size_t a = 0; a < tasks.size(); ++a) {
      for (std::size_t b = a + 1; b < tasks.size(); ++b) {
        if (tasks[a].core == tasks[b].core) continue;
        if (tasks[a].sourceNode < 0 || tasks[b].sourceNode < 0) continue;
        if (tasks[a].sourceNode == tasks[b].sourceNode) continue;
        const double overlapStart = std::max(report.taskStart[a], report.taskStart[b]);
        const double overlapEnd = std::min(report.taskFinish[a], report.taskFinish[b]);
        if (overlapStart >= overlapEnd) continue;
        const std::string v = sectionConflict(bundle.graph, bundle.sema, *bundle.sections,
                                              tasks[a].sourceNode, tasks[b].sourceNode);
        if (!v.empty())
          return fail(kR, strings::format(
                              "class %d: tasks '%s' and '%s' conflict on '%s' but run "
                              "concurrently ([%.9g, %.9g] vs [%.9g, %.9g])",
                              mainClass, tasks[a].label.c_str(), tasks[b].label.c_str(),
                              v.c_str(), report.taskStart[a], report.taskFinish[a],
                              report.taskStart[b], report.taskFinish[b]));
      }
    }
  }
  return pass(kR);
}

RelationResult checkSectionSoundness(const std::string& source) {
  constexpr Relation kR = Relation::SectionSoundness;
  htg::FrontendBundle bundle = pipeline::buildFrontend(source, ir::DependenceMode::Affine);
  const frontend::Function& mainFn = bundle.program.entry();

  // Statement id -> index of its enclosing top-level statement of main().
  // The interpreter's attribution stack resolves through here, so callee
  // accesses land on the call site's top-level statement.
  std::map<int, int> topOf;
  for (std::size_t t = 0; t < mainFn.body.size(); ++t)
    frontend::forEachStmt(*mainFn.body[t],
                          [&](frontend::Stmt& s) { topOf[s.id] = static_cast<int>(t); });

  // A local (or parameter) shadowing a global array makes the storage-based
  // name attribution ambiguous; skip such variables entirely.
  std::set<std::string> shadowed;
  for (const auto& fn : bundle.program.functions) {
    for (const auto& p : fn->params)
      if (bundle.sema.globals.count(p.name) != 0) shadowed.insert(p.name);
    for (const auto& s : fn->body)
      frontend::forEachStmt(*s, [&](frontend::Stmt& st) {
        if (st.kind != frontend::StmtKind::Decl) return;
        const auto& d = static_cast<const frontend::DeclStmt&>(st);
        if (bundle.sema.globals.count(d.name) != 0) shadowed.insert(d.name);
      });
  }

  std::map<const void*, std::string> nameOfStorage;
  std::map<std::string, const void*> storageOfName;
  using ElemSet = std::set<std::vector<long long>>;
  std::map<std::pair<int, const void*>, ElemSet> reads, writes;

  cost::AccessObserver obs;
  obs.onGlobalArray = [&](const std::string& name, const void* storage) {
    nameOfStorage[storage] = name;
    storageOfName[name] = storage;
  };
  obs.onAccess = [&](const void* storage, const std::vector<long long>& idx, bool isWrite,
                     const std::vector<int>& attribution) {
    if (nameOfStorage.find(storage) == nameOfStorage.end()) return;  // local array
    for (int id : attribution) {
      const auto it = topOf.find(id);
      if (it == topOf.end()) continue;
      (isWrite ? writes : reads)[{it->second, storage}].insert(idx);
      return;  // attribute to the outermost enclosing main() statement only
    }
  };

  cost::ProgramProfile profile;
  try {
    profile = cost::interpret(bundle.program, bundle.sema, {}, {}, &obs);
  } catch (const Error& e) {
    return skip(kR, std::string("program does not execute cleanly: ") + e.what());
  }

  const auto inHull = [](const ir::ArraySection& hull, const std::vector<long long>& idx) {
    if (hull.whole) return true;
    if (hull.dims.size() != idx.size()) return false;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const ir::DimSection& d = hull.dims[k];
      if (idx[k] < d.lo || idx[k] > d.hi) return false;
      if ((idx[k] - d.lo) % d.stride != 0) return false;
    }
    return true;
  };
  const auto fmtIdx = [](const std::vector<long long>& idx) {
    std::string out;
    for (long long v : idx) out += strings::format("[%lld]", v);
    return out;
  };

  for (std::size_t t = 0; t < mainFn.body.size(); ++t) {
    const frontend::Stmt& stmt = *mainFn.body[t];
    const ir::AccessSummary& su = bundle.sections->of(stmt);

    // (a) Hull soundness: every traced access lies inside the claimed hull.
    for (const bool isWrite : {false, true}) {
      const auto& traced = isWrite ? writes : reads;
      const auto& claimed = isWrite ? su.writes : su.reads;
      const char* dir = isWrite ? "write" : "read";
      for (const auto& [key, elems] : traced) {
        if (key.first != static_cast<int>(t)) continue;
        const std::string& name = nameOfStorage.at(key.second);
        if (shadowed.count(name) != 0) continue;
        const auto it = claimed.find(name);
        if (it == claimed.end())
          return fail(kR, strings::format("statement %zu %ss '%s' but its summary has no %s "
                                          "entry for it",
                                          t, dir, name.c_str(), dir));
        for (const auto& idx : elems)
          if (!inHull(it->second.hull, idx))
            return fail(kR, strings::format(
                                "statement %zu: actual %s of '%s%s' escapes the claimed "
                                "hull %s",
                                t, dir, name.c_str(), fmtIdx(idx).c_str(),
                                ir::SectionAnalysis::toString(it->second.hull).c_str()));
      }
    }

    // (b) Kill-certainty soundness: a mustCover() write must really have
    // touched every element of its hull during the statement's execution.
    if (profile.stmts[static_cast<std::size_t>(stmt.id)].execCount != 1) continue;
    for (const auto& [name, info] : su.writes) {
      if (!info.mustCover() || shadowed.count(name) != 0) continue;
      const auto git = bundle.sema.globals.find(name);
      if (git == bundle.sema.globals.end() || git->second.dims.empty()) continue;
      const frontend::Type& type = git->second;
      std::vector<ir::DimSection> dims;
      if (!info.hull.whole && info.hull.dims.size() == type.dims.size()) {
        dims = info.hull.dims;
      } else {
        for (int extent : type.dims) dims.push_back(ir::DimSection{0, extent - 1, 1});
      }
      const auto wit = writes.find({static_cast<int>(t), storageOfName.at(name)});
      const ElemSet* written = wit == writes.end() ? nullptr : &wit->second;
      std::vector<long long> idx(dims.size());
      std::function<std::string(std::size_t)> walk = [&](std::size_t k) -> std::string {
        if (k == dims.size()) {
          if (written == nullptr || written->count(idx) == 0)
            return strings::format("statement %zu claims a definite exact write of '%s' "
                                   "hull %s but never wrote element %s",
                                   t, name.c_str(),
                                   ir::SectionAnalysis::toString(info.hull).c_str(),
                                   fmtIdx(idx).c_str());
          return "";
        }
        for (long long v = dims[k].lo; v <= dims[k].hi; v += dims[k].stride) {
          idx[k] = v;
          if (std::string err = walk(k + 1); !err.empty()) return err;
        }
        return "";
      };
      if (std::string err = walk(0); !err.empty()) return fail(kR, err);
    }
  }
  return pass(kR);
}

RelationResult checkLivenessSoundness(const std::string& source) {
  constexpr Relation kR = Relation::LivenessSoundness;
  htg::FrontendBundle bundle =
      pipeline::buildFrontend(source, ir::DependenceMode::Affine, ir::FlowMode::Live);
  HETPAR_CHECK(bundle.dataflow != nullptr);
  const ir::DataflowAnalysis& dfa = *bundle.dataflow;
  const frontend::Function& mainFn = bundle.program.entry();

  // Statement id -> index of its enclosing top-level statement of main()
  // (same attribution scheme as SectionSoundness: callee accesses land on
  // their call site).
  std::map<int, int> topOf;
  for (std::size_t t = 0; t < mainFn.body.size(); ++t)
    frontend::forEachStmt(*mainFn.body[t],
                          [&](frontend::Stmt& s) { topOf[s.id] = static_cast<int>(t); });

  // Storage-based name attribution is ambiguous for shadowed globals.
  std::set<std::string> shadowed;
  for (const auto& fn : bundle.program.functions) {
    for (const auto& p : fn->params)
      if (bundle.sema.globals.count(p.name) != 0) shadowed.insert(p.name);
    for (const auto& s : fn->body)
      frontend::forEachStmt(*s, [&](frontend::Stmt& st) {
        if (st.kind != frontend::StmtKind::Decl) return;
        const auto& d = static_cast<const frontend::DeclStmt&>(st);
        if (bundle.sema.globals.count(d.name) != 0) shadowed.insert(d.name);
      });
  }

  // Element-level def-use chains across top-level statements: when a value
  // written under statement t is read under a later statement t', it flowed
  // across every boundary in [t, t'), so liveness must keep the array alive
  // after each of those statements. (Top-level statements execute in order,
  // so the write's index never exceeds the read's.)
  std::map<const void*, std::string> nameOfStorage;
  std::map<std::pair<const void*, std::vector<long long>>, int> lastWrite;
  std::string violation;

  cost::AccessObserver obs;
  obs.onGlobalArray = [&](const std::string& name, const void* storage) {
    nameOfStorage[storage] = name;
  };
  obs.onAccess = [&](const void* storage, const std::vector<long long>& idx, bool isWrite,
                     const std::vector<int>& attribution) {
    if (!violation.empty()) return;
    const auto nit = nameOfStorage.find(storage);
    if (nit == nameOfStorage.end()) return;  // local array
    int top = -1;
    for (int id : attribution) {
      const auto it = topOf.find(id);
      if (it != topOf.end()) {
        top = it->second;
        break;
      }
    }
    if (top < 0) return;  // not under a top-level statement of main()
    const std::pair<const void*, std::vector<long long>> key{storage, idx};
    if (isWrite) {
      lastWrite[key] = top;
      return;
    }
    if (shadowed.count(nit->second) != 0) return;
    const auto wit = lastWrite.find(key);
    // Never written: the zero-initialized value flows from program start.
    const int tw = wit == lastWrite.end() ? 0 : wit->second;
    for (int t = tw; t < top && violation.empty(); ++t) {
      const std::set<std::string>& live =
          dfa.liveAfter(*mainFn.body[static_cast<std::size_t>(t)]);
      if (live.count(nit->second) == 0)
        violation = strings::format(
            "'%s%s' is %s and read under statement %d, but liveness kills '%s' "
            "after statement %d",
            nit->second.c_str(),
            [&] {
              std::string out;
              for (long long v : idx) out += strings::format("[%lld]", v);
              return out;
            }()
                .c_str(),
            wit == lastWrite.end()
                ? "never written"
                : strings::format("written under statement %d", tw).c_str(),
            top, nit->second.c_str(), t);
    }
  };

  try {
    cost::interpret(bundle.program, bundle.sema, {}, {}, &obs);
  } catch (const Error& e) {
    return skip(kR, std::string("program does not execute cleanly: ") + e.what());
  }
  if (!violation.empty()) return fail(kR, violation);
  return pass(kR);
}

RelationResult checkFlowRefinement(const std::string& source) {
  constexpr Relation kR = Relation::FlowRefinement;
  htg::FrontendBundle cons = pipeline::buildFrontend(source, ir::DependenceMode::Affine,
                                                     ir::FlowMode::Conservative);
  htg::FrontendBundle live =
      pipeline::buildFrontend(source, ir::DependenceMode::Affine, ir::FlowMode::Live);
  htg::validateOrThrow(live.graph);
  if (cons.graph.size() != live.graph.size())
    return fail(kR, strings::format("graph sizes differ: %zu conservative vs %zu live",
                                    cons.graph.size(), live.graph.size()));

  for (htg::NodeId id = 0; id < static_cast<htg::NodeId>(cons.graph.size()); ++id) {
    const htg::Node& nc = cons.graph.node(id);
    const htg::Node& nl = live.graph.node(id);
    if (nc.kind != nl.kind || nc.children != nl.children)
      return fail(kR, strings::format("node %d: flow modes disagree on graph structure", id));
    if (!nc.isHierarchical()) continue;

    std::map<htg::NodeId, int> childIndex;
    for (std::size_t i = 0; i < nc.children.size(); ++i)
      childIndex[nc.children[i]] = static_cast<int>(i);

    // Conservative per-child comm variable sets and byte totals, plus the
    // sibling edge set (liveness pruning must leave sibling edges alone).
    std::map<int, std::set<std::string>> consIn, consOut;
    std::map<int, long long> consInBytes, consOutBytes;
    std::set<std::pair<int, int>> consSib;
    long long consBytes = 0;
    for (const htg::Edge& e : nc.edges) {
      consBytes += e.bytes;
      if (e.from == nc.commIn) {
        const int child = childIndex.at(e.to);
        consIn[child].insert(e.vars.begin(), e.vars.end());
        consInBytes[child] += e.bytes;
      } else if (e.to == nc.commOut) {
        const int child = childIndex.at(e.from);
        consOut[child].insert(e.vars.begin(), e.vars.end());
        consOutBytes[child] += e.bytes;
      } else {
        consSib.insert({childIndex.at(e.from), childIndex.at(e.to)});
      }
    }

    std::map<int, long long> liveInBytes, liveOutBytes;
    long long liveBytes = 0;
    for (const htg::Edge& e : nl.edges) {
      liveBytes += e.bytes;
      if (e.from == nl.commIn) {
        const int child = childIndex.at(e.to);
        const auto it = consIn.find(child);
        for (const std::string& v : e.vars)
          if (it == consIn.end() || it->second.count(v) == 0)
            return fail(kR, strings::format("node %d child %d: live comm-in var '%s' "
                                            "absent from the conservative comm-in set",
                                            id, child, v.c_str()));
        liveInBytes[child] += e.bytes;
      } else if (e.to == nl.commOut) {
        const int child = childIndex.at(e.from);
        const auto it = consOut.find(child);
        for (const std::string& v : e.vars)
          if (it == consOut.end() || it->second.count(v) == 0)
            return fail(kR, strings::format("node %d child %d: live comm-out var '%s' "
                                            "absent from the conservative comm-out set",
                                            id, child, v.c_str()));
        liveOutBytes[child] += e.bytes;
      } else {
        if (consSib.count({childIndex.at(e.from), childIndex.at(e.to)}) == 0)
          return fail(kR, strings::format("node %d: live mode introduced sibling edge "
                                          "%d->%d",
                                          id, childIndex.at(e.from), childIndex.at(e.to)));
      }
    }

    for (const auto& [child, bytes] : liveInBytes)
      if (bytes > consInBytes[child])
        return fail(kR, strings::format("node %d child %d: live comm-in bytes %lld exceed "
                                        "conservative %lld",
                                        id, child, bytes, consInBytes[child]));
    for (const auto& [child, bytes] : liveOutBytes)
      if (bytes > consOutBytes[child])
        return fail(kR, strings::format("node %d child %d: live comm-out bytes %lld "
                                        "exceed conservative %lld",
                                        id, child, bytes, consOutBytes[child]));
    if (liveBytes > consBytes)
      return fail(kR, strings::format("node %d: live region bytes %lld exceed "
                                      "conservative %lld",
                                      id, liveBytes, consBytes));
  }
  return pass(kR);
}

// ---------------------------------------------------------------------------
// Region-level relations
// ---------------------------------------------------------------------------

RelationResult checkGaVsIlp(std::uint64_t seed, const MetamorphicOptions& options) {
  Rng rng(seed);
  const parallel::IlpRegion region = randomTinyRegion(rng);
  ilp::BranchAndBoundSolver solver;
  const parallel::IlpParResult ilp = parallel::solveIlpPar(region, solver);
  if (!ilp.feasible || !ilp.provenOptimal)
    return skip(Relation::GaVsIlp, "ILP did not prove optimality within limits");
  parallel::GaOptions ga;
  ga.seed = seed * 2654435761u + 1;
  const parallel::IlpParResult evolved = parallel::solveGaPar(region, ga);
  if (!evolved.feasible) return pass(Relation::GaVsIlp);  // GA may fail; it must not win
  // The ILP's reported time may sit a hair above the true optimum (the
  // vanishing open-task penalty), hence the tolerance.
  if (evolved.timeSeconds <
      ilp.timeSeconds - (options.relTol * ilp.timeSeconds + options.absTolSeconds))
    return fail(Relation::GaVsIlp,
                strings::format("GA found %.12g s, beating the 'optimal' ILP's %.12g s",
                                evolved.timeSeconds, ilp.timeSeconds));
  return pass(Relation::GaVsIlp);
}

RelationResult checkOracleTask(std::uint64_t seed, const MetamorphicOptions& options) {
  Rng rng(seed);
  const parallel::IlpRegion region = randomTinyRegion(rng);
  ilp::BranchAndBoundSolver solver;
  const parallel::IlpParResult ilp = parallel::solveIlpPar(region, solver);
  const OracleResult oracle = bruteForceTask(region);
  if (!oracle.feasible)
    return fail(Relation::OracleTask, "oracle found no feasible assignment (generator bug)");
  if (!ilp.feasible)
    return fail(Relation::OracleTask,
                strings::format("ILP infeasible but brute force achieves %.12g s",
                                oracle.bestSeconds));
  if (!ilp.provenOptimal)
    return skip(Relation::OracleTask, "ILP did not prove optimality within limits");
  if (!closeEnough(ilp.timeSeconds, oracle.bestSeconds, options.relTol,
                   options.absTolSeconds))
    return fail(Relation::OracleTask,
                strings::format("ILP claims %.12g s but exhaustive optimum over %lld "
                                "assignments is %.12g s",
                                ilp.timeSeconds, oracle.assignmentsTried,
                                oracle.bestSeconds));
  return pass(Relation::OracleTask);
}

RelationResult checkOracleChunk(std::uint64_t seed, const MetamorphicOptions& options) {
  Rng rng(seed);
  const parallel::ChunkRegion region = randomTinyChunkRegion(rng);
  ilp::BranchAndBoundSolver solver;
  const parallel::ChunkResult ilp = parallel::solveChunkIlp(region, solver);
  const OracleResult oracle = bruteForceChunk(region);
  if (!oracle.feasible)
    return fail(Relation::OracleChunk, "oracle found no feasible split (generator bug)");
  if (!ilp.feasible)
    return fail(Relation::OracleChunk,
                strings::format("chunk ILP infeasible but brute force achieves %.12g s",
                                oracle.bestSeconds));
  if (!ilp.provenOptimal)
    return skip(Relation::OracleChunk, "chunk ILP did not prove optimality within limits");
  if (!closeEnough(ilp.timeSeconds, oracle.bestSeconds, options.relTol,
                   options.absTolSeconds))
    return fail(Relation::OracleChunk,
                strings::format("chunk ILP claims %.12g s but exhaustive optimum over "
                                "%lld splits is %.12g s",
                                ilp.timeSeconds, oracle.assignmentsTried,
                                oracle.bestSeconds));
  return pass(Relation::OracleChunk);
}

RelationResult checkSolverDifferential(std::uint64_t seed, const MetamorphicOptions& options) {
  Rng rng(seed);
  // Wider than the oracle relations: no enumeration happens here (the dense
  // engine is the reference), so the instances can afford oracle-cap sizes.
  TinyRegionOptions tiny;
  tiny.maxChildren = 8;
  tiny.maxTasks = 4;

  ilp::BranchAndBoundSolver dense({}, makeDenseInverseFactor);
  ilp::BranchAndBoundSolver revised;

  bool dFeasible, rFeasible, dProven, rProven;
  double dSeconds, rSeconds;
  const char* kind;
  if ((seed & 1) == 0) {
    kind = "task";
    const parallel::IlpRegion region = randomTinyRegion(rng, tiny);
    const parallel::IlpParResult d = parallel::solveIlpPar(region, dense);
    const parallel::IlpParResult r = parallel::solveIlpPar(region, revised);
    dFeasible = d.feasible; rFeasible = r.feasible;
    dProven = d.provenOptimal; rProven = r.provenOptimal;
    dSeconds = d.timeSeconds; rSeconds = r.timeSeconds;
  } else {
    kind = "chunk";
    const parallel::ChunkRegion region = randomTinyChunkRegion(rng, tiny);
    const parallel::ChunkResult d = parallel::solveChunkIlp(region, dense);
    const parallel::ChunkResult r = parallel::solveChunkIlp(region, revised);
    dFeasible = d.feasible; rFeasible = r.feasible;
    dProven = d.provenOptimal; rProven = r.provenOptimal;
    dSeconds = d.timeSeconds; rSeconds = r.timeSeconds;
  }

  if (dFeasible != rFeasible)
    return fail(Relation::SolverDifferential,
                strings::format("%s region: dense says %s, revised says %s", kind,
                                dFeasible ? "feasible" : "infeasible",
                                rFeasible ? "feasible" : "infeasible"));
  if (!dFeasible) return pass(Relation::SolverDifferential);
  if (!dProven || !rProven)
    return skip(Relation::SolverDifferential,
                "an engine did not prove optimality within limits");
  if (!closeEnough(dSeconds, rSeconds, options.relTol, options.absTolSeconds))
    return fail(Relation::SolverDifferential,
                strings::format("%s region: dense optimum %.12g s vs revised %.12g s",
                                kind, dSeconds, rSeconds));
  return pass(Relation::SolverDifferential);
}

}  // namespace

parallel::ParallelizerOptions MetamorphicOptions::fuzzOptions() {
  parallel::ParallelizerOptions o;
  // A small node cap keeps each case cheap; it is deterministic, so capped
  // solves still reproduce bit for bit across the compared runs.
  o.ilpMaxNodes = 2'000;
  // Paper-realistic region sizes: the sparse revised simplex keeps the
  // per-region models cheap enough that the fuzz profile no longer needs to
  // shrink them (the dense engine forced 2 tasks / 8 chunks here).
  o.maxTasksPerRegion = 4;
  o.maxCandidatesPerClass = 2;
  o.chunkCount = 16;
  return o;
}

std::vector<Relation> allRelations() {
  return {Relation::Invariants,     Relation::CostScaling,
          Relation::SingleClassHomogeneous, Relation::JobsInvariance,
          Relation::CacheInvariance, Relation::GaVsIlp,
          Relation::OracleTask,     Relation::OracleChunk,
          Relation::SolverDifferential,
          Relation::SimConsistency, Relation::RefinementSoundness,
          Relation::ScheduleValidity, Relation::SectionSoundness,
          Relation::LivenessSoundness, Relation::FlowRefinement};
}

std::string relationName(Relation r) {
  switch (r) {
    case Relation::Invariants: return "invariants";
    case Relation::CostScaling: return "cost-scaling";
    case Relation::SingleClassHomogeneous: return "single-class-homogeneous";
    case Relation::JobsInvariance: return "jobs-invariance";
    case Relation::CacheInvariance: return "cache-invariance";
    case Relation::GaVsIlp: return "ga-vs-ilp";
    case Relation::OracleTask: return "oracle-task";
    case Relation::OracleChunk: return "oracle-chunk";
    case Relation::SolverDifferential: return "solver-differential";
    case Relation::SimConsistency: return "sim-consistency";
    case Relation::RefinementSoundness: return "refinement-soundness";
    case Relation::ScheduleValidity: return "schedule-validity";
    case Relation::SectionSoundness: return "section-soundness";
    case Relation::LivenessSoundness: return "liveness-soundness";
    case Relation::FlowRefinement: return "flow-refinement";
  }
  return "unknown";
}

std::vector<Relation> parseRelations(const std::string& spec) {
  if (strings::trim(spec) == "all") return allRelations();
  std::vector<Relation> out;
  for (const std::string& part : strings::split(spec, ',')) {
    const std::string name(strings::trim(part));
    if (name.empty()) continue;
    bool found = false;
    for (Relation r : allRelations()) {
      if (relationName(r) == name) {
        out.push_back(r);
        found = true;
        break;
      }
    }
    require(found, "unknown relation: " + name);
  }
  require(!out.empty(), "empty relation list");
  return out;
}

bool isProgramRelation(Relation r) {
  switch (r) {
    case Relation::GaVsIlp:
    case Relation::OracleTask:
    case Relation::OracleChunk:
    case Relation::SolverDifferential:
      return false;
    default:
      return true;
  }
}

std::string diffSolutionTables(const parallel::SolutionTable& a,
                               const parallel::SolutionTable& b) {
  if (a.size() != b.size())
    return strings::format("table sizes differ: %zu vs %zu nodes", a.size(), b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first)
      return strings::format("node ids differ: %d vs %d", ia->first, ib->first);
    const parallel::ParallelSet& sa = ia->second;
    const parallel::ParallelSet& sb = ib->second;
    if (sa.size() != sb.size())
      return strings::format("node %d: %zu vs %zu candidates", ia->first, sa.size(),
                             sb.size());
    for (int i = 0; i < static_cast<int>(sa.size()); ++i) {
      const parallel::SolutionCandidate& ca = sa.at(i);
      const parallel::SolutionCandidate& cb = sb.at(i);
      const auto where = [&](const char* field) {
        return strings::format("node %d cand %d: %s differs", ia->first, i, field);
      };
      if (ca.kind != cb.kind) return where("kind");
      if (ca.mainClass != cb.mainClass) return where("mainClass");
      if (ca.timeSeconds != cb.timeSeconds) return where("timeSeconds");
      if (ca.extraProcs != cb.extraProcs) return where("extraProcs");
      if (ca.taskClass != cb.taskClass) return where("taskClass");
      if (ca.childTask != cb.childTask) return where("childTask");
      if (ca.chunkIterations != cb.chunkIterations) return where("chunkIterations");
      if (ca.childChoice.size() != cb.childChoice.size()) return where("childChoice size");
      for (std::size_t k = 0; k < ca.childChoice.size(); ++k)
        if (ca.childChoice[k].node != cb.childChoice[k].node ||
            ca.childChoice[k].index != cb.childChoice[k].index)
          return where("childChoice");
    }
  }
  return "";
}

RelationResult checkProgramRelation(Relation r, const std::string& source,
                                    const platform::Platform& pf,
                                    const MetamorphicOptions& options) {
  require(isProgramRelation(r), "relation " + relationName(r) + " is region-level");
  htg::FrontendBundle bundle = pipeline::buildFrontend(source);
  htg::validateOrThrow(bundle.graph);
  const cost::TimingModel timing(pf);
  switch (r) {
    case Relation::Invariants:
      return checkInvariants(bundle.graph, timing, options);
    case Relation::CostScaling:
      return checkCostScaling(bundle.graph, pf, options);
    case Relation::SingleClassHomogeneous:
      return checkSingleClassHomogeneous(bundle.graph, pf, options);
    case Relation::JobsInvariance:
      return checkJobsInvariance(bundle.graph, timing, options);
    case Relation::CacheInvariance:
      return checkCacheInvariance(bundle.graph, timing, options);
    case Relation::SimConsistency:
      return checkSimConsistency(bundle.graph, pf, options);
    case Relation::RefinementSoundness:
      return checkRefinementSoundness(source);
    case Relation::ScheduleValidity:
      return checkScheduleValidity(source, pf, options);
    case Relation::SectionSoundness:
      return checkSectionSoundness(source);
    case Relation::LivenessSoundness:
      return checkLivenessSoundness(source);
    case Relation::FlowRefinement:
      return checkFlowRefinement(source);
    default:
      break;
  }
  throw Error("unhandled program relation");
}

RelationResult checkRegionRelation(Relation r, std::uint64_t seed,
                                   const MetamorphicOptions& options) {
  switch (r) {
    case Relation::GaVsIlp:
      return checkGaVsIlp(seed, options);
    case Relation::OracleTask:
      return checkOracleTask(seed, options);
    case Relation::OracleChunk:
      return checkOracleChunk(seed, options);
    case Relation::SolverDifferential:
      return checkSolverDifferential(seed, options);
    default:
      break;
  }
  throw Error("relation " + relationName(r) + " is program-level");
}

}  // namespace hetpar::verify
