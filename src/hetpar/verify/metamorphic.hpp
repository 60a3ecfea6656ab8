// Metamorphic and differential relations over the whole parallelization
// pipeline (after Chen et al.'s metamorphic-testing methodology; see also
// Segura et al., "A Survey on Metamorphic Testing", TSE 2016).
//
// No external reference implementation of the paper's tool exists, so the
// harness checks *relations between runs* instead of golden outputs:
//
//   Invariants           every produced solution table passes the
//                        independent checker (hetpar/verify/invariants.hpp)
//   CostScaling          uniformly scaling every platform cost by a
//                        power-of-two factor scales every claimed time by
//                        exactly that factor
//   SingleClassHomogen.  on a single-class platform the heterogeneous tool
//                        and the homogeneous baseline [6] agree bit-exactly
//   JobsInvariance       --jobs 1 and --jobs N produce identical tables
//   CacheInvariance      the region cache never changes the outcome
//   GaVsIlp              the genetic optimizer never beats the ILP optimum
//   OracleTask           ILPPAR == exhaustive enumeration on tiny regions
//   OracleChunk          chunk ILP == exhaustive enumeration on tiny loops
//   SimConsistency       the discrete-event simulator's makespan is
//                        consistent with the claimed critical path
//   RefinementSoundness  the affine dependence mode only *refines* the
//                        conservative one: every affine sibling edge lies in
//                        the transitive closure of the conservative edges,
//                        affine comm-in/out variables are a subset of the
//                        conservative ones, and per-region byte totals never
//                        grow
//   ScheduleValidity     the DES replay of the affine-mode best solution has
//                        no section-level hazard: tasks whose access
//                        summaries may conflict never overlap in simulated
//                        time on different cores
//   SolverDifferential   the production sparse revised simplex and the
//                        dense-inverse reference (dense_factor.hpp) agree on feasibility,
//                        optimality and objective for the same ILPPAR
//                        region (region-level; the two engines share only
//                        the simplex driver, not the basis representation)
//   SectionSoundness     ground truth for the section analysis: the
//                        interpreter traces every global-array element
//                        access and checks, per top-level statement, that
//                        actual accesses stay inside the claimed hulls and
//                        that every mustCover() write really touched its
//                        whole hull. Unlike ScheduleValidity (which judges
//                        conflicts with the analysis' own sections), this
//                        can falsify the analysis itself.
//   LivenessSoundness    ground truth for the liveness analysis: the
//                        interpreter traces element-level def-use chains of
//                        global arrays across main()'s top-level statements
//                        and checks that whenever a value written by
//                        statement t is read by a later statement t', the
//                        array is claimed live-after every statement in
//                        [t, t'). Falsifiable: the deliberate
//                        partial-write-kill bug knob in DataflowAnalysis
//                        makes it fail within a short fuzz run.
//   FlowRefinement       FlowMode::Live only *refines* Conservative flow:
//                        identical graph structure, live comm-in/out
//                        variables are a subset of the conservative ones
//                        per child, and comm payload bytes never grow —
//                        per child, per direction, and per region.
//
// Program-level relations take (source, platform) — which is what lets the
// delta-debugging shrinker re-check a reduced program. Region-level
// relations (GaVsIlp, Oracle*) synthesize a tiny region from a seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/platform/platform.hpp"

namespace hetpar::verify {

enum class Relation {
  Invariants,
  CostScaling,
  SingleClassHomogeneous,
  JobsInvariance,
  CacheInvariance,
  GaVsIlp,
  OracleTask,
  OracleChunk,
  SolverDifferential,
  SimConsistency,
  RefinementSoundness,
  ScheduleValidity,
  SectionSoundness,
  LivenessSoundness,
  FlowRefinement,
};

/// All relations, in a stable order (the fuzzer round-robins over these).
std::vector<Relation> allRelations();

/// Stable kebab-case name ("cost-scaling", "oracle-task", ...).
std::string relationName(Relation r);

/// Parses a comma-separated relation list ("all" = everything). Throws
/// hetpar::Error on unknown names.
std::vector<Relation> parseRelations(const std::string& spec);

/// True for relations that consume a (program, platform) pair; false for
/// the seed-driven region-level relations.
bool isProgramRelation(Relation r);

struct RelationResult {
  Relation relation = Relation::Invariants;
  std::string name;
  bool passed = false;
  bool skipped = false;  ///< relation not applicable to this input
  std::string detail;    ///< failure explanation / skip reason
};

struct MetamorphicOptions {
  /// Tolerance for comparing two independently derived times.
  double relTol = 1e-6;
  double absTolSeconds = 1e-9;
  /// Claimed sequential time vs simulated sequential run: both derive from
  /// the same profile, differing only in summation order.
  double seqSimRelTol = 1e-3;
  /// Simulated parallel makespan vs claimed critical path: the DES
  /// serializes bus transfers that the additive planning model books in
  /// parallel, so the band is generous (the seed's flatten tests use 25%).
  double simLowerFactor = 0.5;
  double simUpperFactor = 2.0;
  /// Parallelizer configuration; defaults to the fuzz profile. Every solver
  /// limit is a deterministic node cap, so the bit-identical relations hold
  /// for any configuration.
  parallel::ParallelizerOptions parallelizer = fuzzOptions();

  /// The fuzz profile: a 2,000-node cap and paper-realistic region sizes.
  static parallel::ParallelizerOptions fuzzOptions();
};

/// Byte-for-byte comparison of two solution tables. Returns "" when
/// identical, else a description of the first difference.
std::string diffSolutionTables(const parallel::SolutionTable& a,
                               const parallel::SolutionTable& b);

/// Runs one program-level relation on (source, platform).
RelationResult checkProgramRelation(Relation r, const std::string& source,
                                    const platform::Platform& pf,
                                    const MetamorphicOptions& options = {});

/// Runs one region-level relation on a seed-synthesized tiny instance.
RelationResult checkRegionRelation(Relation r, std::uint64_t seed,
                                   const MetamorphicOptions& options = {});

}  // namespace hetpar::verify
