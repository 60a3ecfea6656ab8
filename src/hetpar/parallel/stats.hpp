// Aggregated ILP statistics (feeds the reproduction of the paper's Table I).
#pragma once

#include <string>

#include "hetpar/ilp/model.hpp"

namespace hetpar::parallel {

struct IlpStatistics {
  long long numIlps = 0;
  long long numVars = 0;         ///< summed over all generated ILPs
  long long numConstraints = 0;  ///< summed over all generated ILPs
  long long bnbNodes = 0;
  long long simplexIterations = 0;
  double wallSeconds = 0.0;  ///< total solve time
  /// LP-engine behavior: basis (re)factorizations, eta-file pivot updates
  /// between them, and the peak basis-factor fill across all solves.
  long long refactorizations = 0;
  long long etaUpdates = 0;
  long long peakFillNonzeros = 0;
  /// Region-cache traffic. A hit returns a memoized result without running
  /// the solver, so hits do NOT count toward numIlps or the solve totals;
  /// numIlps + cacheHits = regions the parallelizer asked to solve.
  long long cacheHits = 0;
  long long cacheMisses = 0;
  /// Solves that ended without proving optimality (SolveStats::unproven:
  /// the node cap, or a dropped fully-fixed node). Not serialized: an
  /// artifact-cache hit zeroes the statistics anyway.
  long long unprovenSolves = 0;

  void absorb(const ilp::SolveStats& s) {
    ++numIlps;
    numVars += static_cast<long long>(s.numVars);
    numConstraints += static_cast<long long>(s.numConstraints);
    bnbNodes += s.nodesExplored;
    simplexIterations += s.simplexIterations;
    wallSeconds += s.wallSeconds;
    refactorizations += s.refactorizations;
    etaUpdates += s.etaUpdates;
    if (s.peakFillNonzeros > peakFillNonzeros) peakFillNonzeros = s.peakFillNonzeros;
    if (s.unproven) ++unprovenSolves;
  }

  void merge(const IlpStatistics& other) {
    numIlps += other.numIlps;
    numVars += other.numVars;
    numConstraints += other.numConstraints;
    bnbNodes += other.bnbNodes;
    simplexIterations += other.simplexIterations;
    wallSeconds += other.wallSeconds;
    refactorizations += other.refactorizations;
    etaUpdates += other.etaUpdates;
    if (other.peakFillNonzeros > peakFillNonzeros) peakFillNonzeros = other.peakFillNonzeros;
    cacheHits += other.cacheHits;
    cacheMisses += other.cacheMisses;
    unprovenSolves += other.unprovenSolves;
  }

  std::string summary() const;
};

}  // namespace hetpar::parallel
