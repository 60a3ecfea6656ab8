// Pass bookkeeping for the staged compilation pipeline.
//
// Every Session runs its stages as named passes (parse, sema, sections,
// htg, parallelize, simulate, emit) and records one PassRecord per
// execution: wall time, an artifact-size estimate, and — for cacheable
// passes — whether the artifact came from the persistent cache. Records
// live with the run that made them: the owning Session (per-run report,
// `hetparc --explain-timings`) or, for a batch, each job's result (the
// batch summary concatenates them). There is no process-wide aggregate.
#pragma once

#include <string>
#include <vector>

namespace hetpar::pipeline {

struct PassRecord {
  std::string name;
  double wallSeconds = 0.0;
  /// Rough size of the produced artifact in bytes (serialized size for
  /// cacheable artifacts, container byte estimates otherwise; 0 = unsized).
  long long artifactBytes = 0;
  /// Persistent-artifact-cache traffic attributable to this pass execution.
  /// Both stay 0 for passes with no cacheable artifact or when no cache is
  /// configured.
  long long cacheHits = 0;
  long long cacheMisses = 0;
};

/// Renders a per-pass table (one line per pass name, repeated executions
/// collapsed in first-execution order, plus a total line), used by
/// `hetparc --explain-timings`.
std::string formatPassTable(const std::vector<PassRecord>& records);

}  // namespace hetpar::pipeline
