// Persistent, content-addressed artifact cache for the compilation pipeline.
//
// Generalizes the in-process parallel/region_cache across processes: where
// the region cache memoizes individual ILP solves within one run, this cache
// persists whole per-program artifacts (today: the solution table of a
// ParallelizeOutcome — the expensive part of a compilation; the ILP
// statistics of the run that solved it are not stored) keyed by a digest of
// everything that determines them (source + platform + dependence mode +
// flow mode + outcome-relevant parallelizer options + a format version; see
// Session::outcomeKey).
//
// Trust model: entries are NEVER trusted. Every file carries a magic, a
// format-version stamp, an echo of its key, the payload length and a payload
// checksum; any mismatch (truncation, corruption, a cache written by an
// older build) is classified, counted and treated as a miss — the caller
// rebuilds and the bad entry is overwritten. Stores write to a unique temp
// file and rename into place, so concurrent writers (two batch jobs, two
// processes) race benignly: readers only ever observe complete files, and
// the last complete write wins. Deterministic outcomes make that overwrite
// byte-identical in practice.
#pragma once

#include <atomic>
#include <string>
#include <string_view>

#include "hetpar/parallel/parallelizer.hpp"

namespace hetpar::pipeline {

struct ArtifactCacheStats {
  long long hits = 0;
  long long misses = 0;            ///< key absent (cold)
  long long rejectedCorrupt = 0;   ///< truncated / checksum or key mismatch
  long long rejectedVersion = 0;   ///< format-version stamp from another build
  long long storeFailures = 0;     ///< I/O errors while persisting (non-fatal)
};

class ArtifactCache {
 public:
  /// Bump when the serialized artifact layout or key derivation changes;
  /// entries stamped with any other version are rebuilt, never decoded.
  static constexpr std::uint32_t kFormatVersion = 3;

  /// Creates `dir` (and parents) if missing. Throws hetpar::Error when the
  /// directory cannot be created.
  explicit ArtifactCache(std::string dir);

  const std::string& directory() const { return dir_; }

  /// Fills `payload` and returns true on a verified hit; false otherwise
  /// (counting the reason). Never throws on bad cache contents.
  bool load(const std::string& key, std::string& payload) const;

  /// Persists `payload` under `key` (atomic rename). Returns false on I/O
  /// failure — callers proceed without caching; a cache must never turn a
  /// working compile into an error.
  bool store(const std::string& key, std::string_view payload) const;

  /// Path the entry for `key` lives at (exposed for robustness tests that
  /// truncate / corrupt / restamp entries on purpose).
  std::string pathFor(const std::string& key) const;

  ArtifactCacheStats stats() const;

 private:
  std::string dir_;
  mutable std::atomic<long long> hits_{0}, misses_{0}, corrupt_{0}, version_{0},
      storeFailures_{0};
  mutable std::atomic<unsigned> tempCounter_{0};
};

/// Byte-exact serialization of a ParallelizeOutcome's solution table. The
/// ILP statistics are not stored: they describe the run that solved, and a
/// decoded outcome (a cache hit, which solved nothing) carries zero stats.
/// Doubles are stored as their bit patterns, so a cache round trip
/// reproduces the table to the last ulp.
std::string serializeOutcome(const parallel::ParallelizeOutcome& outcome);

/// Bounds-checked decode; returns false on any malformed payload.
bool deserializeOutcome(std::string_view payload, parallel::ParallelizeOutcome& out);

/// Structural sanity of a decoded outcome against the graph it claims to
/// describe: node ids in range, the root has candidates. A digest collision
/// cannot realistically cause a mismatch — this guards against key-derivation
/// bugs, which must surface as a rebuild rather than an out-of-range access.
bool outcomeFitsGraph(const parallel::ParallelizeOutcome& outcome, const htg::Graph& graph);

}  // namespace hetpar::pipeline
