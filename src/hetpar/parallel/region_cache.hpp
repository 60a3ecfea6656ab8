// Memoization cache for ILPPAR / chunk ILP solves.
//
// Two regions that agree on every model-relevant field produce the same
// branch-and-bound run and the same decoded result, so the solve can be
// skipped. The cache key is a canonical byte-exact serialization of the
// region (child candidate menus, edges, budgets, overheads, the pruning
// bound) after a prefix that encodes the plan-changing parallelizer options
// (outcomeFieldBytes: the node cap, the dependence and flow modes, ...); it
// deliberately EXCLUDES the region name, child labels, and
// `IlpCandidate::ref` — those identify where a region came from, not what
// its model looks like, and `buildIlpParModel` never reads them.
// `upperBoundSeconds` IS part of the key: two solves that differ only in the
// bound may surface different equally-optimal corners, and the cache must
// never change an outcome, only skip work.
//
// Keys are compared by full byte equality (no hash-truncation risk: a
// std::unordered_map keyed by the serialized string only uses the hash to
// pick a bucket). Doubles are serialized as their exact bit patterns, so
// "identical" means identical to the last ulp.
//
// Thread-safe. Lookups and stores take a mutex; solves happen outside it,
// so two lanes may race to solve the same region — both produce the same
// deterministic result and the second store is a harmless overwrite.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "hetpar/parallel/ilppar_model.hpp"

namespace hetpar::parallel {

class IlpRegionCache {
 public:
  /// Canonical key for a task-parallel region. `prefix` is
  /// outcomeFieldBytes of the options the region is solved under, so a
  /// shared cache never serves a solution across them.
  static std::string taskKey(const IlpRegion& region, std::string_view prefix);
  /// Canonical key for a loop-chunking region; `prefix` as for taskKey.
  static std::string chunkKey(const ChunkRegion& region, std::string_view prefix);

  /// Returns true and fills `out` (with `out.stats` zeroed — a hit performed
  /// no solve) when the key is present.
  bool lookupTask(const std::string& key, IlpParResult& out) const;
  bool lookupChunk(const std::string& key, ChunkResult& out) const;

  void storeTask(const std::string& key, const IlpParResult& result);
  void storeChunk(const std::string& key, const ChunkResult& result);

  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, IlpParResult> task_;
  std::unordered_map<std::string, ChunkResult> chunk_;
};

}  // namespace hetpar::parallel
