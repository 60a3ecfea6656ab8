// Stable content digest for pipeline artifact keys.
//
// The persistent artifact cache (pipeline/artifact_cache.hpp) addresses
// entries by the digest of everything that determines a compilation's
// outcome: source text, platform description, dependence mode, and the
// outcome-relevant parallelizer knobs. The digest must be stable across
// processes and platforms, so it is a fixed algorithm (two independent
// 64-bit FNV-1a streams seeded with different offsets, concatenated to 128
// bits) rather than std::hash, whose value is implementation-defined.
//
// 128 bits keeps accidental collisions out of reach for any realistic cache
// population; corruption and version drift are handled separately by the
// cache file format, never by the key.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace hetpar::pipeline {

class Digest {
 public:
  /// Raw bytes, no framing. Prefer the typed putters below, which
  /// length-prefix variable-size fields so adjacent fields cannot alias.
  void putBytes(const void* data, std::size_t n);

  /// Length-prefixed string (so "ab"+"c" != "a"+"bc").
  void put(std::string_view s);
  void putU64(std::uint64_t v);
  void putI64(long long v) { putU64(static_cast<std::uint64_t>(v)); }
  /// Exact bit pattern: identical to the last ulp.
  void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }
  void putBool(bool v) { putU64(v ? 1 : 0); }

  /// 32 lowercase hex characters (128 bits). Safe as a file name.
  std::string hex() const;

 private:
  // FNV-1a offset basis / prime; the second stream starts from a distinct
  // seed so the two 64-bit halves are not correlated.
  std::uint64_t a_ = 0xcbf29ce484222325ULL;
  std::uint64_t b_ = 0x9ae16a3b2f90404fULL;
};

/// One-shot convenience over a single buffer (used for payload checksums).
std::uint64_t fnv1a64(std::string_view data);

}  // namespace hetpar::pipeline
