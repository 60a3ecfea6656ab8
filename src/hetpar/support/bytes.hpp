// Fixed-width little-endian byte encoding for every byte-exact key, payload
// and digest input. Doubles are written as their bit pattern, so equal bytes
// mean equal to the last ulp, on every host.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace hetpar::bytes {

inline void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void putI64(std::string& out, long long v) { putU64(out, static_cast<std::uint64_t>(v)); }

inline void putF64(std::string& out, double v) { putU64(out, std::bit_cast<std::uint64_t>(v)); }

}  // namespace hetpar::bytes
