#include "hetpar/pipeline/digest.hpp"

#include "hetpar/support/bytes.hpp"

namespace hetpar::pipeline {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t step(std::uint64_t h, unsigned char byte) {
  return (h ^ byte) * kFnvPrime;
}

}  // namespace

void Digest::putBytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    a_ = step(a_, p[i]);
    b_ = step(b_, p[i]);
  }
}

void Digest::put(std::string_view s) {
  putU64(s.size());
  putBytes(s.data(), s.size());
}

void Digest::putU64(std::uint64_t v) {
  std::string buf;
  bytes::putU64(buf, v);
  putBytes(buf.data(), buf.size());
}

std::string Digest::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint64_t h : {a_, b_})
    for (int i = 15; i >= 0; --i) out.push_back(kHex[(h >> (4 * i)) & 0xf]);
  return out;
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : data) h = step(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace hetpar::pipeline
