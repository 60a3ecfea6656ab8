#include "hetpar/pipeline/artifact_cache.hpp"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "hetpar/pipeline/digest.hpp"
#include "hetpar/support/bytes.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::pipeline {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'H', 'P', 'A', 'C'};

using bytes::putF64;
using bytes::putI64;
using bytes::putU32;
using bytes::putU64;

/// Bounds-checked little-endian reader; every getter reports failure instead
/// of reading past the end, so corrupt payloads decode to `false`, never UB.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u32(std::uint32_t& v) {
    if (data_.size() - pos_ < 4) return failed_ = true, false;
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (data_.size() - pos_ < 8) return failed_ = true, false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos_ += 8;
    return true;
  }

  bool i64(long long& v) {
    std::uint64_t bits;
    if (!u64(bits)) return false;
    v = static_cast<long long>(bits);
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, 8);
    return true;
  }

  /// A count that will size a container: bounded by the bytes remaining
  /// (every element costs >= 1 byte), so corrupt lengths cannot trigger
  /// multi-gigabyte allocations.
  bool count(std::size_t& n) {
    std::uint64_t v;
    if (!u64(v)) return false;
    if (v > remaining()) return failed_ = true, false;
    n = static_cast<std::size_t>(v);
    return true;
  }

  bool bytes(std::string& out, std::size_t n) {
    if (remaining() < n) return failed_ = true, false;
    out.assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool ok() const { return !failed_; }
  bool atEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  require(!ec && fs::is_directory(dir_),
          "artifact cache: cannot create directory '" + dir_ + "'");
}

std::string ArtifactCache::pathFor(const std::string& key) const {
  return dir_ + "/" + key + ".art";
}

bool ArtifactCache::load(const std::string& key, std::string& payload) const {
  std::ifstream in(pathFor(key), std::ios::binary);
  if (!in.good()) {
    ++misses_;
    return false;
  }
  std::string file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  Reader r(file);
  std::string magic;
  if (!r.bytes(magic, 4) || std::memcmp(magic.data(), kMagic, 4) != 0) {
    ++corrupt_;
    return false;
  }
  std::uint32_t version = 0;
  if (!r.u32(version)) {
    ++corrupt_;
    return false;
  }
  if (version != kFormatVersion) {
    ++version_;
    return false;
  }
  std::size_t keyLen = 0;
  std::string storedKey;
  std::uint64_t payloadLen = 0, checksum = 0;
  if (!r.count(keyLen) || !r.bytes(storedKey, keyLen) || !r.u64(payloadLen) ||
      !r.u64(checksum) || storedKey != key || r.remaining() != payloadLen) {
    ++corrupt_;
    return false;
  }
  std::string body;
  if (!r.bytes(body, static_cast<std::size_t>(payloadLen)) || fnv1a64(body) != checksum) {
    ++corrupt_;
    return false;
  }
  payload = std::move(body);
  ++hits_;
  return true;
}

bool ArtifactCache::store(const std::string& key, std::string_view payload) const {
  std::string file;
  file.reserve(payload.size() + key.size() + 32);
  file.append(kMagic, 4);
  putU32(file, kFormatVersion);
  putU64(file, key.size());
  file += key;
  putU64(file, payload.size());
  putU64(file, fnv1a64(payload));
  file.append(payload.data(), payload.size());

  // Unique temp name per (process, store): readers never see partial files,
  // and a concurrent writer's rename simply wins or loses whole-file.
  const std::string temp = strings::format(
      "%s/.tmp-%ld-%u", dir_.c_str(), static_cast<long>(::getpid()),
      tempCounter_.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      ++storeFailures_;
      return false;
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    if (!out.good()) {
      ++storeFailures_;
      return false;
    }
  }
  std::error_code ec;
  fs::rename(temp, pathFor(key), ec);
  if (ec) {
    ++storeFailures_;
    fs::remove(temp, ec);
    return false;
  }
  return true;
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats s;
  s.hits = hits_.load();
  s.misses = misses_.load();
  s.rejectedCorrupt = corrupt_.load();
  s.rejectedVersion = version_.load();
  s.storeFailures = storeFailures_.load();
  return s;
}

namespace {

void putCandidate(std::string& out, const parallel::SolutionCandidate& c) {
  putI64(out, static_cast<long long>(c.kind));
  putI64(out, c.mainClass);
  putF64(out, c.timeSeconds);
  putU64(out, c.extraProcs.size());
  for (int e : c.extraProcs) putI64(out, e);
  putU64(out, c.taskClass.size());
  for (platform::ClassId t : c.taskClass) putI64(out, t);
  putU64(out, c.childTask.size());
  for (int t : c.childTask) putI64(out, t);
  putU64(out, c.childChoice.size());
  for (const parallel::SolutionRef& ref : c.childChoice) {
    putI64(out, ref.node);
    putI64(out, ref.index);
  }
  putU64(out, c.chunkIterations.size());
  for (double it : c.chunkIterations) putF64(out, it);
}

bool readCandidate(Reader& r, parallel::SolutionCandidate& c) {
  long long kind = 0, mainClass = 0;
  if (!r.i64(kind) || !r.i64(mainClass) || !r.f64(c.timeSeconds)) return false;
  if (kind < 0 || kind > static_cast<long long>(parallel::SolutionKind::LoopChunked))
    return false;
  c.kind = static_cast<parallel::SolutionKind>(kind);
  c.mainClass = static_cast<platform::ClassId>(mainClass);

  std::size_t n = 0;
  if (!r.count(n)) return false;
  c.extraProcs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    long long v;
    if (!r.i64(v)) return false;
    c.extraProcs[i] = static_cast<int>(v);
  }
  if (!r.count(n)) return false;
  c.taskClass.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    long long v;
    if (!r.i64(v)) return false;
    c.taskClass[i] = static_cast<platform::ClassId>(v);
  }
  if (!r.count(n)) return false;
  c.childTask.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    long long v;
    if (!r.i64(v)) return false;
    c.childTask[i] = static_cast<int>(v);
  }
  if (!r.count(n)) return false;
  c.childChoice.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    long long node, index;
    if (!r.i64(node) || !r.i64(index)) return false;
    c.childChoice[i].node = static_cast<htg::NodeId>(node);
    c.childChoice[i].index = static_cast<int>(index);
  }
  if (!r.count(n)) return false;
  c.chunkIterations.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!r.f64(c.chunkIterations[i])) return false;
  return true;
}

}  // namespace

std::string serializeOutcome(const parallel::ParallelizeOutcome& outcome) {
  std::string out;
  putU64(out, outcome.table.size());
  for (const auto& [node, set] : outcome.table) {
    putI64(out, node);
    putU64(out, set.size());
    for (const parallel::SolutionCandidate& c : set.all()) putCandidate(out, c);
  }
  return out;
}

bool deserializeOutcome(std::string_view payload, parallel::ParallelizeOutcome& out) {
  Reader r(payload);
  parallel::ParallelizeOutcome decoded;
  std::size_t numNodes = 0;
  if (!r.count(numNodes)) return false;
  for (std::size_t i = 0; i < numNodes; ++i) {
    long long node = 0;
    std::size_t numCands = 0;
    if (!r.i64(node) || !r.count(numCands)) return false;
    parallel::ParallelSet set;
    for (std::size_t c = 0; c < numCands; ++c) {
      parallel::SolutionCandidate cand;
      if (!readCandidate(r, cand)) return false;
      set.add(std::move(cand));
    }
    if (!decoded.table.emplace(static_cast<htg::NodeId>(node), std::move(set)).second)
      return false;  // duplicate node id: corrupt
  }
  if (!r.ok() || !r.atEnd()) return false;
  out = std::move(decoded);
  return true;
}

bool outcomeFitsGraph(const parallel::ParallelizeOutcome& outcome, const htg::Graph& graph) {
  const auto size = static_cast<htg::NodeId>(graph.size());
  for (const auto& [node, set] : outcome.table) {
    if (node < 0 || node >= size) return false;
    for (const parallel::SolutionCandidate& c : set.all()) {
      if (c.taskClass.empty()) return false;
      for (const parallel::SolutionRef& ref : c.childChoice)
        if (ref.node != htg::kNoNode && (ref.node < 0 || ref.node >= size)) return false;
    }
  }
  const auto root = outcome.table.find(graph.root());
  return root != outcome.table.end() && root->second.size() > 0;
}

}  // namespace hetpar::pipeline
