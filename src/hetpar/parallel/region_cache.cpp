#include "hetpar/parallel/region_cache.hpp"

#include "hetpar/support/bytes.hpp"

namespace hetpar::parallel {

using bytes::putF64;
using bytes::putI64;

std::string IlpRegionCache::taskKey(const IlpRegion& region, std::string_view prefix) {
  std::string key(prefix);
  key.push_back('T');
  putI64(key, region.seqPC);
  putI64(key, region.maxProcs);
  putI64(key, region.maxTasks);
  putF64(key, region.taskCreationSeconds);
  putF64(key, region.upperBoundSeconds);
  putI64(key, static_cast<long long>(region.numProcsPerClass.size()));
  for (int n : region.numProcsPerClass) putI64(key, n);
  putI64(key, static_cast<long long>(region.children.size()));
  for (const IlpChild& child : region.children) {
    putI64(key, static_cast<long long>(child.byClass.size()));
    for (const auto& menu : child.byClass) {
      putI64(key, static_cast<long long>(menu.size()));
      for (const IlpCandidate& cand : menu) {
        putF64(key, cand.timeSeconds);
        putI64(key, static_cast<long long>(cand.extraProcs.size()));
        for (int e : cand.extraProcs) putI64(key, e);
      }
    }
  }
  putI64(key, static_cast<long long>(region.edges.size()));
  for (const IlpEdgeSpec& e : region.edges) {
    putI64(key, e.from);
    putI64(key, e.to);
    putF64(key, e.commSeconds);
    putI64(key, e.orderingOnly ? 1 : 0);
  }
  return key;
}

std::string IlpRegionCache::chunkKey(const ChunkRegion& region, std::string_view prefix) {
  std::string key(prefix);
  key.push_back('C');
  putI64(key, region.iterations);
  putI64(key, region.seqPC);
  putI64(key, region.maxProcs);
  putI64(key, region.maxTasks);
  putF64(key, region.taskCreationSeconds);
  putF64(key, region.upperBoundSeconds);
  putF64(key, region.commInLatency);
  putF64(key, region.commInSecondsPerIter);
  putF64(key, region.commOutLatency);
  putF64(key, region.commOutSecondsPerIter);
  putI64(key, static_cast<long long>(region.numProcsPerClass.size()));
  for (int n : region.numProcsPerClass) putI64(key, n);
  putI64(key, static_cast<long long>(region.secondsPerIter.size()));
  for (double s : region.secondsPerIter) putF64(key, s);
  return key;
}

bool IlpRegionCache::lookupTask(const std::string& key, IlpParResult& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = task_.find(key);
  if (it == task_.end()) return false;
  out = it->second;
  out.stats = ilp::SolveStats{};
  return true;
}

bool IlpRegionCache::lookupChunk(const std::string& key, ChunkResult& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chunk_.find(key);
  if (it == chunk_.end()) return false;
  out = it->second;
  out.stats = ilp::SolveStats{};
  return true;
}

void IlpRegionCache::storeTask(const std::string& key, const IlpParResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  task_[key] = result;
}

void IlpRegionCache::storeChunk(const std::string& key, const ChunkResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  chunk_[key] = result;
}

std::size_t IlpRegionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return task_.size() + chunk_.size();
}

void IlpRegionCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  task_.clear();
  chunk_.clear();
}

}  // namespace hetpar::parallel
