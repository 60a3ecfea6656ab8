#include "hetpar/pipeline/pass.hpp"

#include <map>

#include "hetpar/support/strings.hpp"

namespace hetpar::pipeline {

namespace {

struct PassTotals {
  long long runs = 0;
  double wallSeconds = 0.0;
  long long artifactBytes = 0;
  long long cacheHits = 0;
  long long cacheMisses = 0;
};

std::string tableHeader() {
  return strings::format("%-12s %6s %12s %14s %10s %10s\n", "pass", "runs", "wall [ms]",
                         "artifact [B]", "cache hit", "cache miss");
}

std::string tableLine(const std::string& name, const PassTotals& t) {
  return strings::format("%-12s %6lld %12.3f %14lld %10lld %10lld\n", name.c_str(), t.runs,
                         t.wallSeconds * 1e3, t.artifactBytes, t.cacheHits, t.cacheMisses);
}

}  // namespace

std::string formatPassTable(const std::vector<PassRecord>& records) {
  // Collapse repeated executions of the same pass (e.g. several `emit`
  // artifacts) while keeping first-execution order.
  std::map<std::string, PassTotals> totals;
  std::vector<std::string> order;
  for (const PassRecord& r : records) {
    if (totals.find(r.name) == totals.end()) order.push_back(r.name);
    PassTotals& t = totals[r.name];
    ++t.runs;
    t.wallSeconds += r.wallSeconds;
    t.artifactBytes += r.artifactBytes;
    t.cacheHits += r.cacheHits;
    t.cacheMisses += r.cacheMisses;
  }
  std::string out = tableHeader();
  PassTotals sum;
  for (const std::string& name : order) {
    const PassTotals& t = totals[name];
    out += tableLine(name, t);
    sum.runs += t.runs;
    sum.wallSeconds += t.wallSeconds;
    sum.artifactBytes += t.artifactBytes;
    sum.cacheHits += t.cacheHits;
    sum.cacheMisses += t.cacheMisses;
  }
  out += tableLine("total", sum);
  return out;
}

}  // namespace hetpar::pipeline
