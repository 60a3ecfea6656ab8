// Measures the solve engine's scaling across --jobs levels and records the
// repo's perf trajectory in BENCH_parallelizer.json.
//
// Workload per benchmark: the planning work an evaluation triggers on both
// platform presets — one heterogeneous parallelization plus the two
// homogeneous baseline views (Accelerator and Slower-Cores scenarios) per
// platform. Simulation and flattening are excluded on purpose: this bench
// times the solve engine, not the simulator. All runs within one jobs level
// share one region cache, like a tool session planning the same program
// against several platform views (which is also where the guaranteed cache
// hits come from: the Slower-Cores homogeneous view is identical for
// platforms A and B, so its regions memoize across platforms).
//
//   speedup_jobs [--benchmarks a,b,c] [--jobs N]
//
// Without --jobs the ladder is 1/2/4/8; with --jobs N it is 1/N.
#include "common.hpp"

#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "hetpar/htg/validate.hpp"
#include "hetpar/parallel/homogeneous.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/parallel/region_cache.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace {

struct LevelResult {
  int jobs = 1;
  double wallSeconds = 0.0;
  long long ilpSolves = 0;
  long long cacheHits = 0;
  long long cacheMisses = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hetpar;
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);

  std::vector<int> levels = {1, 2, 4, 8};
  if (args.jobs != 1) levels = {1, args.jobs};

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4)
    std::fprintf(stderr,
                 "[speedup_jobs] warning: only %u hardware thread(s) available; "
                 "jobs > %u levels measure scheduling overhead, not speedup\n",
                 hw, hw == 0 ? 1 : hw);

  const std::vector<platform::Platform> platforms = {platform::platformA(),
                                                     platform::platformB()};

  struct Prepared {
    Prepared(std::string n, std::string_view source)
        : name(std::move(n)), bundle(pipeline::buildFrontend(source)) {}

    std::string name;
    htg::FrontendBundle bundle;
  };
  // A deque never moves its elements: the bundles stay where they were built.
  std::deque<Prepared> prepared;
  for (const auto& b : args.benchmarks)
    htg::validateOrThrow(prepared.emplace_back(b.name, b.source).bundle.graph);

  std::vector<LevelResult> results;
  for (const int jobs : levels) {
    LevelResult r;
    r.jobs = jobs;
    parallel::IlpStatistics total;
    auto cache = std::make_shared<parallel::IlpRegionCache>();
    const auto start = std::chrono::steady_clock::now();
    for (const Prepared& p : prepared) {
      std::fprintf(stderr, "[speedup_jobs] jobs=%d %s ...\n", jobs, p.name.c_str());
      for (const platform::Platform& pf : platforms) {
        parallel::ParallelizerOptions po;
        po.jobs = jobs;
        po.regionCache = cache;

        const cost::TimingModel timing(pf);
        parallel::Parallelizer het(p.bundle.graph, timing, po);
        total.merge(het.run().stats);

        for (const platform::ClassId mainClass : {pf.slowestClass(), pf.fastestClass()})
          total.merge(
              parallel::runHomogeneousBaseline(p.bundle.graph, pf, mainClass, po)
                  .outcome.stats);
      }
    }
    r.wallSeconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                        .count();
    r.ilpSolves = total.numIlps;
    r.cacheHits = total.cacheHits;
    r.cacheMisses = total.cacheMisses;
    results.push_back(r);
  }

  const double base = results.front().wallSeconds;
  std::printf("\nSolve engine scaling (%zu benchmarks x %zu platforms, het + 2 hom runs each)\n",
              prepared.size(), platforms.size());
  std::printf("%6s %12s %9s %12s %12s %12s\n", "jobs", "wall [s]", "speedup", "ILP solves",
              "cache hits", "cache miss");
  for (const LevelResult& r : results)
    std::printf("%6d %12.2f %8.2fx %12lld %12lld %12lld\n", r.jobs, r.wallSeconds,
                r.wallSeconds > 0 ? base / r.wallSeconds : 0.0, r.ilpSolves, r.cacheHits,
                r.cacheMisses);

  std::ostringstream json;
  json << "{\n    \"hardware_concurrency\": " << hw << ",\n";
  json << "    \"benchmarks\": [";
  for (std::size_t i = 0; i < prepared.size(); ++i)
    json << (i ? ", " : "") << '"' << prepared[i].name << '"';
  json << "],\n    \"levels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    json << "      {\"jobs\": " << r.jobs << ", \"wall_seconds\": " << r.wallSeconds
         << ", \"speedup_vs_jobs1\": " << (r.wallSeconds > 0 ? base / r.wallSeconds : 0.0)
         << ", \"ilp_solves\": " << r.ilpSolves << ", \"cache_hits\": " << r.cacheHits
         << ", \"cache_misses\": " << r.cacheMisses << "}" << (i + 1 < results.size() ? "," : "")
         << "\n";
  }
  json << "    ]\n  }";
  bench::updateBenchJson("BENCH_parallelizer.json", "speedup_jobs", json.str());
  std::fprintf(stderr, "[speedup_jobs] updated BENCH_parallelizer.json\n");
  return 0;
}
