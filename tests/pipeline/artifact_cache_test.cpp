// Robustness tests for the persistent artifact cache: truncation, corruption,
// stale version stamps and concurrent writers must all degrade to a clean
// rebuild — never a crash, never reuse of bad bytes.
#include "hetpar/pipeline/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace hetpar::pipeline {
namespace {

namespace fs = std::filesystem;
using namespace std::string_literals;

class ArtifactCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("hetpar-artifact-cache-test-" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ArtifactCacheTest, RoundTrip) {
  ArtifactCache cache(dir_);
  const std::string payload = "the artifact bytes\0with a nul"s;
  EXPECT_TRUE(cache.store("k1", payload));
  std::string loaded;
  EXPECT_TRUE(cache.load("k1", loaded));
  EXPECT_EQ(loaded, payload);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST_F(ArtifactCacheTest, AbsentKeyIsMiss) {
  ArtifactCache cache(dir_);
  std::string loaded;
  EXPECT_FALSE(cache.load("nope", loaded));
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().rejectedCorrupt, 0);
}

TEST_F(ArtifactCacheTest, TruncatedEntryRejectedThenRebuilt) {
  ArtifactCache cache(dir_);
  ASSERT_TRUE(cache.store("k", "payload-payload-payload"));
  const std::string full = slurp(cache.pathFor("k"));

  // Every possible truncation point must be rejected cleanly.
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    spew(cache.pathFor("k"), full.substr(0, keep));
    std::string loaded;
    EXPECT_FALSE(cache.load("k", loaded)) << "accepted a " << keep << "-byte prefix";
  }
  EXPECT_EQ(cache.stats().rejectedCorrupt, static_cast<long long>(full.size()));

  // The slot is rebuildable: a fresh store over the damage round-trips.
  EXPECT_TRUE(cache.store("k", "payload-payload-payload"));
  std::string loaded;
  EXPECT_TRUE(cache.load("k", loaded));
  EXPECT_EQ(loaded, "payload-payload-payload");
}

TEST_F(ArtifactCacheTest, EveryFlippedByteRejected) {
  ArtifactCache cache(dir_);
  ASSERT_TRUE(cache.store("k", "sensitive artifact payload"));
  const std::string full = slurp(cache.pathFor("k"));

  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string damaged = full;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    spew(cache.pathFor("k"), damaged);
    std::string loaded;
    EXPECT_FALSE(cache.load("k", loaded)) << "accepted a flip at byte " << at;
  }
  const ArtifactCacheStats s = cache.stats();
  // A flipped byte lands in either the version stamp or some checked field.
  EXPECT_EQ(s.rejectedCorrupt + s.rejectedVersion, static_cast<long long>(full.size()));
  EXPECT_EQ(s.hits, 0);
}

TEST_F(ArtifactCacheTest, StaleVersionStampRejectedAsVersion) {
  ArtifactCache cache(dir_);
  ASSERT_TRUE(cache.store("k", "payload"));
  std::string full = slurp(cache.pathFor("k"));
  // Layout: 4-byte magic, then the little-endian format version.
  ASSERT_GE(full.size(), 8u);
  full[4] = static_cast<char>(ArtifactCache::kFormatVersion + 1);
  spew(cache.pathFor("k"), full);

  std::string loaded;
  EXPECT_FALSE(cache.load("k", loaded));
  EXPECT_EQ(cache.stats().rejectedVersion, 1);
  EXPECT_EQ(cache.stats().rejectedCorrupt, 0);
}

TEST_F(ArtifactCacheTest, WrongKeyEchoRejected) {
  ArtifactCache cache(dir_);
  ASSERT_TRUE(cache.store("k1", "payload"));
  // An entry renamed to another key must not be served under it.
  fs::copy_file(cache.pathFor("k1"), cache.pathFor("k2"));
  std::string loaded;
  EXPECT_FALSE(cache.load("k2", loaded));
  EXPECT_EQ(cache.stats().rejectedCorrupt, 1);
}

TEST_F(ArtifactCacheTest, ConcurrentWritersAndReadersStayConsistent) {
  ArtifactCache cache(dir_);
  const std::string payload(4096, 'x');
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;

  std::vector<std::thread> threads;
  std::atomic<int> badReads{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        if (t % 2 == 0) {
          cache.store("shared", payload);
        } else {
          std::string loaded;
          // A load may miss before the first store lands, but a served
          // payload must never be partial or mixed.
          if (cache.load("shared", loaded) && loaded != payload) ++badReads;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(badReads.load(), 0);

  std::string loaded;
  EXPECT_TRUE(cache.load("shared", loaded));
  EXPECT_EQ(loaded, payload);
}

TEST_F(ArtifactCacheTest, OutcomeSerializationRoundTripsByteExactly) {
  const htg::FrontendBundle bundle = pipeline::buildFrontend(R"(
    int main() {
      int a[64]; int b[64]; int s = 0;
      for (int i = 0; i < 64; i = i + 1) { a[i] = i; }
      for (int j = 0; j < 64; j = j + 1) { b[j] = a[j] * 2; }
      for (int k = 0; k < 64; k = k + 1) { s = s + b[k]; }
      return s;
    }
  )");
  // TimingModel keeps a pointer to the platform: it must outlive the solve.
  const platform::Platform pf = platform::platformA();
  const cost::TimingModel timing(pf);
  parallel::ParallelizerOptions po;
  po.minRegionTcoMultiple = 0.0;  // force ILPs even on this tiny program
  parallel::Parallelizer tool(bundle.graph, timing, po);
  const parallel::ParallelizeOutcome outcome = tool.run();

  const std::string payload = serializeOutcome(outcome);
  parallel::ParallelizeOutcome decoded;
  ASSERT_TRUE(deserializeOutcome(payload, decoded));
  EXPECT_TRUE(outcomeFitsGraph(decoded, bundle.graph));
  // Byte-exact: re-serializing the decoded outcome reproduces the payload.
  EXPECT_EQ(serializeOutcome(decoded), payload);

  // And any truncated payload is rejected, not misdecoded.
  for (std::size_t keep = 0; keep < payload.size(); keep += 7) {
    parallel::ParallelizeOutcome junk;
    EXPECT_FALSE(deserializeOutcome(payload.substr(0, keep), junk));
  }
}

}  // namespace
}  // namespace hetpar::pipeline
