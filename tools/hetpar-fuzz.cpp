// hetpar-fuzz — differential fuzzer for the parallelization pipeline.
//
//   hetpar-fuzz [options]
//
//   --seed <n>            base seed (default 1); every reported failure is
//                         replayable from its case seed alone
//   --iterations <n>      fuzz cases to run (default 100)
//   --time-budget <sec>   stop early after this much wall time (default: none)
//   --relations <list>    comma-separated relation names, or "all" (default);
//                         cases round-robin over the enabled relations
//   --regression-dir <d>  where shrunk failing inputs are dumped
//                         (default tests/data/regressions; "" disables dumps)
//   --report <file>       also write the JSON report to a file
//   --list-relations      print the relation names and exit
//   --inject-liveness-bug enable the deliberate liveness fault (partial array
//                         writes treated as kills); the liveness-soundness
//                         relation must then fail fast (falsifiability check)
//
// Exit codes: 0 all cases passed, 1 usage error, 2 at least one failure or
// an error in the harness itself (a `hetpar-fuzz: error:` line).
//
// The JSON report (stdout, and the --report file) holds `baseSeed`, the
// `cases` / `failures` / `skipped` counts, `wallSeconds`, and one `results`
// entry per case: relation, seed, passed, skipped, plus `detail` and
// `regression` when set. It carries no solver or pass totals: those belong
// to individual runs, and the cases mix unrelated relations and engines.
//
// Failing program-level cases are delta-debugged down to a chunk-minimal
// program before being dumped as <relation>-seed<case>.c plus a matching
// .platform file, ready to be committed as a regression fixture (the
// verify_regressions test replays everything in the directory).
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "hetpar/ir/dataflow.hpp"
#include "hetpar/platform/parser.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"
#include "hetpar/verify/generator.hpp"
#include "hetpar/verify/metamorphic.hpp"
#include "hetpar/verify/reduce.hpp"

namespace {

using namespace hetpar;

struct Options {
  std::uint64_t seed = 1;
  int iterations = 100;
  double timeBudgetSeconds = 0.0;  // 0 = unlimited
  std::string relations = "all";
  std::string regressionDir = "tests/data/regressions";
  std::string reportPath;
  bool injectLivenessBug = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: hetpar-fuzz [--seed n] [--iterations n] [--time-budget sec]\n"
               "                   [--relations list|all] [--regression-dir d]\n"
               "                   [--report file] [--list-relations]\n"
               "                   [--inject-liveness-bug]\n");
}

/// Parses all of `text` as a finite, non-negative T. False on anything else
/// (empty text, a sign, trailing characters, out of range), so a mistyped
/// count can never turn a run into a silent no-op.
template <typename T>
bool parseNonNegative(std::string_view text, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, v);
  if (error != std::errc() || stop != end || !(v >= T{})) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

struct CaseOutcome {
  std::uint64_t caseSeed = 0;
  verify::RelationResult result;
  std::string regressionFile;  // non-empty when a shrunk repro was dumped
};

/// Case seeds are decorrelated from consecutive base seeds (splitmix64).
std::uint64_t caseSeedFor(std::uint64_t base, int iteration) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(iteration + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += strings::format("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

/// Runs one relation, mapping any pipeline exception to a failure (a crash
/// on a valid-by-construction input is a bug by definition).
verify::RelationResult runCase(verify::Relation relation, std::uint64_t caseSeed,
                               const std::string& source, const platform::Platform& pf,
                               const verify::MetamorphicOptions& options) {
  try {
    if (verify::isProgramRelation(relation))
      return verify::checkProgramRelation(relation, source, pf, options);
    return verify::checkRegionRelation(relation, caseSeed, options);
  } catch (const std::exception& e) {
    verify::RelationResult r;
    r.relation = relation;
    r.name = verify::relationName(relation);
    r.passed = false;
    r.detail = std::string("exception: ") + e.what();
    return r;
  }
}

/// Shrinks a failing program-level case and dumps source + platform into the
/// regression directory. Returns the dumped source path ("" on failure).
std::string dumpRegression(const Options& opts, verify::Relation relation,
                           std::uint64_t caseSeed, const verify::GeneratedProgram& program,
                           const platform::Platform& pf,
                           const verify::MetamorphicOptions& mopts, int* probes) {
  const verify::FailurePredicate stillFailing = [&](const verify::GeneratedProgram& p) {
    const verify::RelationResult r = runCase(relation, caseSeed, p.render(), pf, mopts);
    return !r.passed;
  };
  verify::GeneratedProgram shrunk = program;
  try {
    verify::ReduceResult reduced = verify::reduceProgram(program, stillFailing);
    shrunk = std::move(reduced.program);
    if (probes != nullptr) *probes = reduced.probes;
  } catch (const std::exception&) {
    // Flaky failure (did not reproduce under the shrinker): dump unshrunk.
  }

  std::error_code ec;
  std::filesystem::create_directories(opts.regressionDir, ec);
  const std::string stem = strings::format(
      "%s-seed%llu", verify::relationName(relation).c_str(),
      static_cast<unsigned long long>(caseSeed));
  const std::string sourcePath = opts.regressionDir + "/" + stem + ".c";
  {
    std::ofstream out(sourcePath);
    if (!out) return "";
    out << "// hetpar-fuzz regression: relation " << verify::relationName(relation)
        << ", case seed " << caseSeed << "\n";
    out << shrunk.render();
  }
  {
    std::ofstream out(opts.regressionDir + "/" + stem + ".platform");
    out << platform::toText(pf);
  }
  return sourcePath;
}

/// Region-level relations have no program to shrink — the case seed IS the
/// repro. Dumps <relation>-seed<N>.seed so verify_regressions replays it.
std::string dumpSeedRegression(const Options& opts, verify::Relation relation,
                               std::uint64_t caseSeed) {
  std::error_code ec;
  std::filesystem::create_directories(opts.regressionDir, ec);
  const std::string path = opts.regressionDir + "/" +
                           strings::format("%s-seed%llu.seed",
                                           verify::relationName(relation).c_str(),
                                           static_cast<unsigned long long>(caseSeed));
  std::ofstream out(path);
  if (!out) return "";
  out << "# hetpar-fuzz region-level regression: relation "
      << verify::relationName(relation) << "\n"
      << caseSeed << "\n";
  return path;
}

int run(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(1);
      }
      return argv[++i];
    };
    const auto badNumber = [&](const char* text, const char* expected) {
      std::fprintf(stderr, "hetpar-fuzz: %s expects %s, got '%s'\n", arg.c_str(), expected,
                   text);
      usage();
      return 1;
    };
    if (arg == "--seed") {
      const char* text = value();
      if (!parseNonNegative(text, opts.seed)) return badNumber(text, "a non-negative integer");
    } else if (arg == "--iterations") {
      const char* text = value();
      if (!parseNonNegative(text, opts.iterations))
        return badNumber(text, "a non-negative integer");
    } else if (arg == "--time-budget") {
      const char* text = value();
      if (!parseNonNegative(text, opts.timeBudgetSeconds))
        return badNumber(text, "a non-negative number of seconds");
    } else if (arg == "--relations") {
      opts.relations = value();
    } else if (arg == "--regression-dir") {
      opts.regressionDir = value();
    } else if (arg == "--report") {
      opts.reportPath = value();
    } else if (arg == "--inject-liveness-bug") {
      opts.injectLivenessBug = true;
    } else if (arg == "--list-relations") {
      for (verify::Relation r : verify::allRelations())
        std::printf("%s\n", verify::relationName(r).c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
      return 1;
    }
  }

  if (opts.injectLivenessBug) ir::DataflowAnalysis::testTreatPartialArrayWritesAsKills() = true;

  std::vector<verify::Relation> relations;
  try {
    relations = verify::parseRelations(opts.relations);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const verify::MetamorphicOptions mopts;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  std::vector<CaseOutcome> outcomes;
  int failures = 0, skips = 0, ran = 0;
  for (int iter = 0; iter < opts.iterations; ++iter) {
    if (opts.timeBudgetSeconds > 0 && elapsed() > opts.timeBudgetSeconds) break;
    const verify::Relation relation =
        relations[static_cast<std::size_t>(iter) % relations.size()];
    const std::uint64_t caseSeed = caseSeedFor(opts.seed, iter);

    CaseOutcome outcome;
    outcome.caseSeed = caseSeed;
    if (verify::isProgramRelation(relation)) {
      // Vary the array extent across cases: small arrays keep every region
      // below the granularity threshold (sequential-only tables), large ones
      // push loops into chunking territory.
      static constexpr int kSizes[] = {32, 64, 128, 256, 512};
      verify::GeneratorOptions genOptions;
      genOptions.arraySize = kSizes[caseSeed % 5];
      const verify::GeneratedProgram program = verify::generateProgram(caseSeed, genOptions);
      const platform::Platform pf = verify::generatePlatform(caseSeed);
      outcome.result = runCase(relation, caseSeed, program.render(), pf, mopts);
      if (!outcome.result.passed && !opts.regressionDir.empty()) {
        int probes = 0;
        outcome.regressionFile =
            dumpRegression(opts, relation, caseSeed, program, pf, mopts, &probes);
        std::fprintf(stderr, "  shrunk with %d probes -> %s\n", probes,
                     outcome.regressionFile.c_str());
      }
    } else {
      outcome.result = runCase(relation, caseSeed, "", platform::Platform(), mopts);
      if (!outcome.result.passed && !opts.regressionDir.empty())
        outcome.regressionFile = dumpSeedRegression(opts, relation, caseSeed);
    }

    ++ran;
    if (!outcome.result.passed) {
      ++failures;
      std::fprintf(stderr, "FAIL %s seed=%llu: %s\n", outcome.result.name.c_str(),
                   static_cast<unsigned long long>(caseSeed),
                   outcome.result.detail.c_str());
    } else if (outcome.result.skipped) {
      ++skips;
    }
    outcomes.push_back(std::move(outcome));
  }

  std::string json = "{\n";
  json += strings::format("  \"baseSeed\": %llu,\n",
                          static_cast<unsigned long long>(opts.seed));
  json += strings::format("  \"cases\": %d,\n  \"failures\": %d,\n  \"skipped\": %d,\n",
                          ran, failures, skips);
  json += strings::format("  \"wallSeconds\": %.3f,\n", elapsed());
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const CaseOutcome& o = outcomes[i];
    json += strings::format(
        "    {\"relation\": \"%s\", \"seed\": %llu, \"passed\": %s, \"skipped\": %s",
        o.result.name.c_str(), static_cast<unsigned long long>(o.caseSeed),
        o.result.passed ? "true" : "false", o.result.skipped ? "true" : "false");
    if (!o.result.detail.empty())
      json += ", \"detail\": \"" + jsonEscape(o.result.detail) + "\"";
    if (!o.regressionFile.empty())
      json += ", \"regression\": \"" + jsonEscape(o.regressionFile) + "\"";
    json += i + 1 < outcomes.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (!opts.reportPath.empty()) {
    std::ofstream out(opts.reportPath);
    out << json;
  }
  std::fprintf(stderr, "%d cases, %d failures, %d skipped in %.1fs\n", ran, failures,
               skips, elapsed());
  return failures == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // A relation failure is reported and counted inside run(); reaching
    // here means the harness itself broke, which is an error exit too.
    std::fprintf(stderr, "hetpar-fuzz: error: %s\n", e.what());
    return 2;
  }
}
