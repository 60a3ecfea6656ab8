// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hetpar/benchsuite/suite.hpp"
#include "hetpar/pipeline/evaluate.hpp"
#include "hetpar/support/error.hpp"
#include "hetpar/support/strings.hpp"
#include "hetpar/support/thread_pool.hpp"

namespace hetpar::bench {

/// Flags shared by the bench binaries.
struct BenchArgs {
  std::vector<benchsuite::Benchmark> benchmarks;  ///< empty filter = full suite
  int jobs = 1;  ///< Parallelizer solver threads (0 = hardware concurrency)
};

/// Parses `--benchmarks a,b,c` / `--benchmarks=a,b,c` (comma-separated
/// either way) and `--jobs N` / `--jobs=N`. Unknown flags and stray
/// positionals are usage errors: benchmark typos must not silently fall
/// back to the full multi-minute suite.
inline BenchArgs parseBenchArgs(int argc, char** argv) {
  auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", argv[0], message.c_str());
    std::fprintf(stderr, "usage: %s [--benchmarks a,b,c] [--jobs N]\n", argv[0]);
    std::exit(1);
  };
  BenchArgs args;
  std::string filter;
  std::string jobsText;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmarks=", 0) == 0) {
      filter = arg.substr(13);
    } else if (arg == "--benchmarks") {
      if (i + 1 >= argc) fail("--benchmarks expects a comma-separated list");
      filter = argv[++i];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobsText = arg.substr(7);
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) fail("--jobs expects an integer");
      jobsText = argv[++i];
    } else {
      fail("unknown argument '" + arg + "'");
    }
  }
  if (!jobsText.empty()) {
    const std::optional<int> jobs = support::ThreadPool::parseJobs(jobsText);
    if (!jobs)
      fail(strings::format("--jobs expects an integer from 0 to %d, got '%s'",
                           support::ThreadPool::kMaxJobs, jobsText.c_str()));
    args.jobs = *jobs;
  }
  if (filter.empty()) {
    args.benchmarks = benchsuite::suite();
  } else {
    for (const std::string& name : strings::split(filter, ',')) {
      const std::string trimmed{strings::trim(name)};
      try {
        args.benchmarks.push_back(benchsuite::find(trimmed));
      } catch (const Error&) {
        fail("unknown benchmark '" + trimmed + "'");
      }
    }
  }
  return args;
}

/// BENCH_parallelizer.json records the repo's perf trajectory as one JSON
/// object per bench binary, keyed by bench name:
///
///   { "speedup_jobs": {...}, "pipeline_batch": {...} }
///
/// Each binary rewrites only its own section via updateBenchJson, so running
/// one bench never clobbers another's recorded numbers. The splitter below
/// is a minimal top-level-object scanner (strings and nesting respected),
/// not a general JSON parser — enough to round-trip what the binaries emit.
/// A legacy file whose top level IS one bench record (`"bench": "<name>"`)
/// is migrated into that bench's section on first update.
inline std::map<std::string, std::string> readBenchSections(const std::string& path) {
  std::map<std::string, std::string> sections;
  std::ifstream in(path);
  if (!in.good()) return sections;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const std::size_t open = text.find('{');
  if (open == std::string::npos) return sections;
  std::size_t i = open + 1;
  auto skipSpace = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  };
  auto readString = [&]() -> std::string {
    std::string out;
    ++i;  // opening quote
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) out += text[i++];
      out += text[i++];
    }
    ++i;  // closing quote
    return out;
  };
  while (true) {
    skipSpace();
    if (i >= text.size() || text[i] == '}') break;
    if (text[i] == ',') { ++i; continue; }
    if (text[i] != '"') break;  // malformed: keep what we have
    const std::string key = readString();
    skipSpace();
    if (i >= text.size() || text[i] != ':') break;
    ++i;
    skipSpace();
    const std::size_t valueStart = i;
    int depth = 0;
    bool inString = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (inString) {
        if (c == '\\') ++i;
        else if (c == '"') inString = false;
      } else if (c == '"') {
        inString = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;  // closing the top-level object
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    std::string value = text.substr(valueStart, i - valueStart);
    while (!value.empty() && std::isspace(static_cast<unsigned char>(value.back())))
      value.pop_back();
    sections[key] = std::move(value);
  }

  // Legacy single-record layout: {"bench": "name", ...} -> one section.
  const auto legacy = sections.find("bench");
  if (legacy != sections.end() && legacy->second.size() >= 2 &&
      legacy->second.front() == '"') {
    const std::string name = legacy->second.substr(1, legacy->second.size() - 2);
    std::string whole{strings::trim(text)};
    std::map<std::string, std::string> migrated;
    migrated[name] = std::move(whole);
    return migrated;
  }
  return sections;
}

/// Replaces (or adds) one bench's section and rewrites `path`. `body` must
/// be a complete JSON value, normally an object.
inline void updateBenchJson(const std::string& path, const std::string& name,
                            const std::string& body) {
  std::map<std::string, std::string> sections = readBenchSections(path);
  sections[name] = body;
  std::ofstream out(path);
  if (!out.good()) throw Error("cannot write " + path);
  out << "{\n";
  std::size_t n = 0;
  for (const auto& [key, value] : sections) {
    out << "  \"" << key << "\": " << value;
    out << (++n < sections.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

inline void printScenarioTable(const char* title, double limit,
                               const std::vector<std::string>& names,
                               const std::vector<double>& homog,
                               const std::vector<double>& hetero) {
  std::printf("\n%s (theoretical maximum speedup: %.1fx, dashed line)\n", title, limit);
  std::printf("%-14s %14s %16s\n", "benchmark", "homogeneous", "heterogeneous");
  std::printf("%-14s %14s %16s\n", "---------", "-----------", "-------------");
  double sumHom = 0.0;
  double sumHet = 0.0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("%-14s %13.2fx %15.2fx\n", names[i].c_str(), homog[i], hetero[i]);
    sumHom += homog[i];
    sumHet += hetero[i];
  }
  if (!names.empty()) {
    std::printf("%-14s %13.2fx %15.2fx\n", "average",
                sumHom / static_cast<double>(names.size()),
                sumHet / static_cast<double>(names.size()));
  }
}

}  // namespace hetpar::bench
