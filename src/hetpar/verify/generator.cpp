#include "hetpar/verify/generator.hpp"

#include <sstream>

#include "hetpar/support/error.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::verify {

namespace {

/// Emits one self-contained top-level statement chunk at a time. The chunk
/// grammar matches the historical random_program_test generator; only the
/// array extent became configurable.
class ChunkGen {
 public:
  ChunkGen(Rng& rng, const GeneratorOptions& options) : rng_(rng), options_(options) {}

  std::string chunk() {
    os_.str("");
    statement(2);
    return os_.str();
  }

 private:
  int extent() const { return options_.arraySize; }

  void indent(int depth) {
    for (int i = 0; i < depth; ++i) os_ << "  ";
  }

  /// A new identifier: `prefix` followed by a running number.
  std::string fresh(const char* prefix) {
    return std::string(prefix).append(std::to_string(counter_++));
  }

  std::string array() {
    switch (rng_.below(3)) {
      case 0: return "ga";
      case 1: return "gb";
      default: return "gc";
    }
  }

  std::string expr(const std::string& iv) {
    std::ostringstream e;
    switch (rng_.below(5)) {
      case 0: e << rng_.range(1, 20); break;
      case 1: e << array() << "[" << iv << "]"; break;
      case 2: e << iv << " * " << rng_.range(1, 4); break;
      case 3: e << "helper(" << iv << ")"; break;
      default:
        e << array() << "[" << iv << "] + " << rng_.range(0, 8);
        break;
    }
    return e.str();
  }

  void statement(int depth) {
    if (depth > options_.maxDepth) return;
    switch (rng_.below(9)) {
      case 0: {  // elementwise loop
        const std::string iv = fresh("i");
        indent(depth);
        os_ << "for (int " << iv << " = 0; " << iv << " < " << extent() << "; " << iv
            << " = " << iv << " + 1) {\n";
        indent(depth + 1);
        os_ << array() << "[" << iv << "] = " << expr(iv) << ";\n";
        if (rng_.chance(0.4)) statementInLoop(depth + 1, iv);
        indent(depth);
        os_ << "}\n";
        break;
      }
      case 1: {  // conditional scalar update
        const std::string v = fresh("t");
        indent(depth);
        os_ << "int " << v << " = " << rng_.range(0, 30) << ";\n";
        indent(depth);
        os_ << "if (" << v << " > " << rng_.range(0, 30) << ") { " << v << " = " << v
            << " + 1; } else { " << v << " = " << v << " - 1; }\n";
        indent(depth);
        os_ << "gc[" << rng_.range(0, extent() - 1) << "] = " << v << ";\n";
        break;
      }
      case 2: {  // while countdown
        const std::string v = fresh("w");
        indent(depth);
        os_ << "int " << v << " = " << rng_.range(1, 6) << ";\n";
        indent(depth);
        os_ << "while (" << v << " > 0) { gc[" << v << "] = gc[" << v << "] + 1; " << v
            << " = " << v << " - 1; }\n";
        break;
      }
      case 3: {  // reduction loop
        const std::string s = fresh("r");
        const std::string iv = fresh("i");
        indent(depth);
        os_ << "int " << s << " = 0;\n";
        indent(depth);
        os_ << "for (int " << iv << " = 0; " << iv << " < " << extent() << "; " << iv
            << " = " << iv << " + 1) { " << s << " = " << s << " + " << array() << "["
            << iv << "]; }\n";
        indent(depth);
        os_ << "gc[0] = " << s << " % 97;\n";
        break;
      }
      case 4: {  // adversarial shapes: section-analysis soundness probes
        switch (rng_.below(3)) {
          case 0: {  // loop body mutates its own induction variable
            const std::string iv = fresh("i");
            indent(depth);
            os_ << "for (int " << iv << " = 0; " << iv << " < " << extent() << "; "
                << iv << " = " << iv << " + 1) {\n";
            indent(depth + 1);
            os_ << array() << "[" << iv << "] = " << array() << "[" << iv << "] + "
                << rng_.range(1, 8) << ";\n";
            indent(depth + 1);
            os_ << "if (" << iv << " % " << rng_.range(3, 5) << " == 1) { " << iv
                << " = " << iv << " + 1; }\n";
            indent(depth);
            os_ << "}\n";
            break;
          }
          case 1: {  // subscript variable written conditionally
            const std::string v = fresh("x");
            const int half = extent() / 2;
            indent(depth);
            os_ << "int " << v << " = " << rng_.range(0, half - 1) << ";\n";
            indent(depth);
            os_ << "if (ga[0] > " << rng_.range(0, 9) << ") { " << v << " = " << v
                << " + " << half << "; }\n";
            indent(depth);
            os_ << array() << "[" << v << "] = " << array() << "[" << v << "] + "
                << rng_.range(1, 9) << ";\n";
            break;
          }
          default: {  // constant subscripts at the array boundaries
            indent(depth);
            os_ << array() << "[0] = " << array() << "[" << (extent() - 1) << "] + "
                << rng_.range(1, 9) << ";\n";
            indent(depth);
            os_ << array() << "[" << (extent() - 1) << "] = " << array() << "[0] + "
                << rng_.range(1, 9) << ";\n";
            break;
          }
        }
        break;
      }
      case 5: {  // dead stores: values overwritten before any read
        const std::string v = fresh("d");
        const int k = static_cast<int>(rng_.range(0, extent() - 1));
        const std::string dst = array();
        indent(depth);
        os_ << "int " << v << " = " << array() << "[" << rng_.range(0, extent() - 1)
            << "] + " << rng_.range(1, 9) << ";\n";
        indent(depth);
        os_ << v << " = " << rng_.range(1, 30) << ";\n";  // kills the first store
        indent(depth);
        os_ << dst << "[" << k << "] = " << rng_.range(1, 9) << ";\n";
        indent(depth);
        os_ << dst << "[" << k << "] = " << v << ";\n";  // overwrites the same element
        break;
      }
      case 6: {  // write-only temporary: assigned in a loop, never read
        const std::string v = fresh("z");
        const std::string iv = fresh("i");
        indent(depth);
        os_ << "int " << v << " = 0;\n";
        indent(depth);
        os_ << "for (int " << iv << " = 0; " << iv << " < " << extent() << "; " << iv
            << " = " << iv << " + 1) { " << v << " = " << array() << "[" << iv << "] * "
            << rng_.range(1, 4) << "; " << array() << "[" << iv << "] = " << array()
            << "[" << iv << "] + 1; }\n";
        break;
      }
      case 7: {  // loop bound flowing through constant propagation
        const std::string a = fresh("n");
        const std::string b = fresh("m");
        const std::string iv = fresh("i");
        const int base = static_cast<int>(rng_.range(2, extent() / 2));
        const int add = static_cast<int>(rng_.range(0, 2));
        const std::string dst = array();
        indent(depth);
        os_ << "int " << a << " = " << base << ";\n";
        indent(depth);
        os_ << "int " << b << " = " << a << " + " << add << ";\n";
        indent(depth);
        os_ << "for (int " << iv << " = 0; " << iv << " < " << b << "; " << iv << " = "
            << iv << " + 1) { " << dst << "[" << iv << "] = " << dst << "[" << iv
            << "] + " << rng_.range(1, 9) << "; }\n";
        break;
      }
      default: {  // affine-subscript loop (offset / strided / disjoint halves)
        const std::string iv = fresh("i");
        const std::string dst = array();
        indent(depth);
        switch (rng_.below(3)) {
          case 0: {  // dst[iv + c] over [0, extent - c)
            const int c = static_cast<int>(rng_.range(1, 4));
            os_ << "for (int " << iv << " = 0; " << iv << " < " << (extent() - c) << "; "
                << iv << " = " << iv << " + 1) { " << dst << "[" << iv << " + " << c
                << "] = " << array() << "[" << iv << "] + " << rng_.range(0, 8)
                << "; }\n";
            break;
          }
          case 1: {  // dst[2 * iv] over [0, extent / 2)
            os_ << "for (int " << iv << " = 0; " << iv << " < " << extent() / 2 << "; "
                << iv << " = " << iv << " + 1) { " << dst << "[2 * " << iv
                << "] = " << array() << "[2 * " << iv << " + 1] + " << rng_.range(1, 9)
                << "; }\n";
            break;
          }
          default: {  // two loops over disjoint halves of one array
            const std::string iv2 = fresh("i");
            const int half = extent() / 2;
            os_ << "for (int " << iv << " = 0; " << iv << " < " << half << "; " << iv
                << " = " << iv << " + 1) { " << dst << "[" << iv << "] = " << expr(iv)
                << "; }\n";
            indent(depth);
            os_ << "for (int " << iv2 << " = " << half << "; " << iv2 << " < "
                << extent() << "; " << iv2 << " = " << iv2 << " + 1) { " << dst << "["
                << iv2 << "] = " << expr(iv2) << "; }\n";
            break;
          }
        }
        break;
      }
    }
  }

  void statementInLoop(int depth, const std::string& iv) {
    indent(depth);
    os_ << "if (" << iv << " % 2 == 0) { " << array() << "[" << iv << "] = " << iv
        << "; }\n";
  }

  Rng& rng_;
  const GeneratorOptions& options_;
  std::ostringstream os_;
  int counter_ = 0;
};

}  // namespace

std::string GeneratedProgram::render() const {
  const int n = options.arraySize;
  std::ostringstream os;
  os << "int ga[" << n << "];\nint gb[" << n << "];\nint gc[" << n << "];\n";
  os << "int helper(int v) { return v * 3 + 1; }\n";
  os << "void fill(int dst[" << n << "], int base) {\n"
     << "  for (int i = 0; i < " << n << "; i = i + 1) { dst[i] = base + i; }\n"
     << "}\n";
  os << "int main() {\n";
  for (const std::string& s : statements) os << s;
  os << "  int acc = 0;\n";
  os << "  for (int i = 0; i < " << n << "; i = i + 1) { acc = acc + ga[i] + gb[i] + gc[i]; }\n";
  os << "  return acc + 1;\n";  // +1 keeps the checksum nonzero
  os << "}\n";
  return os.str();
}

GeneratedProgram GeneratedProgram::withStatements(std::vector<std::string> subset) const {
  GeneratedProgram out = *this;
  out.statements = std::move(subset);
  return out;
}

GeneratedProgram generateProgram(std::uint64_t seed, const GeneratorOptions& options) {
  require(options.arraySize >= 8, "generator arraySize must be >= 8");
  require(options.minStatements >= 0 && options.maxStatements >= options.minStatements,
          "generator statement bounds are inverted");
  GeneratedProgram program;
  program.options = options;
  program.seed = seed;

  Rng rng(seed);
  // The array fills are ordinary removable chunks: globals are
  // zero-initialized, so any subset still computes a valid checksum.
  program.statements.push_back(
      strings::format("  fill(ga, %d);\n", static_cast<int>(rng.range(1, 9))));
  program.statements.push_back(
      strings::format("  fill(gb, %d);\n", static_cast<int>(rng.range(1, 9))));

  ChunkGen gen(rng, program.options);
  const int chunks =
      static_cast<int>(rng.range(options.minStatements, options.maxStatements));
  for (int i = 0; i < chunks; ++i) program.statements.push_back(gen.chunk());
  return program;
}

platform::Platform generatePlatform(std::uint64_t seed,
                                    const PlatformGeneratorOptions& options) {
  Rng rng(seed ^ 0x9a7f0c5dULL);
  const int numClasses =
      static_cast<int>(rng.range(options.minClasses, options.maxClasses));
  std::vector<platform::ProcessorClass> classes;
  for (int c = 0; c < numClasses; ++c) {
    platform::ProcessorClass pc;
    pc.name = strings::format("c%d", c);
    pc.frequencyMHz = rng.uniform(options.minFrequencyMHz, options.maxFrequencyMHz);
    pc.count = static_cast<int>(rng.range(options.minCountPerClass, options.maxCountPerClass));
    classes.push_back(std::move(pc));
  }
  platform::Interconnect bus;
  bus.latencySeconds = rng.uniform(0.5e-6, 2e-6);
  bus.bytesPerSecond = rng.uniform(100e6, 800e6);
  const double tco = rng.uniform(options.minTcoMicros, options.maxTcoMicros) * 1e-6;
  platform::Platform pf(strings::format("fuzz%llu", static_cast<unsigned long long>(seed)),
                        std::move(classes), bus, tco);
  pf.validate();
  return pf;
}

}  // namespace hetpar::verify
