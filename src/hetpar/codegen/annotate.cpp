#include "hetpar/codegen/annotate.hpp"

#include <map>

#include "hetpar/frontend/printer.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar::codegen {

using parallel::SolutionCandidate;
using parallel::SolutionKind;
using parallel::SolutionRef;

namespace {

class Annotator {
 public:
  Annotator(const htg::Graph& graph, const parallel::SolutionTable& table,
            const platform::Platform& pf)
      : graph_(graph), table_(table), pf_(pf) {}

  std::map<const frontend::Stmt*, std::string> collect(SolutionRef rootChoice) {
    walk(rootChoice.node, table_.at(rootChoice.node).at(rootChoice.index));
    return std::move(notes_);
  }

 private:
  std::string classList(const std::vector<parallel::ClassId>& classes) const {
    std::vector<std::string> names;
    for (parallel::ClassId c : classes) names.push_back(pf_.classAt(c).name);
    return strings::join(names, ", ");
  }

  void note(const frontend::Stmt* stmt, const std::string& text) {
    if (stmt == nullptr) return;
    std::string& slot = notes_[stmt];
    if (!slot.empty()) slot += "\n";
    slot += text;
  }

  void walk(htg::NodeId id, const SolutionCandidate& cand) {
    const htg::Node& node = graph_.node(id);
    switch (cand.kind) {
      case SolutionKind::Sequential:
        return;  // nothing to annotate
      case SolutionKind::LoopChunked: {
        std::vector<std::string> iters;
        for (double it : cand.chunkIterations)
          iters.push_back(strings::format("%.0f", it));
        note(node.stmt,
             strings::format("#pragma hetpar parallel_for iterations(%s) classes(%s)",
                             strings::join(iters, ", ").c_str(),
                             classList(cand.taskClass).c_str()));
        return;
      }
      case SolutionKind::TaskParallel: {
        note(node.stmt, strings::format("#pragma hetpar parallel tasks(%d) classes(%s)",
                                        cand.numTasks(), classList(cand.taskClass).c_str()));
        for (std::size_t i = 0; i < node.children.size(); ++i) {
          const htg::Node& child = graph_.node(node.children[i]);
          const int task = cand.childTask[i];
          if (task != 0 && child.stmt != nullptr)
            note(child.stmt, strings::format("#pragma hetpar task(%d)", task));
          const SolutionRef ref = cand.childChoice[i];
          if (ref.valid()) walk(ref.node, table_.at(ref.node).at(ref.index));
        }
        return;
      }
    }
  }

  const htg::Graph& graph_;
  const parallel::SolutionTable& table_;
  const platform::Platform& pf_;
  std::map<const frontend::Stmt*, std::string> notes_;
};

}  // namespace

std::string annotateSource(const frontend::Program& program, const htg::Graph& graph,
                           const parallel::SolutionTable& table, SolutionRef rootChoice,
                           const platform::Platform& pf) {
  Annotator annotator(graph, table, pf);
  const auto notes = annotator.collect(rootChoice);

  frontend::PrintHooks hooks;
  hooks.beforeStmt = [&notes](const frontend::Stmt& stmt) -> std::string {
    auto it = notes.find(&stmt);
    return it == notes.end() ? std::string{} : it->second;
  };
  std::string header =
      "// Parallelized by hetpar for platform " + pf.summary() + "\n" +
      "// (heterogeneous OpenMP-extension annotations; see DESIGN.md)\n\n";
  // One allocation at the exact size: `header + printProgram(...)` would
  // insert the header in front of the printed text, and that reallocation
  // doubles the buffer, so every caller keeping the text held ~2x its size.
  const std::string body = frontend::printProgram(program, &hooks);
  std::string text;
  text.reserve(header.size() + body.size());
  text.append(header).append(body);
  return text;
}

}  // namespace hetpar::codegen
