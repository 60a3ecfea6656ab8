
#include <gtest/gtest.h>

#include "hetpar/htg/dot.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/pipeline/session.hpp"

namespace hetpar::htg {
namespace {

FrontendBundle bundle(const char* src) { return pipeline::buildFrontend(src); }

const Node* findByLabel(const Graph& g, const std::string& needle) {
  const Node* found = nullptr;
  g.forEach([&](const Node& n) {
    if (!found && n.label.find(needle) != std::string::npos) found = &n;
  });
  return found;
}

TEST(HtgBuilder, RootOverMainBody) {
  auto b = bundle(R"(int main() {
    int a = 1;
    int c = a + 2;
    return c;
  })");
  const Graph& g = b.graph;
  EXPECT_TRUE(validate(g).empty());
  const Node& root = g.node(g.root());
  EXPECT_EQ(root.kind, NodeKind::Root);
  EXPECT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.execCount, 1.0);
  for (NodeId c : root.children) EXPECT_EQ(g.node(c).kind, NodeKind::Simple);
}

TEST(HtgBuilder, ValidatePassesOnRepresentativePrograms) {
  const char* programs[] = {
      "int main() { return 0; }",
      R"(int a[32]; int main() {
        for (int i = 0; i < 32; i = i + 1) { a[i] = i; }
        int s = 0;
        for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; }
        return s;
      })",
      R"(
        int buf[16];
        void fill(int v[16]) { for (int i = 0; i < 16; i = i + 1) { v[i] = i; } }
        int total(int v[16]) { int s = 0; for (int i = 0; i < 16; i = i + 1) { s = s + v[i]; } return s; }
        int main() { fill(buf); int t = total(buf); return t; }
      )",
  };
  for (const char* src : programs) {
    auto b = bundle(src);
    const auto problems = validate(b.graph);
    EXPECT_TRUE(problems.empty()) << src << "\nfirst problem: "
                                  << (problems.empty() ? "" : problems[0]);
  }
}

TEST(HtgBuilder, LoopBecomesHierarchicalWithIterations) {
  auto b = bundle(R"(int a[20]; int main() {
    for (int i = 0; i < 20; i = i + 1) { a[i] = i * 3; }
    return a[7];
  })");
  const Node* loop = findByLabel(b.graph, "for");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->kind, NodeKind::Loop);
  EXPECT_TRUE(loop->isHierarchical());
  EXPECT_NE(loop->commIn, kNoNode);
  EXPECT_NE(loop->commOut, kNoNode);
  EXPECT_DOUBLE_EQ(loop->execCount, 1.0);
  EXPECT_DOUBLE_EQ(loop->iterationsPerExec, 20.0);
  EXPECT_TRUE(loop->doall) << loop->doallReason;
  ASSERT_EQ(loop->children.size(), 1u);
  EXPECT_DOUBLE_EQ(b.graph.node(loop->children[0]).execCount, 20.0);
}

TEST(HtgBuilder, SerialLoopFlagged) {
  auto b = bundle(R"(int a[20]; int main() {
    a[0] = 1;
    for (int i = 1; i < 20; i = i + 1) { a[i] = a[i - 1] + 1; }
    return a[19];
  })");
  const Node* loop = findByLabel(b.graph, "for");
  ASSERT_NE(loop, nullptr);
  EXPECT_FALSE(loop->doall);
  EXPECT_FALSE(loop->doallReason.empty());
}

TEST(HtgBuilder, WholeStatementCallExpands) {
  auto b = bundle(R"(
    int data[8];
    void fill(int v[8]) { for (int i = 0; i < 8; i = i + 1) { v[i] = i; } }
    int main() { fill(data); return data[3]; }
  )");
  const Node* call = findByLabel(b.graph, "call fill");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->kind, NodeKind::Call);
  EXPECT_EQ(call->children.size(), 1u);  // the fill loop
  EXPECT_EQ(b.graph.node(call->children[0]).kind, NodeKind::Loop);
}

TEST(HtgBuilder, IfStaysAtomic) {
  auto b = bundle(R"(int main() {
    int x = 5;
    int y = 0;
    if (x > 3) { y = 1; } else { y = 2; }
    return y;
  })");
  b.graph.forEach([&](const Node& n) {
    if (n.stmt != nullptr && n.stmt->kind == frontend::StmtKind::If) {
      EXPECT_EQ(n.kind, NodeKind::Simple);
    }
  });
}

TEST(HtgBuilder, IfLeafCostIncludesBranchWork) {
  auto b = bundle(R"(int a[64]; int main() {
    int x = 1;
    if (x > 0) {
      for (int i = 0; i < 64; i = i + 1) { a[i] = i * i; }
    }
    return a[10];
  })");
  const Node* ifNode = nullptr;
  b.graph.forEach([&](const Node& n) {
    if (n.stmt != nullptr && n.stmt->kind == frontend::StmtKind::If) ifNode = &n;
  });
  ASSERT_NE(ifNode, nullptr);
  EXPECT_GT(ifNode->opsPerExec, 64.0) << "leaf cost must include the inner loop";
}

TEST(HtgBuilder, EdgesCarryDataFlowBytes) {
  auto b = bundle(R"(
    double buf[50];
    void produce(double v[50]) { for (int i = 0; i < 50; i = i + 1) { v[i] = i; } }
    double consume(double v[50]) { double s = 0.0; for (int i = 0; i < 50; i = i + 1) { s = s + v[i]; } return s; }
    int main() {
      produce(buf);
      double t = consume(buf);
      return t;
    }
  )");
  const Node& root = b.graph.node(b.graph.root());
  bool found = false;
  for (const Edge& e : root.edges) {
    if (e.kind == ir::DepKind::Flow && e.bytes == 400) found = true;
  }
  EXPECT_TRUE(found) << "produce -> consume must carry the 400-byte array";
}

TEST(HtgBuilder, CommEdgesForBoundaryFlows) {
  auto b = bundle(R"(
    int g = 9;
    int main() {
      int a = g + 1;
      return a;
    }
  )");
  const Node& root = b.graph.node(b.graph.root());
  bool inEdge = false;
  bool outEdge = false;
  for (const Edge& e : root.edges) {
    if (e.from == root.commIn) inEdge = true;
    if (e.to == root.commOut) outEdge = true;
  }
  EXPECT_TRUE(inEdge);
  EXPECT_TRUE(outEdge);
}

TEST(HtgBuilder, SubtreeOpsConsistency) {
  auto b = bundle(R"(int a[100]; int main() {
    for (int i = 0; i < 100; i = i + 1) { a[i] = i * 2; }
    int s = 0;
    for (int i = 0; i < 100; i = i + 1) { s = s + a[i]; }
    return s;
  })");
  const double rootOps = b.graph.subtreeOpsPerExec(b.graph.root());
  EXPECT_NEAR(rootOps, b.profile.totalOps, b.profile.totalOps * 0.05)
      << "root subtree ops must approximate the profiled total";
}

TEST(HtgBuilder, ExecCountsScaledByCallShare) {
  auto b = bundle(R"(
    int a[16];
    void touch(int v[16], int k) { v[k] = k; }
    int main() {
      touch(a, 0);
      touch(a, 1);
      return a[0] + a[1];
    }
  )");
  // Each call site owns half the callee executions.
  int callNodes = 0;
  b.graph.forEach([&](const Node& n) {
    if (n.kind == NodeKind::Call) {
      ++callNodes;
      for (NodeId c : n.children)
        EXPECT_DOUBLE_EQ(b.graph.node(c).execCount, 1.0);
    }
  });
  EXPECT_EQ(callNodes, 2);
}

TEST(HtgBuilder, DotOutputIsWellFormed) {
  auto b = bundle(R"(int a[8]; int main() {
    for (int i = 0; i < 8; i = i + 1) { a[i] = i; }
    return a[1];
  })");
  const std::string dot = toDot(b.graph);
  EXPECT_NE(dot.find("digraph htg"), std::string::npos);
  EXPECT_NE(dot.find("comm-in"), std::string::npos);
  EXPECT_NE(dot.find("comm-out"), std::string::npos);
  EXPECT_NE(dot.find("doall"), std::string::npos);
  // Braces balance.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), std::count(dot.begin(), dot.end(), '}'));
}

TEST(HtgBuilder, HierarchicalCountMatchesStructure) {
  auto b = bundle(R"(int a[8]; int main() {
    for (int i = 0; i < 8; i = i + 1) { a[i] = i; }
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
    return s;
  })");
  // Root + 2 loops.
  EXPECT_EQ(b.graph.hierarchicalCount(), 3);
}

}  // namespace
}  // namespace hetpar::htg
