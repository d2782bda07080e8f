// Unit tests of Initialize/Update bodies (the fused σ/Π/← form of the
// per-vertex UDFs) on the slot-code executor: one vertex at a time, and
// blocks of vertices whose lanes take different branches.
#include <gtest/gtest.h>

#include "compiler/compiled_program.h"
#include "engine/eval.h"

namespace itg {
namespace {

class StmtInterpTest : public ::testing::Test {
 protected:
  void Compile(const std::string& init_body,
               const std::string& update_body) {
    std::string source = R"(
      Vertex (id, active, nbrs, x: double, y: long,
              arr: Array<double, 3>, s: Accm<double, SUM>)
      GlobalVariable (g: double)
      Initialize (u) {)" + init_body + R"(}
      Traverse (u) {}
      Update (u) {)" + update_body + R"(}
    )";
    auto program = CompileProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    cols_.Init(4, {1, 1, 1, 1, 1, 3, 1});
    globals_ = {{0.0}};
  }

  /// Runs `body` for the vertices `lanes`, as one block.
  void RunBlock(const std::vector<lang::StmtPtr>& body,
                std::vector<VertexId> lanes) {
    const SlotCode code = SlotCode::Body(body);
    EvalFrame frame(code);
    EvalContext ctx = BodyContext(&cols_, &globals_, 4, 9);
    ctx.rows = lanes.data();
    ctx.row_len = 1;
    ctx.eval_counter = &evals_;
    ctx.assigns_applied = &assigns_;
    Execute(code, ctx, static_cast<int>(lanes.size()), &frame);
  }
  /// Runs `body` for vertex `v`.
  void RunFor(const std::vector<lang::StmtPtr>& body, VertexId v) {
    RunBlock(body, {v});
  }

  std::unique_ptr<CompiledProgram> program_;
  ColumnSet cols_;
  std::vector<std::vector<double>> globals_;
  uint64_t evals_ = 0;
  uint64_t assigns_ = 0;
};

TEST_F(StmtInterpTest, ScalarAssignments) {
  Compile("u.x = 2 * 3 + 1; u.y = u.x + u.id;", "");
  RunFor(*program_->init_body, 2);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 2)[0], 7.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(4, 2)[0], 9.0);
  // Other vertices untouched.
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 1)[0], 0.0);
}

TEST_F(StmtInterpTest, ArrayAssignBroadcastAndIndexed) {
  Compile("u.arr = 5; u.arr[1] = u.id;", "");
  RunFor(*program_->init_body, 3);
  EXPECT_DOUBLE_EQ(cols_.Cell(5, 3)[0], 5.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(5, 3)[1], 3.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(5, 3)[2], 5.0);
}

TEST_F(StmtInterpTest, IfElseBranches) {
  Compile("If (u.id < 2) { u.x = 1; } Else { u.x = 2; }", "");
  for (VertexId v = 0; v < 4; ++v) {
    RunFor(*program_->init_body, v);
  }
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 0)[0], 1.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 1)[0], 1.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 2)[0], 2.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 3)[0], 2.0);
}

TEST_F(StmtInterpTest, UpdateReadsAccumulator) {
  Compile("", "u.x = 0.5 * u.s; If (u.x > 1) { u.active = true; }");
  cols_.Cell(6, 1)[0] = 4.0;  // accumulator s
  RunFor(*program_->update_body, 1);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 1)[0], 2.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(1, 1)[0], 1.0);  // active set
}

TEST_F(StmtInterpTest, GlobalAssignment) {
  Compile("", "g = u.id + V;");
  RunFor(*program_->update_body, 3);
  EXPECT_DOUBLE_EQ(globals_[0][0], 7.0);
}

TEST_F(StmtInterpTest, LetsAreInlined) {
  Compile("Let a = 2; Let b = a * 3; u.x = a + b;", "");
  RunFor(*program_->init_body, 0);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 0)[0], 8.0);
}

TEST_F(StmtInterpTest, ScopedLetsInsideIf) {
  Compile("If (u.id == 0) { Let t = 10; u.x = t; } "
          "Else { Let t = 20; u.x = t; }",
          "");
  RunFor(*program_->init_body, 0);
  RunFor(*program_->init_body, 1);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 0)[0], 10.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 1)[0], 20.0);
}

TEST_F(StmtInterpTest, BlockLanesTakeMixedBranches) {
  // Lanes out of vertex order; the If sends lanes 1 and 3 (vertices 0
  // and 1) to the then branch and the others to the else branch, whose
  // nested If splits its lanes again.
  Compile("If (u.id < 2) { u.x = 1; } "
          "Else { If (u.id == 3) { u.x = 3; } Else { u.x = 2; } u.y = 7; }",
          "");
  RunBlock(*program_->init_body, {3, 0, 2, 1});
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 0)[0], 1.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 1)[0], 1.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 2)[0], 2.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(3, 3)[0], 3.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(4, 0)[0], 0.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(4, 1)[0], 0.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(4, 2)[0], 7.0);
  EXPECT_DOUBLE_EQ(cols_.Cell(4, 3)[0], 7.0);
  // The outer condition (3 nodes) on 4 lanes; `u.x = 1` (1) on 2; the
  // inner condition (3), one of `u.x = 3` / `u.x = 2` (1) and
  // `u.y = 7` (1) on the other 2.
  EXPECT_EQ(evals_, 4u * 3u + 2u * 1u + 2u * (3u + 1u + 1u));
  EXPECT_EQ(assigns_, 2u * 1u + 2u * 2u);
}

TEST_F(StmtInterpTest, BlockMatchesVertexByVertex) {
  // Each lane's statements see that lane's earlier assignments, as when
  // the vertices run one at a time.
  Compile("u.arr = u.id; u.arr[u.id % 3] = u.arr[0] * 10; "
          "u.x = MaxElem(u.arr) + u.arr[2];",
          "");
  RunBlock(*program_->init_body, {0, 1, 2, 3});
  const std::vector<double> block_x = {cols_.Cell(3, 0)[0],
                                       cols_.Cell(3, 1)[0],
                                       cols_.Cell(3, 2)[0],
                                       cols_.Cell(3, 3)[0]};
  const uint64_t block_evals = evals_;
  evals_ = 0;
  cols_.Init(4, {1, 1, 1, 1, 1, 3, 1});
  for (VertexId v = 0; v < 4; ++v) RunFor(*program_->init_body, v);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(cols_.Cell(3, v)[0], block_x[static_cast<size_t>(v)]);
  }
  // Vertex 2: arr = {2, 2, 20}; x = 20 + 20.
  EXPECT_DOUBLE_EQ(block_x[2], 40.0);
  EXPECT_EQ(evals_, block_evals);
}

}  // namespace
}  // namespace itg

