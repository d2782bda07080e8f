// Unit tests of the slot-code executor on compiled L_NGA expressions:
// arithmetic semantics (including the documented x/0 = 0 rule), arrays,
// builtins, attribute/row binding, and blocks of lanes.
#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/compiled_program.h"
#include "engine/eval.h"

namespace itg {
namespace {

/// Compiles a tiny program whose Traverse accumulates `expr` so the test
/// can grab a resolved, inlined expression to evaluate.
class EvalTest : public ::testing::Test {
 protected:
  const lang::Expr* CompileExpr(const std::string& expr,
                                const std::string& target = "s") {
    std::string source = R"(
      Vertex (id, active, nbrs, x: double, arr: Array<double, 4>,
              s: Accm<double, SUM>, sa: Accm<Array<double, 4>, SUM>)
      Initialize (u) {}
      Traverse (u) {
        For v in u.nbrs {
          v.)" + target + R"(.Accumulate()" + expr + R"();
        }
      }
      Update (u) {}
    )";
    auto program = CompileProgram(source);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    EXPECT_EQ(program_->traverse.emissions.size(), 1u);
    return program_->traverse.emissions[0].value;
  }

  EvalContext Context() {
    cols_.Init(4, {1, 1, 1, 1, 4, 1, 4});  // id active nbrs x arr s sa
    // x(0) = 2.5; arr(0) = {1, 2, 3, 4}.
    cols_.Cell(3, 0)[0] = 2.5;
    for (int i = 0; i < 4; ++i) cols_.Cell(4, 0)[i] = i + 1.0;
    globals_.clear();
    EvalContext ctx;
    ctx.columns = &cols_;
    ctx.globals = &globals_;
    ctx.num_vertices = 4;
    ctx.num_edges = 10;
    ctx.rows = row_;
    ctx.row_len = 2;
    return ctx;
  }

  /// Lowers `expr` and runs it on the context's rows, `lanes` of them.
  void RunExpr(const lang::Expr& expr, const EvalContext& ctx,
               int lanes = 1) {
    code_ = SlotCode::Value(expr);
    frame_ = EvalFrame(code_);
    Execute(code_, ctx, lanes, &frame_);
  }
  /// Evaluates `expr` on one lane into `out`.
  void Eval(const lang::Expr& expr, const EvalContext& ctx, double* out) {
    RunExpr(expr, ctx);
    std::copy_n(frame_.Value(code_, 0), code_.value_width(), out);
  }
  double EvalScalar(const lang::Expr& expr, const EvalContext& ctx) {
    EXPECT_EQ(expr.type.width, 1);
    RunExpr(expr, ctx);
    return frame_.Value(code_, 0)[0];
  }
  bool EvalBool(const lang::Expr& expr, const EvalContext& ctx) {
    return EvalScalar(expr, ctx) != 0.0;
  }

  std::unique_ptr<CompiledProgram> program_;
  SlotCode code_;
  EvalFrame frame_;
  ColumnSet cols_;
  std::vector<std::vector<double>> globals_;
  VertexId row_[2] = {0, 3};
};

TEST_F(EvalTest, Arithmetic) {
  auto ctx = Context();
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("1 + 2 * 3"), ctx), 7.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("(1 + 2) * 3"), ctx), 9.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("-u.x"), ctx), -2.5);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("7 % 4"), ctx), 3.0);
}

TEST_F(EvalTest, DivisionByZeroIsZero) {
  auto ctx = Context();
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("1 / 0"), ctx), 0.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("u.x / (u.x - u.x)"), ctx),
                   0.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("5 % 0"), ctx), 0.0);
}

TEST_F(EvalTest, RowAndAttributeBinding) {
  auto ctx = Context();
  // `u` denotes the start vertex id (row[0] = 0); `v` the loop vertex.
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("u + 0"), ctx), 0.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("v + 0"), ctx), 3.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("v.id + 0"), ctx), 3.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("u.x"), ctx), 2.5);
}

TEST_F(EvalTest, Builtins) {
  auto ctx = Context();
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("V + E"), ctx), 14.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("Abs(0 - 3)"), ctx), 3.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("Floor(2.9)"), ctx), 2.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("Min(2, 5)"), ctx), 2.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("Max(2, 5)"), ctx), 5.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("MaxElem(u.arr)"), ctx),
                   4.0);
}

TEST_F(EvalTest, Comparisons) {
  auto ctx = Context();
  EXPECT_TRUE(EvalBool(*CompileExpr("u < v"), ctx));
  EXPECT_FALSE(EvalBool(*CompileExpr("v <= u"), ctx));
  EXPECT_TRUE(EvalBool(*CompileExpr("u.x == 2.5"), ctx));
  EXPECT_TRUE(EvalBool(*CompileExpr("u.x != 2"), ctx));
  EXPECT_TRUE(EvalBool(*CompileExpr("u < v && u.x > 2"), ctx));
  EXPECT_TRUE(EvalBool(*CompileExpr("u > v || u.x > 2"), ctx));
  EXPECT_TRUE(EvalBool(*CompileExpr("!(u > v)"), ctx));
}

TEST_F(EvalTest, ArrayExpressions) {
  auto ctx = Context();
  double out[kMaxAttrWidth];
  const lang::Expr* sum = CompileExpr("u.arr + 1", "sa");
  ASSERT_EQ(sum->type.width, 4);
  Eval(*sum, ctx, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[3], 5.0);

  const lang::Expr* scaled = CompileExpr("u.arr / 2", "sa");
  Eval(*scaled, ctx, out);
  EXPECT_DOUBLE_EQ(out[1], 1.0);

  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("u.arr[2]"), ctx), 3.0);
  EXPECT_DOUBLE_EQ(EvalScalar(*CompileExpr("u.arr[u.id]"), ctx), 1.0);
}

TEST_F(EvalTest, ShortCircuitAvoidsRightSide) {
  auto ctx = Context();
  // The right operand divides by zero (yielding 0, not a trap), but this
  // still checks the evaluation path is well-defined.
  EXPECT_FALSE(EvalBool(*CompileExpr("u > v && 1 / 0 == 0"), ctx));
  EXPECT_TRUE(EvalBool(*CompileExpr("u < v || 1 / 0 == 1"), ctx));
}

// Four lanes, one per vertex: x = {2.5, 0, 5, 1.5}.
class EvalBlockTest : public EvalTest {
 protected:
  EvalContext BlockContext() {
    EvalContext ctx = Context();
    cols_.Cell(3, 2)[0] = 5;
    cols_.Cell(3, 3)[0] = 1.5;
    for (VertexId v = 1; v < 4; ++v) {
      for (int i = 0; i < 4; ++i) cols_.Cell(4, v)[i] = 10.0 * v + i + 1;
    }
    ctx.rows = lanes_;
    ctx.row_len = 1;
    return ctx;
  }

  /// Runs `source` on all four lanes and returns each lane's value; adds
  /// the nodes evaluated to `evals`.
  std::vector<double> Lanes(const std::string& source, uint64_t* evals) {
    const lang::Expr* expr = CompileExpr(source);
    EvalContext ctx = BlockContext();
    ctx.eval_counter = evals;
    RunExpr(*expr, ctx, 4);
    std::vector<double> out;
    for (int l = 0; l < 4; ++l) out.push_back(frame_.Value(code_, l)[0]);
    return out;
  }

  /// The nodes `source` evaluates when each lane runs alone.
  uint64_t LaneByLaneEvals(const std::string& source) {
    const lang::Expr* expr = CompileExpr(source);
    EvalContext ctx = BlockContext();
    uint64_t evals = 0;
    ctx.eval_counter = &evals;
    for (int l = 0; l < 4; ++l) {
      ctx.rows = lanes_ + l;
      RunExpr(*expr, ctx);
    }
    return evals;
  }

  VertexId lanes_[4] = {0, 1, 2, 3};
};

TEST_F(EvalBlockTest, ShortCircuitCountsOverNarrowedSelection) {
  // The && node and its left operand run on all 4 lanes (4 + 3 · 4); the
  // right operand only where x > 1, lanes 0, 2 and 3 (3 · 3).
  uint64_t evals = 0;
  EXPECT_EQ(Lanes("u.x > 1 && u.x < 3", &evals),
            (std::vector<double>{1, 0, 0, 1}));
  EXPECT_EQ(evals, 25u);
  EXPECT_EQ(LaneByLaneEvals("u.x > 1 && u.x < 3"), 25u);

  // The || right operand runs where `u.x < 1` is false: lanes 0, 2, 3.
  evals = 0;
  EXPECT_EQ(Lanes("u.x < 1 || u.x > 2", &evals),
            (std::vector<double>{1, 1, 1, 0}));
  EXPECT_EQ(evals, 25u);
  EXPECT_EQ(LaneByLaneEvals("u.x < 1 || u.x > 2"), 25u);

  // Nested: the || runs on lanes {0, 2, 3} (its node and `u.id < 2`, 4
  // nodes each) and its right operand on those with id >= 2, {2, 3} (3
  // nodes each).
  evals = 0;
  EXPECT_EQ(Lanes("u.x > 1 && (u.id < 2 || u.x < 2)", &evals),
            (std::vector<double>{1, 0, 0, 1}));
  EXPECT_EQ(evals, 16u + 12u + 6u);
  EXPECT_EQ(LaneByLaneEvals("u.x > 1 && (u.id < 2 || u.x < 2)"), 34u);
}

TEST_F(EvalBlockTest, IndexIsReadPerLane) {
  // arr(v) = {10v + 1, ..., 10v + 4} for v >= 1; arr(0) = {1, 2, 3, 4}.
  uint64_t evals = 0;
  EXPECT_EQ(Lanes("u.arr[u.id]", &evals),
            (std::vector<double>{1, 12, 23, 34}));
  EXPECT_EQ(Lanes("u.arr[3 - u.id]", &evals),
            (std::vector<double>{4, 13, 22, 31}));
  // The index node, its base and its index: 3 and 5 nodes per lane.
  EXPECT_EQ(evals, 4u * 3u + 4u * 5u);
}

}  // namespace
}  // namespace itg

