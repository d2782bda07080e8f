// Robustness of the language front end: randomly corrupted variants of
// valid programs must come back as ParseError/CompileError — never a
// crash, never a silently-compiled wrong program shape — and whatever
// compiles must lower to slot code whose Initialize and Update bodies
// run.
#include <gtest/gtest.h>

#include "algos/programs.h"
#include "common/rng.h"
#include "compiler/compiled_program.h"
#include "engine/eval.h"

namespace itg {
namespace {

/// Lowers `program` and runs its Initialize, then its Update body, once
/// over a block of four vertices; returns the columns they wrote.
ColumnSet LowerAndRun(const CompiledProgram& program) {
  const ProgramCode code(program);
  EvalFrame frame = code.NewFrame();
  std::vector<int> widths;
  for (const auto& attr : program.vertex_attrs) {
    widths.push_back(attr.type.width);
  }
  ColumnSet cols;
  cols.Init(4, widths);
  std::vector<std::vector<double>> globals;
  for (const auto& g : program.globals) {
    globals.emplace_back(static_cast<size_t>(g.type.width), 0.0);
  }
  EvalContext ctx = BodyContext(&cols, &globals, 4, 8);
  for (int v = 0; v < 4; ++v) frame.lanes()[v] = v;
  ctx.rows = frame.lanes();
  ctx.row_len = 1;
  Execute(code.init, ctx, 4, &frame);
  Execute(code.update, ctx, 4, &frame);
  return cols;
}

/// Deletes, duplicates or swaps random characters of a valid source.
std::string Corrupt(const std::string& source, Rng* rng, int edits) {
  std::string out = source;
  for (int i = 0; i < edits && !out.empty(); ++i) {
    size_t pos = rng->Uniform(out.size());
    switch (rng->Uniform(3)) {
      case 0:
        out.erase(pos, 1);
        break;
      case 1:
        out.insert(pos, 1, out[pos]);
        break;
      default:
        if (pos + 1 < out.size()) std::swap(out[pos], out[pos + 1]);
        break;
    }
  }
  return out;
}

class FrontendFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FrontendFuzz, CorruptedProgramsNeverCrashTheCompiler) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const std::string sources[] = {
      PageRankProgram(),        LabelPropProgram(4), WccProgram(),
      BfsProgram(3),            TriangleCountProgram(),
      LccProgram(),             QuantizedPageRankProgram(),
  };
  for (const std::string& source : sources) {
    for (int edits : {1, 3, 8, 25}) {
      std::string corrupted = Corrupt(source, &rng, edits);
      // Must return a Status (any of ok/parse/compile) without crashing.
      auto result = CompileProgram(corrupted);
      if (!result.ok()) {
        StatusCode code = result.status().code();
        EXPECT_TRUE(code == StatusCode::kParseError ||
                    code == StatusCode::kCompileError)
            << result.status().ToString();
        continue;
      }
      LowerAndRun(**result);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontendFuzz, ::testing::Range(1, 9));

TEST(FrontendRobustness, GarbageInputs) {
  const char* garbage[] = {
      "",
      "!!!",
      "Vertex",
      "Vertex (",
      "Vertex (id,,)",
      "Vertex (id) Vertex (id)",
      "Vertex (id, active) Initialize (u) { u.active = ; } "
      "Traverse (u) {} Update (u) {}",
      "Vertex (id, active) Initialize (u) { For } Traverse (u) {} "
      "Update (u) {}",
      "Vertex (id, active, x: Array<float, -3>) Initialize (u) {} "
      "Traverse (u) {} Update (u) {}",
      "Vertex (id, active, x: Accm<Accm<int, SUM>, SUM>) "
      "Initialize (u) {} Traverse (u) {} Update (u) {}",
      "/* unterminated Vertex (id)",
  };
  for (const char* source : garbage) {
    auto result = CompileProgram(source);
    EXPECT_FALSE(result.ok()) << "accepted: " << source;
  }
}

TEST(FrontendRobustness, DeeplyNestedExpressionsParse) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  std::string source = "Vertex (id, active, nbrs, x: double) "
                       "Initialize (u) { u.x = " + expr + "; } "
                       "Traverse (u) {} Update (u) {}";
  auto result = CompileProgram(source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The left-nested sum lowers to two slots: each + overwrites its left
  // operand.
  EXPECT_EQ(SlotCode::Body(*(*result)->init_body).slot_doubles(), 2);
  const ColumnSet cols = LowerAndRun(**result);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(cols.Cell(3, v)[0], 201.0);
}

TEST(FrontendRobustness, DeeplyNestedLoopsCompile) {
  // A 6-hop walk chain: beyond anything the paper needs, still valid.
  std::string source = R"(
    Vertex (id, active, nbrs, s: Accm<long, SUM>)
    Initialize (u0) { u0.active = true; }
    Traverse (u0) {
      For u1 in u0.nbrs {
        For u2 in u1.nbrs {
          For u3 in u2.nbrs {
            For u4 in u3.nbrs {
              For u5 in u4.nbrs {
                For u6 in u5.nbrs {
                  u0.s.Accumulate(1);
                }
              }
            }
          }
        }
      }
    }
    Update (u0) {}
  )";
  auto result = CompileProgram(source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->walk_length(), 6);
}

}  // namespace
}  // namespace itg
