#include <gtest/gtest.h>

#include "algos/programs.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace itg::lang {
namespace {

TEST(LexerTest, TokenizesOperatorsAndNumbers) {
  auto tokens = Tokenize("a <= 1.5e2 && b != c // comment\n + .5");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 10u);  // incl. EOF
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kLe);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 150.0);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kAndAnd);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kNe);
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kPlus);
  EXPECT_EQ((*tokens)[8].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ((*tokens)[8].number, 0.5);
  EXPECT_EQ((*tokens)[9].kind, TokenKind::kEof);
}

TEST(LexerTest, TracksLineNumbers) {
  auto tokens = Tokenize("a\nb\n  c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].loc.line, 1);
  EXPECT_EQ((*tokens)[1].loc.line, 2);
  EXPECT_EQ((*tokens)[2].loc.line, 3);
  EXPECT_EQ((*tokens)[2].loc.column, 3);
}

TEST(LexerTest, BlockCommentsAndErrors) {
  auto ok = Tokenize("a /* multi \n line */ b");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 3u);
  EXPECT_FALSE(Tokenize("a /* unterminated").ok());
  EXPECT_FALSE(Tokenize("a $ b").ok());
}

TEST(ParserTest, ParsesAllShippedPrograms) {
  for (const std::string& source :
       {PageRankProgram(), LabelPropProgram(8), WccProgram(), BfsProgram(3),
        TriangleCountProgram(), LccProgram()}) {
    auto program = Parse(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_TRUE((*program)->initialize.present);
    EXPECT_TRUE((*program)->traverse.present);
    EXPECT_TRUE((*program)->update.present);
  }
}

TEST(ParserTest, PageRankShape) {
  auto program = Parse(PageRankProgram());
  ASSERT_TRUE(program.ok());
  const Program& p = **program;
  ASSERT_EQ(p.vertex_attrs.size(), 6u);
  EXPECT_EQ(p.vertex_attrs[4].name, "rank");
  EXPECT_EQ(p.vertex_attrs[4].type.scalar, ScalarType::kFloat);
  EXPECT_TRUE(p.vertex_attrs[5].type.is_accumulator);
  EXPECT_EQ(p.vertex_attrs[5].type.accm_op, AccmOp::kSum);
  // Traverse = Let + For.
  ASSERT_EQ(p.traverse.body.size(), 2u);
  EXPECT_EQ(p.traverse.body[0]->kind, Stmt::Kind::kLet);
  EXPECT_EQ(p.traverse.body[1]->kind, Stmt::Kind::kFor);
  EXPECT_EQ(p.traverse.body[1]->for_source_attr, "out_nbrs");
}

TEST(ParserTest, ErrorsAreDiagnosed) {
  // Missing Update UDF.
  EXPECT_FALSE(Parse("Vertex (id, active) Initialize (u) {} "
                     "Traverse (u) {}")
                   .ok());
  // Undeclared type on a non-predefined attribute.
  EXPECT_FALSE(Parse("Vertex (id, mystery) Initialize (u) {} "
                     "Traverse (u) {} Update (u) {}")
                   .ok());
  // Unbalanced braces.
  EXPECT_FALSE(Parse("Vertex (id) Initialize (u) { Traverse (u) {} "
                     "Update (u) {}")
                   .ok());
  // Unknown accumulator op.
  EXPECT_FALSE(Parse("Vertex (id, x: Accm<int, XOR>) Initialize (u) {} "
                     "Traverse (u) {} Update (u) {}")
                   .ok());
}

StatusOr<ProgramInfo> AnalyzeSource(const std::string& source) {
  auto program = Parse(source);
  if (!program.ok()) return program.status();
  // Keep the AST alive through analysis.
  static std::vector<std::unique_ptr<Program>> keep_alive;
  keep_alive.push_back(std::move(*program));
  return Analyze(keep_alive.back().get());
}

TEST(SemaTest, ComputesWalkDepth) {
  auto info = AnalyzeSource(TriangleCountProgram());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->traverse_depth, 3);
  info = AnalyzeSource(PageRankProgram());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->traverse_depth, 1);
}

TEST(SemaTest, RejectsNonChainFor) {
  // u3 iterates u1's neighbors from depth 2 — walks must be chains.
  auto info = AnalyzeSource(R"(
    Vertex (id, active, nbrs)
    Initialize (u1) {}
    Traverse (u1) {
      For u2 in u1.nbrs {
        For u3 in u1.nbrs {
        }
      }
    }
    Update (u1) {}
  )");
  EXPECT_FALSE(info.ok());
}

TEST(SemaTest, RejectsDeepAttributeReads) {
  auto info = AnalyzeSource(R"(
    Vertex (id, active, nbrs, rank: float, s: Accm<float, SUM>)
    Initialize (u) {}
    Traverse (u) {
      For v in u.nbrs {
        v.s.Accumulate(v.rank);
      }
    }
    Update (u) {}
  )");
  EXPECT_FALSE(info.ok());
  EXPECT_NE(info.status().message().find("vs_1"), std::string::npos);
}

TEST(SemaTest, RejectsAccumulatorMisuse) {
  // Reading an accumulator in Traverse.
  EXPECT_FALSE(AnalyzeSource(R"(
    Vertex (id, active, nbrs, s: Accm<float, SUM>)
    Initialize (u) {}
    Traverse (u) {
      Let x = u.s;
    }
    Update (u) {}
  )")
                   .ok());
  // Reading a global accumulator in Traverse (here as an emission value).
  auto global_read = AnalyzeSource(R"(
    Vertex (id, active, nbrs, s: Accm<float, SUM>)
    GlobalVariable (g: Accm<float, SUM>)
    Initialize (u) {}
    Traverse (u) {
      For v in u.nbrs {
        v.s.Accumulate(g);
      }
    }
    Update (u) {}
  )");
  EXPECT_FALSE(global_read.ok());
  EXPECT_NE(global_read.status().message().find("only readable in Update"),
            std::string::npos);
  // Reading a vertex accumulator in a level predicate.
  auto predicate_read = AnalyzeSource(R"(
    Vertex (id, active, nbrs, s: Accm<float, SUM>)
    Initialize (u) {}
    Traverse (u) {
      For v in u.nbrs Where (u.s > 0) {
        v.s.Accumulate(1);
      }
    }
    Update (u) {}
  )");
  EXPECT_FALSE(predicate_read.ok());
  EXPECT_NE(predicate_read.status().message().find("write-only outside"),
            std::string::npos);
  // Assigning an accumulator.
  EXPECT_FALSE(AnalyzeSource(R"(
    Vertex (id, active, nbrs, s: Accm<float, SUM>)
    Initialize (u) { u.s = 1; }
    Traverse (u) {}
    Update (u) {}
  )")
                   .ok());
  // Accumulating a non-accumulator.
  EXPECT_FALSE(AnalyzeSource(R"(
    Vertex (id, active, nbrs, rank: float)
    Initialize (u) {}
    Traverse (u) {
      For v in u.nbrs {
        v.rank.Accumulate(1);
      }
    }
    Update (u) {}
  )")
                   .ok());
}

TEST(SemaTest, RejectsTypeErrors) {
  // Logical op on numbers.
  EXPECT_FALSE(AnalyzeSource(R"(
    Vertex (id, active, nbrs)
    Initialize (u) {}
    Traverse (u) {
      For v in u.nbrs Where (u && v) {}
    }
    Update (u) {}
  )")
                   .ok());
  // Array width mismatch.
  EXPECT_FALSE(AnalyzeSource(R"(
    Vertex (id, active, nbrs, a: Array<float, 4>, b: Array<float, 8>)
    Initialize (u) { u.a = u.b; }
    Traverse (u) {}
    Update (u) {}
  )")
                   .ok());
  // Indexing a scalar.
  EXPECT_FALSE(AnalyzeSource(R"(
    Vertex (id, active, nbrs, x: float)
    Initialize (u) { u.x[0] = 1; }
    Traverse (u) {}
    Update (u) {}
  )")
                   .ok());
}

TEST(SemaTest, RejectsForOutsideTraverse) {
  EXPECT_FALSE(AnalyzeSource(R"(
    Vertex (id, active, nbrs)
    Initialize (u) {
      For v in u.nbrs {}
    }
    Traverse (u) {}
    Update (u) {}
  )")
                   .ok());
}

TEST(SemaTest, BuiltinsResolve) {
  auto info = AnalyzeSource(R"(
    Vertex (id, active, nbrs, x: double)
    Initialize (u) { u.x = 1.0 / V + E; }
    Traverse (u) {}
    Update (u) {}
  )");
  EXPECT_TRUE(info.ok()) << info.status().ToString();
}

TEST(TypeTest, AlgebraClassification) {
  EXPECT_TRUE(IsAbelianGroup(AccmOp::kSum));
  EXPECT_TRUE(IsAbelianGroup(AccmOp::kProduct));
  EXPECT_FALSE(IsAbelianGroup(AccmOp::kMin));
  EXPECT_FALSE(IsAbelianGroup(AccmOp::kMax));
  EXPECT_EQ(AccmIdentity(AccmOp::kSum), 0.0);
  EXPECT_EQ(AccmIdentity(AccmOp::kProduct), 1.0);
  double acc = AccmIdentity(AccmOp::kMin);
  AccmApply(AccmOp::kMin, &acc, 5.0);
  AccmApply(AccmOp::kMin, &acc, 3.0);
  AccmApply(AccmOp::kMin, &acc, 7.0);
  EXPECT_EQ(acc, 3.0);
  EXPECT_EQ(AccmInverse(AccmOp::kSum, 4.0), -4.0);
  EXPECT_EQ(AccmInverse(AccmOp::kProduct, 4.0), 0.25);
}

TEST(TypeTest, ToStringForms) {
  Type t;
  t.scalar = ScalarType::kFloat;
  EXPECT_EQ(t.ToString(), "float");
  t.width = 8;
  EXPECT_EQ(t.ToString(), "Array<float, 8>");
  t.is_accumulator = true;
  t.accm_op = AccmOp::kSum;
  EXPECT_EQ(t.ToString(), "Accm<Array<float, 8>, SUM>");
}

}  // namespace
}  // namespace itg::lang
