#include <gtest/gtest.h>

#include "algos/programs.h"
#include "compiler/compiled_program.h"
#include "gsa/plan.h"

namespace itg {
namespace {

TEST(CompilerTest, PageRankWalkSpec) {
  auto program = CompileProgram(PageRankProgram());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledProgram& p = **program;
  EXPECT_EQ(p.walk_length(), 1);
  ASSERT_EQ(p.traverse.emissions.size(), 1u);
  const Emission& e = p.traverse.emissions[0];
  EXPECT_EQ(e.stmt_depth, 1);
  EXPECT_FALSE(e.is_global);
  EXPECT_EQ(p.vertex_attrs[e.target].name, "sum");
  EXPECT_EQ(e.target_depth, 1);
  EXPECT_EQ(e.op, lang::AccmOp::kSum);
  // The Let was inlined: the emission value is rank / out_degree.
  EXPECT_EQ(e.value->kind, lang::Expr::Kind::kBinary);
  EXPECT_EQ(e.value->binary_op, lang::BinaryOp::kDiv);
  EXPECT_FALSE(p.traverse.closes_to_start);
  // rank and out_degree are traverse-read attributes.
  EXPECT_EQ(p.traverse_read_attrs.size(), 2u);
}

TEST(CompilerTest, TriangleCountWalkSpec) {
  auto program = CompileProgram(TriangleCountProgram());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledProgram& p = **program;
  EXPECT_EQ(p.walk_length(), 3);
  EXPECT_TRUE(p.traverse.closes_to_start);
  ASSERT_EQ(p.traverse.emissions.size(), 1u);
  EXPECT_TRUE(p.traverse.emissions[0].is_global);
  EXPECT_EQ(p.traverse.emissions[0].stmt_depth, 3);
  // Predicate decomposition: ordering and closing fast paths.
  EXPECT_EQ(p.traverse.levels[0].gt_pos, 0);  // u1 < u2
  EXPECT_EQ(p.traverse.levels[1].gt_pos, 1);  // u2 < u3
  EXPECT_EQ(p.traverse.levels[2].eq_pos, 0);  // u4 == u1
  EXPECT_TRUE(p.traverse.levels[2].general.empty());
}

TEST(CompilerTest, LccTargetsStartVertex) {
  auto program = CompileProgram(LccProgram());
  ASSERT_TRUE(program.ok());
  const CompiledProgram& p = **program;
  ASSERT_EQ(p.traverse.emissions.size(), 1u);
  EXPECT_EQ(p.traverse.emissions[0].stmt_depth, 3);
  EXPECT_EQ(p.traverse.emissions[0].target_depth, 0);  // u1.tri
}

TEST(CompilerTest, GuardsFromIfStatements) {
  auto program = CompileProgram(R"(
    Vertex (id, active, nbrs, rank: float, s: Accm<float, SUM>)
    Initialize (u) {}
    Traverse (u) {
      For v in u.nbrs {
        If (u.rank > 0.5) {
          v.s.Accumulate(1);
        } Else {
          v.s.Accumulate(2);
        }
      }
    }
    Update (u) {}
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledProgram& p = **program;
  ASSERT_EQ(p.traverse.emissions.size(), 2u);
  ASSERT_EQ(p.traverse.emissions[0].guards.size(), 1u);
  EXPECT_TRUE(p.traverse.emissions[0].guards[0].second);
  EXPECT_FALSE(p.traverse.emissions[1].guards[0].second);
}

TEST(CompilerTest, BuiltInEmissionsAreStartInvariant) {
  // Every built-in program reads only the start vertex's attributes, so
  // each emission is evaluated once per start, not once per walk.
  for (const std::string& source :
       {PageRankProgram(), QuantizedPageRankProgram(), LabelPropProgram(4),
        QuantizedLabelPropProgram(4), WccProgram(), BfsProgram(0),
        TriangleCountProgram(), LccProgram()}) {
    auto program = CompileProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ASSERT_FALSE((*program)->traverse.emissions.empty());
    for (const Emission& e : (*program)->traverse.emissions) {
      EXPECT_TRUE(e.start_invariant) << source;
    }
  }
}

TEST(CompilerTest, DeeperVertexReadsAreNotStartInvariant) {
  // A guard or value that reads a vertex bound below the start varies
  // from walk to walk; `u.id` alone does not.
  auto program = CompileProgram(R"(
    Vertex (id, active, out_nbrs, acc: Accm<double, SUM>)
    Initialize (u) {}
    Traverse (u) {
      For v in u.out_nbrs {
        If (v.id > u.id) {
          v.acc.Accumulate(u.id + v.id);
        }
        v.acc.Accumulate(u.id);
        If (u.id > 3) {
          v.acc.Accumulate(v);
        }
      }
    }
    Update (u) {}
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const std::vector<Emission>& emissions = (*program)->traverse.emissions;
  ASSERT_EQ(emissions.size(), 3u);
  EXPECT_FALSE(emissions[0].start_invariant);  // guard and value read v
  EXPECT_TRUE(emissions[1].start_invariant);
  EXPECT_FALSE(emissions[2].start_invariant);  // value is the vertex v
}

TEST(CompilerTest, RejectsSiblingForLoops) {
  auto program = CompileProgram(R"(
    Vertex (id, active, nbrs)
    Initialize (u) {}
    Traverse (u) {
      For v in u.nbrs {}
      For w in u.nbrs {}
    }
    Update (u) {}
  )");
  EXPECT_FALSE(program.ok());
}

TEST(CompilerTest, RequiresActiveAttribute) {
  auto program = CompileProgram(R"(
    Vertex (id, nbrs)
    Initialize (u) {}
    Traverse (u) {}
    Update (u) {}
  )");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("active"), std::string::npos);
}

TEST(CompilerTest, ExplainShowsBothPlans) {
  auto program = CompileProgram(TriangleCountProgram());
  ASSERT_TRUE(program.ok());
  std::string explain = (*program)->Explain();
  EXPECT_NE(explain.find("One-shot Traverse plan"), std::string::npos);
  EXPECT_NE(explain.find("Incremental Traverse plan"), std::string::npos);
  EXPECT_NE(explain.find("Walk"), std::string::npos);
  EXPECT_NE(explain.find("Accumulate"), std::string::npos);
}

TEST(GsaPlanTest, IncrementalizeWalkRule7) {
  // Walk(vs, es1, es2) -> Union of 3 sub-queries, one delta position each.
  auto walk = gsa::PlanNode::Make("Walk", "k=2");
  walk->children.push_back(gsa::PlanNode::Make("Stream", "vs1"));
  walk->children.push_back(gsa::PlanNode::Make("Stream", "es1"));
  walk->children.push_back(gsa::PlanNode::Make("Stream", "es2"));
  auto delta = gsa::Incrementalize(*walk);
  EXPECT_EQ(delta->op, "Union");
  ASSERT_EQ(delta->children.size(), 3u);
  // q1: (Δvs1, es1, es2)
  EXPECT_EQ(delta->children[0]->children[0]->op, "DeltaStream");
  EXPECT_EQ(delta->children[0]->children[1]->detail, "es1");
  // q2: (vs1', Δes1, es2)
  EXPECT_EQ(delta->children[1]->children[0]->detail, "vs1'");
  EXPECT_EQ(delta->children[1]->children[1]->op, "DeltaStream");
  EXPECT_EQ(delta->children[1]->children[2]->detail, "es2");
  // q3: (vs1', es1', Δes2)
  EXPECT_EQ(delta->children[2]->children[1]->detail, "es1'");
  EXPECT_EQ(delta->children[2]->children[2]->op, "DeltaStream");
}

TEST(GsaPlanTest, LinearRulesPushDeltaThrough) {
  // Accumulate(Map(Filter(Stream))) — rules ⑥②① compose.
  auto stream = gsa::PlanNode::Make("Stream", "vs");
  auto filter = gsa::PlanNode::Make("Filter", "active");
  filter->children.push_back(std::move(stream));
  auto map = gsa::PlanNode::Make("Map", "val");
  map->children.push_back(std::move(filter));
  auto accm = gsa::PlanNode::Make("Accumulate", "sum");
  accm->children.push_back(std::move(map));
  auto delta = gsa::Incrementalize(*accm);
  EXPECT_EQ(delta->op, "Accumulate");
  EXPECT_EQ(delta->children[0]->op, "Map");
  EXPECT_EQ(delta->children[0]->children[0]->op, "Filter");
  EXPECT_EQ(delta->children[0]->children[0]->children[0]->op, "DeltaStream");
}

TEST(GsaPlanTest, ExplainIndentsTree) {
  auto map = gsa::PlanNode::Make("Map", "x");
  map->children.push_back(gsa::PlanNode::Make("Stream", "vs"));
  EXPECT_EQ(gsa::Explain(*map), "Map[x]\n  Stream[vs]\n");
}

}  // namespace
}  // namespace itg
