// EXPLAIN ANALYZE coverage: the ExecutionProfile container semantics,
// the annotated plan rendering and Graphviz export over real PR / TC
// incremental runs, the schema-v2 run-report sections, and the baseline
// engines' per-phase profiles (GraphBolt / DD parity with the GSA
// engine's reporting).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algos/programs.h"
#include "baselines/ddflow.h"
#include "baselines/graphbolt.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gsa/plan.h"
#include "gsa/profile.h"
#include "harness/run_report.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

// ---------------------------------------------------------------------------
// ExecutionProfile container semantics
// ---------------------------------------------------------------------------

TEST(ExecutionProfileTest, ResetKeepsRegistrationsAndZeroesCounters) {
  gsa::ExecutionProfile p;
  p.RegisterOp(3, "Walk", "k=2");
  p.Op(3).edges = 17;
  p.supersteps().push_back({});
  p.ResetCounters();
  ASSERT_EQ(p.ops().size(), 1u);
  EXPECT_EQ(p.ops().at(3).op, "Walk");
  EXPECT_EQ(p.ops().at(3).detail, "k=2");
  EXPECT_TRUE(p.Op(3).IsZero());
  EXPECT_TRUE(p.supersteps().empty());
}

TEST(ExecutionProfileTest, MergeSumsCountersAndConcatenatesTimeline) {
  gsa::ExecutionProfile a;
  a.RegisterOp(0, "Walk", "k=1");
  a.Op(0).in_pos = 5;
  a.Op(0).wall_nanos = 100;
  gsa::SuperstepProfile row;
  row.superstep = 0;
  row.emissions = 9;
  a.supersteps().push_back(row);

  gsa::ExecutionProfile b;
  b.Op(0).in_pos = 7;
  b.Op(1).out_neg = 2;
  b.supersteps().push_back(row);

  a.Merge(b);
  EXPECT_EQ(a.Op(0).in_pos, 12u);
  EXPECT_EQ(a.Op(1).out_neg, 2u);
  EXPECT_EQ(a.supersteps().size(), 2u);
}

TEST(ExecutionProfileTest, SameWorkIgnoresMeasuredTime) {
  gsa::ExecutionProfile a;
  a.Op(0).edges = 10;
  a.Op(0).wall_nanos = 111;
  gsa::ExecutionProfile b;
  b.Op(0).edges = 10;
  b.Op(0).wall_nanos = 999;
  EXPECT_TRUE(a.SameWork(b));
  b.Op(0).edges = 11;
  EXPECT_FALSE(a.SameWork(b));
  // A silently-absent operator id is a difference, not a pass.
  gsa::ExecutionProfile c;
  EXPECT_FALSE(a.SameWork(c));
}

TEST(ExecutionProfileTest, WorkFingerprintTracksWorkNotTime) {
  gsa::ExecutionProfile a;
  a.Op(2).pruned = 4;
  const std::vector<uint64_t> fp = a.WorkFingerprint();
  a.Op(2).wall_nanos = 123456;
  EXPECT_EQ(a.WorkFingerprint(), fp);
  a.Op(2).pruned = 5;
  EXPECT_NE(a.WorkFingerprint(), fp);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE over real runs
// ---------------------------------------------------------------------------

struct RunResult {
  std::unique_ptr<CompiledProgram> program;
  gsa::ExecutionProfile profile;  // merged across all runs
};

/// Compiles `source`, runs one-shot plus one incremental batch over a
/// small RMAT-free graph, and merges the per-run profiles.
RunResult RunSmall(const std::string& source, bool symmetric,
                   const std::string& tag) {
  auto compiled = CompileProgram(source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  RunResult result;
  result.program = std::move(compiled).value();

  const VertexId n = 8;
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0},
                             {2, 0}, {4, 5}, {5, 6}, {6, 4}};
  if (symmetric) edges = SymmetrizeEdges(edges);
  auto store_or = DynamicGraphStore::Create(
      ::testing::TempDir() + "/ea_" + tag, n, edges, {}, &GlobalMetrics());
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();

  EngineOptions opts;
  opts.fixed_supersteps = 4;
  Engine engine(store.get(), result.program.get(), opts);
  result.program->RegisterOperators(&result.profile);

  EXPECT_TRUE(engine.RunOneShot(0).ok());
  result.profile.Merge(engine.last_profile());

  std::vector<EdgeDelta> batch = {{{0, 2}, 1}, {{1, 2}, -1}};
  if (symmetric) {
    batch.push_back({{2, 0}, 1});
    batch.push_back({{2, 1}, -1});
  }
  auto ts = store->ApplyMutations(batch);
  EXPECT_TRUE(ts.ok()) << ts.status().ToString();
  EXPECT_TRUE(engine.RunIncremental(*ts).ok());
  result.profile.Merge(engine.last_profile());
  return result;
}

TEST(ExplainAnalyzeTest, PageRankPlansAnnotatedWithCounters) {
  RunResult r = RunSmall(PageRankProgram(), /*symmetric=*/false, "pr");
  const std::string text = r.program->ExplainAnalyze(r.profile);

  EXPECT_NE(text.find("=== One-shot Traverse plan (GSA) ==="),
            std::string::npos);
  EXPECT_NE(text.find("=== Incremental Traverse plan (Table-4 rules) ==="),
            std::string::npos);
  EXPECT_NE(text.find("=== Initialize plan ==="), std::string::npos);
  EXPECT_NE(text.find("=== Update plan ==="), std::string::npos);
  // Every plan operator carries its stable id, and the ones that did work
  // carry counters: the PR walk scanned adjacency and emitted tuples.
  EXPECT_NE(text.find("(#"), std::string::npos) << text;
  EXPECT_NE(text.find("in=+"), std::string::npos) << text;
  EXPECT_NE(text.find("edges="), std::string::npos) << text;
  EXPECT_NE(text.find("wall="), std::string::npos) << text;
  // The incremental tree is the Table-4 rule-7 union of Δ-position walks.
  EXPECT_NE(text.find("Union[rule 7]"), std::string::npos) << text;

  // Plain Explain stays free of runtime annotations (golden-stable).
  EXPECT_EQ(r.program->Explain().find("(#"), std::string::npos);
}

TEST(ExplainAnalyzeTest, TriangleSubWalksShareTheWalkOperatorId) {
  RunResult r = RunSmall(TriangleCountProgram(), /*symmetric=*/true, "tc");
  const std::string text = r.program->ExplainAnalyze(r.profile);

  // Rule 7 splits the 2-level TC walk into q1/q2 sub-walks; both are
  // clones of the same physical walk, so both print the same stable id.
  auto id_after = [&](const std::string& marker) {
    size_t at = text.find(marker);
    EXPECT_NE(at, std::string::npos) << marker << " missing:\n" << text;
    size_t open = text.find("(#", at);
    EXPECT_NE(open, std::string::npos);
    size_t close = text.find(')', open);
    return text.substr(open, close - open + 1);
  };
  EXPECT_EQ(id_after(": q1]"), id_after(": q2]"));
}

TEST(ExplainAnalyzeTest, DotExportShadesHotOperators) {
  RunResult r = RunSmall(PageRankProgram(), /*symmetric=*/false, "dot");
  const std::string dot =
      gsa::PlanToDot(*r.program->oneshot_plan, &r.profile);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("rankdir=BT"), std::string::npos);
  EXPECT_NE(dot.find("\\n#"), std::string::npos) << dot;
  // The walk scanned edges, so at least one node is heat-shaded.
  EXPECT_NE(dot.find("style=filled"), std::string::npos) << dot;
  EXPECT_NE(dot.find("->"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Run report schema v2
// ---------------------------------------------------------------------------

TEST(RunReportV2Test, ProfileSectionsSerializedWhenAttached) {
  gsa::ExecutionProfile profile;
  profile.RegisterOp(0, "Walk", "k=1");
  profile.Op(0).in_pos = 3;
  gsa::SuperstepProfile row;
  row.superstep = 0;
  row.emissions = 2;
  profile.supersteps().push_back(row);

  RunReport report("explain_analyze_test");
  RunStats stats;
  report.AddRun("with_profile", stats, {}, 0, &profile);
  report.AddRun("without_profile", stats);
  const std::string json = report.ToJson();

  EXPECT_NE(json.find("\"schema_version\":10"), std::string::npos);
  EXPECT_NE(json.find("\"operators\":[{\"id\":0,\"op\":\"Walk\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"supersteps_profile\":["), std::string::npos);
  // The profile-free run must not carry (empty) v2 sections.
  size_t second = json.find("\"without_profile\"");
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(json.find("\"operators\"", second), std::string::npos);
}

// ---------------------------------------------------------------------------
// Baseline per-phase profiles (report parity with the GSA engine)
// ---------------------------------------------------------------------------

TEST(BaselineProfileTest, GraphBoltRecordsInitialAndRefinePhases) {
  // 3-cycle, 2 supersteps: the initial sweep touches every vertex every
  // superstep and scans each in-edge once per superstep.
  MemoryBudget budget;
  GraphBoltEngine grb(GraphBoltEngine::Algo::kPageRank, 1, 2, &budget);
  ASSERT_TRUE(grb.RunInitial(3, {{0, 1}, {1, 2}, {2, 0}}).ok());
  const gsa::ExecutionProfile& p = grb.profile();
  ASSERT_EQ(p.ops().size(), 2u);
  EXPECT_EQ(p.ops().at(0).op, "Apply");
  const gsa::OperatorCounters* initial = p.Find(0);
  ASSERT_NE(initial, nullptr);
  EXPECT_EQ(initial->in_pos, 6u);   // 3 vertices x 2 supersteps
  EXPECT_EQ(initial->out_pos, 6u);
  EXPECT_EQ(initial->edges, 6u);    // 3 in-edges x 2 supersteps
  ASSERT_EQ(p.supersteps().size(), 2u);
  EXPECT_FALSE(p.supersteps()[0].incremental);
  EXPECT_EQ(p.supersteps()[0].active_vertices, 3u);

  // Refinement resets the profile: only the refine phase carries work,
  // and its input count is exactly the refined-vertices metric.
  ASSERT_TRUE(grb.ApplyMutationsAndRefine({{{0, 2}, 1}}).ok());
  const gsa::OperatorCounters* refine = grb.profile().Find(1);
  ASSERT_NE(refine, nullptr);
  EXPECT_TRUE(grb.profile().Find(0)->IsZero());
  EXPECT_EQ(refine->in_pos, grb.last_refined());
  EXPECT_GT(refine->in_pos, 0u);
  // Changed + deadband-absorbed refinements partition the refined set.
  EXPECT_EQ(refine->out_pos + refine->pruned, refine->in_pos);
  ASSERT_EQ(grb.profile().supersteps().size(), 2u);
  EXPECT_TRUE(grb.profile().supersteps()[0].incremental);
}

TEST(BaselineProfileTest, DdTrianglesProfileMatchesTriangleCount) {
  // One triangle (0,1,2): a single two-path 0→1→2 closed by edge (0,2).
  MemoryBudget budget;
  DdTriangles dd(&budget);
  std::vector<Edge> edges =
      SymmetrizeEdges({{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  ASSERT_TRUE(dd.RunInitial(4, edges).ok());
  EXPECT_EQ(dd.triangle_count(), 1u);
  const gsa::OperatorCounters* walk = dd.profile().Find(0);
  const gsa::OperatorCounters* close = dd.profile().Find(1);
  ASSERT_NE(walk, nullptr);
  ASSERT_NE(close, nullptr);
  EXPECT_EQ(close->out_pos, dd.triangle_count());
  EXPECT_EQ(walk->out_pos, 3u);  // two-paths 0→1→2, 0→2→3, 1→2→3
  EXPECT_EQ(close->evals, 3u);   // one closing probe per two-path
  EXPECT_GT(walk->edges, 0u);
  ASSERT_EQ(dd.profile().supersteps().size(), 1u);

  // Deleting a triangle edge retracts the triangle: out_neg records it.
  std::vector<EdgeDelta> batch = {{{0, 2}, -1}, {{2, 0}, -1}};
  ASSERT_TRUE(dd.ApplyMutations(batch).ok());
  EXPECT_EQ(dd.triangle_count(), 0u);
  EXPECT_EQ(dd.profile().Find(1)->out_neg, 1u);
  EXPECT_TRUE(dd.profile().supersteps()[0].incremental);
}

TEST(BaselineProfileTest, DdRankAndMinPropagationRecordPhases) {
  MemoryBudget budget;
  DdRank rank(1, 3, &budget);
  ASSERT_TRUE(rank.RunInitial(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}).ok());
  EXPECT_EQ(rank.profile().Find(0)->out_pos, 12u);  // 4 messages x 3 iters
  EXPECT_EQ(rank.profile().Find(1)->in_pos, 12u);   // 4 values x 3 iters
  EXPECT_EQ(rank.profile().supersteps().size(), 3u);
  ASSERT_TRUE(rank.ApplyMutations({{{0, 2}, 1}}).ok());
  // The incremental pass touches only dirty sources, never the full n x
  // iterations sweep.
  EXPECT_GT(rank.profile().Find(0)->in_pos, 0u);
  EXPECT_LT(rank.profile().Find(0)->in_pos, 12u);
  EXPECT_TRUE(rank.profile().supersteps()[0].incremental);

  std::vector<double> labels0 = {0.0, 1.0, 2.0, 3.0};
  DdMinPropagation wcc(labels0, 0.0, &budget);
  ASSERT_TRUE(
      wcc.RunInitial(4, SymmetrizeEdges({{0, 1}, {1, 2}, {2, 3}})).ok());
  EXPECT_GT(wcc.profile().Find(0)->out_pos, 0u);
  EXPECT_GT(wcc.profile().Find(1)->out_pos, 0u);
  EXPECT_EQ(wcc.profile().supersteps().size(),
            static_cast<size_t>(wcc.iterations()));
}

}  // namespace
}  // namespace itg
