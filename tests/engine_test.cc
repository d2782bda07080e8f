// Engine-level behavioural tests: run statistics, option plumbing,
// error paths, convergence semantics, and the run-state contract between
// one-shot and incremental execution.
#include <gtest/gtest.h>

#include "algos/programs.h"
#include "algos/reference.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/csr.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void Build(const std::vector<Edge>& edges, VertexId n,
             const std::string& source, EngineOptions options = {}) {
    auto store = DynamicGraphStore::Create(
        ::testing::TempDir() + "/engine_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name(),
        n, edges, {}, &GlobalMetrics());
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    auto program = CompileProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    engine_ = std::make_unique<Engine>(store_.get(), program_.get(),
                                       options);
  }

  std::unique_ptr<DynamicGraphStore> store_;
  std::unique_ptr<CompiledProgram> program_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineTest, StatsPopulatedAfterRuns) {
  EngineOptions options;
  options.fixed_supersteps = 5;
  Build(GenerateRmatEdges(1 << 8, 3 << 8, {.seed = 51}), 1 << 8,
        PageRankProgram(), options);
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  const RunStats& one = engine_->last_stats();
  EXPECT_FALSE(one.incremental);
  EXPECT_EQ(one.supersteps, 5);
  EXPECT_GT(one.emissions_applied, 0u);
  EXPECT_GT(one.windows_loaded, 0u);
  EXPECT_GT(one.edges_scanned, 0u);
  EXPECT_GT(one.seconds, 0.0);

  ASSERT_TRUE(store_->ApplyMutations({{{0, 1}, +1}}).ok());
  ASSERT_TRUE(engine_->RunIncremental(1).ok());
  const RunStats& inc = engine_->last_stats();
  EXPECT_TRUE(inc.incremental);
  EXPECT_EQ(inc.timestamp, 1);
  EXPECT_GT(inc.delta_walk_emissions, 0u);
}

TEST_F(EngineTest, IncrementalRequiresLockstepRuns) {
  Build(GenerateRmatEdges(1 << 6, 2 << 6, {.seed = 52}), 1 << 6,
        PageRankProgram());
  // No one-shot ran: must be rejected.
  EXPECT_FALSE(engine_->RunIncremental(1).ok());
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  ASSERT_TRUE(store_->ApplyMutations({{{0, 1}, +1}}).ok());
  // Snapshots may not be skipped.
  EXPECT_FALSE(engine_->RunIncremental(5).ok());
  EXPECT_TRUE(engine_->RunIncremental(1).ok());
  EXPECT_FALSE(engine_->RunIncremental(1).ok());  // and not repeated
}

TEST_F(EngineTest, GlobalMonoidAccumulatorRejectedIncrementally) {
  Build(GenerateRmatEdges(1 << 6, 2 << 6, {.seed = 53}), 1 << 6, R"(
    Vertex (id, active, nbrs)
    GlobalVariable (best: Accm<long, MIN>)
    Initialize (u) { u.active = true; }
    Traverse (u) {
      For v in u.nbrs {
        best.Accumulate(u.id);
      }
    }
    Update (u) {}
  )");
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  ASSERT_TRUE(store_->ApplyMutations({{{0, 1}, +1}}).ok());
  Status status = engine_->RunIncremental(1);
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
}

TEST_F(EngineTest, ConvergenceStopsBeforeMaxSupersteps) {
  Build(SymmetrizeEdges(GenerateRmatEdges(1 << 8, 2 << 8, {.seed = 54})),
        1 << 8, WccProgram());
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  EXPECT_LT(engine_->last_stats().supersteps, 100);
  EXPECT_GT(engine_->last_stats().supersteps, 1);
}

TEST_F(EngineTest, SingleSuperstepProgramsTerminate) {
  Build(SymmetrizeEdges(GenerateRmatEdges(1 << 7, 2 << 7, {.seed = 55})),
        1 << 7, TriangleCountProgram());
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  // TC's Update never reactivates: exactly one traversal superstep.
  EXPECT_EQ(engine_->last_stats().supersteps, 1);
}

TEST_F(EngineTest, AttrAndGlobalIndexLookups) {
  Build(GenerateRmatEdges(1 << 6, 2 << 6, {.seed = 56}), 1 << 6,
        TriangleCountProgram());
  EXPECT_EQ(engine_->AttrIndex("id"), 0);
  EXPECT_EQ(engine_->AttrIndex("active"), 1);
  EXPECT_EQ(engine_->AttrIndex("no_such"), -1);
  EXPECT_EQ(engine_->GlobalIndex("cnts"), 0);
  EXPECT_EQ(engine_->GlobalIndex("no_such"), -1);
}

TEST_F(EngineTest, RecordHistoryOffStillComputesCorrectly) {
  auto edges = GenerateRmatEdges(1 << 8, 3 << 8, {.seed = 57});
  EngineOptions options;
  options.fixed_supersteps = 10;
  options.record_history = false;
  Build(edges, 1 << 8, PageRankProgram(), options);
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  Csr csr = Csr::FromEdges(1 << 8, edges);
  auto expected = RefPageRank(csr, 10);
  int rank = engine_->AttrIndex("rank");
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_NEAR(engine_->AttrValue(rank, v), expected[v], 1e-9);
  }
  // No per-superstep files were written.
  EXPECT_EQ(store_->vertex_store()->ChainRecords(1, rank), 0u);
}

TEST_F(EngineTest, IncrementalReducesEdgeScans) {
  auto edges = SymmetrizeEdges(GenerateRmatEdges(1 << 9, 4 << 9,
                                                 {.seed = 58}));
  Build(edges, 1 << 9, TriangleCountProgram());
  ASSERT_TRUE(engine_->RunOneShot(0).ok());
  uint64_t oneshot_scans = engine_->last_stats().edges_scanned;
  // Pick an edge that is genuinely absent (the workload invariant).
  Edge fresh{0, 0};
  for (VertexId b = 1; b < (1 << 9); ++b) {
    auto has = store_->HasEdge(store_->pool(), 3, b, 0, Direction::kOut);
    ASSERT_TRUE(has.ok());
    if (!*has && b != 3) {
      fresh = {3, b};
      break;
    }
  }
  ASSERT_TRUE(store_
                  ->ApplyMutations({{fresh, +1},
                                    {{fresh.dst, fresh.src}, +1}})
                  .ok());
  ASSERT_TRUE(engine_->RunIncremental(1).ok());
  uint64_t inc_scans = engine_->last_stats().edges_scanned;
  // A two-operation batch must scan a small fraction of the graph.
  EXPECT_LT(inc_scans * 5, oneshot_scans);
}

/// Provenance sets of one lineage pipeline: a one-shot run, then three
/// insert+delete batches on a symmetric RMAT graph. Windows of 8
/// vertices cut every walk job into several tasks.
struct LineageRun {
  std::vector<std::vector<uint64_t>> ids;  // LineageTracker::Ids per vertex
  std::vector<uint64_t> overflow;          // LineageTracker::Overflow
  std::vector<EdgeDelta> last_batch;       // canonical (min, max) edges
  Timestamp last_t = 0;
  uint64_t parallel_tasks = 0;
  const LineageTracker* tracker = nullptr;
  std::unique_ptr<DynamicGraphStore> store;
  std::unique_ptr<CompiledProgram> program;
  std::unique_ptr<Engine> engine;
};

void RunLineagePipeline(const std::string& source, int num_threads,
                        const std::string& tag, LineageRun* run) {
  const VertexId n = 1 << 8;
  auto all_edges = GenerateRmatEdges(n, 6 * n, {.seed = 61});
  for (Edge& e : all_edges) {
    if (e.src > e.dst) std::swap(e.src, e.dst);
  }
  MutationWorkload workload(all_edges, 0.9, 62, /*canonical=*/true);
  auto store = DynamicGraphStore::Create(
      ::testing::TempDir() + "/lineage_" + tag + "_t" +
          std::to_string(num_threads),
      n, SymmetrizeEdges(workload.initial_edges()), {}, &GlobalMetrics());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  run->store = std::move(store).value();
  auto program = CompileProgram(source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  run->program = std::move(program).value();
  EngineOptions options;
  options.num_threads = num_threads;
  options.window_vertices = 8;
  options.lineage = true;
  run->engine = std::make_unique<Engine>(run->store.get(),
                                         run->program.get(), options);
  ASSERT_TRUE(run->engine->RunOneShot(0).ok());
  for (Timestamp t = 1; t <= 3; ++t) {
    run->last_batch = workload.NextBatch(24, 0.6);
    std::vector<EdgeDelta> stored;
    for (const EdgeDelta& d : run->last_batch) {
      stored.push_back(d);
      stored.push_back({{d.edge.dst, d.edge.src}, d.mult});
    }
    ASSERT_TRUE(run->store->ApplyMutations(stored).ok());
    Status status = run->engine->RunIncremental(t);
    ASSERT_TRUE(status.ok()) << status.ToString();
    run->parallel_tasks += run->engine->last_stats().parallel_tasks;
    run->last_t = t;
  }
  run->tracker = run->engine->lineage();
  ASSERT_NE(run->tracker, nullptr);
  for (VertexId v = 0; v < n; ++v) {
    run->ids.push_back(run->tracker->Ids(v));
    run->overflow.push_back(run->tracker->Overflow(v));
  }
}

/// True when `v`'s provenance set holds the id of inserting the stored
/// edge `e` at snapshot `t`.
bool ListsInsertion(const LineageTracker& tracker, VertexId v, Edge e,
                    Timestamp t) {
  for (uint64_t id : tracker.Ids(v)) {
    const LineageTracker::MutationInfo* info = tracker.Info(id);
    if (info != nullptr && info->timestamp == t && info->edge == e &&
        info->mult > 0) {
      return true;
    }
  }
  return false;
}

TEST(EngineLineageTest, ProvenanceIdenticalAcrossThreadCounts) {
  // WCC walks Δ-edges through the enumerator; LCC's closing sub-query
  // takes the anchored path.
  for (const auto& [tag, source] :
       {std::pair<std::string, std::string>{"wcc", WccProgram()},
        std::pair<std::string, std::string>{"lcc", LccProgram()}}) {
    LineageRun one;
    LineageRun four;
    RunLineagePipeline(source, 1, tag, &one);
    RunLineagePipeline(source, 4, tag, &four);
    ASSERT_FALSE(one.ids.empty()) << tag;
    EXPECT_EQ(one.ids, four.ids) << tag;
    EXPECT_EQ(one.overflow, four.overflow) << tag;
    // The 4-thread run evaluated its walk tasks on the pool.
    EXPECT_EQ(one.parallel_tasks, 0u) << tag;
    EXPECT_GT(four.parallel_tasks, 0u) << tag;
    uint64_t listed = 0;
    for (const std::vector<uint64_t>& ids : one.ids) listed += ids.size();
    EXPECT_GT(listed, 0u) << tag;
  }
}

TEST(EngineLineageTest, InsertedEdgeEndpointListsItsMutation) {
  LineageRun run;
  RunLineagePipeline(WccProgram(), 4, "wcc_endpoint", &run);
  // WCC's one-hop Δ-walk from `a` across the inserted edge (a, b)
  // accumulates onto `b`, so `b` absorbs that mutation's id unless its
  // capped set was already full.
  int checked = 0;
  for (const EdgeDelta& d : run.last_batch) {
    if (d.mult < 0) continue;
    const Edge e = d.edge;
    for (const Edge stored : {e, Edge{e.dst, e.src}}) {
      if (run.tracker->Overflow(stored.dst) > 0) continue;
      EXPECT_TRUE(ListsInsertion(*run.tracker, stored.dst, stored,
                                 run.last_t))
          << stored.src << "->" << stored.dst;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(EngineHoistingTest, QprMapEvaluatesOncePerStartWithOutEdges) {
  // qpr's one emission, `v.sum.Accumulate(u.rank / u.out_degree)`, is
  // start-invariant: its value (3 expression nodes) is evaluated once per
  // active start with out-edges, while tuples still count once per walk.
  const VertexId n = 1 << 9;
  const std::vector<Edge> edges =
      GenerateRmatEdges(n, 4 << 9, {.seed = 61});
  const Csr csr = Csr::FromEdges(n, edges);
  auto compiled = CompileProgram(QuantizedPageRankProgram());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::unique_ptr<CompiledProgram> program = std::move(compiled).value();
  auto store_or = DynamicGraphStore::Create(
      ::testing::TempDir() + "/hoist_qpr", n, edges, {}, &GlobalMetrics());
  ASSERT_TRUE(store_or.ok());
  const std::unique_ptr<DynamicGraphStore> store = std::move(store_or).value();
  const Emission& emission = program->traverse.emissions.at(0);
  ASSERT_TRUE(emission.start_invariant);

  for (int threads : {1, 4}) {
    // The active set before superstep s is every vertex at s = 0, then
    // the active column a run of s supersteps ends with.
    std::vector<bool> active(static_cast<size_t>(n), true);
    uint64_t expected_evals = 0;
    uint64_t expected_tuples = 0;
    for (int steps = 1; steps <= 4; ++steps) {
      for (VertexId v = 0; v < n; ++v) {
        if (!active[static_cast<size_t>(v)] || csr.Degree(v) == 0) continue;
        expected_evals += 3;
        expected_tuples += static_cast<uint64_t>(csr.Degree(v));
      }
      EngineOptions opts;
      opts.fixed_supersteps = steps;
      opts.record_history = false;
      opts.num_threads = threads;
      opts.window_vertices = 64;
      Engine engine(store.get(), program.get(), opts);
      ASSERT_TRUE(engine.RunOneShot(0).ok());
      const gsa::OperatorCounters* map =
          engine.last_profile().Find(emission.map_op);
      ASSERT_NE(map, nullptr);
      EXPECT_EQ(map->evals, expected_evals)
          << "threads=" << threads << " supersteps=" << steps;
      EXPECT_EQ(map->in_pos, expected_tuples)
          << "threads=" << threads << " supersteps=" << steps;
      for (VertexId v = 0; v < n; ++v) {
        active[static_cast<size_t>(v)] =
            engine.AttrValue(program->active_attr, v) != 0.0;
      }
    }
  }
}

TEST(EngineHoistingTest, DeeperVertexEmissionIsEvaluatedPerWalk) {
  // The guard and value read `v.id`, which varies along a start's walks,
  // so the emission is evaluated on every walk; the result matches a hand
  // computation on the caller path and on the pooled apply.
  const std::string source = R"(
    Vertex (id, active, out_nbrs, acc: Accm<double, SUM>)
    Initialize (u) {
      u.active = true;
    }
    Traverse (u) {
      For v in u.out_nbrs {
        If (v.id > u.id) {
          v.acc.Accumulate(u.id + v.id);
        }
      }
    }
    Update (u) {}
  )";
  const VertexId n = 64;
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    edges.push_back({u, (u + 1) % n});
    edges.push_back({u, (u * 7 + 3) % n});
  }
  const Csr csr = Csr::FromEdges(n, edges);
  std::vector<double> expected(static_cast<size_t>(n), 0.0);
  uint64_t passing = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : csr.Neighbors(u)) {
      if (v <= u) continue;
      expected[static_cast<size_t>(v)] += static_cast<double>(u + v);
      ++passing;
    }
  }
  auto compiled = CompileProgram(source);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::unique_ptr<CompiledProgram> program = std::move(compiled).value();
  const Emission& emission = program->traverse.emissions.at(0);
  EXPECT_FALSE(emission.start_invariant);
  auto store_or = DynamicGraphStore::Create(
      ::testing::TempDir() + "/hoist_vid", n, edges, {}, &GlobalMetrics());
  ASSERT_TRUE(store_or.ok());
  const std::unique_ptr<DynamicGraphStore> store = std::move(store_or).value();

  for (int threads : {1, 4}) {
    EngineOptions opts;
    opts.record_history = false;
    opts.num_threads = threads;
    opts.window_vertices = 8;
    Engine engine(store.get(), program.get(), opts);
    ASSERT_TRUE(engine.RunOneShot(0).ok());
    EXPECT_EQ(engine.last_stats().supersteps, 1);
    const int acc = engine.AttrIndex("acc");
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(engine.AttrValue(acc, v), expected[static_cast<size_t>(v)])
          << "threads=" << threads << " v=" << v;
    }
    // The guard (3 nodes) on every walk, the value (3) on every passing
    // walk.
    const gsa::OperatorCounters* map =
        engine.last_profile().Find(emission.map_op);
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->evals, 3 * csr.num_edges() + 3 * passing);
    EXPECT_EQ(engine.last_stats().pooled_applies, threads > 1 ? 1u : 0u);
  }
}

TEST(EngineTaskCutTest, HubStartRunsAsItsOwnTask) {
  // Vertex 0 is adjacent to every other vertex, which form a ring, so the
  // first window block holds nearly all of TC's wedges. The multi-hop job
  // is cut by estimated work: the hub runs alone and the ring vertices in
  // runs of at most one window, so level 1 loads more windows than there
  // are blocks, and the same number at every thread count. PageRank's
  // one-hop job keeps one task, and one level-1 window, per block.
  const VertexId n = 256;
  const int window = 16;
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) {
    edges.push_back({0, v});
    edges.push_back({v, v % (n - 1) + 1});
  }
  edges = SymmetrizeEdges(edges);
  auto store_or = DynamicGraphStore::Create(
      ::testing::TempDir() + "/task_cut_hub", n, edges, {}, &GlobalMetrics());
  ASSERT_TRUE(store_or.ok());
  const std::unique_ptr<DynamicGraphStore> store = std::move(store_or).value();
  const uint64_t blocks = (n + window - 1) / window;

  auto level1_windows = [&](const std::string& source, int threads,
                            double* cnts) -> uint64_t {
    auto compiled = CompileProgram(source);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return 0;
    const std::unique_ptr<CompiledProgram> program =
        std::move(compiled).value();
    EngineOptions opts;
    opts.fixed_supersteps = 1;
    opts.record_history = false;
    opts.num_threads = threads;
    opts.window_vertices = window;
    Engine engine(store.get(), program.get(), opts);
    EXPECT_TRUE(engine.RunOneShot(0).ok());
    if (cnts != nullptr) {
      *cnts = engine.GlobalValue(engine.GlobalIndex("cnts"))[0];
    }
    const gsa::OperatorCounters* level1 =
        engine.last_profile().Find(program->traverse.levels.at(0).op);
    EXPECT_NE(level1, nullptr);
    return level1 == nullptr ? 0 : level1->windows;
  };

  double cnts1 = 0;
  double cnts4 = 0;
  const uint64_t tc1 = level1_windows(TriangleCountProgram(), 1, &cnts1);
  const uint64_t tc4 = level1_windows(TriangleCountProgram(), 4, &cnts4);
  EXPECT_GT(tc1, blocks);
  EXPECT_EQ(tc1, tc4);
  // One triangle per ring edge, each with the hub.
  EXPECT_EQ(cnts1, static_cast<double>(n - 1));
  EXPECT_EQ(cnts4, cnts1);
  EXPECT_EQ(level1_windows(PageRankProgram(), 1, nullptr), blocks);
  EXPECT_EQ(level1_windows(PageRankProgram(), 4, nullptr), blocks);
}

/// 600 vertices, more than one Update block and not a multiple of it.
/// Every vertex has out-edges; v receives an edge from v - 1 unless
/// v % 5 == 4, and one from v - 2 when v is even, so its in-degree is 0, 1
/// or 2 and the Update bodies of one block take different branches.
struct UpdateContractGraph {
  static constexpr VertexId kVertices = 600;
  std::vector<Edge> edges;
  std::vector<int> in_degree = std::vector<int>(kVertices, 0);

  UpdateContractGraph() {
    const VertexId n = kVertices;
    for (VertexId u = 0; u < n; ++u) {
      if ((u + 1) % n % 5 != 4) edges.push_back({u, (u + 1) % n});
      if (u % 2 == 0) edges.push_back({u, (u + 2) % n});
    }
    for (const Edge& e : edges) ++in_degree[static_cast<size_t>(e.dst)];
  }
};

/// Runs one superstep of `program` at `threads` and returns the engine.
std::unique_ptr<Engine> RunOneSuperstep(const CompiledProgram* program,
                                        DynamicGraphStore* store,
                                        int threads) {
  EngineOptions opts;
  opts.fixed_supersteps = 1;
  opts.record_history = false;
  opts.num_threads = threads;
  auto engine = std::make_unique<Engine>(store, program, opts);
  EXPECT_TRUE(engine->RunOneShot(0).ok());
  return engine;
}

TEST(EngineUpdateContractTest, BranchesAndShortCircuitsCountPerVertex) {
  // Both If conditions short-circuit: the && skips `u.s > 1` where
  // u.id % 3 != 0, the || skips it where u.id is even. Node counts: each
  // condition's operator and its left operand 6, `u.s > 1` 3,
  // `u.x = u.s + 1` and `u.x = u.x * 2` 3 each, `u.y = 2` 1.
  const std::string source = R"(
    Vertex (id, active, out_nbrs, x: double, y: double,
            s: Accm<double, SUM>)
    Initialize (u) {
      u.active = true;
    }
    Traverse (u) {
      For v in u.out_nbrs {
        v.s.Accumulate(1);
      }
    }
    Update (u) {
      If (u.id % 3 == 0 && u.s > 1) {
        u.x = u.s + 1;
      } Else {
        u.y = 2;
      }
      If (u.id % 2 == 0 || u.s > 1) {
        u.x = u.x * 2;
      }
    }
  )";
  const UpdateContractGraph graph;
  const VertexId n = UpdateContractGraph::kVertices;
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  std::vector<double> y(static_cast<size_t>(n), 0.0);
  uint64_t bodies = 0;
  uint64_t evals = 0;
  uint64_t assigns = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto vi = static_cast<size_t>(v);
    const double s = graph.in_degree[vi];
    if (s == 0) continue;  // no contribution, no Update body
    ++bodies;
    const bool cond1 = v % 3 == 0 && s > 1;
    evals += 6 + (v % 3 == 0 ? 3 : 0);
    if (cond1) {
      x[vi] = s + 1;
      evals += 3;
    } else {
      y[vi] = 2;
      evals += 1;
    }
    ++assigns;
    const bool cond2 = v % 2 == 0 || s > 1;
    evals += 6 + (v % 2 != 0 ? 3 : 0);
    if (cond2) {
      x[vi] = x[vi] * 2;
      evals += 3;
      ++assigns;
    }
  }
  ASSERT_GT(bodies, 2u * 256u);

  auto compiled = CompileProgram(source);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::unique_ptr<CompiledProgram> program = std::move(compiled).value();
  auto store_or = DynamicGraphStore::Create(
      ::testing::TempDir() + "/update_contract_branches", n, graph.edges, {},
      &GlobalMetrics());
  ASSERT_TRUE(store_or.ok());
  const std::unique_ptr<DynamicGraphStore> store = std::move(store_or).value();
  for (int threads : {1, 4}) {
    const auto engine =
        RunOneSuperstep(program.get(), store.get(), threads);
    const gsa::OperatorCounters* update =
        engine->last_profile().Find(program->update_op);
    ASSERT_NE(update, nullptr);
    EXPECT_EQ(update->in_pos, bodies) << "threads=" << threads;
    EXPECT_EQ(update->evals, evals) << "threads=" << threads;
    EXPECT_EQ(update->out_pos, assigns) << "threads=" << threads;
    const int xa = engine->AttrIndex("x");
    const int ya = engine->AttrIndex("y");
    for (VertexId v = 0; v < n; ++v) {
      const auto vi = static_cast<size_t>(v);
      EXPECT_EQ(engine->AttrValue(xa, v), x[vi])
          << "threads=" << threads << " v=" << v;
      EXPECT_EQ(engine->AttrValue(ya, v), y[vi])
          << "threads=" << threads << " v=" << v;
    }
  }
}

TEST(EngineUpdateContractTest, GlobalWritingBodiesRunInVertexOrder) {
  // Each body folds the vertex into a global, so the final globals and the
  // attribute each body copies depend on the order the bodies ran in.
  const std::string source = R"(
    Vertex (id, active, out_nbrs, x: double, s: Accm<double, SUM>)
    GlobalVariable (g: double, h: double)
    Initialize (u) {
      g = g * 0.5 + u.id;
      u.x = g;
      u.active = true;
    }
    Traverse (u) {
      For v in u.out_nbrs {
        v.s.Accumulate(1);
      }
    }
    Update (u) {
      h = h * 0.5 + u.id + u.s;
      u.x = u.x + h;
    }
  )";
  const UpdateContractGraph graph;
  const VertexId n = UpdateContractGraph::kVertices;
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  double g = 0;
  double h = 0;
  for (VertexId v = 0; v < n; ++v) {
    g = g * 0.5 + static_cast<double>(v);
    x[static_cast<size_t>(v)] = g;
  }
  for (VertexId v = 0; v < n; ++v) {
    const auto vi = static_cast<size_t>(v);
    const double s = graph.in_degree[vi];
    if (s == 0) continue;
    h = h * 0.5 + static_cast<double>(v) + s;
    x[vi] = x[vi] + h;
  }

  auto compiled = CompileProgram(source);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::unique_ptr<CompiledProgram> program = std::move(compiled).value();
  auto store_or = DynamicGraphStore::Create(
      ::testing::TempDir() + "/update_contract_globals", n, graph.edges, {},
      &GlobalMetrics());
  ASSERT_TRUE(store_or.ok());
  const std::unique_ptr<DynamicGraphStore> store = std::move(store_or).value();
  for (int threads : {1, 4}) {
    const auto engine =
        RunOneSuperstep(program.get(), store.get(), threads);
    EXPECT_EQ(engine->GlobalValue(engine->GlobalIndex("g"))[0], g)
        << "threads=" << threads;
    EXPECT_EQ(engine->GlobalValue(engine->GlobalIndex("h"))[0], h)
        << "threads=" << threads;
    const int xa = engine->AttrIndex("x");
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(engine->AttrValue(xa, v), x[static_cast<size_t>(v)])
          << "threads=" << threads << " v=" << v;
    }
  }
}

TEST_F(EngineTest, ExplainContainsIncrementalSubqueries) {
  Build(GenerateRmatEdges(1 << 6, 2 << 6, {.seed = 59}), 1 << 6,
        TriangleCountProgram());
  std::string explain = program_->Explain();
  // Rule ⑦ expands the 4-stream Walk into 4 sub-queries.
  EXPECT_NE(explain.find("q1"), std::string::npos);
  EXPECT_NE(explain.find("q4"), std::string::npos);
  EXPECT_NE(explain.find("DeltaStream"), std::string::npos);
}

}  // namespace
}  // namespace itg
