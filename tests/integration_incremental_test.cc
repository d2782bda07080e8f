// The paper's core contract: Q(G ∪ ΔG) = Q(G) ∪ ΔQ. For every program and
// mutation workload, the incremental engine's state after RunIncremental(t)
// must equal a from-scratch one-shot execution on the mutated graph.
// Parameterized over the optimization flags (§6.4.2 ablation space) so
// every TR/NP/SWS/CNT combination is exercised.
#include <gtest/gtest.h>

#include <memory>

#include "algos/programs.h"
#include "algos/reference.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

struct OptConfig {
  bool tr;
  bool np;
  bool sws;
  bool cnt;
};

class IncrementalTest : public ::testing::TestWithParam<OptConfig> {
 protected:
  EngineOptions Options(int fixed = -1) const {
    EngineOptions opts;
    opts.traversal_reordering = GetParam().tr;
    opts.neighbor_pruning = GetParam().np;
    opts.seek_window_sharing = GetParam().sws;
    opts.min_counting = GetParam().cnt;
    opts.fixed_supersteps = fixed;
    return opts;
  }

  /// Runs `snapshots` incremental steps, checking against fresh one-shot
  /// runs; `check` receives (incremental engine, mutated-graph CSR).
  void RunScenario(const std::string& source, bool symmetric,
                   double insert_ratio, int fixed_supersteps,
                   const std::function<void(const Engine&, const Csr&)>&
                       check) {
    auto all_edges = GenerateRmatEdges(1 << 9, 6 << 9, {.seed = 99});
    // Undirected analytics mutate canonical (min, max) edges, so (a,b)
    // and (b,a) are one undirected edge; each mutation is applied to both
    // directions below.
    MutationWorkload workload(all_edges, 0.9, 1234, symmetric);
    std::vector<Edge> base = workload.initial_edges();
    std::vector<Edge> base_stored = symmetric ? SymmetrizeEdges(base) : base;
    const VertexId n = 1 << 9;

    auto compiled = CompileProgram(source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto program = std::move(compiled).value();

    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    std::string path = ::testing::TempDir() + "/inc_" + name;
    auto store_or = DynamicGraphStore::Create(path, n, base_stored, {},
                                              &GlobalMetrics());
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();

    Engine engine(store.get(), program.get(), Options(fixed_supersteps));
    ASSERT_TRUE(engine.RunOneShot(0).ok());

    std::vector<Edge> current = base;
    for (Timestamp t = 1; t <= 3; ++t) {
      auto batch = workload.NextBatch(60, insert_ratio);
      std::vector<EdgeDelta> stored_batch;
      for (const EdgeDelta& d : batch) {
        stored_batch.push_back(d);
        if (symmetric) {
          stored_batch.push_back({{d.edge.dst, d.edge.src}, d.mult});
        }
        if (d.mult > 0) {
          current.push_back(d.edge);
        } else {
          current.erase(std::find(current.begin(), current.end(), d.edge));
        }
      }
      auto ts = store->ApplyMutations(stored_batch);
      ASSERT_TRUE(ts.ok()) << ts.status().ToString();
      Status st = engine.RunIncremental(t);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(engine.last_stats().incremental);

      std::vector<Edge> mutated =
          symmetric ? SymmetrizeEdges(current) : current;
      Csr csr = Csr::FromEdges(n, mutated);
      check(engine, csr);
    }
  }
};

TEST_P(IncrementalTest, PageRank) {
  RunScenario(PageRankProgram(), /*symmetric=*/false, 0.75, 10,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefPageRank(csr, 10);
                int rank = engine.AttrIndex("rank");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_NEAR(engine.AttrValue(rank, v), expected[v], 1e-9)
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, LabelProp) {
  RunScenario(LabelPropProgram(8), /*symmetric=*/false, 0.75, 10,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefLabelProp(csr, 8, 10);
                int labels = engine.AttrIndex("labels");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  const double* cell = engine.AttrCell(labels, v);
                  for (int l = 0; l < 8; ++l) {
                    ASSERT_NEAR(cell[l], expected[v][l], 1e-9)
                        << "v=" << v << " l=" << l;
                  }
                }
              });
}

TEST_P(IncrementalTest, QuantizedPageRank) {
  RunScenario(QuantizedPageRankProgram(), /*symmetric=*/false, 0.75, 10,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefQuantizedPageRank(csr, 10);
                int rank = engine.AttrIndex("rank");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_EQ(engine.AttrValue(rank, v), expected[v])
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, WccWithDeletions) {
  RunScenario(WccProgram(), /*symmetric=*/true, 0.5, -1,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefWcc(csr);
                int comp = engine.AttrIndex("comp");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_EQ(static_cast<VertexId>(engine.AttrValue(comp, v)),
                            expected[v])
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, BfsWithDeletions) {
  // Root fixed at vertex 0 so it is stable across mutations.
  RunScenario(BfsProgram(0), /*symmetric=*/true, 0.5, -1,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefBfs(csr, 0);
                int dist = engine.AttrIndex("dist");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_EQ(engine.AttrValue(dist, v), expected[v])
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, TriangleCount) {
  RunScenario(TriangleCountProgram(), /*symmetric=*/true, 0.75, -1,
              [&](const Engine& engine, const Csr& csr) {
                uint64_t expected = RefTriangleCount(csr);
                int cnts = engine.GlobalIndex("cnts");
                ASSERT_EQ(
                    static_cast<uint64_t>(engine.GlobalValue(cnts)[0]),
                    expected);
              });
}

TEST_P(IncrementalTest, Lcc) {
  RunScenario(LccProgram(), /*symmetric=*/true, 0.5, -1,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefLcc(csr);
                int lcc = engine.AttrIndex("lcc");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_NEAR(engine.AttrValue(lcc, v), expected[v], 1e-12)
                      << "v=" << v;
                }
              });
}

TEST_P(IncrementalTest, DeletionOnlyWorkload) {
  RunScenario(WccProgram(), /*symmetric=*/true, 0.0, -1,
              [&](const Engine& engine, const Csr& csr) {
                auto expected = RefWcc(csr);
                int comp = engine.AttrIndex("comp");
                for (VertexId v = 0; v < csr.num_vertices(); ++v) {
                  ASSERT_EQ(static_cast<VertexId>(engine.AttrValue(comp, v)),
                            expected[v]);
                }
              });
}

TEST_P(IncrementalTest, InsertionOnlyWorkload) {
  RunScenario(TriangleCountProgram(), /*symmetric=*/true, 1.0, -1,
              [&](const Engine& engine, const Csr& csr) {
                uint64_t expected = RefTriangleCount(csr);
                int cnts = engine.GlobalIndex("cnts");
                ASSERT_EQ(
                    static_cast<uint64_t>(engine.GlobalValue(cnts)[0]),
                    expected);
              });
}

INSTANTIATE_TEST_SUITE_P(
    Optimizations, IncrementalTest,
    ::testing::Values(OptConfig{false, false, false, false},
                      OptConfig{true, false, false, false},
                      OptConfig{true, true, false, false},
                      OptConfig{true, true, true, false},
                      OptConfig{true, true, true, true},
                      OptConfig{false, true, false, true},
                      OptConfig{false, false, true, true}),
    [](const ::testing::TestParamInfo<OptConfig>& info) {
      std::string name;
      name += info.param.tr ? "Tr" : "NoTr";
      name += info.param.np ? "Np" : "NoNp";
      name += info.param.sws ? "Sws" : "NoSws";
      name += info.param.cnt ? "Cnt" : "NoCnt";
      return name;
    });

// ---- The per-superstep plan choice -------------------------------------
// A one-hop program recomputes an incremental superstep over the new
// snapshot when that scans fewer edges than the Δ plan's retract/assert
// walks. The state must stay what a one-shot on the mutated graph gives.

constexpr VertexId kPlanVertices = 1 << 9;

/// G_0 of a 2^9-vertex RMAT graph and the mutation batches applied to it;
/// canonical (min, max) edges when symmetric.
struct PlanInput {
  bool symmetric = false;
  std::vector<Edge> base;
  std::vector<std::vector<EdgeDelta>> batches;
};

PlanInput MakePlanInput(bool symmetric, int count, size_t size,
                        double insert_ratio) {
  auto edges = GenerateRmatEdges(kPlanVertices, 6 << 9, {.seed = 99});
  MutationWorkload workload(edges, 0.9, 1234, symmetric);
  PlanInput input{symmetric, workload.initial_edges(), {}};
  for (int i = 0; i < count; ++i) {
    input.batches.push_back(workload.NextBatch(size, insert_ratio));
  }
  return input;
}

/// Runs a one-shot over the input's base graph, then one incremental run
/// per batch. After each incremental run, `check` receives the engine
/// and the stored edge set (both directions when symmetric). Returns the
/// recomputed supersteps summed over the incremental runs.
uint64_t RunBatches(
    const std::string& source, const PlanInput& input,
    const EngineOptions& opts, const std::string& tag,
    const std::function<void(const Engine&, const std::vector<Edge>&)>&
        check) {
  auto stored = [&](const std::vector<Edge>& edges) {
    return input.symmetric ? SymmetrizeEdges(edges) : edges;
  };
  auto compiled = CompileProgram(source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto program = std::move(compiled).value();
  auto store_or = DynamicGraphStore::Create(
      ::testing::TempDir() + "/plan_" + tag, kPlanVertices,
      stored(input.base), {}, &GlobalMetrics());
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();
  Engine engine(store.get(), program.get(), opts);
  EXPECT_TRUE(engine.RunOneShot(0).ok());

  std::vector<Edge> current = input.base;
  uint64_t recomputed = 0;
  Timestamp t = 0;
  for (const std::vector<EdgeDelta>& batch : input.batches) {
    std::vector<EdgeDelta> stored_batch;
    for (const EdgeDelta& d : batch) {
      stored_batch.push_back(d);
      if (input.symmetric) {
        stored_batch.push_back({{d.edge.dst, d.edge.src}, d.mult});
      }
      if (d.mult > 0) {
        current.push_back(d.edge);
      } else {
        current.erase(std::find(current.begin(), current.end(), d.edge));
      }
    }
    auto ts = store->ApplyMutations(stored_batch);
    EXPECT_TRUE(ts.ok()) << ts.status().ToString();
    Status st = engine.RunIncremental(++t);
    EXPECT_TRUE(st.ok()) << st.ToString();
    recomputed += engine.last_stats().recomputed_supersteps;
    check(engine, stored(current));
  }
  return recomputed;
}

/// State digest of a fresh one-shot over `stored` edges.
uint64_t FreshDigest(const std::string& source,
                     const std::vector<Edge>& stored,
                     const EngineOptions& opts, const std::string& tag) {
  auto program = std::move(CompileProgram(source)).value();
  auto store = std::move(DynamicGraphStore::Create(
                             ::testing::TempDir() + "/plan_fresh_" + tag,
                             kPlanVertices, stored, {}, &GlobalMetrics()))
                   .value();
  Engine engine(store.get(), program.get(), opts);
  EXPECT_TRUE(engine.RunOneShot(0).ok());
  return engine.last_stats().state_digest;
}

void CheckNothing(const Engine&, const std::vector<Edge>&) {}

TEST(IncrementalPlanTest, QuantizedPageRankRecomputesExactly) {
  EngineOptions opts;
  opts.fixed_supersteps = 10;
  const uint64_t recomputed = RunBatches(
      QuantizedPageRankProgram(), MakePlanInput(false, 3, 200, 0.75), opts,
      "qpr", [](const Engine& engine, const std::vector<Edge>& stored) {
        const auto expected =
            RefQuantizedPageRank(Csr::FromEdges(kPlanVertices, stored), 10);
        const int rank = engine.AttrIndex("rank");
        for (VertexId v = 0; v < kPlanVertices; ++v) {
          ASSERT_EQ(engine.AttrValue(rank, v), expected[v]) << "v=" << v;
        }
      });
  EXPECT_GT(recomputed, 0u) << "the recompute plan never fired";
}

TEST(IncrementalPlanTest, MonoidProgramsMatchFreshOneShotUnderDeletions) {
  // Large deletion batches: supersteps recompute MIN accumulators with
  // their support counts, interleaved with Δ supersteps.
  const PlanInput input = MakePlanInput(true, 3, 800, 0.0);
  for (const auto& [name, source] :
       {std::pair<std::string, std::string>{"wcc", WccProgram()},
        {"bfs", BfsProgram(0)}}) {
    const EngineOptions opts;
    int run = 0;
    const uint64_t recomputed = RunBatches(
        source, input, opts, name,
        [&](const Engine& engine, const std::vector<Edge>& stored) {
          ++run;
          EXPECT_EQ(engine.last_stats().state_digest,
                    FreshDigest(source, stored, opts,
                                name + std::to_string(run)))
              << name << " run " << run;
        });
    EXPECT_GT(recomputed, 0u) << name << ": the recompute plan never fired";
  }
}

TEST(IncrementalPlanTest, DeltaPlanWhenIneligibleOrCheaper) {
  EngineOptions pr_opts;
  pr_opts.fixed_supersteps = 10;
  {
    // Lineage attributes mutations through q_es_p walks: always Δ.
    EngineOptions opts = pr_opts;
    opts.lineage = true;
    EXPECT_EQ(RunBatches(QuantizedPageRankProgram(),
                         MakePlanInput(false, 3, 200, 0.75), opts,
                         "qpr_lineage", CheckNothing),
              0u);
  }
  // Walk length 3 (and a global accumulator for tc): always Δ.
  const PlanInput symmetric = MakePlanInput(true, 2, 300, 0.5);
  EXPECT_EQ(RunBatches(TriangleCountProgram(), symmetric, EngineOptions{},
                       "tc", CheckNothing),
            0u);
  EXPECT_EQ(RunBatches(LccProgram(), symmetric, EngineOptions{}, "lcc",
                       CheckNothing),
            0u);

  // A tiny batch: a new edge u -> v, where u has no in-edges and one
  // out-edge to a sink, and v is another sink. Only u, its old
  // out-neighbour and v change, and their walks scan at most two edges
  // per superstep, far fewer than a recompute would.
  PlanInput tiny = MakePlanInput(false, 0, 0, 0.0);
  std::vector<int> out_degree(kPlanVertices, 0);
  std::vector<int> in_degree(kPlanVertices, 0);
  std::vector<VertexId> out_nbr(kPlanVertices, -1);
  for (const Edge& e : tiny.base) {
    ++out_degree[static_cast<size_t>(e.src)];
    ++in_degree[static_cast<size_t>(e.dst)];
    out_nbr[static_cast<size_t>(e.src)] = e.dst;
  }
  auto is_sink = [&](VertexId v) {
    return out_degree[static_cast<size_t>(v)] == 0;
  };
  Edge added{-1, -1};
  for (VertexId u = 0; u < kPlanVertices && added.src < 0; ++u) {
    const size_t i = static_cast<size_t>(u);
    if (out_degree[i] != 1 || in_degree[i] != 0 || !is_sink(out_nbr[i])) {
      continue;
    }
    for (VertexId v = 0; v < kPlanVertices; ++v) {
      if (v != u && v != out_nbr[i] && is_sink(v)) {
        added = {u, v};
        break;
      }
    }
  }
  ASSERT_GE(added.src, 0) << "no such pair in the test graph";
  tiny.batches = {{{added, 1}}};
  EXPECT_EQ(RunBatches(QuantizedPageRankProgram(), tiny, pr_opts,
                       "qpr_tiny", CheckNothing),
            0u);
}

}  // namespace
}  // namespace itg
