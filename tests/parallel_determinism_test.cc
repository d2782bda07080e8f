// The threading model's determinism guarantee (ARCHITECTURE.md): the
// parallel Δ-walk executor evaluates emissions on worker threads and
// applies each target range on one worker in task order, so every target
// receives its contributions in sequential emission order and every run
// is *bit-identical* to threads=1 — same doubles, not merely close ones.
// These tests run full incremental pipelines at threads ∈ {1, 2, 8} and
// compare every vertex attribute and global accumulator by bit pattern,
// plus the full per-operator runtime profile (tuple counts, Δ-prunes,
// window/edge scans, superstep timeline — the work columns, not the
// measured times), which must also be identical across thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algos/programs.h"
#include "common/trace.h"
#include "common/wall_profiler.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/graph_store.h"

namespace itg {

/// Befriended by Engine: turns the pull kernel off, so every superstep
/// takes the record path the pull shadows.
class EngineTestPeer {
 public:
  static void DisablePull(Engine* engine) { engine->pull_shape_ = false; }
};

namespace {

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Bit patterns of all program attributes over all vertices plus all
/// globals, captured after one run, plus the deterministic work columns
/// of the per-operator runtime profile.
struct Fingerprint {
  std::vector<uint64_t> bits;
  std::vector<uint64_t> profile_work;
  /// End-of-run state digest per run (order-independent column hash).
  std::vector<uint64_t> digests;
  uint64_t emissions = 0;
  /// Incremental supersteps that took the recompute plan. Not compared:
  /// it only shows that a pipeline reached that plan.
  uint64_t recomputed_supersteps = 0;
  /// Walk batches applied on the pool by target range. Not compared
  /// either: it shows that a pipeline reached the pooled apply.
  uint64_t pooled_applies = 0;
  /// Page reads of the store's buffer pool over the pipeline (not
  /// compared: the interleaving decides which pages are evicted).
  uint64_t pool_misses = 0;
  /// Walk and pull tasks the one-shot ran on the pool (not compared: 0
  /// at one thread), and over the whole pipeline.
  uint64_t oneshot_tasks = 0;
  uint64_t parallel_tasks = 0;
  /// Supersteps of the one-shot, and those of them the pull kernel ran;
  /// incremental supersteps the pull ran. Not compared: they show which
  /// path a pipeline took.
  uint64_t oneshot_supersteps = 0;
  uint64_t oneshot_pulls = 0;
  uint64_t incremental_pulls = 0;

  bool operator==(const Fingerprint& other) const {
    return bits == other.bits && profile_work == other.profile_work &&
           digests == other.digests && emissions == other.emissions;
  }
};

void Capture(const Engine& engine, const CompiledProgram& program,
             VertexId n, Fingerprint* fp) {
  for (size_t a = 0; a < program.vertex_attrs.size(); ++a) {
    const int width = program.vertex_attrs[a].type.width;
    for (VertexId v = 0; v < n; ++v) {
      const double* cell = engine.AttrCell(static_cast<int>(a), v);
      for (int i = 0; i < width; ++i) fp->bits.push_back(BitsOf(cell[i]));
    }
  }
  for (size_t g = 0; g < program.globals.size(); ++g) {
    for (double d : engine.GlobalValue(static_cast<int>(g))) {
      fp->bits.push_back(BitsOf(d));
    }
  }
  fp->emissions += engine.last_stats().emissions_applied;
  fp->recomputed_supersteps += engine.last_stats().recomputed_supersteps;
  fp->pooled_applies += engine.last_stats().pooled_applies;
  fp->parallel_tasks += engine.last_stats().parallel_tasks;
  if (engine.last_stats().incremental) {
    fp->incremental_pulls += engine.last_stats().pulled_supersteps;
  } else {
    fp->oneshot_tasks = engine.last_stats().parallel_tasks;
    fp->oneshot_supersteps = engine.last_stats().supersteps;
    fp->oneshot_pulls = engine.last_stats().pulled_supersteps;
  }
  fp->digests.push_back(engine.last_stats().state_digest);
  // The timeline rows, the run's totals and the operator rows count the
  // same walk and accumulate work. The level rows are left out: the
  // anchored closing charges them directly.
  const RunStats& stats = engine.last_stats();
  const gsa::ExecutionProfile& profile = engine.last_profile();
  uint64_t row_windows = 0;
  uint64_t row_edges = 0;
  uint64_t row_emissions = 0;
  for (const gsa::SuperstepProfile& row : profile.supersteps()) {
    row_windows += row.windows;
    row_edges += row.edges;
    row_emissions += row.emissions;
  }
  const gsa::OperatorCounters* walk = profile.Find(program.traverse.walk_op);
  ASSERT_NE(walk, nullptr);
  uint64_t accumulated = 0;
  for (const Emission& e : program.traverse.emissions) {
    const gsa::OperatorCounters* accum = profile.Find(e.accum_op);
    ASSERT_NE(accum, nullptr);
    accumulated += accum->in_pos + accum->in_neg;
  }
  EXPECT_EQ(row_windows, stats.windows_loaded);
  EXPECT_EQ(walk->windows, stats.windows_loaded);
  EXPECT_EQ(row_edges, stats.edges_scanned);
  EXPECT_EQ(walk->edges, stats.edges_scanned);
  EXPECT_EQ(row_emissions, stats.emissions_applied);
  EXPECT_EQ(accumulated, stats.emissions_applied);
  // The flattened deterministic profile (per-operator counters and
  // superstep timeline, excluding measured wall/cpu time). A length
  // marker separates runs so rows cannot alias across run boundaries.
  const std::vector<uint64_t> work = profile.WorkFingerprint();
  fp->profile_work.push_back(work.size());
  fp->profile_work.insert(fp->profile_work.end(), work.begin(), work.end());
}

/// One pipeline: a program over 2^scale vertices, run one-shot and then
/// incrementally over three batches of `batch_size` mutations.
struct PipelineSpec {
  std::string source;
  std::string tag;
  bool symmetric = false;
  double insert_ratio = 0.75;
  int fixed_supersteps = -1;
  int num_threads = 1;
  int num_partitions = 1;
  int scale = 9;
  /// The store's buffer pool capacity.
  size_t pool_pages = 2048;
  size_t batch_size = 60;
  /// False keeps every superstep on the record path.
  bool pull = true;
};

/// Runs the pipeline and fingerprints the state after every run.
Fingerprint RunPipelineOnce(const PipelineSpec& spec) {
  const VertexId n = VertexId{1} << spec.scale;
  auto all_edges = GenerateRmatEdges(n, 6 * static_cast<size_t>(n),
                                     {.seed = 99});
  // A symmetric pipeline mutates canonical (min, max) edges, so that no
  // batch inserts a present edge (DynamicGraphStore's degree contract).
  MutationWorkload workload(all_edges, 0.9, 1234, spec.symmetric);
  std::vector<Edge> base = workload.initial_edges();
  std::vector<Edge> base_stored =
      spec.symmetric ? SymmetrizeEdges(base) : base;

  auto compiled = CompileProgram(spec.source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto program = std::move(compiled).value();

  std::string path = ::testing::TempDir() + "/det_" + spec.tag + "_t" +
                     std::to_string(spec.num_threads);
  DynamicGraphStore::Options store_options;
  store_options.buffer_pool_pages = spec.pool_pages;
  auto store_or = DynamicGraphStore::Create(path, n, base_stored,
                                            store_options, &GlobalMetrics());
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();

  EngineOptions opts;
  opts.fixed_supersteps = spec.fixed_supersteps;
  opts.num_threads = spec.num_threads;
  opts.num_partitions = spec.num_partitions;
  // Small windows => many walk-shard tasks per superstep, so 2- and
  // 8-thread runs genuinely interleave instead of degenerating to one
  // task per job.
  opts.window_vertices = 64;
  Engine engine(store.get(), program.get(), opts);
  if (!spec.pull) EngineTestPeer::DisablePull(&engine);

  Fingerprint fp;
  EXPECT_TRUE(engine.RunOneShot(0).ok());
  Capture(engine, *program, n, &fp);

  for (Timestamp t = 1; t <= 3; ++t) {
    auto batch = workload.NextBatch(spec.batch_size, spec.insert_ratio);
    std::vector<EdgeDelta> stored_batch;
    for (const EdgeDelta& d : batch) {
      stored_batch.push_back(d);
      if (spec.symmetric) {
        stored_batch.push_back({{d.edge.dst, d.edge.src}, d.mult});
      }
    }
    auto ts = store->ApplyMutations(stored_batch);
    EXPECT_TRUE(ts.ok()) << ts.status().ToString();
    Status st = engine.RunIncremental(t);
    EXPECT_TRUE(st.ok()) << st.ToString();
    Capture(engine, *program, n, &fp);
  }
  fp.pool_misses = store->pool()->misses();
  EXPECT_EQ(engine.last_stats().threads,
            spec.num_threads > 1 ? spec.num_threads : 1)
      << spec.tag;
  return fp;
}

/// Runs one-shot + 3 incremental steps with `num_threads` workers, the
/// pull on, and checks that the pool engaged. `scale` sets 2^scale
/// vertices and `pool_pages` the store's buffer pool capacity.
Fingerprint RunPipeline(const std::string& source, bool symmetric,
                        double insert_ratio, int fixed_supersteps,
                        int num_threads, const std::string& tag,
                        int num_partitions = 1, int scale = 9,
                        size_t pool_pages = 2048) {
  PipelineSpec spec;
  spec.source = source;
  spec.tag = tag;
  spec.symmetric = symmetric;
  spec.insert_ratio = insert_ratio;
  spec.fixed_supersteps = fixed_supersteps;
  spec.num_threads = num_threads;
  spec.num_partitions = num_partitions;
  spec.scale = scale;
  spec.pool_pages = pool_pages;
  Fingerprint fp = RunPipelineOnce(spec);
  if (num_threads > 1) {
    // The pipelines below are parallel-safe; make sure the parallel
    // executor actually engaged (otherwise this test proves nothing).
    EXPECT_GT(fp.parallel_tasks, 0u) << tag;
    EXPECT_GT(fp.pooled_applies, 0u) << tag;
  } else {
    EXPECT_EQ(fp.parallel_tasks, 0u) << tag;
    EXPECT_EQ(fp.pooled_applies, 0u) << tag;
  }
  return fp;
}

/// Returns the fingerprints at threads 1, 2 and 8.
std::vector<Fingerprint> ExpectIdenticalAcrossThreadCounts(
    const std::string& source, bool symmetric, double insert_ratio,
    int fixed_supersteps, const std::string& tag, int scale = 9,
    size_t pool_pages = 2048) {
  std::vector<Fingerprint> fps = {RunPipeline(source, symmetric, insert_ratio,
                                              fixed_supersteps, 1, tag, 1,
                                              scale, pool_pages)};
  EXPECT_FALSE(fps.front().bits.empty());
  for (int threads : {2, 8}) {
    fps.push_back(RunPipeline(source, symmetric, insert_ratio,
                              fixed_supersteps, threads, tag, 1, scale,
                              pool_pages));
    EXPECT_TRUE(fps.back() == fps.front())
        << tag << " diverged at threads=" << threads;
  }
  return fps;
}

TEST(ParallelDeterminismTest, PageRank) {
  // Abelian SUM accumulation: the FP-order-sensitive case the replay
  // design exists for.
  const std::vector<Fingerprint> fps = ExpectIdenticalAcrossThreadCounts(
      PageRankProgram(), /*symmetric=*/false, 0.75, 10, "pr");
  // Recomputed supersteps sum in one-shot order: the comparison above
  // covers that plan only if every thread count took it.
  for (const Fingerprint& fp : fps) {
    EXPECT_GT(fp.recomputed_supersteps, 0u);
  }
}

TEST(ParallelDeterminismTest, WccWithDeletions) {
  // MIN monoid with deletions: exercises support counting and the
  // monoid-recompute job under the parallel executor.
  ExpectIdenticalAcrossThreadCounts(WccProgram(), /*symmetric=*/true, 0.5,
                                    -1, "wcc");
}

TEST(ParallelDeterminismTest, TriangleCount) {
  // Global accumulator + closing walk: covers global emissions and the
  // anchored sub-query interleaving with pooled jobs.
  const std::vector<Fingerprint> fps = ExpectIdenticalAcrossThreadCounts(
      TriangleCountProgram(), /*symmetric=*/true, 0.75, -1, "tc");
  // The one-shot's multi-hop job is cut by estimated work, not into its
  // 2^9 / 64 = 8 window blocks: the RMAT hubs of the first block run in
  // tasks of their own, and the identity above covers that cut.
  const uint64_t window_blocks = 8;
  EXPECT_GT(fps.at(1).oneshot_tasks, window_blocks);
}

TEST(ParallelDeterminismTest, PageRankOverSmallBufferPool) {
  // 2^12 vertices put each adjacency direction on several pages, and a
  // pool of four pages makes workers evict the pages other workers'
  // window cursors still pin: reads must return the same bytes.
  const std::vector<Fingerprint> fps = ExpectIdenticalAcrossThreadCounts(
      PageRankProgram(), /*symmetric=*/false, 0.75, 10, "pr_small_pool",
      /*scale=*/12, /*pool_pages=*/4);
  for (const Fingerprint& fp : fps) {
    // Far more page reads than the pool holds: pages were evicted and
    // read again throughout.
    EXPECT_GT(fp.pool_misses, 100u);
  }
}

TEST(ParallelDeterminismTest, WccDigestStableAcrossPartitionCounts) {
  // The state digest combines per-vertex hashes commutatively, so for
  // integer-exact programs it is also invariant to how vertices are
  // partitioned (float programs like PR legitimately drift in the last
  // bits across partition counts, so this asserts on WCC).
  Fingerprint base = RunPipeline(WccProgram(), /*symmetric=*/true, 0.5, -1,
                                 1, "wcc_p1", /*num_partitions=*/1);
  ASSERT_FALSE(base.digests.empty());
  for (int parts : {2, 4}) {
    Fingerprint fp =
        RunPipeline(WccProgram(), /*symmetric=*/true, 0.5, -1, 1,
                    "wcc_p" + std::to_string(parts), parts);
    EXPECT_EQ(fp.digests, base.digests)
        << "digest diverged at partitions=" << parts;
  }
}

TEST(ParallelDeterminismTest, SequentialPathIgnoresPool) {
  // threads=1 must not even construct pool state: stats report 1 thread
  // and zero parallel tasks.
  Fingerprint fp =
      RunPipeline(PageRankProgram(), false, 0.75, 10, 1, "seq");
  EXPECT_FALSE(fp.bits.empty());
}

TEST(ParallelDeterminismTest, TracingDoesNotChangeResults) {
  // The tracer must be pure observation: enabling it cannot move the
  // engine onto a different code path or change accumulation order, in
  // either the sequential or the parallel executor (the sequential walk
  // path swaps in a timing sink when tracing is on — same emissions, same
  // order, extra clock reads only).
  for (int threads : {1, 4}) {
    const std::string tag = "untraced_t" + std::to_string(threads);
    Fingerprint untraced =
        RunPipeline(PageRankProgram(), false, 0.75, 10, threads, tag);
    Tracer::Enable();
    Fingerprint traced = RunPipeline(PageRankProgram(), false, 0.75, 10,
                                     threads, "traced_t" +
                                                  std::to_string(threads));
    Tracer::Disable();
    EXPECT_GT(Tracer::event_count(), 0u) << "tracer saw no spans";
    Tracer::Reset();
    EXPECT_TRUE(traced == untraced)
        << "tracing changed results at threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, ProfilerDoesNotChangeResults) {
  // The sampling wall-profiler must also be pure observation: with the
  // sampler attached, TraceSpan additionally maintains the live span
  // stacks, but the engine's work fingerprint (every attribute bit,
  // every deterministic profile column) must match a sampler-free run —
  // in both the sequential and the parallel executor.
  for (int threads : {1, 4}) {
    Fingerprint unprofiled =
        RunPipeline(PageRankProgram(), false, 0.75, 10, threads,
                    "unprofiled_t" + std::to_string(threads));
    WallProfiler& prof = WallProfiler::Global();
    prof.Reset();
    // 1 kHz rather than the default 97 Hz: the pipeline can finish
    // within one default sampler period.
    prof.Start(1000);
    Fingerprint profiled =
        RunPipeline(PageRankProgram(), false, 0.75, 10, threads,
                    "profiled_t" + std::to_string(threads));
    prof.Stop();
    EXPECT_GT(prof.samples(), 0u) << "sampler never ticked";
    EXPECT_TRUE(profiled == unprofiled)
        << "profiling changed results at threads=" << threads;
  }
}

/// Max-id propagation (accumulator_variants_test's MAX monoid): support
/// counting of the mirrored extremum.
constexpr char kMaxComponents[] = R"(
  Vertex (id, active, out_nbrs, comp: long, max_comp: Accm<long, MAX>)
  Initialize (u) {
    u.comp = u.id;
    u.active = true;
  }
  Traverse (u) {
    For v in u.out_nbrs {
      v.max_comp.Accumulate(u.comp);
    }
  }
  Update (u) {
    If (u.max_comp > u.comp) {
      u.comp = u.max_comp;
      u.active = true;
    }
  }
)";

/// Two guarded start-invariant emissions, one under an If and one under
/// its Else: a SUM and a MAX fed from the same start.
constexpr char kGuardedStartInvariant[] = R"(
  Vertex (id, active, out_nbrs, out_degree, rank: double,
          share: Accm<double, SUM>, best: Accm<double, MAX>)
  Initialize (u) {
    u.rank = u.id % 7;
    u.active = true;
  }
  Traverse (u) {
    For v in u.out_nbrs {
      If (u.id % 3 != 0) {
        v.share.Accumulate(u.rank / u.out_degree);
      } Else {
        v.best.Accumulate(u.rank);
      }
    }
  }
  Update (u) {
    Let val = Floor(0.5 * u.share + 0.25 * u.best);
    If (val != u.rank) {
      u.rank = val;
      u.active = true;
    }
  }
)";

TEST(ParallelDeterminismTest, PullMatchesRecordPath) {
  // The pull kernel folds each target's contributions in the order the
  // record path applies them, so every bit and every work counter must
  // match a run with the pull turned off, at every thread count.
  // The monotone programs reach a recomputed superstep with a dense
  // frontier only when a batch rewires much of the graph, hence their
  // large, deletion-heavy batches.
  struct Case {
    std::string tag;
    std::string source;
    bool symmetric;
    int fixed_supersteps;
    size_t batch_size;
    double insert_ratio;
  };
  const std::vector<Case> cases = {
      {"pr", PageRankProgram(), false, 10, 60, 0.75},
      {"qpr", QuantizedPageRankProgram(), false, -1, 60, 0.75},
      {"lp", LabelPropProgram(4), false, 10, 60, 0.75},
      {"wcc", WccProgram(), true, -1, 1500, 0.25},
      {"bfs", BfsProgram(0), false, -1, 1500, 0.25},
      {"max", kMaxComponents, true, -1, 1500, 0.25},
      {"guarded", kGuardedStartInvariant, false, 10, 60, 0.75},
  };
  for (const Case& c : cases) {
    for (int threads : {1, 2, 8}) {
      PipelineSpec spec;
      spec.source = c.source;
      spec.symmetric = c.symmetric;
      spec.insert_ratio = c.insert_ratio;
      spec.fixed_supersteps = c.fixed_supersteps;
      spec.num_threads = threads;
      spec.batch_size = c.batch_size;
      const std::string tag =
          "pull_" + c.tag + "_t" + std::to_string(threads);
      spec.tag = tag;
      const Fingerprint pulled = RunPipelineOnce(spec);
      spec.tag = "record_" + c.tag;
      spec.pull = false;
      const Fingerprint recorded = RunPipelineOnce(spec);
      ASSERT_FALSE(pulled.bits.empty()) << tag;
      EXPECT_TRUE(pulled == recorded) << tag << ": pull and record differ";
      // The pull ran in the one-shot and in recomputed incremental
      // supersteps, and never with the pull turned off.
      EXPECT_GT(pulled.oneshot_pulls, 0u) << tag;
      EXPECT_GT(pulled.recomputed_supersteps, 0u) << tag;
      EXPECT_GT(pulled.incremental_pulls, 0u) << tag;
      EXPECT_EQ(recorded.oneshot_pulls + recorded.incremental_pulls, 0u)
          << tag;
      if (threads > 1) {
        EXPECT_GT(pulled.parallel_tasks, 0u) << tag;
      }
      if (c.tag == "bfs") {
        // BFS's first superstep walks from the root alone: a sparse
        // frontier stays on the record path within the pulled run.
        EXPECT_LT(pulled.oneshot_pulls, pulled.oneshot_supersteps) << tag;
      }
    }
  }
}


}  // namespace
}  // namespace itg
