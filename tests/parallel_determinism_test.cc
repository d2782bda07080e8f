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
  /// Walk tasks the one-shot ran on the pool (not compared: 0 at one
  /// thread).
  uint64_t oneshot_tasks = 0;

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
  fp->digests.push_back(engine.last_stats().state_digest);
  // The flattened deterministic profile (per-operator counters and
  // superstep timeline, excluding measured wall/cpu time). A length
  // marker separates runs so rows cannot alias across run boundaries.
  const std::vector<uint64_t> work = engine.last_profile().WorkFingerprint();
  fp->profile_work.push_back(work.size());
  fp->profile_work.insert(fp->profile_work.end(), work.begin(), work.end());
}

/// Runs one-shot + 3 incremental steps with `num_threads` workers and
/// fingerprints the state after every run. `scale` sets 2^scale vertices
/// and `pool_pages` the store's buffer pool capacity.
Fingerprint RunPipeline(const std::string& source, bool symmetric,
                        double insert_ratio, int fixed_supersteps,
                        int num_threads, const std::string& tag,
                        int num_partitions = 1, int scale = 9,
                        size_t pool_pages = 2048) {
  const VertexId n = VertexId{1} << scale;
  auto all_edges = GenerateRmatEdges(n, 6 * static_cast<size_t>(n),
                                     {.seed = 99});
  if (symmetric) {
    for (Edge& e : all_edges) {
      if (e.src > e.dst) std::swap(e.src, e.dst);
    }
  }
  MutationWorkload workload(all_edges, 0.9, 1234);
  std::vector<Edge> base = workload.initial_edges();
  std::vector<Edge> base_stored = symmetric ? SymmetrizeEdges(base) : base;

  auto compiled = CompileProgram(source);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto program = std::move(compiled).value();

  std::string path = ::testing::TempDir() + "/det_" + tag + "_t" +
                     std::to_string(num_threads);
  DynamicGraphStore::Options store_options;
  store_options.buffer_pool_pages = pool_pages;
  auto store_or = DynamicGraphStore::Create(path, n, base_stored,
                                            store_options, &GlobalMetrics());
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();

  EngineOptions opts;
  opts.fixed_supersteps = fixed_supersteps;
  opts.num_threads = num_threads;
  opts.num_partitions = num_partitions;
  // Small windows => many walk-shard tasks per superstep, so 2- and
  // 8-thread runs genuinely interleave instead of degenerating to one
  // task per job.
  opts.window_vertices = 64;
  Engine engine(store.get(), program.get(), opts);

  Fingerprint fp;
  uint64_t parallel_tasks = 0;
  EXPECT_TRUE(engine.RunOneShot(0).ok());
  Capture(engine, *program, n, &fp);
  parallel_tasks += engine.last_stats().parallel_tasks;
  fp.oneshot_tasks = engine.last_stats().parallel_tasks;

  for (Timestamp t = 1; t <= 3; ++t) {
    auto batch = workload.NextBatch(60, insert_ratio);
    std::vector<EdgeDelta> stored_batch;
    for (const EdgeDelta& d : batch) {
      stored_batch.push_back(d);
      if (symmetric) {
        stored_batch.push_back({{d.edge.dst, d.edge.src}, d.mult});
      }
    }
    auto ts = store->ApplyMutations(stored_batch);
    EXPECT_TRUE(ts.ok()) << ts.status().ToString();
    Status st = engine.RunIncremental(t);
    EXPECT_TRUE(st.ok()) << st.ToString();
    Capture(engine, *program, n, &fp);
    parallel_tasks += engine.last_stats().parallel_tasks;
  }
  fp.pool_misses = store->pool()->misses();
  if (num_threads > 1) {
    // The pipelines below are parallel-safe; make sure the parallel
    // executor actually engaged (otherwise this test proves nothing).
    EXPECT_GT(parallel_tasks, 0u) << tag;
    EXPECT_GT(fp.pooled_applies, 0u) << tag;
    EXPECT_EQ(engine.last_stats().threads, num_threads) << tag;
  } else {
    EXPECT_EQ(parallel_tasks, 0u) << tag;
    EXPECT_EQ(fp.pooled_applies, 0u) << tag;
    EXPECT_EQ(engine.last_stats().threads, 1) << tag;
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
  // tasks of their own, and the identity above covers that cut. The pool
  // also runs the one-shot's Update as 8 shards of 64 vertices.
  const uint64_t window_blocks = 8;
  const uint64_t update_shards = 8;
  EXPECT_GT(fps.at(1).oneshot_tasks, window_blocks + update_shards);
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

}  // namespace
}  // namespace itg
