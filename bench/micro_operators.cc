// Operator-level microbenchmarks (google-benchmark): the GSA physical
// operators (window seek, walk enumeration), the storage primitives
// (buffer pool, disk array, delta overlay), and the generators.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "algos/programs.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "engine/walk.h"
#include "gen/rmat.h"
#include "storage/disk_array.h"
#include "storage/graph_store.h"
#include "storage/vertex_store.h"

namespace itg {
namespace {

std::string TempPath(const std::string& name) {
  static int counter = 0;
  auto dir = std::filesystem::temp_directory_path() / "itg_micro";
  std::filesystem::create_directories(dir);
  return (dir / (name + std::to_string(counter++))).string();
}

void BM_RmatGeneration(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto edges = GenerateRmat(scale);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(state.iterations() * (1ll << scale));
}
BENCHMARK(BM_RmatGeneration)->Arg(14)->Arg(16)->Arg(18);

void BM_CsrBuild(benchmark::State& state) {
  auto edges = GenerateRmat(static_cast<int>(state.range(0)));
  VertexId n = RmatVertices(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Csr csr = Csr::FromEdges(n, edges);
    benchmark::DoNotOptimize(csr.num_edges());
  }
}
BENCHMARK(BM_CsrBuild)->Arg(14)->Arg(16);

void BM_BufferPoolHit(benchmark::State& state) {
  Metrics metrics;
  auto store = PageStore::Open(TempPath("pool"), &metrics);
  uint8_t byte = 7;
  for (int i = 0; i < 16; ++i) {
    (void)(*store)->AppendPage(&byte, 1);
  }
  BufferPool pool(store->get(), 16);
  PageId id = 0;
  for (auto _ : state) {
    auto page = pool.GetPage(id);
    benchmark::DoNotOptimize(page->get());
    id = (id + 1) % 16;
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMiss(benchmark::State& state) {
  Metrics metrics;
  auto store = PageStore::Open(TempPath("pool_miss"), &metrics);
  uint8_t byte = 7;
  for (int i = 0; i < 64; ++i) {
    (void)(*store)->AppendPage(&byte, 1);
  }
  BufferPool pool(store->get(), 4);  // thrashes
  PageId id = 0;
  for (auto _ : state) {
    auto page = pool.GetPage(id);
    benchmark::DoNotOptimize(page->get());
    id = (id + 13) % 64;
  }
}
BENCHMARK(BM_BufferPoolMiss);

void BM_AdjacencySeek(benchmark::State& state) {
  const int scale = 16;
  auto store = DynamicGraphStore::Create(TempPath("seek"),
                                         RmatVertices(scale),
                                         GenerateRmat(scale), {},
                                         &GlobalMetrics());
  std::vector<VertexId> adjacency;
  VertexId v = 0;
  const VertexId n = RmatVertices(scale);
  for (auto _ : state) {
    (void)(*store)->GetAdjacency((*store)->pool(), v, 0, Direction::kOut,
                                 &adjacency);
    benchmark::DoNotOptimize(adjacency.data());
    v = (v + 997) % n;
  }
}
BENCHMARK(BM_AdjacencySeek);

/// The Walk operator: full one-hop enumeration (PR-shaped traversal).
void BM_WalkEnumerationOneHop(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  auto program = std::move(CompileProgram(PageRankProgram())).value();
  auto store = DynamicGraphStore::Create(TempPath("walk1"),
                                         RmatVertices(scale),
                                         GenerateRmat(scale), {},
                                         &GlobalMetrics());
  WalkEnumerator enumerator(program.get(), store->get(), (*store)->pool(),
                            {256, true});
  ColumnSet cols;
  cols.Init(RmatVertices(scale), {1, 1, 1, 1, 1, 1});
  std::vector<std::vector<double>> globals;
  enumerator.SetEvalBase(&cols, &globals, RmatVertices(scale),
                         1 << scale);
  std::vector<VertexId> starts(RmatVertices(scale));
  for (VertexId v = 0; v < RmatVertices(scale); ++v) starts[v] = v;
  std::vector<LevelStream> streams = {LevelStream::kCurrent};
  std::vector<const std::vector<uint8_t>*> allow = {nullptr};
  uint64_t walks = 0;
  for (auto _ : state) {
    walks = 0;
    (void)enumerator.Enumerate(
        starts, streams, 0, 0, allow, 1,
        [&](const VertexId*, int depth, int) { walks += (depth == 1); });
    benchmark::DoNotOptimize(walks);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(walks));
}
BENCHMARK(BM_WalkEnumerationOneHop)->Arg(14)->Arg(16);

/// The Walk operator: 3-hop closing walks (TC-shaped traversal with the
/// ordering fast paths and the closing-probe rewrite).
void BM_WalkEnumerationTriangles(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  auto program = std::move(CompileProgram(TriangleCountProgram())).value();
  auto store = DynamicGraphStore::Create(
      TempPath("walk3"), RmatVertices(scale),
      SymmetrizeEdges(GenerateRmat(scale)), {}, &GlobalMetrics());
  WalkEnumerator enumerator(program.get(), store->get(), (*store)->pool(),
                            {256, true});
  ColumnSet cols;
  cols.Init(RmatVertices(scale), {1, 1, 1});
  std::vector<std::vector<double>> globals;
  enumerator.SetEvalBase(&cols, &globals, RmatVertices(scale),
                         2 << scale);
  std::vector<VertexId> starts(RmatVertices(scale));
  for (VertexId v = 0; v < RmatVertices(scale); ++v) starts[v] = v;
  std::vector<LevelStream> streams(3, LevelStream::kCurrent);
  std::vector<const std::vector<uint8_t>*> allow(3, nullptr);
  uint64_t triangles = 0;
  for (auto _ : state) {
    triangles = 0;
    (void)enumerator.Enumerate(
        starts, streams, 0, 0, allow, 3,
        [&](const VertexId*, int depth, int) { triangles += (depth == 3); });
    benchmark::DoNotOptimize(triangles);
  }
  state.counters["triangles"] = static_cast<double>(triangles);
}
BENCHMARK(BM_WalkEnumerationTriangles)->Arg(12)->Arg(14);

void BM_VertexStoreOverlay(benchmark::State& state) {
  Metrics metrics;
  auto pages = PageStore::Open(TempPath("vso"), &metrics);
  const VertexId n = 1 << 14;
  VertexStore vs(pages->get(), n, MergeStrategy::kNoMerge);
  int attr = vs.RegisterAttribute("rank", 1);
  Rng rng(1);
  std::vector<double> values(static_cast<size_t>(n));
  for (Timestamp t = 0; t < 20; ++t) {
    std::vector<VertexId> vids;
    for (int i = 0; i < 500; ++i) {
      const VertexId v = static_cast<VertexId>(rng.Uniform(n));
      values[static_cast<size_t>(v)] = rng.NextDouble();
      vids.push_back(v);
    }
    std::sort(vids.begin(), vids.end());
    vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
    (void)vs.WriteDelta(t, 0, attr, vids, values.data());
  }
  BufferPool pool(pages->get(), 64);
  std::vector<double> column(static_cast<size_t>(n));
  for (auto _ : state) {
    (void)vs.OverlaySuperstep(&pool, 19, 0, attr, column.data());
    benchmark::DoNotOptimize(column.data());
  }
}
BENCHMARK(BM_VertexStoreOverlay);

void BM_DiskArrayScan(benchmark::State& state) {
  Metrics metrics;
  auto pages = PageStore::Open(TempPath("scan"), &metrics);
  DiskArrayBuilder<VertexId> builder(pages->get());
  const size_t count = 1 << 18;
  for (size_t i = 0; i < count; ++i) {
    (void)builder.Append(static_cast<VertexId>(i));
  }
  auto array = std::move(builder.Finish()).value();
  BufferPool pool(pages->get(), 64);
  std::vector<VertexId> out(4096);
  for (auto _ : state) {
    for (size_t off = 0; off + out.size() <= count; off += out.size()) {
      (void)array.Read(&pool, off, out.size(), out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count * sizeof(VertexId)));
}
BENCHMARK(BM_DiskArrayScan);

}  // namespace
}  // namespace itg

BENCHMARK_MAIN();
