// Unit tests of the walk enumerator (the physical Walk / W-Seek / W-Join
// operators): constraint fast paths, window accounting, delta streams,
// neighbor-pruning filters, and multiplicity propagation.
#include <gtest/gtest.h>

#include "algos/programs.h"
#include "compiler/compiled_program.h"
#include "engine/walk.h"
#include "gen/rmat.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

class WalkTest : public ::testing::Test {
 protected:
  void Build(const std::vector<Edge>& edges, VertexId n) {
    auto store = DynamicGraphStore::Create(
        ::testing::TempDir() + "/walk_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name(),
        n, edges, {}, &GlobalMetrics());
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
  }

  void Compile(const std::string& source) {
    auto program = CompileProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
  }

  std::unique_ptr<WalkEnumerator> MakeEnumerator(int window = 256,
                                                 bool eq_fast = true) {
    auto e = std::make_unique<WalkEnumerator>(
        program_.get(), store_.get(), store_->pool(),
        WalkEnumerator::Options{window, eq_fast});
    cols_.Init(store_->num_vertices(),
               std::vector<int>(program_->vertex_attrs.size() + 1, 1));
    e->SetEvalBase(&cols_, &globals_,
                   static_cast<double>(store_->num_vertices()), 0);
    return e;
  }

  std::unique_ptr<DynamicGraphStore> store_;
  std::unique_ptr<CompiledProgram> program_;
  ColumnSet cols_;
  std::vector<std::vector<double>> globals_;
};

TEST_F(WalkTest, TriangleWalksOnToyGraph) {
  // Triangle 0-1-2 plus a dangling edge 2-3.
  Build(SymmetrizeEdges({{0, 1}, {1, 2}, {0, 2}, {2, 3}}), 4);
  Compile(TriangleCountProgram());
  auto enumerator = MakeEnumerator();
  std::vector<LevelStream> streams(3, LevelStream::kCurrent);
  std::vector<const std::vector<uint8_t>*> allow(3, nullptr);
  std::vector<std::vector<VertexId>> walks;
  ASSERT_TRUE(enumerator
                  ->Enumerate({0, 1, 2, 3}, streams, 0, 0, allow, 3,
                              [&](const VertexId* row, int depth, int mult) {
                                if (depth == 3) {
                                  walks.push_back({row[0], row[1], row[2],
                                                   row[3]});
                                  EXPECT_EQ(mult, 1);
                                }
                              })
                  .ok());
  // Exactly one closing walk: 0 -> 1 -> 2 -> 0 (u1<u2<u3, u4==u1).
  ASSERT_EQ(walks.size(), 1u);
  EXPECT_EQ(walks[0], (std::vector<VertexId>{0, 1, 2, 0}));
}

TEST_F(WalkTest, EqFastPathMatchesScanPath) {
  auto edges = SymmetrizeEdges(GenerateRmatEdges(1 << 8, 3 << 8,
                                                 {.seed = 41}));
  Build(edges, 1 << 8);
  Compile(TriangleCountProgram());
  std::vector<VertexId> starts(1 << 8);
  for (VertexId v = 0; v < (1 << 8); ++v) starts[v] = v;
  std::vector<LevelStream> streams(3, LevelStream::kCurrent);
  std::vector<const std::vector<uint8_t>*> allow(3, nullptr);
  uint64_t with_fast = 0;
  uint64_t without = 0;
  {
    auto e = MakeEnumerator(256, /*eq_fast=*/true);
    ASSERT_TRUE(e->Enumerate(starts, streams, 0, 0, allow, 3,
                             [&](const VertexId*, int depth, int) {
                               with_fast += (depth == 3);
                             })
                    .ok());
    // The closing probe should scan far fewer edges than the full scan.
    uint64_t scanned_fast = e->edges_scanned();
    auto e2 = MakeEnumerator(256, /*eq_fast=*/false);
    ASSERT_TRUE(e2->Enumerate(starts, streams, 0, 0, allow, 3,
                              [&](const VertexId*, int depth, int) {
                                without += (depth == 3);
                              })
                     .ok());
    EXPECT_EQ(with_fast, without);
    EXPECT_LT(scanned_fast, e2->edges_scanned());
  }
  EXPECT_GT(with_fast, 0u);
}

TEST_F(WalkTest, WindowSizeDoesNotChangeResults) {
  auto edges = SymmetrizeEdges(GenerateRmatEdges(1 << 7, 3 << 7,
                                                 {.seed = 43}));
  Build(edges, 1 << 7);
  Compile(TriangleCountProgram());
  std::vector<VertexId> starts(1 << 7);
  for (VertexId v = 0; v < (1 << 7); ++v) starts[v] = v;
  std::vector<LevelStream> streams(3, LevelStream::kCurrent);
  std::vector<const std::vector<uint8_t>*> allow(3, nullptr);
  uint64_t counts[3] = {};
  int windows[3] = {4, 64, 4096};
  uint64_t loads[3] = {};
  for (int i = 0; i < 3; ++i) {
    auto e = MakeEnumerator(windows[i]);
    ASSERT_TRUE(e->Enumerate(starts, streams, 0, 0, allow, 3,
                             [&](const VertexId*, int depth, int) {
                               counts[i] += (depth == 3);
                             })
                    .ok());
    loads[i] = e->windows_loaded();
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
  // Smaller windows mean more W-Seek loads.
  EXPECT_GT(loads[0], loads[2]);
}

TEST_F(WalkTest, MultiWindowJoinKeepsEmissionSequence) {
  // The graph of WindowSizeDoesNotChangeResults with 4-vertex windows, so
  // every level's frontier spans many windows. The walks, their order and
  // the W-Seek/W-Join work are pinned: a W-Join that regroups prefixes by
  // window must fire the sink in exactly the same sequence.
  auto edges = SymmetrizeEdges(GenerateRmatEdges(1 << 7, 3 << 7,
                                                 {.seed = 43}));
  Build(edges, 1 << 7);
  Compile(TriangleCountProgram());
  std::vector<VertexId> starts(1 << 7);
  for (VertexId v = 0; v < (1 << 7); ++v) starts[v] = v;
  std::vector<LevelStream> streams(3, LevelStream::kCurrent);
  std::vector<const std::vector<uint8_t>*> allow(3, nullptr);
  // FNV-1a over every sink call's (depth, row[0..depth], mult).
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&](int64_t x) {
    hash = (hash ^ static_cast<uint64_t>(x)) * 1099511628211ull;
  };
  uint64_t calls = 0;
  auto e = MakeEnumerator(4);
  ASSERT_TRUE(e->Enumerate(starts, streams, 0, 0, allow, 3,
                           [&](const VertexId* row, int depth, int mult) {
                             ++calls;
                             mix(depth);
                             for (int d = 0; d <= depth; ++d) mix(row[d]);
                             mix(mult);
                           })
                  .ok());
  EXPECT_EQ(calls, 1709u);
  EXPECT_EQ(hash, 5512426006543494675ull);
  EXPECT_EQ(e->windows_loaded(), 244u);
  EXPECT_EQ(e->edges_scanned(), 2293u);
}

TEST_F(WalkTest, DeltaStreamCarriesMultiplicity) {
  Build(SymmetrizeEdges({{0, 1}, {1, 2}}), 4);
  Compile(PageRankProgram());
  ASSERT_TRUE(store_
                  ->ApplyMutations({{{0, 3}, +1}, {{0, 1}, -1}})
                  .ok());
  auto enumerator = MakeEnumerator();
  std::vector<LevelStream> streams = {LevelStream::kDelta};
  std::vector<const std::vector<uint8_t>*> allow = {nullptr};
  std::vector<std::pair<VertexId, int>> hits;
  ASSERT_TRUE(enumerator
                  ->Enumerate({0}, streams, 1, 0, allow, 1,
                              [&](const VertexId* row, int depth, int mult) {
                                if (depth == 1) hits.push_back({row[1], mult});
                              })
                  .ok());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (std::pair<VertexId, int>{1, -1}));
  EXPECT_EQ(hits[1], (std::pair<VertexId, int>{3, +1}));
}

TEST_F(WalkTest, PreviousStreamSeesOldSnapshot) {
  Build(SymmetrizeEdges({{0, 1}}), 4);
  Compile(PageRankProgram());
  ASSERT_TRUE(store_->ApplyMutations({{{0, 2}, +1}}).ok());
  auto enumerator = MakeEnumerator();
  std::vector<const std::vector<uint8_t>*> allow = {nullptr};
  auto collect = [&](LevelStream stream) {
    std::vector<VertexId> out;
    std::vector<LevelStream> streams = {stream};
    EXPECT_TRUE(enumerator
                    ->Enumerate({0}, streams, 1, 0, allow, 1,
                                [&](const VertexId* row, int depth, int) {
                                  if (depth == 1) out.push_back(row[1]);
                                })
                    .ok());
    return out;
  };
  EXPECT_EQ(collect(LevelStream::kPrevious), (std::vector<VertexId>{1}));
  EXPECT_EQ(collect(LevelStream::kCurrent), (std::vector<VertexId>{1, 2}));
}

TEST_F(WalkTest, LevelAllowFiltersExtensions) {
  Build(SymmetrizeEdges({{0, 1}, {0, 2}, {0, 3}}), 4);
  Compile(PageRankProgram());
  auto enumerator = MakeEnumerator();
  std::vector<uint8_t> only_two(4, 0);
  only_two[2] = 1;
  std::vector<LevelStream> streams = {LevelStream::kCurrent};
  std::vector<const std::vector<uint8_t>*> allow = {&only_two};
  std::vector<VertexId> out;
  ASSERT_TRUE(enumerator
                  ->Enumerate({0}, streams, 0, 0, allow, 1,
                              [&](const VertexId* row, int depth, int) {
                                if (depth == 1) out.push_back(row[1]);
                              })
                  .ok());
  EXPECT_EQ(out, (std::vector<VertexId>{2}));
}

}  // namespace
}  // namespace itg
