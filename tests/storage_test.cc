#include <gtest/gtest.h>

#include "common/metrics.h"
#include "storage/csr.h"
#include "storage/disk_array.h"
#include "storage/edge_delta_store.h"
#include "storage/graph_store.h"
#include "storage/page_store.h"

namespace itg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PageStoreTest, AppendAndRead) {
  Metrics metrics;
  auto store = PageStore::Open(TempPath("pages1"), &metrics);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> payload(100, 0xAB);
  auto id = (*store)->AppendPage(payload.data(), payload.size());
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE((*store)->ReadPage(*id, out.data()).ok());
  EXPECT_EQ(out[0], 0xAB);
  EXPECT_EQ(out[99], 0xAB);
  EXPECT_EQ(out[100], 0);  // zero padded
  EXPECT_EQ(metrics.write_bytes(), kPageSize);
  EXPECT_EQ(metrics.read_bytes(), kPageSize);
}

TEST(PageStoreTest, RejectsOversizedPayloadAndBadIds) {
  Metrics metrics;
  auto store = PageStore::Open(TempPath("pages2"), &metrics);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> big(kPageSize + 1);
  EXPECT_FALSE((*store)->AppendPage(big.data(), big.size()).ok());
  std::vector<uint8_t> out(kPageSize);
  EXPECT_FALSE((*store)->ReadPage(5, out.data()).ok());
}

TEST(BufferPoolTest, CachesAndEvictsLru) {
  Metrics metrics;
  auto store = PageStore::Open(TempPath("pages3"), &metrics);
  ASSERT_TRUE(store.ok());
  uint8_t byte = 1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*store)->AppendPage(&byte, 1).ok());
  }
  BufferPool pool(store->get(), /*capacity_pages=*/2);
  ASSERT_TRUE(pool.GetPage(0).ok());
  ASSERT_TRUE(pool.GetPage(1).ok());
  ASSERT_TRUE(pool.GetPage(0).ok());  // hit
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 2u);
  ASSERT_TRUE(pool.GetPage(2).ok());  // evicts page 1 (LRU)
  ASSERT_TRUE(pool.GetPage(0).ok());  // still cached
  EXPECT_EQ(pool.hits(), 2u);
  ASSERT_TRUE(pool.GetPage(1).ok());  // miss again
  EXPECT_EQ(pool.misses(), 4u);
}

TEST(DiskArrayTest, RoundTripAcrossPages) {
  Metrics metrics;
  auto store = PageStore::Open(TempPath("pages4"), &metrics);
  ASSERT_TRUE(store.ok());
  DiskArrayBuilder<int64_t> builder(store->get());
  const size_t n = DiskArray<int64_t>::ElementsPerPage() * 3 + 17;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(builder.Append(static_cast<int64_t>(i * 3)).ok());
  }
  auto array = builder.Finish();
  ASSERT_TRUE(array.ok());
  EXPECT_EQ(array->size(), n);
  BufferPool pool(store->get(), 8);
  auto all = array->ReadAll(&pool);
  ASSERT_TRUE(all.ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ((*all)[i], static_cast<int64_t>(i * 3));
  }
  // Random range straddling a page boundary.
  size_t start = DiskArray<int64_t>::ElementsPerPage() - 5;
  std::vector<int64_t> out(10);
  ASSERT_TRUE(array->Read(&pool, start, 10, out.data()).ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], static_cast<int64_t>((start + i) * 3));
  }
  EXPECT_FALSE(array->Read(&pool, n - 1, 2, out.data()).ok());
}

TEST(DiskArrayTest, CursorReadsMatchPlainReadsAcrossPages) {
  Metrics metrics;
  auto store = PageStore::Open(TempPath("pages_cursor"), &metrics);
  ASSERT_TRUE(store.ok());
  DiskArrayBuilder<int64_t> builder(store->get());
  const size_t per_page = DiskArray<int64_t>::ElementsPerPage();
  const size_t n = per_page * 3 + 17;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(builder.Append(static_cast<int64_t>(i * 7 + 1)).ok());
  }
  auto array = builder.Finish();
  ASSERT_TRUE(array.ok());
  BufferPool pool(store->get(), 8);
  // Consecutive runs, the middle ones straddling page boundaries.
  PageCursor cursor;
  const std::vector<std::pair<size_t, size_t>> runs = {
      {0, 10}, {per_page - 5, 10}, {per_page + 5, per_page + 3},
      {2 * per_page + 8, 3}, {n - 4, 4}};
  for (const auto& [start, count] : runs) {
    std::vector<int64_t> plain(count);
    std::vector<int64_t> pinned(count);
    ASSERT_TRUE(array->Read(&pool, start, count, plain.data()).ok());
    ASSERT_TRUE(
        array->Read(&pool, start, count, pinned.data(), &cursor).ok());
    EXPECT_EQ(pinned, plain) << "run at " << start;
  }
  EXPECT_FALSE(array->Read(&pool, n - 1, 2, nullptr, &cursor).ok());
}

TEST(DiskArrayTest, CursorCostsOneLookupPerPageTouched) {
  Metrics metrics;
  auto store = PageStore::Open(TempPath("pages_lookups"), &metrics);
  ASSERT_TRUE(store.ok());
  DiskArrayBuilder<int64_t> builder(store->get());
  const size_t per_page = DiskArray<int64_t>::ElementsPerPage();
  const size_t n = per_page * 3;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(builder.Append(static_cast<int64_t>(i)).ok());
  }
  auto array = builder.Finish();
  ASSERT_TRUE(array.ok());
  BufferPool pool(store->get(), 8);
  // 2 * per_page / 16 reads of 16 elements walk pages 0 and 1 in order,
  // like a W-Seek window of neighboring adjacency lists.
  PageCursor cursor;
  int64_t out[16];
  for (size_t start = 0; start < 2 * per_page; start += 16) {
    ASSERT_TRUE(array->Read(&pool, start, 16, out, &cursor).ok());
    ASSERT_EQ(out[0], static_cast<int64_t>(start));
  }
  EXPECT_EQ(pool.hits() + pool.misses(), 2u);
  // Without a cursor every read is a lookup.
  for (size_t start = 0; start < 2 * per_page; start += 16) {
    ASSERT_TRUE(array->Read(&pool, start, 16, out).ok());
  }
  EXPECT_EQ(pool.hits() + pool.misses(), 2u + 2 * per_page / 16);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(CsrTest, BuildsSortedDedupedAdjacency) {
  std::vector<Edge> edges = {{0, 2}, {0, 1}, {0, 2}, {1, 0}, {2, 2}};
  Csr csr = Csr::FromEdges(3, edges);
  EXPECT_EQ(csr.num_edges(), 3u);  // dup and self-loop dropped
  auto n0 = csr.Neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1);
  EXPECT_EQ(n0[1], 2);
  EXPECT_TRUE(csr.HasEdge(1, 0));
  EXPECT_FALSE(csr.HasEdge(2, 0));
  EXPECT_EQ(csr.Degree(0), 2);
}

TEST(CsrTest, TransposeReversesEdges) {
  std::vector<Edge> edges = {{0, 1}, {0, 2}, {1, 2}};
  Csr in = Csr::FromEdges(3, edges).Transposed();
  EXPECT_TRUE(in.HasEdge(1, 0));
  EXPECT_TRUE(in.HasEdge(2, 0));
  EXPECT_TRUE(in.HasEdge(2, 1));
  EXPECT_EQ(in.num_edges(), 3u);
}

TEST(EdgeDeltaStoreTest, BatchesAreDirectionIndexed) {
  Metrics metrics;
  auto pages = PageStore::Open(TempPath("pages5"), &metrics);
  ASSERT_TRUE(pages.ok());
  EdgeDeltaStore store(pages->get());
  ASSERT_TRUE(store.ApplyBatch(1, {{{1, 2}, +1}, {{3, 2}, -1}}).ok());
  EXPECT_EQ(store.BatchSize(1), 2u);
  BufferPool pool(pages->get(), 4);

  std::vector<std::pair<Edge, Multiplicity>> seen;
  ASSERT_TRUE(store
                  .ForEachDelta(&pool, 1, Direction::kOut,
                                [&](Edge e, Multiplicity m) {
                                  seen.push_back({e, m});
                                })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, (Edge{1, 2}));
  EXPECT_EQ(seen[0].second, 1);
  EXPECT_EQ(seen[1].first, (Edge{3, 2}));
  EXPECT_EQ(seen[1].second, -1);

  // In-direction: edges reversed so src is the traversal origin.
  seen.clear();
  ASSERT_TRUE(store
                  .ForEachDelta(&pool, 1, Direction::kIn,
                                [&](Edge e, Multiplicity m) {
                                  seen.push_back({e, m});
                                })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, (Edge{2, 1}));
  EXPECT_EQ(seen[1].first, (Edge{2, 3}));

  std::vector<std::pair<VertexId, Multiplicity>> adj;
  ASSERT_TRUE(
      store.GetDeltaAdjacency(&pool, 1, 2, Direction::kIn, &adj).ok());
  ASSERT_EQ(adj.size(), 2u);
  EXPECT_EQ(adj[0].first, 1);
  EXPECT_EQ(adj[1].first, 3);

  std::vector<VertexId> sources;
  ASSERT_TRUE(store.DeltaSources(1, Direction::kOut, &sources).ok());
  EXPECT_EQ(sources, (std::vector<VertexId>{1, 3}));
}

TEST(EdgeDeltaStoreTest, RejectsNonConsecutiveTimestamps) {
  Metrics metrics;
  auto pages = PageStore::Open(TempPath("pages6"), &metrics);
  ASSERT_TRUE(pages.ok());
  EdgeDeltaStore store(pages->get());
  EXPECT_FALSE(store.ApplyBatch(2, {{{1, 2}, +1}}).ok());
}

class GraphStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Edge> base = {{0, 1}, {0, 2}, {1, 2}, {2, 0}};
    auto store = DynamicGraphStore::Create(TempPath("gs"), 4, base, {},
                                           &GlobalMetrics());
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
  }

  std::vector<VertexId> Adjacency(VertexId u, Timestamp t,
                                  Direction d = Direction::kOut) {
    std::vector<VertexId> out;
    EXPECT_TRUE(store_->GetAdjacency(store_->pool(), u, t, d, &out).ok());
    return out;
  }

  std::unique_ptr<DynamicGraphStore> store_;
};

TEST_F(GraphStoreTest, BaseSnapshotReads) {
  EXPECT_EQ(Adjacency(0, 0), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(Adjacency(2, 0), (std::vector<VertexId>{0}));
  EXPECT_EQ(Adjacency(0, 0, Direction::kIn), (std::vector<VertexId>{2}));
  EXPECT_EQ(store_->Degree(0, 0, Direction::kOut), 2);
  EXPECT_EQ(store_->num_edges(0), 4u);
}

TEST_F(GraphStoreTest, MutationsMergeIntoViews) {
  ASSERT_TRUE(store_->ApplyMutations({{{0, 3}, +1}, {{0, 1}, -1}}).ok());
  // New view.
  EXPECT_EQ(Adjacency(0, 1), (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(store_->Degree(0, 1, Direction::kOut), 2);
  EXPECT_EQ(Adjacency(3, 1, Direction::kIn), (std::vector<VertexId>{0}));
  // Previous view unchanged.
  EXPECT_EQ(Adjacency(0, 0), (std::vector<VertexId>{1, 2}));
  auto has = store_->HasEdge(store_->pool(), 0, 1, 1, Direction::kOut);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
  has = store_->HasEdge(store_->pool(), 0, 3, 1, Direction::kOut);
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
  EXPECT_EQ(store_->num_edges(1), 4u);
}

TEST_F(GraphStoreTest, ReinsertionAfterDeletion) {
  ASSERT_TRUE(store_->ApplyMutations({{{0, 1}, -1}}).ok());
  EXPECT_EQ(Adjacency(0, 1), (std::vector<VertexId>{2}));
  ASSERT_TRUE(store_->ApplyMutations({{{0, 1}, +1}}).ok());
  EXPECT_EQ(Adjacency(0, 2), (std::vector<VertexId>{1, 2}));
}

TEST_F(GraphStoreTest, OnlyTwoViewsRetained) {
  ASSERT_TRUE(store_->ApplyMutations({{{0, 3}, +1}}).ok());
  ASSERT_TRUE(store_->ApplyMutations({{{1, 3}, +1}}).ok());
  // Views 1 and 2 live; view 0 dropped.
  EXPECT_EQ(Adjacency(1, 2), (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(Adjacency(1, 1), (std::vector<VertexId>{2}));
}

}  // namespace
}  // namespace itg
