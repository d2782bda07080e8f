#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "common/metrics.h"
#include "storage/page_store.h"
#include "storage/vertex_store.h"

namespace itg {
namespace {

/// One after-image: a vertex and its `width` values.
using Record = std::pair<VertexId, std::vector<double>>;

/// Writes F(t, s) holding `records` (sorted by vid) through the column
/// interface the engine uses.
Status WriteRecords(VertexStore& vs, Timestamp t, Superstep s, int attr,
                    const std::vector<Record>& records) {
  const size_t width = static_cast<size_t>(vs.attribute_width(attr));
  std::vector<double> column(static_cast<size_t>(vs.num_vertices()) * width);
  std::vector<VertexId> vids;
  for (const auto& [v, values] : records) {
    vids.push_back(v);
    std::copy(values.begin(), values.end(),
              column.begin() + static_cast<ptrdiff_t>(v * width));
  }
  return vs.WriteDelta(t, s, attr, vids, column.data());
}

class VertexStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = PageStore::Open(::testing::TempDir() + "/vs_pages",
                                 &metrics_);
    ASSERT_TRUE(store.ok());
    pages_ = std::move(store).value();
    pool_ = std::make_unique<BufferPool>(pages_.get(), 64);
  }

  Metrics metrics_;
  std::unique_ptr<PageStore> pages_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(VertexStoreTest, OverlayAppliesChainInSnapshotOrder) {
  VertexStore vs(pages_.get(), 8);
  int attr = vs.RegisterAttribute("rank", 1);
  ASSERT_TRUE(WriteRecords(vs, 0, 1, attr, {{2, {10.0}}, {5, {50.0}}}).ok());
  ASSERT_TRUE(WriteRecords(vs, 1, 1, attr, {{2, {20.0}}}).ok());
  ASSERT_TRUE(WriteRecords(vs, 2, 1, attr, {{3, {30.0}}}).ok());

  std::vector<double> column(8, -1.0);
  // Overlay up to snapshot 1: file from snapshot 2 excluded.
  ASSERT_TRUE(vs.OverlaySuperstep(pool_.get(), 1, 1, attr, column.data())
                  .ok());
  EXPECT_EQ(column[2], 20.0);  // last writer wins
  EXPECT_EQ(column[5], 50.0);
  EXPECT_EQ(column[3], -1.0);  // untouched

  std::vector<VertexId> changed;
  std::fill(column.begin(), column.end(), -1.0);
  ASSERT_TRUE(vs.OverlaySuperstep(pool_.get(), 2, 1, attr, column.data(),
                                  &changed)
                  .ok());
  EXPECT_EQ(column[3], 30.0);
  EXPECT_EQ(changed.size(), 4u);  // 2 written twice (both differ), 5, 3
}

TEST_F(VertexStoreTest, ArrayAttributesRoundTrip) {
  VertexStore vs(pages_.get(), 4);
  int attr = vs.RegisterAttribute("labels", 3);
  ASSERT_TRUE(WriteRecords(vs, 0, 0, attr, {{1, {1.0, 2.0, 3.0}}}).ok());
  std::vector<double> column(12, 0.0);
  ASSERT_TRUE(
      vs.OverlaySuperstep(pool_.get(), 0, 0, attr, column.data()).ok());
  EXPECT_EQ(column[3], 1.0);
  EXPECT_EQ(column[4], 2.0);
  EXPECT_EQ(column[5], 3.0);
}

TEST_F(VertexStoreTest, NoMergeKeepsChainsGrowing) {
  VertexStore vs(pages_.get(), 8, MergeStrategy::kNoMerge);
  int attr = vs.RegisterAttribute("rank", 1);
  for (Timestamp t = 0; t < 10; ++t) {
    ASSERT_TRUE(WriteRecords(vs, t, 0, attr, {{t % 8, {1.0 * t}}}).ok());
    ASSERT_TRUE(vs.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  EXPECT_EQ(vs.ChainRecords(0, attr), 10u);
}

TEST_F(VertexStoreTest, PeriodicMergeCompacts) {
  VertexStore vs(pages_.get(), 8, MergeStrategy::kPeriodic,
                 /*merge_period=*/4);
  int attr = vs.RegisterAttribute("rank", 1);
  for (Timestamp t = 0; t < 4; ++t) {
    ASSERT_TRUE(WriteRecords(vs, t, 0, attr, {{0, {1.0 * t}}}).ok());
    ASSERT_TRUE(vs.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  // Merged at t=4? t runs 0..3; merge at t%4==0 means t=0 merge (chain
  // size 1, no-op). Write one more to trigger at t=4.
  ASSERT_TRUE(WriteRecords(vs, 4, 0, attr, {{0, {9.0}}}).ok());
  ASSERT_TRUE(vs.MaintainAfterSnapshot(4, pool_.get()).ok());
  EXPECT_EQ(vs.ChainRecords(0, attr), 1u);  // all writes hit vertex 0
  std::vector<double> column(8, -1.0);
  ASSERT_TRUE(
      vs.OverlaySuperstep(pool_.get(), 4, 0, attr, column.data()).ok());
  EXPECT_EQ(column[0], 9.0);  // merged value = last writer
}

TEST_F(VertexStoreTest, CostBasedMergesWhenReadCostDominates) {
  VertexStore vs(pages_.get(), 1024, MergeStrategy::kCostBased);
  int attr = vs.RegisterAttribute("rank", 1);
  // Write sizeable per-snapshot deltas; the accumulated (t - τ)·|X| read
  // cost quickly exceeds the merge write cost.
  for (Timestamp t = 0; t < 6; ++t) {
    std::vector<Record> records;
    for (VertexId v = 0; v < 100; ++v) {
      records.push_back({v, {static_cast<double>(t)}});
    }
    ASSERT_TRUE(WriteRecords(vs, t, 0, attr, records).ok());
    ASSERT_TRUE(vs.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  // Without merging, the chain would hold 600 records.
  EXPECT_LT(vs.ChainRecords(0, attr), 600u);
  std::vector<double> column(1024, -1.0);
  ASSERT_TRUE(
      vs.OverlaySuperstep(pool_.get(), 5, 0, attr, column.data()).ok());
  EXPECT_EQ(column[50], 5.0);
}

TEST_F(VertexStoreTest, MergedChainCountsAsBase) {
  // A merged chain is the chain's new base, like F(0, s): it is not
  // charged as a delta re-read at every later snapshot, so a freshly
  // merged chain fed one-record deltas must not merge again at once.
  VertexStore vs(pages_.get(), 1024, MergeStrategy::kCostBased);
  int attr = vs.RegisterAttribute("rank", 1);
  Counter* merges = metrics_.registry().counter("vertex_store.chain_merges");
  auto write = [&](Timestamp t, VertexId first, VertexId count) {
    std::vector<Record> records;
    for (VertexId v = first; v < first + count; ++v) {
      records.push_back({v, {1.0 * t}});
    }
    ASSERT_TRUE(WriteRecords(vs, t, 0, attr, records).ok());
    ASSERT_TRUE(vs.MaintainAfterSnapshot(t, pool_.get()).ok());
  };
  // 100-record deltas: the chain merges at t = 4 (R_delta 600 > W 500),
  // and the t = 5 delta lands on the merged chain.
  const uint64_t merges0 = merges->value();
  for (Timestamp t = 0; t <= 5; ++t) write(t, 0, 100);
  ASSERT_EQ(merges->value() - merges0, 1u);
  // Ten one-record deltas. Only the t = 5 delta and these are charged, so
  // one merge (at t = 8) folds the 100-record delta in and the next
  // chain stays short. Charging the merged chain as a delta would merge
  // every other snapshot (5 times).
  for (Timestamp t = 6; t < 16; ++t) write(t, 500 + t, 1);
  EXPECT_EQ(merges->value() - merges0, 2u);

  std::vector<double> column(1024, -1.0);
  ASSERT_TRUE(
      vs.OverlaySuperstep(pool_.get(), 15, 0, attr, column.data()).ok());
  EXPECT_EQ(column[0], 5.0);
  EXPECT_EQ(column[99], 5.0);
  EXPECT_EQ(column[506], 6.0);
  EXPECT_EQ(column[515], 15.0);
  EXPECT_EQ(column[100], -1.0);
}

TEST_F(VertexStoreTest, MergePreservesOverlaySemantics) {
  // Every merge folds three or more overlapping files, and vertex 15 is
  // written only by the oldest file; scalar and width-3 attributes.
  Counter* merges = metrics_.registry().counter("vertex_store.chain_merges");
  for (MergeStrategy strategy :
       {MergeStrategy::kPeriodic, MergeStrategy::kCostBased}) {
    for (int width : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "strategy=" << static_cast<int>(strategy)
                   << " width=" << width);
      VertexStore no_merge(pages_.get(), 16, MergeStrategy::kNoMerge);
      VertexStore merged(pages_.get(), 16, strategy, /*merge_period=*/3);
      int a1 = no_merge.RegisterAttribute("x", width);
      int a2 = merged.RegisterAttribute("x", width);
      const uint64_t merges0 = merges->value();
      for (Timestamp t = 0; t < 10; ++t) {
        std::map<VertexId, double> picks = {{t % 8, t * 1.0},
                                            {(t * 3) % 8, t * 2.0},
                                            {(t * 5 + 1) % 8, t * 3.0}};
        if (t == 0) picks[15] = 42.0;
        std::vector<Record> records;
        for (const auto& [v, x] : picks) {
          std::vector<double> values = {x, x + 0.5, -x};
          values.resize(static_cast<size_t>(width));
          records.push_back({v, values});
        }
        ASSERT_TRUE(WriteRecords(no_merge, t, 0, a1, records).ok());
        ASSERT_TRUE(WriteRecords(merged, t, 0, a2, records).ok());
        ASSERT_TRUE(no_merge.MaintainAfterSnapshot(t, pool_.get()).ok());
        ASSERT_TRUE(merged.MaintainAfterSnapshot(t, pool_.get()).ok());

        std::vector<double> c1(16 * static_cast<size_t>(width), -1.0);
        std::vector<double> c2 = c1;
        ASSERT_TRUE(
            no_merge.OverlaySuperstep(pool_.get(), t, 0, a1, c1.data()).ok());
        ASSERT_TRUE(
            merged.OverlaySuperstep(pool_.get(), t, 0, a2, c2.data()).ok());
        ASSERT_EQ(c1, c2) << "t=" << t;
        EXPECT_EQ(c2[15 * static_cast<size_t>(width)], 42.0);
      }
      EXPECT_GE(merges->value() - merges0, 2u);
      EXPECT_LT(merged.ChainRecords(0, a2), no_merge.ChainRecords(0, a1));
    }
  }
}

TEST_F(VertexStoreTest, MergeStreamsMultiPageFiles) {
  // Width-2 records (3 words) straddle page boundaries, and each file
  // spans several pages, so the merge's page-by-page cursors refill
  // mid-file.
  const VertexId n = 12000;
  VertexStore no_merge(pages_.get(), n, MergeStrategy::kNoMerge);
  VertexStore merged(pages_.get(), n, MergeStrategy::kPeriodic,
                     /*merge_period=*/3);
  int a1 = no_merge.RegisterAttribute("xy", 2);
  int a2 = merged.RegisterAttribute("xy", 2);
  for (Timestamp t = 0; t < 4; ++t) {
    std::vector<Record> records;
    for (VertexId v = t; v < n; v += 1 + t) {
      records.push_back({v, {t * 1.0, v * 0.5}});
    }
    ASSERT_TRUE(WriteRecords(no_merge, t, 0, a1, records).ok());
    ASSERT_TRUE(WriteRecords(merged, t, 0, a2, records).ok());
    ASSERT_TRUE(merged.MaintainAfterSnapshot(t, pool_.get()).ok());
  }
  ASSERT_EQ(merged.ChainRecords(0, a2), static_cast<uint64_t>(n));
  std::vector<double> c1(2 * static_cast<size_t>(n), -1.0);
  std::vector<double> c2 = c1;
  ASSERT_TRUE(
      no_merge.OverlaySuperstep(pool_.get(), 3, 0, a1, c1.data()).ok());
  ASSERT_TRUE(merged.OverlaySuperstep(pool_.get(), 3, 0, a2, c2.data()).ok());
  EXPECT_EQ(c1, c2);
}

}  // namespace
}  // namespace itg
