// Randomized property test of the dynamic graph store: after arbitrary
// mutation sequences, every read (merged adjacency, degrees, edge
// membership, delta scans) must agree with a plain in-memory model of
// the same operations, at the latest snapshot and at the one before it.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "gen/rmat.h"
#include "storage/graph_store.h"

namespace itg {
namespace {

class GraphStorePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphStorePropertyTest, ReadsMatchModelAcrossSnapshots) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const VertexId n = 64;
  auto base = GenerateRmatEdges(n, 256, {.seed = seed});
  // Model: set of present edges.
  std::set<Edge> model;
  {
    auto csr = Csr::FromEdges(n, base);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : csr.Neighbors(u)) model.insert({u, v});
    }
  }
  std::string name = ::testing::TempDir() + "/gsp_" +
                     std::to_string(GetParam());
  auto store = std::move(DynamicGraphStore::Create(name, n, base, {},
                                                   &GlobalMetrics()))
                   .value();

  // Merged adjacency (both directions), degrees, membership and the edge
  // count of snapshot `t` agree with `m`.
  auto check_snapshot = [&](Timestamp t, const std::set<Edge>& m) {
    for (VertexId u = 0; u < n; ++u) {
      std::vector<VertexId> expected_out;
      std::vector<VertexId> expected_in;
      for (const Edge& e : m) {
        if (e.src == u) expected_out.push_back(e.dst);
        if (e.dst == u) expected_in.push_back(e.src);
      }
      std::vector<VertexId> actual;
      ASSERT_TRUE(store
                      ->GetAdjacency(store->pool(), u, t, Direction::kOut,
                                     &actual)
                      .ok());
      ASSERT_EQ(actual, expected_out) << "t=" << t << " u=" << u;
      EXPECT_EQ(store->Degree(u, t, Direction::kOut),
                static_cast<int64_t>(expected_out.size()))
          << "t=" << t << " u=" << u;
      ASSERT_TRUE(store
                      ->GetAdjacency(store->pool(), u, t, Direction::kIn,
                                     &actual)
                      .ok());
      ASSERT_EQ(actual, expected_in) << "t=" << t << " u=" << u;
      EXPECT_EQ(store->Degree(u, t, Direction::kIn),
                static_cast<int64_t>(expected_in.size()))
          << "t=" << t << " u=" << u;
    }
    EXPECT_EQ(store->num_edges(t), m.size()) << "t=" << t;
    // Membership samples, from both ends of the edge.
    for (int i = 0; i < 30; ++i) {
      Edge e{static_cast<VertexId>(rng.Uniform(n)),
             static_cast<VertexId>(rng.Uniform(n))};
      auto has = store->HasEdge(store->pool(), e.src, e.dst, t,
                                Direction::kOut);
      ASSERT_TRUE(has.ok());
      EXPECT_EQ(*has, m.contains(e)) << "t=" << t << " " << e;
      has = store->HasEdge(store->pool(), e.dst, e.src, t, Direction::kIn);
      ASSERT_TRUE(has.ok());
      EXPECT_EQ(*has, m.contains(e)) << "t=" << t << " in " << e;
    }
  };

  // Vertices a batch touched whose degree at t equals the one at t − 1:
  // the case where a degree kept per snapshot must not drift.
  int returned_degrees = 0;
  for (Timestamp t = 1; t <= 6; ++t) {
    // Random batch respecting the workload invariant: every operation is
    // checked against the edge set as the batch's earlier operations left
    // it. Each batch first touches one pivot vertex both as a source and
    // as a destination.
    const std::set<Edge> prev_model = model;
    std::vector<EdgeDelta> batch;
    std::set<Edge> touched;
    auto toggle = [&](Edge e) {
      if (model.contains(e)) {
        batch.push_back({e, -1});
        model.erase(e);
      } else {
        batch.push_back({e, +1});
        model.insert(e);
      }
    };
    auto toggle_once = [&](Edge e) {
      if (e.src == e.dst || !touched.insert(e).second) return;
      toggle(e);
    };
    const VertexId pivot = static_cast<VertexId>(rng.Uniform(n));
    auto other = [&] {
      return static_cast<VertexId>((pivot + 1 + rng.Uniform(n - 1)) % n);
    };
    toggle_once({pivot, other()});
    toggle_once({other(), pivot});
    for (int i = 0; i < 20; ++i) {
      toggle_once({static_cast<VertexId>(rng.Uniform(n)),
                   static_cast<VertexId>(rng.Uniform(n))});
    }
    // Even batches toggle the pivot's two edges and one random edge of
    // the batch a second time (insert then delete, or delete then
    // re-insert), as the serving daemon's ingest validation admits.
    if (t % 2 == 0) {
      toggle(batch[0].edge);
      toggle(batch[1].edge);
      toggle(batch[rng.Uniform(batch.size())].edge);
    }
    ASSERT_TRUE(store->ApplyMutations(batch).ok());

    check_snapshot(t, model);
    check_snapshot(t - 1, prev_model);
    auto degree = [](const std::set<Edge>& m, VertexId u, Direction d) {
      return std::count_if(m.begin(), m.end(), [&](const Edge& e) {
        return (d == Direction::kOut ? e.src : e.dst) == u;
      });
    };
    for (const EdgeDelta& d : batch) {
      returned_degrees += degree(model, d.edge.src, Direction::kOut) ==
                          degree(prev_model, d.edge.src, Direction::kOut);
      returned_degrees += degree(model, d.edge.dst, Direction::kIn) ==
                          degree(prev_model, d.edge.dst, Direction::kIn);
    }

    // The delta scan replays exactly the applied batch (sorted by src).
    std::vector<EdgeDelta> scanned;
    ASSERT_TRUE(store
                    ->ScanDeltas(store->pool(), t, Direction::kOut,
                                 [&](Edge e, Multiplicity m) {
                                   scanned.push_back({e, m});
                                 })
                    .ok());
    ASSERT_EQ(scanned.size(), batch.size());
    // An edge toggled twice appears twice, once with each multiplicity.
    auto by_edge = [](const EdgeDelta& a, const EdgeDelta& b) {
      return std::tie(a.edge, a.mult) < std::tie(b.edge, b.mult);
    };
    std::sort(batch.begin(), batch.end(), by_edge);
    std::sort(scanned.begin(), scanned.end(), by_edge);
    EXPECT_EQ(scanned, batch);
  }
  EXPECT_GT(returned_degrees, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphStorePropertyTest,
                         ::testing::Range(100, 110));

}  // namespace
}  // namespace itg
