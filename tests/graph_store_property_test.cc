// Randomized property test of the dynamic graph store: after arbitrary
// mutation sequences, every read (merged adjacency, degrees, edge
// membership, delta scans) must agree with a plain in-memory model of
// the same operations, at the latest snapshot and at the one before it.
#include <gtest/gtest.h>

#include <set>

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

  for (Timestamp t = 1; t <= 6; ++t) {
    // Random batch respecting the workload invariant. Each batch first
    // touches one pivot vertex both as a source and as a destination.
    const std::set<Edge> prev_model = model;
    std::vector<EdgeDelta> batch;
    std::set<Edge> touched;
    auto toggle = [&](Edge e) {
      if (e.src == e.dst || touched.contains(e)) return;
      touched.insert(e);
      if (model.contains(e)) {
        batch.push_back({e, -1});
        model.erase(e);
      } else {
        batch.push_back({e, +1});
        model.insert(e);
      }
    };
    const VertexId pivot = static_cast<VertexId>(rng.Uniform(n));
    auto other = [&] {
      return static_cast<VertexId>((pivot + 1 + rng.Uniform(n - 1)) % n);
    };
    toggle({pivot, other()});
    toggle({other(), pivot});
    for (int i = 0; i < 20; ++i) {
      toggle({static_cast<VertexId>(rng.Uniform(n)),
              static_cast<VertexId>(rng.Uniform(n))});
    }
    ASSERT_TRUE(store->ApplyMutations(batch).ok());

    check_snapshot(t, model);
    check_snapshot(t - 1, prev_model);

    // The delta scan replays exactly the applied batch (sorted by src).
    std::vector<EdgeDelta> scanned;
    ASSERT_TRUE(store
                    ->ScanDeltas(store->pool(), t, Direction::kOut,
                                 [&](Edge e, Multiplicity m) {
                                   scanned.push_back({e, m});
                                 })
                    .ok());
    ASSERT_EQ(scanned.size(), batch.size());
    std::sort(batch.begin(), batch.end(),
              [](const EdgeDelta& a, const EdgeDelta& b) {
                return a.edge < b.edge;
              });
    std::sort(scanned.begin(), scanned.end(),
              [](const EdgeDelta& a, const EdgeDelta& b) {
                return a.edge < b.edge;
              });
    EXPECT_EQ(scanned, batch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphStorePropertyTest,
                         ::testing::Range(100, 110));

}  // namespace
}  // namespace itg
