#include <gtest/gtest.h>

#include <cstdio>

#include "algos/programs.h"
#include "algos/reference.h"
#include "gen/rmat.h"
#include "harness/harness.h"

namespace itg {
namespace {

std::string TempPath(const std::string& name) {
  std::string n = name;
  std::replace(n.begin(), n.end(), '/', '_');
  return ::testing::TempDir() + "/harness_" + n;
}

/// Options of an undirected harness whose store lives at TempPath(name).
HarnessOptions SymmetricOptions(const std::string& name) {
  HarnessOptions options;
  options.symmetric = true;
  options.path = TempPath(name);
  return options;
}

TEST(HarnessTest, TracksCurrentEdgesAcrossSteps) {
  auto harness_or = Harness::Create(
      WccProgram(), 1 << 8, GenerateRmatEdges(1 << 8, 3 << 8, {.seed = 1}),
      SymmetricOptions("track"));
  ASSERT_TRUE(harness_or.ok()) << harness_or.status().ToString();
  auto harness = std::move(harness_or).value();
  ASSERT_TRUE(harness->RunOneShot().ok());
  size_t before = harness->current_edges().size();
  ASSERT_TRUE(harness->Step(40, 1.0).ok());  // insert-only
  EXPECT_EQ(harness->current_edges().size(), before + 40);
  ASSERT_TRUE(harness->Step(40, 0.0).ok());  // delete-only
  EXPECT_EQ(harness->current_edges().size(), before);
  EXPECT_EQ(harness->timestamp(), 2);
  // Stored edges are the symmetrized view.
  EXPECT_EQ(harness->StoredEdges().size(),
            harness->current_edges().size() * 2);
}

TEST(HarnessTest, FreshOneShotMatchesIncrementalState) {
  auto harness_or = Harness::Create(
      TriangleCountProgram(), 1 << 8,
      GenerateRmatEdges(1 << 8, 3 << 8, {.seed = 2}),
      SymmetricOptions("fresh"));
  ASSERT_TRUE(harness_or.ok());
  auto harness = std::move(harness_or).value();
  ASSERT_TRUE(harness->RunOneShot().ok());
  ASSERT_TRUE(harness->Step(50, 0.6).ok());
  auto fresh = harness->FreshOneShot();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->incremental);
  EXPECT_GT(fresh->seconds, 0.0);
}

/// Long-run exactness: many snapshots, deliberately draining the
/// insertion pool so the random-non-edge path is exercised; the
/// maintained triangle count must stay bit-exact (regression test for
/// the canonical non-edge sampling bug).
TEST(HarnessTest, LongRunTriangleCountStaysExact) {
  const VertexId n = 1 << 8;
  auto harness_or = Harness::Create(
      TriangleCountProgram(), n, GenerateRmatEdges(n, 3 << 8, {.seed = 3}),
      SymmetricOptions("long"));
  ASSERT_TRUE(harness_or.ok());
  auto harness = std::move(harness_or).value();
  ASSERT_TRUE(harness->RunOneShot().ok());
  int cnts = harness->engine().GlobalIndex("cnts");
  for (int t = 1; t <= 20; ++t) {
    ASSERT_TRUE(harness->Step(60, 0.75).ok()) << "t=" << t;
    Csr csr = Csr::FromEdges(n, harness->StoredEdges());
    ASSERT_EQ(static_cast<uint64_t>(harness->engine().GlobalValue(cnts)[0]),
              RefTriangleCount(csr))
        << "t=" << t;
  }
}

/// Long-run soak: hundreds of tiny WCC batches at 2 threads. The
/// maintained components stay exact, and the storage work a batch causes
/// (chain merges, bytes written) does not grow with the history behind it.
TEST(HarnessTest, LongRunWccStaysExact) {
  const VertexId n = 1 << 8;
  HarnessOptions options = SymmetricOptions("longwcc");
  options.engine.num_threads = 2;
  auto harness_or = Harness::Create(
      WccProgram(), n, GenerateRmatEdges(n, 3 << 8, {.seed = 4}), options);
  ASSERT_TRUE(harness_or.ok());
  auto harness = std::move(harness_or).value();
  ASSERT_TRUE(harness->RunOneShot().ok());
  int comp = harness->engine().AttrIndex("comp");
  MetricsRegistry& registry = harness->store().metrics()->registry();
  Counter* merges = registry.counter("vertex_store.chain_merges");
  Counter* written = registry.counter("io.write_bytes");
  // Cumulative counter values after batch b (index 0: before batch 1).
  std::vector<uint64_t> merges_at = {merges->value()};
  std::vector<uint64_t> written_at = {written->value()};
  std::vector<double> seconds;
  constexpr int kBatches = 300;
  for (int t = 1; t <= kBatches; ++t) {
    Stopwatch watch;
    ASSERT_TRUE(harness->Step(8, 0.5).ok()) << "t=" << t;
    seconds.push_back(watch.ElapsedSeconds());
    merges_at.push_back(merges->value());
    written_at.push_back(written->value());
    if (t % 50 != 0) continue;
    Csr csr = Csr::FromEdges(n, harness->StoredEdges());
    auto expected = RefWcc(csr);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(static_cast<VertexId>(harness->engine().AttrValue(comp, v)),
                expected[v])
          << "t=" << t << " v=" << v;
    }
  }
  // Per-batch rates over batches (from, to].
  auto per_batch = [](const std::vector<uint64_t>& at, int from, int to) {
    return static_cast<double>(at[to] - at[from]) / (to - from);
  };
  auto mean_ms = [&](int from, int to) {
    double sum = 0;
    for (int b = from; b < to; ++b) sum += seconds[b];
    return 1e3 * sum / (to - from);
  };
  std::printf("merges/batch %.2f -> %.2f, MB written/batch %.3f -> %.3f, "
              "ms/batch %.3f -> %.3f (batches 101-200 -> 201-300)\n",
              per_batch(merges_at, 100, 200), per_batch(merges_at, 200, 300),
              per_batch(written_at, 100, 200) / 1e6,
              per_batch(written_at, 200, 300) / 1e6, mean_ms(100, 200),
              mean_ms(200, 300));
  EXPECT_LE(per_batch(merges_at, 200, 300),
            1.2 * per_batch(merges_at, 100, 200));
  EXPECT_LE(per_batch(written_at, 200, 300),
            1.2 * per_batch(written_at, 100, 200));
}

}  // namespace
}  // namespace itg
