// Figure 17: delta maintenance strategies of the vertex store over a
// long snapshot sequence — NoMerge vs PeriodicMerge(50) vs the cost-based
// strategy (Cost), for PR and LP.
//
// Expected shape: NoMerge's per-snapshot time climbs as delta chains
// grow; PeriodicMerge tracks NoMerge until its period then drops;
// Cost stays flat.
#include <cstdio>

#include "bench/bench_util.h"

namespace itg {
namespace {

using bench::CheckOk;

constexpr int kSnapshots = 100;
constexpr size_t kBatch = 200;

void Run(const char* algo, const std::string& source) {
  std::printf("\n--- %s, %d snapshots, |dG|=%zu ---\n", algo, kSnapshots,
              kBatch);
  std::printf("%-10s", "snapshot");
  for (const char* s : {"NoMerge", "Periodic", "Cost"}) {
    std::printf(" %12s", s);
  }
  std::printf("  (seconds per incremental query, sampled)\n");

  const MergeStrategy strategies[] = {MergeStrategy::kNoMerge,
                                      MergeStrategy::kPeriodic,
                                      MergeStrategy::kCostBased};
  std::vector<std::vector<double>> seconds(3);
  std::vector<uint64_t> final_chain(3);
  // Store-wide totals per strategy: chain merges and bytes written
  // (CSR, one-shot, delta files and merged chains).
  MetricsRegistry& registry = GlobalMetrics().registry();
  Counter* merges = registry.counter("vertex_store.chain_merges");
  Counter* written = registry.counter("io.write_bytes");
  std::vector<uint64_t> merge_count(3);
  std::vector<uint64_t> written_bytes(3);
  for (int s = 0; s < 3; ++s) {
    const uint64_t merges0 = merges->value();
    const uint64_t written0 = written->value();
    HarnessOptions options;
    options.path = bench::TempPath("fig17");
    options.engine.fixed_supersteps = 10;
    options.store.merge_strategy = strategies[s];
    options.store.merge_period = 50;
    auto harness = CheckOk(Harness::Create(source, RmatVertices(16),
                                           GenerateRmat(16), options));
    CheckOk(harness->RunOneShot());
    for (int t = 1; t <= kSnapshots; ++t) {
      CheckOk(harness->Step(kBatch, bench::kDefaultInsertRatio));
      seconds[s].push_back(harness->engine().last_stats().seconds);
    }
    final_chain[s] =
        harness->store().vertex_store()->ChainRecords(5, /*attr=*/4);
    merge_count[s] = merges->value() - merges0;
    written_bytes[s] = written->value() - written0;
  }
  for (int t = 10; t <= kSnapshots; t += 10) {
    // Average over the preceding 10 snapshots to smooth noise.
    std::printf("%-10d", t);
    for (int s = 0; s < 3; ++s) {
      double sum = 0;
      for (int i = t - 10; i < t; ++i) sum += seconds[s][i];
      std::printf(" %12.4f", sum / 10);
    }
    std::printf("\n");
  }
  std::printf("final delta-chain records (attr 'rank'/'labels', "
              "superstep 5): NoMerge=%llu Periodic=%llu Cost=%llu\n",
              static_cast<unsigned long long>(final_chain[0]),
              static_cast<unsigned long long>(final_chain[1]),
              static_cast<unsigned long long>(final_chain[2]));
  std::printf("vertex_store.chain_merges: NoMerge=%llu Periodic=%llu "
              "Cost=%llu\n",
              static_cast<unsigned long long>(merge_count[0]),
              static_cast<unsigned long long>(merge_count[1]),
              static_cast<unsigned long long>(merge_count[2]));
  std::printf("MB written: NoMerge=%.0f Periodic=%.0f Cost=%.0f\n",
              written_bytes[0] / 1e6, written_bytes[1] / 1e6,
              written_bytes[2] / 1e6);
}

}  // namespace

int Main() {
  std::printf("=== Figure 17: delta maintenance strategies (RMAT_16) "
              "===\n");
  Run("PageRank", QuantizedPageRankProgram());
  Run("Label Propagation", QuantizedLabelPropProgram(8));
  std::printf("\npaper shape: NoMerge grows steadily; PeriodicMerge "
              "follows NoMerge until its period; Cost stays flat.\n");
  return 0;
}

}  // namespace itg

int main(int argc, char** argv) {
  return itg::bench::BenchMain("fig17_delta_maintenance", argc, argv, itg::Main);
}
