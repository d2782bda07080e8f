// Figure 15: sensitivity to the mutation workload.
//  (a) insert:delete ratio sweep — Abelian-group algorithms (PR, TC) are
//      flat across ratios; the Min-monoid WCC degrades as deletions grow
//      (recomputation under deletions, §5.4).
//  (b) batch size sweep — throughput (mutations/second) grows with the
//      batch (computation and IO sharing within the batch). A second
//      table shows the share of PR and WCC incremental supersteps that
//      recomputed instead of running Δ-walks: the batch size where the
//      engine crosses over from the Δ plan to recomputation.
//
// Every run is recorded into the metrics report under a stable label
// ("ratio/PR/75:25/step0", ...), so `--metrics-json` output can be diffed
// against a committed baseline with tools/report_diff.py. `--quick`
// shrinks graphs and sweep ranges to CI scale (the report_diff_smoke
// ctest); quick-mode labels are a strict subset of full-mode labels.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

namespace itg {
namespace {

using bench::CheckOk;

/// Mean seconds per incremental run. `recompute_share`, when given,
/// receives the share of the runs' supersteps that took the recompute
/// plan.
double AvgIncrementalSeconds(const std::string& source, bool symmetric,
                             int fixed_supersteps, size_t batch,
                             double insert_ratio, int snapshots = 4,
                             int scale = 16,
                             const std::string& label = "",
                             double* recompute_share = nullptr) {
  if (bench::QuickMode()) {
    scale = std::min(scale, 11);
    snapshots = std::min(snapshots, 2);
    batch = std::min<size_t>(batch, 200);
  }
  HarnessOptions options;
  options.path = bench::TempPath("fig15");
  options.symmetric = symmetric;
  options.engine.fixed_supersteps = fixed_supersteps;
  auto harness = CheckOk(Harness::Create(source, RmatVertices(scale),
                                         GenerateRmat(scale), options));
  CheckOk(harness->RunOneShot());
  if (!label.empty()) bench::RecordRun(harness.get(), label + "/oneshot");
  double total = 0;
  uint64_t supersteps = 0;
  uint64_t recomputed = 0;
  for (int i = 0; i < snapshots; ++i) {
    CheckOk(harness->Step(batch, insert_ratio));
    if (!label.empty()) {
      bench::RecordRun(harness.get(), label + "/step" + std::to_string(i));
    }
    const RunStats& stats = harness->engine().last_stats();
    total += stats.seconds;
    supersteps += static_cast<uint64_t>(stats.supersteps);
    recomputed += stats.recomputed_supersteps;
  }
  if (recompute_share != nullptr) {
    *recompute_share =
        supersteps > 0 ? static_cast<double>(recomputed) / supersteps : 0.0;
  }
  return total / snapshots;
}

void RatioSweep() {
  std::printf("\n--- (a) normalized time vs insert:delete ratio "
              "(|dG|=500) ---\n");
  std::printf("%-8s", "ratio");
  for (const char* algo : {"PR", "WCC", "TC"}) std::printf(" %10s", algo);
  std::printf("\n");
  const double ratios[] = {1.0, 0.75, 0.5, 0.25, 0.0};
  const char* names[] = {"100:0", "75:25", "50:50", "25:75", "0:100"};
  const int num_ratios = bench::QuickMode() ? 2 : 5;
  double base[3] = {0, 0, 0};
  for (int r = 0; r < num_ratios; ++r) {
    const std::string tag = std::string("ratio/") + names[r];
    double pr = AvgIncrementalSeconds(QuantizedPageRankProgram(), false, 10,
                                      500, ratios[r], 6, 16, tag + "/PR");
    double wcc = AvgIncrementalSeconds(WccProgram(), true, -1, 500,
                                       ratios[r], 6, 17, tag + "/WCC");
    double tc = AvgIncrementalSeconds(TriangleCountProgram(), true, -1, 500,
                                      ratios[r], 6, 15, tag + "/TC");
    if (r == 0) {
      base[0] = pr;
      base[1] = wcc;
      base[2] = tc;
    }
    std::printf("%-8s %10.2f %10.2f %10.2f\n", names[r], pr / base[0],
                wcc / base[1], tc / base[2]);
  }
  std::printf("(normalized to the insertion-only workload; paper shape: "
              "PR/TC flat, WCC rising with the deletion share)\n");
}

void BatchSweep() {
  std::printf("\n--- (b) normalized throughput vs batch size "
              "(75:25) ---\n");
  std::printf("%-8s", "|dG|");
  for (const char* algo : {"PR", "WCC", "TC"}) std::printf(" %12s", algo);
  std::printf("\n");
  const size_t batches[] = {8, 40, 200, 1000, 5000};
  const int num_batches = bench::QuickMode() ? 2 : 5;
  double base[3] = {0, 0, 0};
  double share[5][2] = {};
  for (int b = 0; b < num_batches; ++b) {
    const std::string tag = "batch/" + std::to_string(batches[b]);
    double thr[3];
    thr[0] = static_cast<double>(batches[b]) /
             AvgIncrementalSeconds(QuantizedPageRankProgram(), false, 10,
                                   batches[b], 0.75, 2, 16, tag + "/PR",
                                   &share[b][0]);
    thr[1] = static_cast<double>(batches[b]) /
             AvgIncrementalSeconds(WccProgram(), true, -1, batches[b], 0.75,
                                   2, 16, tag + "/WCC", &share[b][1]);
    thr[2] = static_cast<double>(batches[b]) /
             AvgIncrementalSeconds(TriangleCountProgram(), true, -1,
                                   batches[b], 0.75, 2, 15, tag + "/TC");
    if (b == 0) {
      base[0] = thr[0];
      base[1] = thr[1];
      base[2] = thr[2];
    }
    std::printf("%-8zu %12.1f %12.1f %12.1f\n", batches[b],
                thr[0] / base[0], thr[1] / base[1], thr[2] / base[2]);
  }
  std::printf("(normalized to the smallest batch; paper shape: throughput "
              "grows by orders of magnitude with the batch size)\n");

  std::printf("\n%-8s %12s %12s\n", "|dG|", "PR recomp", "WCC recomp");
  for (int b = 0; b < num_batches; ++b) {
    std::printf("%-8zu %11.0f%% %11.0f%%\n", batches[b], 100 * share[b][0],
                100 * share[b][1]);
  }
  std::printf("(share of incremental supersteps that recomputed over the "
              "new snapshot instead of running Δ-walks)\n");
}

}  // namespace

int Main() {
  std::printf("=== Figure 15: workload sensitivity (RMAT_16; TC on "
              "RMAT_15) ===\n");
  RatioSweep();
  BatchSweep();
  return 0;
}

}  // namespace itg

int main(int argc, char** argv) {
  return itg::bench::BenchMain("fig15_workloads", argc, argv, itg::Main);
}
