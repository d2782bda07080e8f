#ifndef ITG_BENCH_BENCH_UTIL_H_
#define ITG_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "algos/programs.h"
#include "algos/reference.h"
#include "common/logging.h"
#include "gen/rmat.h"
#include "harness/harness.h"
#include "harness/run_report.h"

namespace itg::bench {

/// Fresh temp path prefix for a store. The process id keeps benches
/// started at once from opening each other's store files.
inline std::string TempPath(const std::string& name) {
  static int counter = 0;
  auto dir = std::filesystem::temp_directory_path() / "itg_bench";
  std::filesystem::create_directories(dir);
  return (dir / (name + "_" + std::to_string(getpid()) + "_" +
                 std::to_string(counter++)))
      .string();
}

/// The paper's default workload mix (§6.1): 75:25 insertions:deletions,
/// averaged over four consecutive incremental snapshots.
inline constexpr double kDefaultInsertRatio = 0.75;
inline constexpr int kDefaultSnapshots = 4;

struct PipelineTimes {
  double oneshot_seconds = 0;
  double incremental_avg_seconds = 0;
  uint64_t oneshot_read_bytes = 0;
  uint64_t incremental_avg_read_bytes = 0;
  double speedup() const {
    return incremental_avg_seconds > 0
               ? oneshot_seconds / incremental_avg_seconds
               : 0;
  }
};

/// The process-wide run report, written at exit by BenchMain when the
/// binary was invoked with `--metrics-json=<path>`.
inline RunReport& Report() {
  static RunReport report;
  return report;
}

/// Appends the harness engine's last run (stats + per-machine breakdown +
/// per-operator profile) to the process report.
inline void RecordRun(Harness* harness, const std::string& name) {
  const std::vector<MachineStats>& machines =
      harness->engine().machine_stats();
  uint64_t network_bytes = 0;
  for (const MachineStats& m : machines) network_bytes += m.network_bytes;
  Report().AddRun(name, harness->engine().last_stats(), machines,
                  network_bytes, &harness->engine().last_profile());
}

/// Appends a baseline engine run (GraphBolt-style / DD-style) to the
/// process report. Baselines have no RunStats plumbing of their own, so
/// the run-level work totals are rolled up from the per-phase operator
/// profile the baseline recorded; the per-operator and per-superstep
/// sections carry the full breakdown. This makes all three engines'
/// reports diffable with the same tools/report_diff.py gate.
inline void RecordBaselineRun(const std::string& name,
                              const gsa::ExecutionProfile& profile,
                              double seconds, bool incremental) {
  RunStats stats;
  stats.incremental = incremental;
  stats.seconds = seconds;
  stats.supersteps = static_cast<int>(profile.supersteps().size());
  for (const auto& [id, entry] : profile.ops()) {
    stats.edges_scanned += entry.counters.edges;
    stats.emissions_applied +=
        entry.counters.out_pos + entry.counters.out_neg;
    stats.delta_walks_pruned += entry.counters.pruned;
    if (incremental) stats.recomputed_vertices += entry.counters.in_pos;
  }
  Report().AddRun(name, stats, {}, 0, &profile);
}

/// True when the binary was invoked with `--quick`: benches shrink their
/// graphs/batches to CI scale (report_diff_smoke runs fig15 this way, so
/// quick-mode run labels must stay stable across code changes).
inline bool& QuickMode() {
  static bool quick = false;
  return quick;
}

/// One-shot at G_0 plus `snapshots` incremental steps, averaged. Every run
/// is recorded into the process report under `label` (auto-numbered when
/// empty, since most benches call this once per configuration).
inline StatusOr<PipelineTimes> RunPipeline(Harness* harness,
                                           size_t batch_size,
                                           double insert_ratio,
                                           int snapshots = kDefaultSnapshots,
                                           std::string label = "") {
  if (label.empty()) {
    static int pipeline_counter = 0;
    label = "pipeline" + std::to_string(pipeline_counter++);
  }
  PipelineTimes times;
  ITG_RETURN_IF_ERROR(harness->RunOneShot());
  RecordRun(harness, label + "/oneshot");
  times.oneshot_seconds = harness->engine().last_stats().seconds;
  times.oneshot_read_bytes = harness->engine().last_stats().read_bytes;
  for (int i = 0; i < snapshots; ++i) {
    ITG_RETURN_IF_ERROR(harness->Step(batch_size, insert_ratio));
    RecordRun(harness, label + "/step" + std::to_string(i));
    times.incremental_avg_seconds += harness->engine().last_stats().seconds;
    times.incremental_avg_read_bytes +=
        harness->engine().last_stats().read_bytes;
  }
  times.incremental_avg_seconds /= snapshots;
  times.incremental_avg_read_bytes /= static_cast<uint64_t>(snapshots);
  Report().AddResult(label + "/oneshot_seconds", times.oneshot_seconds);
  Report().AddResult(label + "/incremental_avg_seconds",
                     times.incremental_avg_seconds);
  return times;
}

/// Exits loudly on error (bench binaries are not Status-plumbed).
inline void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T CheckOk(StatusOr<T> value) {
  CheckOk(value.status());
  return std::move(value).value();
}

/// Shared bench entry point: parses `--metrics-json=<path>`, runs the
/// bench body, then writes the run report. Benches keep their logic in
/// `itg::Main()` and delegate:
///
///   int main(int argc, char** argv) {
///     return itg::bench::BenchMain("fig12_overall", argc, argv, itg::Main);
///   }
inline int BenchMain(const char* binary, int argc, char** argv,
                     int (*body)()) {
  Report().set_binary(binary);
  std::string metrics_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string kFlag = "--metrics-json=";
    if (arg.rfind(kFlag, 0) == 0) {
      metrics_json = arg.substr(kFlag.size());
    } else if (arg == "--quick") {
      QuickMode() = true;
    } else {
      std::fprintf(stderr, "usage: %s [--metrics-json=<path>] [--quick]\n",
                   binary);
      return 2;
    }
  }
  const int rc = body();
  if (rc == 0 && !metrics_json.empty()) {
    Status status = Report().WriteTo(metrics_json);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics report write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  return rc;
}

}  // namespace itg::bench

#endif  // ITG_BENCH_BENCH_UTIL_H_
