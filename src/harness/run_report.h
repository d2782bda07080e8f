#ifndef ITG_HARNESS_RUN_REPORT_H_
#define ITG_HARNESS_RUN_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"

namespace itg {

/// Structured outcome of one drift divergence (schema v4 `audit` section,
/// filled by harness::DriftAuditor when a shadow replay disagrees with
/// the incremental state beyond tolerance).
struct AuditDivergence {
  bool found = false;
  /// Audited timestamp at which the divergence was detected.
  Timestamp detected_at = -1;
  /// First offending Δ-batch, pinpointed by bisecting the live digest
  /// history against a clean incremental replay.
  Timestamp first_bad_batch = -1;
  /// Replay probes the bisection spent (log₂ of the suspect range).
  int bisection_probes = 0;
  /// Divergent attribute names and a bounded sample of the divergent
  /// vertices (`divergent_vertices` is the full count).
  std::vector<std::string> attrs;
  std::vector<VertexId> vertices;
  uint64_t divergent_vertices = 0;
  uint64_t expected_digest = 0;  ///< clean (shadow replay) digest
  uint64_t actual_digest = 0;    ///< live incremental digest
};

/// The schema v4 `audit` section: per-timestamp state digests plus the
/// drift auditor's verdicts.
struct AuditSection {
  bool enabled = false;
  int every = 0;         ///< audit cadence (delta batches per audit)
  double tolerance = 0;  ///< per-cell |Δ| allowed before divergence
  uint64_t audits = 0;
  /// Digest differed but every cell was within tolerance — expected for
  /// floating-point programs (incremental PR matches one-shot to ~1e-9,
  /// not bit-exactly), counted but not a failure.
  uint64_t digest_mismatches = 0;
  Timestamp last_verified = -1;
  /// End-of-run digest per executed timestamp, in execution order.
  std::vector<std::pair<Timestamp, uint64_t>> digests;
  AuditDivergence divergence;
};

/// One standing query's row in the `serving` section (v5; lag fields v6;
/// percentile fields v7).
struct ServingQueryRow {
  std::string name;
  Timestamp timestamp = 0;  ///< last maintained batch boundary
  uint64_t digest = 0;      ///< state digest at `timestamp`
  uint64_t runs = 0;        ///< one-shot + incremental runs executed
  uint64_t budget_bytes = 0;       ///< admission slice (0 = uncapped)
  uint64_t budget_used_bytes = 0;  ///< bytes charged against the slice
  /// Per-batch ΔQ latency (ingest entry → post-flush), microseconds;
  /// buckets are (lower bound, count) pairs from the log-linear
  /// histogram.
  uint64_t latency_count = 0;
  uint64_t latency_sum_us = 0;
  std::vector<std::pair<uint64_t, uint64_t>> latency_buckets;
  /// v7: percentile digests of the same histogram (computed by the one
  /// shared helper, MetricsRegistry::HistogramSnapshot::
  /// PercentileUpperBound) so clients need not re-derive them from the
  /// raw buckets.
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
  /// v6: final staleness vs the graph of record (0 after a clean drain).
  uint64_t lag_batches = 0;
  uint64_t lag_us = 0;
};

/// One pipeline stage's latency summary (v6 `stage_latency_us` rows).
/// `stage` is validate|queue_wait|apply or view_run.<q>|stream_flush.<q>.
struct ServingStageRow {
  std::string stage;
  uint64_t count = 0;
  uint64_t sum_us = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
};

/// The `serving` section: the standing-query daemon's final tallies
/// (filled by examples/itg_serve.cc at drain time). v6 adds the
/// per-stage latency rows and the slow-batch counter.
struct ServingSection {
  uint64_t standing_queries = 0;
  uint64_t ingest_batches = 0;
  uint64_t ingest_ops = 0;
  uint64_t backpressure_stalls = 0;
  uint64_t delta_messages = 0;
  uint64_t slow_batches = 0;  ///< v6
  std::vector<ServingStageRow> stages;  ///< v6
  std::vector<ServingQueryRow> queries;
};

/// One offered-rate step of a load sweep (v7 `load.points` rows).
/// Latencies are client-observed intended-start → ΔQ-notify
/// microseconds, coordinated-omission safe (measured from the open-loop
/// schedule's intended send time, so stalled batches are charged their
/// full queueing delay).
struct LoadPoint {
  double offered_rate = 0;   ///< target Δ-batches/s across all ingesters
  double achieved_rate = 0;  ///< acked Δ-batches/s actually sustained
  uint64_t batches = 0;      ///< Δ-batches acked in the measurement window
  uint64_t samples = 0;      ///< ΔQ notify latencies recorded
  uint64_t p50_us = 0;
  uint64_t p90_us = 0;
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
  uint64_t max_us = 0;
  uint64_t backpressure_stalls = 0;  ///< server stalls during the window
  uint64_t queue_depth_max = 0;      ///< max observed server queue depth
  uint64_t view_lag_us_max = 0;      ///< max observed view staleness
  uint64_t rejected_batches = 0;     ///< generator collisions, retried
  bool slo_ok = false;               ///< p99 within the --slo-ms target
};

/// The v7 `load` section: itg_loadgen's capacity-curve results against a
/// live serving daemon, plus the detected knee (the highest offered rate
/// that still meets the SLO while keeping up with the schedule).
struct LoadSection {
  uint64_t connections = 0;   ///< ingest connections
  uint64_t subscribers = 0;   ///< ΔQ stream subscriber connections
  std::string arrival;        ///< "poisson" | "uniform"
  uint64_t ops_per_batch = 0;
  double slo_ms = 0;          ///< p99 SLO target
  bool sweep = false;
  std::vector<LoadPoint> points;
  bool knee_found = false;
  LoadPoint knee;             ///< valid when knee_found
  std::string slo_verdict;    ///< "pass" | "fail"
  /// Raw /timeseriesz dump scraped from the daemon after the run; valid
  /// JSON spliced verbatim as `load.server_timeseries` (empty = omitted).
  std::string server_timeseries_json;
};

/// One alert rule's final state in the v9 `alerts` section.
struct AlertRuleRow {
  std::string name;
  std::string severity;  ///< info | warn | critical
  std::string state;     ///< inactive | pending | firing | resolved
  std::string expr;
  uint64_t fires = 0;
  uint64_t flaps = 0;
  double last_value = 0;
};

/// The v9 `alerts` section: the alert engine's end-of-run summary
/// (filled by examples/itg_serve.cc after Stop(), so states are final).
/// report_diff.py fails gated runs whose section still contains a
/// critical firing rule.
struct AlertsSection {
  bool enabled = false;
  uint64_t period_ms = 0;
  uint64_t evaluations = 0;
  uint64_t bundles_written = 0;
  uint64_t bundles_suppressed = 0;
  std::vector<AlertRuleRow> rules;
};

/// Machine-readable run report (the `--metrics-json=<path>` output of the
/// bench and harness binaries).
///
/// Schema (version 10, validated by tools/trace_summary.py and diffed by
/// tools/report_diff.py; readers accept REPORT_SCHEMA_MIN..MAX):
/// ```json
/// {
///   "schema_version": 10,
///   "binary": "fig12_overall",
///   "runs": [
///     {"name": "...", "timestamp": 0, "incremental": false,
///      "supersteps": 3, "seconds": 0.12,
///      "read_bytes": 0, "write_bytes": 0, "network_bytes": 0,
///      "windows_loaded": 0, "edges_scanned": 0, "emissions_applied": 0,
///      "recomputed_vertices": 0,
///      "delta_walks": {"enumerated": 0, "pruned": 0},
///      "threads": 1, "parallel_tasks": 0, "steals": 0,
///      "busy_nanos": 0,
///      "state_digest": 0,       // v4, end-of-run state digest
///      "machines": [{"seconds": 0.1, "network_bytes": 123}, ...],
///      "operators": [           // v2, present when a profile was attached
///        {"id": 0, "op": "Apply", "detail": "Update",
///         "in_pos": 0, "in_neg": 0, "out_pos": 0, "out_neg": 0,
///         "pruned": 0, "windows": 0, "edges": 0, "evals": 0,
///         "wall_nanos": 0}, ...],
///      "supersteps_profile": [  // v2, the per-superstep timeline
///        {"superstep": 0, "incremental": false, "active_vertices": 0,
///         "frontier": 0, "emissions": 0, "windows": 0, "edges": 0,
///         "wall_nanos": 0, "cpu_nanos": 0, "state_digest": 0,  // v4
///         "shuffle_bytes": [..]}, ...]},
///     ...
///   ],
///   "results": {"<bench row name>": <double>, ...},
///   "metrics": {"counters": {...}, "gauges": {...},
///               "histograms": {"name": {"count":, "sum":,
///                              "buckets": [[lower, count], ...]}}},
///   "buffer_pool": {"hits": 0, "misses": 0, "hit_rate": 0.0},
///   "memory": {"<struct>": {"bytes": 0, "peak_bytes": 0}, ...},  // v3
///   "resources": {            // v8, always present (may be empty):
///     "<ctx>": {"cpu_nanos": 0, "pages_read": 0, "bytes_alloc": 0},
///     ...},                   // per-ResourceContext attribution totals,
///                             // collapsed from resource.<ctx>.* counters
///   "audit": {                 // v4, present when SetAudit was called
///     "enabled": true, "every": 3, "tolerance": 1e-6,
///     "audits": 2, "digest_mismatches": 0, "last_verified": 3,
///     "digests": [{"timestamp": 0, "digest": 123}, ...],
///     "divergence": {"found": true, "detected_at": 6,
///                    "first_bad_batch": 4, "bisection_probes": 2,
///                    "attrs": ["comp"], "divergent_vertices": 5,
///                    "vertices": [7, ...],
///                    "expected_digest": 1, "actual_digest": 2}},
///   "serving": {                // v5, present when SetServing was called
///     "standing_queries": 2, "ingest_batches": 6, "ingest_ops": 24,
///     "backpressure_stalls": 0, "delta_messages": 12,
///     "slow_batches": 0,        // v6
///     "stage_latency_us": [     // v6, per-pipeline-stage percentiles
///       {"stage": "validate", "count": 6, "sum": 90,
///        "p50": 16, "p95": 32, "p99": 32}, ...],
///     "queries": [
///       {"name": "q1", "timestamp": 6, "digest": 123, "runs": 7,
///        "budget_bytes": 0, "budget_used_bytes": 4096,
///        "lag_batches": 0, "lag_us": 0,   // v6
///        "delta_latency_us": {"count": 6, "sum": 900,
///                             "p50": 72, "p95": 104,   // v7
///                             "p99": 104, "p999": 104,
///                             "buckets": [[64, 4], [128, 2]]}}, ...]},
///   "load": {                   // v7, present when SetLoad was called
///     "connections": 2, "subscribers": 1, "arrival": "poisson",
///     "ops_per_batch": 8, "slo_ms": 50.0, "sweep": true,
///     "points": [               // one row per offered-rate step
///       {"offered_rate": 100.0, "achieved_rate": 99.2, "batches": 496,
///        "samples": 496, "p50": 180, "p90": 420, "p99": 900,
///        "p999": 1400, "max": 2100, "backpressure_stalls": 0,
///        "queue_depth_max": 3, "view_lag_us_max": 1200,
///        "rejected_batches": 1, "slo_ok": true}, ...],
///     "knee": {"found": true, "offered_rate": 400.0,
///              "achieved_rate": 396.0, "p99": 4100},
///     "slo_verdict": "pass",
///     "server_timeseries": {...}},  // raw /timeseriesz dump, optional
///   "alerts": {                 // v9, present when SetAlerts was called
///     "enabled": true, "period_ms": 1000, "evaluations": 42,
///     "bundles_written": 1, "bundles_suppressed": 0,
///     "rules": [
///       {"name": "serve_notify_p99_burn", "severity": "critical",
///        "state": "resolved", "fires": 1, "flaps": 0,
///        "last_value": 0.0,
///        "expr": "burn(serve.delta_latency_us.*, slo=1000, ...)"},
///       ...]}
/// }
/// ```
///
/// `metrics` and `buffer_pool` are snapshotted from `GlobalMetrics()` at
/// serialization time, so everything the storage/engine layers registered
/// during the process (page-read latency histograms, Δ-batch sizes, merge
/// decisions) is exported without per-bench plumbing.
class RunReport {
 public:
  explicit RunReport(std::string binary = "") : binary_(std::move(binary)) {}

  void set_binary(std::string binary) { binary_ = std::move(binary); }

  /// Appends one engine run. `network_bytes` is the cluster total;
  /// `machines` carries the per-machine breakdown (empty when the run was
  /// not partitioned). `profile`, when non-null, is copied into the run's
  /// v2 `operators` / `supersteps_profile` sections (callers pass
  /// `&engine.last_profile()` right after the run, before the next run
  /// resets it).
  void AddRun(const std::string& name, const RunStats& stats,
              const std::vector<MachineStats>& machines = {},
              uint64_t network_bytes = 0,
              const gsa::ExecutionProfile* profile = nullptr);

  /// Records a scalar bench result (a printed table cell, a speedup, ...).
  void AddResult(const std::string& name, double value);

  /// Attaches the drift auditor's outcome; emitted as the v4 `audit`
  /// section (omitted entirely when never called).
  void SetAudit(const AuditSection& audit) {
    audit_ = audit;
    has_audit_ = true;
  }

  /// Attaches the serving daemon's final tallies; emitted as the v5
  /// `serving` section (omitted entirely when never called).
  void SetServing(const ServingSection& serving) {
    serving_ = serving;
    has_serving_ = true;
  }

  /// Attaches a load-driver capacity-curve result; emitted as the v7
  /// `load` section (omitted entirely when never called).
  void SetLoad(const LoadSection& load) {
    load_ = load;
    has_load_ = true;
  }

  /// Attaches the alert engine's end-of-run summary; emitted as the v9
  /// `alerts` section (omitted entirely when never called).
  void SetAlerts(const AlertsSection& alerts) {
    alerts_ = alerts;
    has_alerts_ = true;
  }

  std::string ToJson() const;
  Status WriteTo(const std::string& path) const;

  /// Writes iff `path` is non-empty — the direct sink for a
  /// `--metrics-json=<path>` flag value.
  Status MaybeWrite(const std::string& path) const {
    if (path.empty()) return Status::OK();
    return WriteTo(path);
  }

  size_t run_count() const { return runs_.size(); }

 private:
  struct Run {
    std::string name;
    RunStats stats;
    std::vector<MachineStats> machines;
    uint64_t network_bytes = 0;
    bool has_profile = false;
    gsa::ExecutionProfile profile;
  };

  std::string binary_;
  std::vector<Run> runs_;
  std::vector<std::pair<std::string, double>> results_;
  bool has_audit_ = false;
  AuditSection audit_;
  bool has_serving_ = false;
  ServingSection serving_;
  bool has_load_ = false;
  LoadSection load_;
  bool has_alerts_ = false;
  AlertsSection alerts_;
};

}  // namespace itg

#endif  // ITG_HARNESS_RUN_REPORT_H_
