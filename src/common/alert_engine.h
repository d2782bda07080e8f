#ifndef ITG_COMMON_ALERT_ENGINE_H_
#define ITG_COMMON_ALERT_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"

namespace itg {

/// SLO alert engine + incident black box.
///
/// A background evaluator samples a MetricsRegistry on a fixed period and
/// drives a per-rule state machine over the snapshot history:
///
///   inactive --cond--> pending --held for `for`--> firing
///   firing --cond clears--> resolved --cooldown elapses--> inactive
///   resolved --cond returns--> firing  (a flap: no new fire/bundle)
///
/// The pending hold (`for`) is hysteresis against one-sample blips; the
/// resolved hold (`cooldown`) suppresses flapping — a rule oscillating
/// around its threshold re-enters firing silently instead of re-firing
/// (and re-bundling) on every oscillation.
///
/// Rule kinds (the `expr` grammar, one home: ParseAlertExpr):
///   gauge(NAME) OP V      current gauge level (counters accepted too)
///   rate(NAME) OP V       counter rate per second over `window`
///   pNN(NAME) OP V        histogram percentile over `window`, computed
///                         from the delta of two log-linear snapshots
///                         with HistogramSnapshot::PercentileUpperBound,
///                         the estimate run reports and /timeseriesz show
///                         (p50 / p99 / p99.9 ... anything in [0,100])
///   absent(NAME)          the metric does not exist in the registry
///   stale(NAME)           it exists but has not moved for `window`
///   burn(NAME, slo=V, objective=P)
///                         multi-window SLO burn rate, Google-SRE style:
///                         error ratio = fraction of histogram samples
///                         above `slo`, budget = 1 - P/100, burn =
///                         ratio / budget; the rule is true only when
///                         BOTH the fast and the slow window burn at
///                         >= `burn_factor` (fast catches the incident
///                         quickly, slow keeps one latency spike from
///                         paging).
///
/// NAME may end in `.*`, aggregating every matching series (sum for
/// counters and histogram buckets, max for gauges) — the serving layer's
/// per-view series (`serve.delta_latency_us.<q>`) are dynamically named.
///
/// On an inactive/pending -> firing transition the engine bumps
/// `alerts.fired_total` and asks the process-global IncidentReporter for
/// a rate-limited incident bundle, so every violation arrives with its
/// own postmortem evidence. When no rules are loaded Start() refuses to
/// spawn the evaluator thread: the engine is strictly zero-cost when off.

enum class AlertSeverity { kInfo, kWarn, kCritical };
enum class AlertState { kInactive, kPending, kFiring, kResolved };

const char* AlertSeverityName(AlertSeverity severity);
const char* AlertStateName(AlertState state);

/// One parsed rule. Fields without a matching key in the rule file keep
/// these defaults; durations are milliseconds.
struct AlertRule {
  enum class Kind { kGauge, kRate, kPercentile, kAbsent, kStale, kBurn };

  std::string name;
  AlertSeverity severity = AlertSeverity::kWarn;
  Kind kind = Kind::kGauge;
  std::string metric;        ///< may end in ".*" (aggregate wildcard)
  std::string expr;          ///< original expression text, for display

  /// Comparison for kGauge / kRate / kPercentile: value OP threshold.
  char op = '>';
  bool or_equal = false;
  double threshold = 0;
  double percentile = 99;    ///< kPercentile only

  /// kBurn parameters.
  double slo_value = 0;      ///< histogram sample above this is an error
  double objective = 99.0;   ///< success objective, percent
  double burn_factor = 1.0;  ///< fire at burn >= this in both windows

  uint64_t for_ms = 0;        ///< condition must hold this long to fire
  uint64_t cooldown_ms = 60'000;  ///< resolved hold before re-arming
  uint64_t window_ms = 60'000;    ///< kRate / kPercentile / kStale window
  uint64_t fast_window_ms = 60'000;   ///< kBurn fast window
  uint64_t slow_window_ms = 300'000;  ///< kBurn slow window
};

/// Parses the line-oriented rule file format (docs/SERVING.md):
///
///   # comment / blank lines ignored
///   alert <name>
///     severity info|warn|critical
///     expr <expression>
///     for 30s            # also: 500ms, 2m, plain integer = ms
///     cooldown 5m
///     window 1m
///     fast_window 5m     # burn rules
///     slow_window 1h
///     burn_factor 2
///
/// Every error is rejected with its line number:
/// "<source>:<line>: <what>". A rule without an expr is an error.
Status ParseAlertRules(const std::string& text, const std::string& source,
                       std::vector<AlertRule>* out);

/// Parses just an expression (exposed for tests and built-in rules).
Status ParseAlertExpr(const std::string& expr, AlertRule* rule);

/// Live view of one rule, as served on /alertz and in run reports.
struct AlertStatus {
  std::string name;
  std::string expr;
  AlertSeverity severity = AlertSeverity::kWarn;
  AlertState state = AlertState::kInactive;
  double value = 0;        ///< last evaluated value (burn: fast burn)
  double threshold = 0;    ///< threshold / burn_factor
  uint64_t since_ms = 0;   ///< wall time the current state was entered
  uint64_t fires = 0;      ///< distinct firing transitions
  uint64_t flaps = 0;      ///< resolved->firing re-entries (suppressed)
};

/// Writes incident bundle directories: a self-contained black box with
/// the flight-recorder span dump, a full metrics snapshot, the /statusz
/// JSON, the /timeseriesz ring, and a short wall-profiler capture, plus
/// an incident.json manifest. Process-global so every trigger path —
/// alert firing, stall-watchdog trip, SIGUSR1 — shares one rate limiter
/// and one sequence; unconfigured it is a strict no-op (Capture returns
/// "" without touching the filesystem).
class IncidentReporter {
 public:
  struct Options {
    /// Bundle parent directory; empty leaves the reporter unconfigured.
    std::string dir;
    /// Minimum wall-time between bundles; triggers inside the limit are
    /// counted in `alerts.bundles_suppressed` instead of written.
    uint64_t min_interval_ms = 30'000;
    /// Wall-profiler capture window per bundle (0 skips the capture and
    /// writes whatever the profiler has accumulated).
    uint64_t profile_ms = 250;
    /// Registry to snapshot; null = GlobalRegistry().
    MetricsRegistry* registry = nullptr;
    /// Optional /timeseriesz ring JSON provider (the telemetry server's
    /// ring); empty result writes an empty-object placeholder.
    std::function<std::string()> timeseries_json;
    /// Optional /statusz extra-section hook (same contract as
    /// TelemetryServer::set_statusz_extra).
    std::function<std::string()> statusz_extra;
  };

  static IncidentReporter& Global();

  /// (Re)configures the reporter; an empty dir de-configures it.
  void Configure(Options options);
  bool configured() const;

  /// Writes one bundle directory `incident_<seq>_<reason>/` and returns
  /// its path; returns "" when unconfigured or rate-limited. Safe from
  /// any thread except a signal handler (it allocates, locks and does
  /// file IO — callers poll, exactly like the flight recorder's dump).
  std::string Capture(const std::string& reason, const std::string& severity,
                      const std::string& detail);

  uint64_t bundles_written() const;
  uint64_t bundles_suppressed() const;

  /// Test hook: forget the last-capture time so the next Capture is not
  /// rate-limited.
  void ResetRateLimitForTest();

 private:
  IncidentReporter() = default;

  mutable std::mutex mu_;
  Options options_;
  bool configured_ = false;
  uint64_t last_capture_ms_ = 0;
  uint64_t seq_ = 0;
  uint64_t written_ = 0;
  uint64_t suppressed_ = 0;
};

class AlertEngine {
 public:
  struct Options {
    /// Evaluation period for the background thread.
    uint64_t period_ms = 1000;
    /// Registry to sample; null = GlobalRegistry().
    MetricsRegistry* registry = nullptr;
    /// Ask IncidentReporter::Global() for a bundle on firing transitions.
    bool capture_incidents = true;
  };

  AlertEngine() = default;
  ~AlertEngine();

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// Adds rules; callable only before Start(). Duplicate rule names are
  /// rejected (the later AddRules call fails).
  void AddRule(AlertRule rule);
  Status AddRulesFromText(const std::string& text, const std::string& source);
  Status AddRulesFromFile(const std::string& path);
  size_t rule_count() const;

  /// Spawns the evaluator thread. With zero rules this is a no-op and
  /// running() stays false — the zero-cost-when-off contract.
  void Start(const Options& options);
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }
  uint64_t period_ms() const { return options_.period_ms; }

  /// One evaluation pass at wall time `now_ms` (the thread calls this
  /// once per period; tests drive it directly with synthetic clocks).
  void EvaluateOnceAt(uint64_t now_ms);

  /// Test hook: applies `options` and sizes the history window exactly
  /// like Start() would, without spawning the evaluator thread — tests
  /// then drive EvaluateOnceAt() directly with synthetic clocks.
  void ConfigureForTest(const Options& options);

  /// Evaluations performed so far.
  uint64_t evaluations() const;

  std::vector<AlertStatus> Statuses() const;
  /// Names of critical rules currently firing (the /healthz reasons).
  std::vector<std::string> CriticalFiring() const;

  /// `{"enabled":true,"period_ms":N,"evaluations":N,"alerts":[...]}`.
  std::string ToJson() const;
  /// Human table, one rule per line.
  std::string ToText() const;

 private:
  struct RuleState {
    AlertRule rule;
    AlertState state = AlertState::kInactive;
    uint64_t entered_ms = 0;   ///< when `state` was entered
    double last_value = 0;
    uint64_t fires = 0;
    uint64_t flaps = 0;
  };
  struct HistorySample {
    uint64_t t_ms = 0;
    MetricsRegistry::Snapshot snap;
  };

  // Condition + evaluated value for one rule against the history
  // (newest sample is history_.back()).
  bool EvalCondition(const AlertRule& rule, double* value) const;
  void Transition(RuleState* rs, bool cond, uint64_t now_ms);

  MetricsRegistry* registry() const;

  Options options_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  mutable std::mutex mu_;
  std::vector<RuleState> rules_;
  std::deque<HistorySample> history_;
  uint64_t max_window_ms_ = 0;  ///< widest window any rule needs
  uint64_t evaluations_ = 0;
};

/// Inputs for the serving daemon's built-in rules (examples/itg_serve.cc
/// installs them whenever alerting is enabled; docs/SERVING.md lists the
/// exact expressions).
struct ServingAlertDefaults {
  size_t ingest_queue_depth = 64;     ///< --queue-depth
  double slo_ms = 0;                  ///< --slo-ms; 0 skips the burn rule
  uint64_t memory_budget_bytes = 0;   ///< --memory-budget; 0 skips
  uint64_t period_ms = 1000;          ///< evaluation period (windows scale)
};
std::vector<AlertRule> DefaultServingAlertRules(
    const ServingAlertDefaults& defaults);

}  // namespace itg

#endif  // ITG_COMMON_ALERT_ENGINE_H_
