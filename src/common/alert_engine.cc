#include "common/alert_engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/flight_recorder.h"
#include "common/json.h"
#include "common/live_status.h"
#include "common/logging.h"
#include "common/telemetry_server.h"
#include "common/wall_profiler.h"

namespace itg {

namespace {

uint64_t NowWallMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// "500ms" / "2s" / "5m" / "1h" / bare integer (= ms) -> milliseconds.
bool ParseDurationMs(const std::string& token, uint64_t* out) {
  if (token.empty()) return false;
  size_t i = 0;
  while (i < token.size() &&
         std::isdigit(static_cast<unsigned char>(token[i]))) {
    ++i;
  }
  if (i == 0) return false;
  uint64_t value = std::strtoull(token.substr(0, i).c_str(), nullptr, 10);
  const std::string suffix = token.substr(i);
  if (suffix.empty() || suffix == "ms") {
    *out = value;
  } else if (suffix == "s") {
    *out = value * 1000;
  } else if (suffix == "m") {
    *out = value * 60'000;
  } else if (suffix == "h") {
    *out = value * 3'600'000;
  } else {
    return false;
  }
  return true;
}

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

// Metric-name pattern: exact, or trailing ".*" aggregating every series
// under the prefix (including the trailing dot, so "a.*" cannot match
// the sibling "ab.x").
struct Matcher {
  bool wild = false;
  std::string key;  // exact name, or prefix ending in '.'
};

Matcher MakeMatcher(const std::string& pattern) {
  Matcher m;
  if (pattern.size() > 2 &&
      pattern.compare(pattern.size() - 2, 2, ".*") == 0) {
    m.wild = true;
    m.key = pattern.substr(0, pattern.size() - 1);  // keep the '.'
  } else {
    m.key = pattern;
  }
  return m;
}

template <typename Map, typename Fn>
void ForEachMatch(const Map& map, const Matcher& m, Fn fn) {
  if (!m.wild) {
    const auto it = map.find(m.key);
    if (it != map.end()) fn(it->second);
    return;
  }
  for (auto it = map.lower_bound(m.key);
       it != map.end() && it->first.rfind(m.key, 0) == 0; ++it) {
    fn(it->second);
  }
}

// Histogram bucket deltas between two snapshots, aggregated over every
// series the matcher selects, as one snapshot of the samples recorded in
// the window (its percentiles use the registry's shared rank rule).
// Counters only grow, so newer - older saturates at 0 only when a series
// was removed and re-created mid-window.
MetricsRegistry::HistogramSnapshot HistogramDelta(
    const MetricsRegistry::Snapshot& older,
    const MetricsRegistry::Snapshot& newer, const Matcher& m) {
  std::map<uint64_t, int64_t> acc;
  ForEachMatch(newer.histograms, m,
               [&](const MetricsRegistry::HistogramSnapshot& h) {
                 for (const auto& [lower, n] : h.buckets) {
                   acc[lower] += static_cast<int64_t>(n);
                 }
               });
  ForEachMatch(older.histograms, m,
               [&](const MetricsRegistry::HistogramSnapshot& h) {
                 for (const auto& [lower, n] : h.buckets) {
                   acc[lower] -= static_cast<int64_t>(n);
                 }
               });
  MetricsRegistry::HistogramSnapshot out;
  for (const auto& [lower, n] : acc) {
    if (n <= 0) continue;
    out.buckets.emplace_back(lower, static_cast<uint64_t>(n));
    out.count += static_cast<uint64_t>(n);
  }
  return out;
}

// Fraction of windowed samples whose entire bucket lies above the SLO
// threshold (bucket lower bound > slo): the bucketed approximation of
// "latency exceeded the SLO". 0 when the window holds no samples.
double ErrorRatio(const MetricsRegistry::HistogramSnapshot& d, double slo) {
  if (d.count == 0) return 0.0;
  uint64_t errors = 0;
  for (const auto& [lower, n] : d.buckets) {
    if (static_cast<double>(lower) > slo) errors += n;
  }
  return static_cast<double>(errors) / static_cast<double>(d.count);
}

bool Compare(double value, char op, bool or_equal, double threshold) {
  if (op == '>') return or_equal ? value >= threshold : value > threshold;
  return or_equal ? value <= threshold : value < threshold;
}

}  // namespace

const char* AlertSeverityName(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo:
      return "info";
    case AlertSeverity::kWarn:
      return "warn";
    case AlertSeverity::kCritical:
      return "critical";
  }
  return "warn";
}

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kResolved:
      return "resolved";
  }
  return "inactive";
}

// ---------------------------------------------------------------------------
// Expression / rule-file parsing
// ---------------------------------------------------------------------------

Status ParseAlertExpr(const std::string& raw, AlertRule* rule) {
  const std::string expr = Trim(raw);
  const size_t open = expr.find('(');
  if (open == std::string::npos || open == 0) {
    return Status::InvalidArgument("expr is not <kind>(<metric>...): '" +
                                   expr + "'");
  }
  const size_t close = expr.find(')', open);
  if (close == std::string::npos) {
    return Status::InvalidArgument("expr missing ')': '" + expr + "'");
  }
  const std::string head = Trim(expr.substr(0, open));
  const std::string inner = expr.substr(open + 1, close - open - 1);
  const std::string rest = Trim(expr.substr(close + 1));

  std::vector<std::string> args;
  {
    std::string cur;
    std::istringstream in(inner);
    while (std::getline(in, cur, ',')) args.push_back(Trim(cur));
  }
  if (args.empty() || args[0].empty()) {
    return Status::InvalidArgument("expr has no metric name: '" + expr +
                                   "'");
  }

  rule->expr = expr;
  rule->metric = args[0];
  if (rule->metric.find(' ') != std::string::npos) {
    return Status::InvalidArgument("metric name contains a space: '" +
                                   rule->metric + "'");
  }

  bool wants_comparison = false;
  if (head == "gauge") {
    rule->kind = AlertRule::Kind::kGauge;
    wants_comparison = true;
  } else if (head == "rate") {
    rule->kind = AlertRule::Kind::kRate;
    wants_comparison = true;
  } else if (head == "absent") {
    rule->kind = AlertRule::Kind::kAbsent;
  } else if (head == "stale") {
    rule->kind = AlertRule::Kind::kStale;
  } else if (head == "burn") {
    rule->kind = AlertRule::Kind::kBurn;
  } else if (head.size() > 1 && head[0] == 'p') {
    char* end = nullptr;
    const double p = std::strtod(head.c_str() + 1, &end);
    if (end == nullptr || *end != '\0' || p < 0 || p > 100) {
      return Status::InvalidArgument("unknown expr kind '" + head + "'");
    }
    rule->kind = AlertRule::Kind::kPercentile;
    rule->percentile = p;
    wants_comparison = true;
  } else {
    return Status::InvalidArgument("unknown expr kind '" + head + "'");
  }

  if (rule->kind == AlertRule::Kind::kBurn) {
    bool have_slo = false;
    for (size_t i = 1; i < args.size(); ++i) {
      const size_t eq = args[i].find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("burn() argument is not key=value: '" +
                                       args[i] + "'");
      }
      const std::string key = Trim(args[i].substr(0, eq));
      const std::string value = Trim(args[i].substr(eq + 1));
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("burn() " + key +
                                       " is not a number: '" + value + "'");
      }
      if (key == "slo") {
        if (v < 0) return Status::InvalidArgument("burn() slo is negative");
        rule->slo_value = v;
        have_slo = true;
      } else if (key == "objective") {
        if (v <= 0 || v >= 100) {
          return Status::InvalidArgument(
              "burn() objective must be in (0, 100)");
        }
        rule->objective = v;
      } else {
        return Status::InvalidArgument("burn() unknown key '" + key + "'");
      }
    }
    if (!have_slo) {
      return Status::InvalidArgument("burn() requires slo=<threshold>");
    }
  } else if (args.size() > 1) {
    return Status::InvalidArgument(head + "() takes one metric name");
  }

  if (wants_comparison) {
    if (rest.size() < 2) {
      return Status::InvalidArgument(head +
                                     "() needs a comparison, e.g. '> 10'");
    }
    size_t i = 0;
    if (rest[0] == '>' || rest[0] == '<') {
      rule->op = rest[0];
      i = 1;
      if (rest.size() > 1 && rest[1] == '=') {
        rule->or_equal = true;
        i = 2;
      } else {
        rule->or_equal = false;
      }
    } else {
      return Status::InvalidArgument("bad comparison operator in '" + rest +
                                     "'");
    }
    const std::string number = Trim(rest.substr(i));
    char* end = nullptr;
    rule->threshold = std::strtod(number.c_str(), &end);
    if (number.empty() || end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad threshold '" + number + "'");
    }
  } else if (!rest.empty()) {
    return Status::InvalidArgument(head + "() takes no comparison: '" +
                                   rest + "'");
  }
  return Status::OK();
}

Status ParseAlertRules(const std::string& text, const std::string& source,
                       std::vector<AlertRule>* out) {
  std::vector<AlertRule> rules;
  AlertRule current;
  bool open = false;
  bool have_expr = false;
  int open_line = 0;

  auto where = [&source](int line) {
    return source + ":" + std::to_string(line) + ": ";
  };
  auto finalize = [&]() -> Status {
    if (!open) return Status::OK();
    if (!have_expr) {
      return Status::InvalidArgument(where(open_line) + "alert '" +
                                     current.name + "' has no expr");
    }
    for (const AlertRule& r : rules) {
      if (r.name == current.name) {
        return Status::InvalidArgument(where(open_line) +
                                       "duplicate alert name '" +
                                       current.name + "'");
      }
    }
    rules.push_back(current);
    open = false;
    return Status::OK();
  };

  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    if (const size_t hash = raw.find('#'); hash != std::string::npos) {
      raw.resize(hash);
    }
    const std::string line = Trim(raw);
    if (line.empty()) continue;

    const size_t sp = line.find_first_of(" \t");
    const std::string key = line.substr(0, sp);
    const std::string value =
        sp == std::string::npos ? std::string() : Trim(line.substr(sp + 1));

    if (key == "alert") {
      if (Status s = finalize(); !s.ok()) return s;
      if (value.empty() || value.find_first_of(" \t") != std::string::npos) {
        return Status::InvalidArgument(
            where(lineno) + "alert needs exactly one name, got '" + value +
            "'");
      }
      current = AlertRule();
      current.name = value;
      open = true;
      have_expr = false;
      open_line = lineno;
      continue;
    }
    if (!open) {
      return Status::InvalidArgument(where(lineno) + "'" + key +
                                     "' outside an alert block");
    }
    if (key == "severity") {
      if (value == "info") {
        current.severity = AlertSeverity::kInfo;
      } else if (value == "warn") {
        current.severity = AlertSeverity::kWarn;
      } else if (value == "critical") {
        current.severity = AlertSeverity::kCritical;
      } else {
        return Status::InvalidArgument(
            where(lineno) + "severity must be info|warn|critical, got '" +
            value + "'");
      }
    } else if (key == "expr") {
      if (Status s = ParseAlertExpr(value, &current); !s.ok()) {
        return Status::InvalidArgument(where(lineno) + s.message());
      }
      have_expr = true;
    } else if (key == "for" || key == "cooldown" || key == "window" ||
               key == "fast_window" || key == "slow_window") {
      uint64_t ms = 0;
      if (!ParseDurationMs(value, &ms)) {
        return Status::InvalidArgument(where(lineno) + key +
                                       " is not a duration: '" + value +
                                       "'");
      }
      if (key == "for") current.for_ms = ms;
      else if (key == "cooldown") current.cooldown_ms = ms;
      else if (key == "window") current.window_ms = ms;
      else if (key == "fast_window") current.fast_window_ms = ms;
      else current.slow_window_ms = ms;
    } else if (key == "burn_factor") {
      char* end = nullptr;
      current.burn_factor = std::strtod(value.c_str(), &end);
      if (value.empty() || end == nullptr || *end != '\0' ||
          current.burn_factor <= 0) {
        return Status::InvalidArgument(where(lineno) +
                                       "burn_factor is not a positive "
                                       "number: '" +
                                       value + "'");
      }
    } else {
      return Status::InvalidArgument(where(lineno) + "unknown key '" + key +
                                     "'");
    }
  }
  if (Status s = finalize(); !s.ok()) return s;
  out->insert(out->end(), rules.begin(), rules.end());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IncidentReporter
// ---------------------------------------------------------------------------

IncidentReporter& IncidentReporter::Global() {
  static IncidentReporter* reporter = new IncidentReporter();
  return *reporter;
}

void IncidentReporter::Configure(Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = std::move(options);
  configured_ = !options_.dir.empty();
}

bool IncidentReporter::configured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return configured_;
}

uint64_t IncidentReporter::bundles_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

uint64_t IncidentReporter::bundles_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

void IncidentReporter::ResetRateLimitForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  last_capture_ms_ = 0;
}

namespace {

bool WriteFileOrWarn(const std::filesystem::path& path,
                     const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    ITG_LOG(Warn) << "incident bundle: cannot write " << path.string();
    return false;
  }
  f << body;
  return static_cast<bool>(f);
}

}  // namespace

std::string IncidentReporter::Capture(const std::string& reason,
                                      const std::string& severity,
                                      const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!configured_) return std::string();
  MetricsRegistry* registry =
      options_.registry != nullptr ? options_.registry : &GlobalRegistry();
  const uint64_t now_ms = NowWallMs();
  if (last_capture_ms_ != 0 &&
      now_ms - last_capture_ms_ < options_.min_interval_ms) {
    ++suppressed_;
    registry->counter("alerts.bundles_suppressed")->Increment();
    return std::string();
  }
  last_capture_ms_ = now_ms;
  const uint64_t seq = ++seq_;

  std::string slug;
  for (char c : reason) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '-' || c == '_';
    slug.push_back(ok ? c : '_');
    if (slug.size() >= 48) break;
  }

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(options_.dir) /
                       ("incident_" + std::to_string(seq) + "_" + slug);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    ITG_LOG(Warn) << "incident bundle: cannot create " << dir.string()
                  << ": " << ec.message();
    return std::string();
  }

  // 1. Flight recorder: the last few thousand spans before the trigger.
  // A placeholder keeps every artifact non-empty (the bundle contract
  // alertz_check.py enforces) even when nothing traced yet.
  std::string spans = FlightRecorder::Global().Dump();
  if (spans.empty()) spans = "(no spans recorded)\n";
  WriteFileOrWarn(dir / "flightrecorder.txt", spans);

  // 2. Full metrics snapshot.
  WriteFileOrWarn(dir / "metrics.json", registry->ToJson() + "\n");

  // 3. The /statusz JSON, exactly as a scrape would have seen it (no
  // watchdog handle here; its state is in the metrics snapshot).
  WriteFileOrWarn(
      dir / "statusz.json",
      RenderStatusz(GlobalLiveStatus().Snap(), nullptr, registry->Snap(),
                    options_.statusz_extra ? options_.statusz_extra()
                                           : std::string()));

  // 4. The /timeseriesz ring — metric history leading up to the trigger.
  std::string series =
      options_.timeseries_json ? options_.timeseries_json() : std::string();
  if (series.empty()) series = "{}";
  WriteFileOrWarn(dir / "timeseries.json", series + "\n");

  // 5. A short wall-profile of the incident in progress. Piggybacks on
  // an already-running profiler (ITG_PROFILE) without stopping it.
  {
    WallProfiler& prof = WallProfiler::Global();
    const bool owned = !prof.running();
    if (owned && options_.profile_ms > 0) prof.Start();
    if (options_.profile_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.profile_ms));
    }
    if (owned && options_.profile_ms > 0) prof.Stop();
    WriteFileOrWarn(dir / "profile.txt", prof.Render());
  }

  std::string manifest;
  manifest.append("{\"seq\":").append(std::to_string(seq));
  manifest.append(",\"t_ms\":").append(std::to_string(now_ms));
  manifest.append(",\"reason\":");
  AppendJsonString(reason, &manifest);
  manifest.append(",\"severity\":");
  AppendJsonString(severity, &manifest);
  manifest.append(",\"detail\":");
  AppendJsonString(detail, &manifest);
  manifest.append(
      ",\"artifacts\":[\"flightrecorder.txt\",\"metrics.json\","
      "\"statusz.json\",\"timeseries.json\",\"profile.txt\"]}\n");
  WriteFileOrWarn(dir / "incident.json", manifest);

  ++written_;
  registry->counter("alerts.bundles_written")->Increment();
  ITG_LOG(Warn) << "incident bundle written: " << dir.string() << " ("
                << reason << ", " << severity << ")";
  return dir.string();
}

// ---------------------------------------------------------------------------
// AlertEngine
// ---------------------------------------------------------------------------

AlertEngine::~AlertEngine() { Stop(); }

MetricsRegistry* AlertEngine::registry() const {
  return options_.registry != nullptr ? options_.registry
                                      : &GlobalRegistry();
}

void AlertEngine::AddRule(AlertRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  RuleState rs;
  rs.rule = std::move(rule);
  rules_.push_back(std::move(rs));
}

Status AlertEngine::AddRulesFromText(const std::string& text,
                                     const std::string& source) {
  std::vector<AlertRule> parsed;
  if (Status s = ParseAlertRules(text, source, &parsed); !s.ok()) return s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const AlertRule& r : parsed) {
    for (const RuleState& rs : rules_) {
      if (rs.rule.name == r.name) {
        return Status::InvalidArgument(source + ": duplicate alert name '" +
                                       r.name + "'");
      }
    }
  }
  for (AlertRule& r : parsed) {
    RuleState rs;
    rs.rule = std::move(r);
    rules_.push_back(std::move(rs));
  }
  return Status::OK();
}

Status AlertEngine::AddRulesFromFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IOError("cannot open alert rules file " + path);
  std::stringstream buf;
  buf << f.rdbuf();
  return AddRulesFromText(buf.str(), path);
}

size_t AlertEngine::rule_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_.size();
}

void AlertEngine::ConfigureForTest(const Options& options) {
  options_ = options;
  std::lock_guard<std::mutex> lock(mu_);
  max_window_ms_ = 0;
  for (const RuleState& rs : rules_) {
    max_window_ms_ = std::max({max_window_ms_, rs.rule.window_ms,
                               rs.rule.fast_window_ms,
                               rs.rule.slow_window_ms});
  }
}

void AlertEngine::Start(const Options& options) {
  if (running()) return;
  options_ = options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (rules_.empty()) return;  // zero-cost when off: no thread at all
    max_window_ms_ = 0;
    for (const RuleState& rs : rules_) {
      max_window_ms_ = std::max({max_window_ms_, rs.rule.window_ms,
                                 rs.rule.fast_window_ms,
                                 rs.rule.slow_window_ms});
    }
  }
  stop_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] {
    const auto period = std::chrono::milliseconds(
        options_.period_ms > 0 ? options_.period_ms : 1000);
    while (!stop_.load(std::memory_order_relaxed)) {
      EvaluateOnceAt(NowWallMs());
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait_for(lock, period, [this] {
        return stop_.load(std::memory_order_relaxed);
      });
    }
  });
  ITG_LOG(Info) << "alert engine: " << rule_count() << " rules, period "
                << options_.period_ms << "ms";
}

void AlertEngine::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

uint64_t AlertEngine::evaluations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluations_;
}

bool AlertEngine::EvalCondition(const AlertRule& rule, double* value) const {
  *value = 0;
  if (history_.empty()) return false;
  const HistorySample& newest = history_.back();
  const Matcher m = MakeMatcher(rule.metric);

  // Newest sample with a full `window_ms` behind it; falls back to the
  // oldest sample (a clamped window) so short histories still evaluate.
  auto baseline = [this, &newest](uint64_t window_ms) -> const
      HistorySample* {
    const HistorySample* base = &history_.front();
    for (const HistorySample& s : history_) {
      if (s.t_ms + window_ms <= newest.t_ms) base = &s;
      else break;
    }
    if (base == &newest && history_.size() > 1) {
      base = &history_[history_.size() - 2];
    }
    return base;
  };

  switch (rule.kind) {
    case AlertRule::Kind::kGauge: {
      bool found = false;
      int64_t max_gauge = 0;
      ForEachMatch(newest.snap.gauges, m, [&](int64_t v) {
        max_gauge = found ? std::max(max_gauge, v) : v;
        found = true;
      });
      if (found) {
        *value = static_cast<double>(max_gauge);
      } else {
        uint64_t sum = 0;
        ForEachMatch(newest.snap.counters, m, [&](uint64_t v) {
          sum += v;
          found = true;
        });
        *value = static_cast<double>(sum);
      }
      if (!found) return false;
      return Compare(*value, rule.op, rule.or_equal, rule.threshold);
    }

    case AlertRule::Kind::kRate: {
      const HistorySample* base = baseline(rule.window_ms);
      if (base->t_ms >= newest.t_ms) return false;
      uint64_t cur = 0, old = 0;
      bool found = false;
      ForEachMatch(newest.snap.counters, m, [&](uint64_t v) {
        cur += v;
        found = true;
      });
      ForEachMatch(base->snap.counters, m, [&](uint64_t v) { old += v; });
      if (!found) return false;
      const double dt = static_cast<double>(newest.t_ms - base->t_ms) / 1e3;
      *value = cur > old ? static_cast<double>(cur - old) / dt : 0.0;
      return Compare(*value, rule.op, rule.or_equal, rule.threshold);
    }

    case AlertRule::Kind::kPercentile: {
      const HistorySample* base = baseline(rule.window_ms);
      const MetricsRegistry::HistogramSnapshot d =
          HistogramDelta(base->snap, newest.snap, m);
      if (d.count == 0) return false;
      *value = static_cast<double>(d.PercentileUpperBound(rule.percentile));
      return Compare(*value, rule.op, rule.or_equal, rule.threshold);
    }

    case AlertRule::Kind::kAbsent: {
      bool found = false;
      ForEachMatch(newest.snap.counters, m, [&](uint64_t) { found = true; });
      ForEachMatch(newest.snap.gauges, m, [&](int64_t) { found = true; });
      ForEachMatch(newest.snap.histograms, m,
                   [&](const MetricsRegistry::HistogramSnapshot&) {
                     found = true;
                   });
      *value = found ? 0.0 : 1.0;
      return !found;
    }

    case AlertRule::Kind::kStale: {
      // Requires a baseline covering the full window: a freshly started
      // process is not "stale", it just has no history yet.
      if (history_.front().t_ms + rule.window_ms > newest.t_ms) {
        return false;
      }
      const HistorySample* base = baseline(rule.window_ms);
      bool found = false;
      bool moved = false;
      uint64_t cur_c = 0, old_c = 0;
      ForEachMatch(newest.snap.counters, m, [&](uint64_t v) {
        cur_c += v;
        found = true;
      });
      ForEachMatch(base->snap.counters, m, [&](uint64_t v) { old_c += v; });
      if (cur_c != old_c) moved = true;
      std::vector<int64_t> cur_g, old_g;
      ForEachMatch(newest.snap.gauges, m, [&](int64_t v) {
        cur_g.push_back(v);
        found = true;
      });
      ForEachMatch(base->snap.gauges, m,
                   [&](int64_t v) { old_g.push_back(v); });
      if (cur_g != old_g) moved = true;
      uint64_t cur_h = 0, old_h = 0;
      ForEachMatch(newest.snap.histograms, m,
                   [&](const MetricsRegistry::HistogramSnapshot& h) {
                     cur_h += h.count;
                     found = true;
                   });
      ForEachMatch(base->snap.histograms, m,
                   [&](const MetricsRegistry::HistogramSnapshot& h) {
                     old_h += h.count;
                   });
      if (cur_h != old_h) moved = true;
      *value = (found && !moved) ? 1.0 : 0.0;
      return found && !moved;
    }

    case AlertRule::Kind::kBurn: {
      const double budget = 1.0 - rule.objective / 100.0;
      auto burn_over = [&](uint64_t window_ms) {
        const HistorySample* base = baseline(window_ms);
        return ErrorRatio(HistogramDelta(base->snap, newest.snap, m),
                          rule.slo_value) /
               budget;
      };
      const double fast = burn_over(rule.fast_window_ms);
      const double slow = burn_over(rule.slow_window_ms);
      *value = fast;
      return fast >= rule.burn_factor && slow >= rule.burn_factor;
    }
  }
  return false;
}

void AlertEngine::Transition(RuleState* rs, bool cond, uint64_t now_ms) {
  switch (rs->state) {
    case AlertState::kInactive:
      if (cond) {
        rs->state = AlertState::kPending;
        rs->entered_ms = now_ms;
      }
      break;
    case AlertState::kPending:
      if (!cond) {
        rs->state = AlertState::kInactive;
        rs->entered_ms = now_ms;
      }
      break;
    case AlertState::kFiring:
      if (!cond) {
        rs->state = AlertState::kResolved;
        rs->entered_ms = now_ms;
      }
      break;
    case AlertState::kResolved:
      if (cond) {
        // A flap: re-enter firing silently — no new fire tally, no new
        // incident bundle. The cooldown exists exactly for this.
        rs->state = AlertState::kFiring;
        rs->entered_ms = now_ms;
        ++rs->flaps;
      } else if (now_ms - rs->entered_ms >= rs->rule.cooldown_ms) {
        rs->state = AlertState::kInactive;
        rs->entered_ms = now_ms;
      }
      break;
  }
  // The pending hold: promote in the same evaluation once the condition
  // has been continuously true for `for_ms` (for_ms == 0 fires at once).
  if (rs->state == AlertState::kPending && cond &&
      now_ms - rs->entered_ms >= rs->rule.for_ms) {
    rs->state = AlertState::kFiring;
    rs->entered_ms = now_ms;
    ++rs->fires;
  }
}

void AlertEngine::EvaluateOnceAt(uint64_t now_ms) {
  MetricsRegistry::Snapshot snap = registry()->Snap();
  struct Fired {
    std::string name;
    std::string severity;
    std::string detail;
  };
  std::vector<Fired> fired;
  uint64_t resolved = 0;
  uint64_t flapped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    history_.push_back({now_ms, std::move(snap)});
    // Keep just enough history for the widest window (plus slack for
    // the baseline search), bounded hard against clock weirdness.
    const uint64_t keep_ms = max_window_ms_ + 2 * options_.period_ms + 1000;
    while (history_.size() > 2 &&
           history_.front().t_ms + keep_ms < now_ms) {
      history_.pop_front();
    }
    while (history_.size() > 4096) history_.pop_front();
    ++evaluations_;

    for (RuleState& rs : rules_) {
      double value = 0;
      const bool cond = EvalCondition(rs.rule, &value);
      rs.last_value = value;
      const AlertState before = rs.state;
      const uint64_t fires_before = rs.fires;
      const uint64_t flaps_before = rs.flaps;
      Transition(&rs, cond, now_ms);
      if (rs.fires > fires_before) {
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      "%s: value=%.6g threshold=%.6g", rs.rule.expr.c_str(),
                      value,
                      rs.rule.kind == AlertRule::Kind::kBurn
                          ? rs.rule.burn_factor
                          : rs.rule.threshold);
        fired.push_back({rs.rule.name, AlertSeverityName(rs.rule.severity),
                         detail});
      }
      if (rs.flaps > flaps_before) ++flapped;
      if (before == AlertState::kFiring &&
          rs.state == AlertState::kResolved) {
        ++resolved;
      }
    }
  }

  MetricsRegistry* reg = registry();
  reg->counter("alerts.evaluations")->Increment();
  if (!fired.empty()) {
    reg->counter("alerts.fired_total")->Add(fired.size());
  }
  if (resolved > 0) reg->counter("alerts.resolved_total")->Add(resolved);
  if (flapped > 0) reg->counter("alerts.flaps_total")->Add(flapped);
  for (const Fired& f : fired) {
    ITG_LOG(Warn) << "alert firing: " << f.name << " [" << f.severity
                  << "] " << f.detail;
    if (options_.capture_incidents) {
      IncidentReporter::Global().Capture(f.name, f.severity, f.detail);
    }
  }
}

std::vector<AlertStatus> AlertEngine::Statuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AlertStatus> out;
  out.reserve(rules_.size());
  for (const RuleState& rs : rules_) {
    AlertStatus st;
    st.name = rs.rule.name;
    st.expr = rs.rule.expr;
    st.severity = rs.rule.severity;
    st.state = rs.state;
    st.value = rs.last_value;
    st.threshold = rs.rule.kind == AlertRule::Kind::kBurn
                       ? rs.rule.burn_factor
                       : rs.rule.threshold;
    st.since_ms = rs.entered_ms;
    st.fires = rs.fires;
    st.flaps = rs.flaps;
    out.push_back(std::move(st));
  }
  return out;
}

std::vector<std::string> AlertEngine::CriticalFiring() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const RuleState& rs : rules_) {
    if (rs.rule.severity == AlertSeverity::kCritical &&
        rs.state == AlertState::kFiring) {
      out.push_back(rs.rule.name);
    }
  }
  return out;
}

std::string AlertEngine::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(1 << 11);
  out.append("{\"enabled\":true,\"period_ms\":")
      .append(std::to_string(options_.period_ms));
  out.append(",\"evaluations\":").append(std::to_string(evaluations_));
  out.append(",\"alerts\":[");
  bool first = true;
  for (const RuleState& rs : rules_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendJsonString(rs.rule.name, &out);
    out.append(",\"severity\":\"")
        .append(AlertSeverityName(rs.rule.severity));
    out.append("\",\"state\":\"").append(AlertStateName(rs.state));
    out.append("\",\"value\":");
    AppendDouble(rs.last_value, &out);
    out.append(",\"threshold\":");
    AppendDouble(rs.rule.kind == AlertRule::Kind::kBurn
                     ? rs.rule.burn_factor
                     : rs.rule.threshold,
                 &out);
    out.append(",\"since_ms\":").append(std::to_string(rs.entered_ms));
    out.append(",\"fires\":").append(std::to_string(rs.fires));
    out.append(",\"flaps\":").append(std::to_string(rs.flaps));
    out.append(",\"expr\":");
    AppendJsonString(rs.rule.expr, &out);
    out.push_back('}');
  }
  out.append("]}\n");
  return out;
}

std::string AlertEngine::ToText() const {
  std::vector<AlertStatus> statuses = Statuses();
  std::string out;
  out.append("alerts: ")
      .append(std::to_string(statuses.size()))
      .append(" rules, ")
      .append(std::to_string(evaluations()))
      .append(" evaluations, period ")
      .append(std::to_string(options_.period_ms))
      .append("ms\n");
  for (const AlertStatus& st : statuses) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-8s %-8s %-32s value=%.6g threshold=%.6g fires=%llu "
                  "flaps=%llu  %s\n",
                  AlertStateName(st.state), AlertSeverityName(st.severity),
                  st.name.c_str(), st.value, st.threshold,
                  static_cast<unsigned long long>(st.fires),
                  static_cast<unsigned long long>(st.flaps),
                  st.expr.c_str());
    out.append(line);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Built-in serving defaults
// ---------------------------------------------------------------------------

std::vector<AlertRule> DefaultServingAlertRules(
    const ServingAlertDefaults& defaults) {
  const uint64_t p =
      defaults.period_ms > 0 ? defaults.period_ms : uint64_t{1000};
  std::vector<AlertRule> rules;
  auto add = [&rules](const std::string& name, AlertSeverity severity,
                      const std::string& expr, uint64_t for_ms,
                      uint64_t cooldown_ms) -> AlertRule* {
    AlertRule r;
    r.name = name;
    r.severity = severity;
    if (Status s = ParseAlertExpr(expr, &r); !s.ok()) {
      ITG_LOG(Warn) << "default alert rule '" << name
                    << "' failed to parse: " << s.ToString();
      return nullptr;
    }
    r.for_ms = for_ms;
    r.cooldown_ms = cooldown_ms;
    rules.push_back(std::move(r));
    return &rules.back();
  };

  // Ingest-queue saturation: the bounded queue is the backpressure
  // boundary; sitting at >= 90% for a while means producers outrun the
  // maintenance loop.
  const uint64_t sat = std::max<uint64_t>(
      1, defaults.ingest_queue_depth * 9 / 10);
  add("serve_ingest_queue_saturated", AlertSeverity::kWarn,
      "gauge(serve.queue_depth) >= " + std::to_string(sat), 2 * p, 10 * p);

  // View staleness: any standing view lagging the graph of record by a
  // large multiple of the SLO (or 5 s without one).
  const uint64_t lag_us =
      defaults.slo_ms > 0
          ? static_cast<uint64_t>(defaults.slo_ms * 1000.0 * 8.0)
          : uint64_t{5'000'000};
  add("serve_view_lag_stale", AlertSeverity::kWarn,
      "gauge(serve.view_lag_us.*) > " + std::to_string(lag_us), 2 * p,
      10 * p);

  // Backpressure stalls: ingest producers blocking on the full queue at
  // a sustained rate.
  {
    AlertRule* r = add("serve_backpressure_stalls", AlertSeverity::kWarn,
                       "rate(serve.backpressure_stalls) > 1", 0, 10 * p);
    if (r != nullptr) r->window_ms = 10 * p;
  }

  // Notify-latency SLO burn: the page-worthy one. Fast window = 2
  // evaluation periods so a real burn fires within two ticks; the slow
  // window keeps a single spike from paging.
  if (defaults.slo_ms > 0) {
    const uint64_t slo_us =
        static_cast<uint64_t>(defaults.slo_ms * 1000.0);
    AlertRule* r =
        add("serve_notify_p99_burn", AlertSeverity::kCritical,
            "burn(serve.delta_latency_us.*, slo=" + std::to_string(slo_us) +
                ", objective=99)",
            0, 2 * p);
    if (r != nullptr) {
      r->fast_window_ms = 2 * p;
      r->slow_window_ms = 10 * p;
      r->burn_factor = 1.0;
    }
  }

  // Memory-budget pressure: any standing view consuming >= 90% of its
  // admission slice (serve.budget_used_bytes.<q>, set by the service).
  if (defaults.memory_budget_bytes > 0) {
    const uint64_t limit = defaults.memory_budget_bytes * 9 / 10;
    add("serve_memory_pressure", AlertSeverity::kWarn,
        "gauge(serve.budget_used_bytes.*) >= " + std::to_string(limit),
        2 * p, 10 * p);
  }

  return rules;
}

}  // namespace itg
