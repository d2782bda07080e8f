#include "common/telemetry_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/alert_engine.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/wall_profiler.h"

namespace itg {

namespace {

// Prometheus HELP text and label values escape `\` and newline (label
// values additionally escape `"`; our le values never need it).
void AppendPromEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

// `seconds=N` from a /profilez query string; default 1, clamped to
// [0, 30] (0 = render the current accumulation without capturing —
// useful when ITG_PROFILE has the profiler running for the whole
// process). The clamp keeps a scrape from parking the accept thread
// (connections are handled sequentially) for minutes.
uint64_t ProfileSeconds(const std::string& query) {
  uint64_t seconds = 1;
  const size_t pos = query.find("seconds=");
  if (pos != std::string::npos) {
    seconds = std::strtoull(query.c_str() + pos + 8, nullptr, 10);
  }
  return seconds > 30 ? 30 : seconds;
}

// Endpoint label for the telemetry self-metrics: "/metrics" -> "metrics",
// "/" -> "index", anything unrouted -> "other" (so probing random paths
// cannot mint unbounded series).
std::string EndpointLabel(const std::string& path, int status) {
  if (path == "/") return "index";
  if (status == 404) return "other";
  std::string label = path.substr(1);
  for (char& c : label) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return label;
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "itg_";
  out.reserve(name.size() + 4);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string RenderPrometheusText(const MetricsRegistry::Snapshot& snap) {
  std::string out;
  out.reserve(1 << 14);

  for (const auto& [name, value] : snap.counters) {
    const std::string prom = PrometheusMetricName(name);
    out.append("# HELP ").append(prom).append(" itg counter ");
    AppendPromEscaped(name, &out);
    out.push_back('\n');
    out.append("# TYPE ").append(prom).append(" counter\n");
    out.append(prom).push_back(' ');
    out.append(std::to_string(value));
    out.push_back('\n');
  }

  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PrometheusMetricName(name);
    out.append("# HELP ").append(prom).append(" itg gauge ");
    AppendPromEscaped(name, &out);
    out.push_back('\n');
    out.append("# TYPE ").append(prom).append(" gauge\n");
    out.append(prom).push_back(' ');
    out.append(std::to_string(value));
    out.push_back('\n');
  }

  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = PrometheusMetricName(name);
    out.append("# HELP ").append(prom).append(" itg histogram ");
    AppendPromEscaped(name, &out);
    out.push_back('\n');
    out.append("# TYPE ").append(prom).append(" histogram\n");
    // Integer-valued buckets make `le` of the inclusive upper bound
    // exact; the bound comes from the histogram's own log-linear bucket
    // map (the zero bucket renders as le="0").
    uint64_t cumulative = 0;
    for (const auto& [lower, n] : h.buckets) {
      cumulative += n;
      const uint64_t le =
          Histogram::BucketUpperBound(Histogram::BucketOf(lower));
      out.append(prom).append("_bucket{le=\"");
      out.append(std::to_string(le));
      out.append("\"} ");
      out.append(std::to_string(cumulative));
      out.push_back('\n');
    }
    out.append(prom).append("_bucket{le=\"+Inf\"} ");
    out.append(std::to_string(h.count));
    out.push_back('\n');
    out.append(prom).append("_sum ");
    out.append(std::to_string(h.sum));
    out.push_back('\n');
    out.append(prom).append("_count ");
    out.append(std::to_string(h.count));
    out.push_back('\n');
  }

  return out;
}

std::string RenderStatusz(const LiveStatus::Snapshot& live,
                          const StallWatchdog* watchdog,
                          const MetricsRegistry::Snapshot& metrics,
                          const std::string& extra) {
  std::string out;
  out.reserve(1 << 12);
  out.append("{\"query\":");
  AppendJsonString(live.query, &out);
  out.append(",\"phase\":");
  AppendJsonString(live.phase, &out);
  out.append(",\"running\":").append(live.running ? "true" : "false");
  out.append(",\"in_superstep\":")
      .append(live.in_superstep ? "true" : "false");
  out.append(",\"timestamp\":").append(std::to_string(live.timestamp));
  out.append(",\"superstep\":").append(std::to_string(live.superstep));
  out.append(",\"delta_seq\":").append(std::to_string(live.delta_seq));
  out.append(",\"runs_total\":").append(std::to_string(live.runs_total));
  out.append(",\"supersteps_total\":")
      .append(std::to_string(live.supersteps_total));
  out.append(",\"superstep_age_ms\":");
  AppendDouble(static_cast<double>(live.superstep_age_nanos) / 1e6, &out);

  out.append(",\"watchdog\":{");
  if (watchdog != nullptr) {
    out.append("\"running\":")
        .append(watchdog->running() ? "true" : "false");
    out.append(",\"deadline_ms\":")
        .append(std::to_string(watchdog->deadline_ms()));
    out.append(",\"healthy\":")
        .append(watchdog->healthy() ? "true" : "false");
    out.append(",\"stalls_total\":")
        .append(std::to_string(watchdog->trips()));
  } else {
    out.append("\"running\":false");
  }
  out.push_back('}');

  // Incremental-correctness observability: the latest state digest and
  // the drift auditor's running verdict counts.
  out.append(",\"audit\":{\"state_digest\":")
      .append(std::to_string(live.state_digest));
  out.append(",\"digest_timestamp\":")
      .append(std::to_string(live.digest_timestamp));
  out.append(",\"audits_total\":").append(std::to_string(live.audits_total));
  out.append(",\"audit_failures\":")
      .append(std::to_string(live.audit_failures));
  out.append(",\"last_audit_ok\":")
      .append(live.last_audit_ok ? "true" : "false");
  out.push_back('}');

  out.append(",\"partitions\":[");
  for (size_t i = 0; i < live.partitions.size(); ++i) {
    const LiveStatus::PartitionState& p = live.partitions[i];
    if (i != 0) out.push_back(',');
    out.append("{\"id\":").append(std::to_string(i));
    out.append(",\"network_bytes\":")
        .append(std::to_string(p.network_bytes));
    out.append(",\"barrier_wait_ms\":");
    AppendDouble(static_cast<double>(p.barrier_wait_nanos) / 1e6, &out);
    out.append(",\"seconds\":");
    AppendDouble(p.seconds, &out);
    out.push_back('}');
  }
  out.push_back(']');

  // Per-context resource attribution: every counter triple
  // resource.<ctx>.{cpu_nanos,pages_read,bytes_alloc} collapses into one
  // JSON object — "who is eating my CPU" at a glance.
  out.append(",\"resources\":{");
  {
    bool first_ctx = true;
    constexpr std::string_view kResPrefix = "resource.";
    constexpr std::string_view kCpuSuffix = ".cpu_nanos";
    for (const auto& [name, value] : metrics.counters) {
      if (name.rfind(kResPrefix, 0) != 0) continue;
      if (name.size() <= kResPrefix.size() + kCpuSuffix.size() ||
          name.compare(name.size() - kCpuSuffix.size(), kCpuSuffix.size(),
                       kCpuSuffix) != 0) {
        continue;
      }
      const std::string ctx = name.substr(
          kResPrefix.size(),
          name.size() - kResPrefix.size() - kCpuSuffix.size());
      auto counter_or_zero = [&](const std::string& series) -> uint64_t {
        const auto it = metrics.counters.find(series);
        return it != metrics.counters.end() ? it->second : 0;
      };
      if (!first_ctx) out.push_back(',');
      first_ctx = false;
      AppendJsonString(ctx, &out);
      out.append(":{\"cpu_nanos\":").append(std::to_string(value));
      out.append(",\"pages_read\":")
          .append(std::to_string(
              counter_or_zero("resource." + ctx + ".pages_read")));
      out.append(",\"bytes_alloc\":")
          .append(std::to_string(
              counter_or_zero("resource." + ctx + ".bytes_alloc")));
      out.append("}");
    }
  }
  out.push_back('}');

  // Per-structure memory: every gauge pair mem.<name>.bytes /
  // mem.<name>.peak_bytes collapses into one JSON object.
  out.append(",\"memory\":{");
  bool first = true;
  for (const auto& [name, value] : metrics.gauges) {
    constexpr std::string_view kPrefix = "mem.";
    constexpr std::string_view kBytes = ".bytes";
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.size() <= kPrefix.size() + kBytes.size() ||
        name.compare(name.size() - kBytes.size(), kBytes.size(), kBytes) !=
            0) {
      continue;
    }
    std::string struct_name = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kBytes.size());
    if (struct_name.size() > 5 &&
        struct_name.compare(struct_name.size() - 5, 5, ".peak") == 0) {
      continue;  // folded into its base entry below
    }
    const auto peak_it = metrics.gauges.find("mem." + struct_name +
                                             ".peak_bytes");
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(struct_name, &out);
    out.append(":{\"bytes\":").append(std::to_string(value));
    out.append(",\"peak_bytes\":")
        .append(std::to_string(
            peak_it != metrics.gauges.end() ? peak_it->second : value));
    out.append("}");
  }
  out.push_back('}');
  if (!extra.empty()) {
    out.push_back(',');
    out.append(extra);
  }
  out.append("}\n");
  return out;
}

TelemetryServer::TelemetryServer(MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &GlobalRegistry()) {}

TelemetryServer::~TelemetryServer() { Stop(); }

Status TelemetryServer::Start(const TelemetryOptions& options) {
  if (running()) {
    return Status::InvalidArgument("telemetry server already running");
  }
  options_ = options;

  SocketListener::Options lopt;
  lopt.port = options.port;
  lopt.port_file = options.port_file;
  lopt.name = "telemetry";
  Status s =
      listener_.Start(lopt, [this](int fd) { HandleConnection(fd); });
  if (!s.ok()) return s;

  FlightRecorder::Global().Enable(options.flight_recorder_events);
  FlightRecorder::InstallSigusr1();
  StallWatchdog::Options wd;
  wd.deadline_ms = options.watchdog_deadline_ms;
  watchdog_.Start(wd);

  if (options.timeseries_interval_ms > 0) {
    timeseries_ =
        std::make_unique<TimeSeriesRing>(options.timeseries_capacity);
    sampler_stop_.store(false, std::memory_order_relaxed);
    sampler_ = std::thread([this] { SamplerLoop(); });
  }

  ITG_LOG(Info) << "telemetry server listening on 127.0.0.1:" << port()
                << " (/metrics /statusz /healthz"
                << (timeseries_ ? " /timeseriesz)" : ")");
  return Status::OK();
}

void TelemetryServer::Stop() {
  if (!running()) return;
  if (sampler_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sampler_mu_);
      sampler_stop_.store(true, std::memory_order_relaxed);
    }
    sampler_cv_.notify_all();
    sampler_.join();
  }
  listener_.Stop();
  watchdog_.Stop();
}

void TelemetryServer::SamplerLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.timeseries_interval_ms);
  std::unique_lock<std::mutex> lock(sampler_mu_);
  while (!sampler_stop_.load(std::memory_order_relaxed)) {
    lock.unlock();
    const uint64_t t_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    timeseries_->Push(t_ms, registry_->Snap());
    lock.lock();
    sampler_cv_.wait_for(lock, interval, [this] {
      return sampler_stop_.load(std::memory_order_relaxed);
    });
  }
}

void TelemetryServer::HandleConnection(int fd) {
  // Scrape requests are one small GET; a single read suffices for any
  // client this server is meant for.
  char buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';

  std::string path = "/";
  {
    const char* sp = std::strchr(buf, ' ');
    if (sp != nullptr) {
      const char* end = std::strchr(sp + 1, ' ');
      if (end != nullptr) path.assign(sp + 1, end);
    }
  }
  // The query string is passed through: Handle routes on the path before
  // '?' and /profilez reads its capture window from `seconds=N`.
  const Response resp = Handle(path);
  const char* reason = resp.status == 200   ? "OK"
                       : resp.status == 404 ? "Not Found"
                       : resp.status == 503 ? "Service Unavailable"
                                            : "Error";
  std::string out;
  out.reserve(resp.body.size() + 160);
  out.append("HTTP/1.1 ").append(std::to_string(resp.status));
  out.push_back(' ');
  out.append(reason);
  out.append("\r\nContent-Type: ").append(resp.content_type);
  out.append("\r\nContent-Length: ")
      .append(std::to_string(resp.body.size()));
  out.append("\r\nConnection: close\r\n\r\n");
  out.append(resp.body);

  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w = ::send(fd, out.data() + sent, out.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (w <= 0) break;
    sent += static_cast<size_t>(w);
  }
}

TelemetryServer::Response TelemetryServer::Handle(
    const std::string& full_path) const {
  // Split the route from the query string: /metrics?foo=1 routes like
  // /metrics; /profilez?seconds=N consumes its query below.
  std::string path = full_path;
  std::string query;
  if (const size_t q = full_path.find('?'); q != std::string::npos) {
    path.resize(q);
    query = full_path.substr(q + 1);
  }
  const auto scrape_start = std::chrono::steady_clock::now();
  Response resp;
  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = RenderPrometheusText(registry_->Snap());
    // The Prometheus ALERTS convention: one series per rule currently
    // pending or firing, value 1 (resolved/inactive rules emit nothing).
    if (alert_engine_ != nullptr) {
      std::string alerts;
      for (const AlertStatus& st : alert_engine_->Statuses()) {
        if (st.state != AlertState::kPending &&
            st.state != AlertState::kFiring) {
          continue;
        }
        alerts.append("ALERTS{alertname=\"").append(st.name);
        alerts.append("\",severity=\"")
            .append(AlertSeverityName(st.severity));
        alerts.append("\",state=\"").append(AlertStateName(st.state));
        alerts.append("\"} 1\n");
      }
      if (!alerts.empty()) {
        resp.body.append("# TYPE ALERTS gauge\n").append(alerts);
      }
    }
  } else if (path == "/statusz") {
    resp.content_type = "application/json";
    resp.body = RenderStatusz(GlobalLiveStatus().Snap(), &watchdog_,
                              registry_->Snap(),
                              statusz_extra_ ? statusz_extra_()
                                             : std::string());
  } else if (path == "/healthz") {
    // Health aggregates the stall watchdog with critical firing alerts;
    // the body names WHY it is unhealthy so an LB log or a curl tells
    // the operator which subsystem to look at, not just "503".
    resp.content_type = "application/json";
    const bool stalled = !watchdog_.healthy();
    std::vector<std::string> critical;
    if (alert_engine_ != nullptr) critical = alert_engine_->CriticalFiring();
    const char* status =
        stalled ? "stalled" : (critical.empty() ? "ok" : "alerting");
    resp.status = (stalled || !critical.empty()) ? 503 : 200;
    resp.body = std::string("{\"status\":\"") + status + "\",\"reasons\":[";
    bool first = true;
    if (stalled) {
      resp.body.append("\"watchdog: superstep past deadline\"");
      first = false;
    }
    for (const std::string& name : critical) {
      if (!first) resp.body.push_back(',');
      first = false;
      AppendJsonString("alert firing: " + name, &resp.body);
    }
    resp.body.append("],\"stalls_total\":")
        .append(std::to_string(watchdog_.trips()));
    resp.body.append(",\"critical_firing\":")
        .append(std::to_string(critical.size()));
    resp.body.append(",\"watchdog_deadline_ms\":")
        .append(std::to_string(watchdog_.deadline_ms()))
        .append("}\n");
  } else if (path == "/alertz" && alert_engine_ != nullptr) {
    if (query.find("format=text") != std::string::npos) {
      resp.body = alert_engine_->ToText();
    } else {
      resp.content_type = "application/json";
      resp.body = alert_engine_->ToJson();
    }
  } else if (path == "/timeseriesz" && timeseries_ != nullptr) {
    resp.content_type = "application/json";
    resp.body = timeseries_->ToJson(options_.timeseries_interval_ms);
    resp.body.push_back('\n');
  } else if (path == "/profilez") {
    // Timed wall-profile capture: start the sampler, hold the connection
    // for the window, stop, and render folded stacks. When the profiler
    // is already running (ITG_PROFILE, or a concurrent scrape), the
    // accumulation is shared: this scrape waits its window and renders
    // without stopping the owner. Blocking the accept thread is fine —
    // scrapes are rare and the window is clamped to 30 s.
    WallProfiler& prof = WallProfiler::Global();
    const uint64_t seconds = ProfileSeconds(query);
    const bool owned = !prof.running();
    if (owned && seconds > 0) {
      prof.Reset();
      prof.Start();
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    if (owned && seconds > 0) prof.Stop();
    resp.body = prof.Render();
  } else if (path == "/") {
    resp.body =
        "itg telemetry\n"
        "  /metrics      Prometheus text exposition\n"
        "  /statusz      live engine state (JSON)\n"
        "  /healthz      watchdog + critical-alert health (with reasons)\n"
        "  /alertz       alert rule states (when an alert engine is "
        "attached; ?format=text)\n"
        "  /timeseriesz  periodic registry snapshots (when sampling "
        "is enabled)\n"
        "  /profilez     folded wall-profile stacks (?seconds=N capture "
        "window)\n";
  } else {
    resp.status = 404;
    resp.body = "not found\n";
  }

  // Self-observability: the cost of the observability plane itself.
  // Recorded after rendering, so a /metrics scrape reports the plane's
  // state as of the previous scrape — the usual Prometheus offset.
  const uint64_t scrape_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - scrape_start)
          .count());
  const std::string endpoint = EndpointLabel(path, resp.status);
  registry_->counter("telemetry.requests_total")->Increment();
  registry_->counter("telemetry.requests." + endpoint)->Increment();
  registry_->counter("telemetry.response_bytes")->Add(resp.body.size());
  registry_->counter("telemetry.response_bytes." + endpoint)
      ->Add(resp.body.size());
  registry_->histogram("telemetry.scrape_latency_us")->Record(scrape_us);
  return resp;
}

std::unique_ptr<TelemetryServer> TelemetryServer::FromEnv() {
  const char* port_env = std::getenv("ITG_TELEMETRY_PORT");
  if (port_env == nullptr || port_env[0] == '\0') return nullptr;
  TelemetryOptions options;
  options.port = std::atoi(port_env);
  if (const char* wd = std::getenv("ITG_WATCHDOG_MS")) {
    options.watchdog_deadline_ms =
        static_cast<uint64_t>(std::strtoull(wd, nullptr, 10));
  }
  if (const char* pf = std::getenv("ITG_TELEMETRY_PORTFILE")) {
    options.port_file = pf;
  }
  if (const char* ts = std::getenv("ITG_TIMESERIES_MS")) {
    options.timeseries_interval_ms =
        static_cast<uint64_t>(std::strtoull(ts, nullptr, 10));
  }
  auto server = std::make_unique<TelemetryServer>();
  Status s = server->Start(options);
  if (!s.ok()) {
    ITG_LOG(Warn) << "telemetry server failed to start: " << s.ToString();
    return nullptr;
  }
  return server;
}

}  // namespace itg
