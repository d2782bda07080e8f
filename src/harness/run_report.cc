#include "harness/run_report.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/metrics.h"
#include "common/json.h"
#include "common/metrics_registry.h"

namespace itg {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendField(std::string* out, const char* key, uint64_t v,
                 bool trailing_comma = true) {
  AppendJsonString(key, out);
  out->push_back(':');
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
  if (trailing_comma) out->push_back(',');
}

}  // namespace

void RunReport::AddRun(const std::string& name, const RunStats& stats,
                       const std::vector<MachineStats>& machines,
                       uint64_t network_bytes,
                       const gsa::ExecutionProfile* profile) {
  Run run{name, stats, machines, network_bytes, false, {}};
  if (profile != nullptr) {
    run.has_profile = true;
    run.profile = *profile;
  }
  runs_.push_back(std::move(run));
}

void RunReport::AddResult(const std::string& name, double value) {
  results_.emplace_back(name, value);
}

std::string RunReport::ToJson() const {
  std::string out;
  out.reserve(4096);
  out.append("{\"schema_version\":10,\"binary\":");
  AppendJsonString(binary_, &out);
  out.append(",\"runs\":[");
  bool first = true;
  for (const Run& run : runs_) {
    if (!first) out.push_back(',');
    first = false;
    const RunStats& s = run.stats;
    out.append("{\"name\":");
    AppendJsonString(run.name, &out);
    out.push_back(',');
    AppendField(&out, "timestamp", static_cast<uint64_t>(s.timestamp));
    out.append("\"incremental\":");
    out.append(s.incremental ? "true," : "false,");
    AppendField(&out, "supersteps", static_cast<uint64_t>(s.supersteps));
    out.append("\"seconds\":");
    AppendDouble(&out, s.seconds);
    out.push_back(',');
    AppendField(&out, "read_bytes", s.read_bytes);
    AppendField(&out, "write_bytes", s.write_bytes);
    AppendField(&out, "network_bytes", run.network_bytes);
    AppendField(&out, "windows_loaded", s.windows_loaded);
    AppendField(&out, "edges_scanned", s.edges_scanned);
    AppendField(&out, "emissions_applied", s.emissions_applied);
    AppendField(&out, "recomputed_vertices", s.recomputed_vertices);
    out.append("\"delta_walks\":{");
    AppendField(&out, "enumerated", s.delta_walk_emissions);
    AppendField(&out, "pruned", s.delta_walks_pruned,
                /*trailing_comma=*/false);
    out.append("},");
    AppendField(&out, "threads", static_cast<uint64_t>(s.threads));
    AppendField(&out, "parallel_tasks", s.parallel_tasks);
    AppendField(&out, "steals", s.steals);
    AppendField(&out, "busy_nanos", s.busy_nanos);
    AppendField(&out, "state_digest", s.state_digest);
    out.append("\"machines\":[");
    for (size_t m = 0; m < run.machines.size(); ++m) {
      if (m > 0) out.push_back(',');
      out.append("{\"seconds\":");
      AppendDouble(&out, run.machines[m].seconds);
      out.push_back(',');
      AppendField(&out, "network_bytes", run.machines[m].network_bytes);
      AppendField(&out, "barrier_wait_nanos",
                  run.machines[m].barrier_wait_nanos,
                  /*trailing_comma=*/false);
      out.push_back('}');
    }
    out.push_back(']');
    if (run.has_profile) {
      out.append(",\"operators\":[");
      bool first_op = true;
      for (const auto& [id, entry] : run.profile.ops()) {
        if (!first_op) out.push_back(',');
        first_op = false;
        out.append("{\"id\":");
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%d", id);
        out.append(buf);
        out.append(",\"op\":");
        AppendJsonString(entry.op, &out);
        out.append(",\"detail\":");
        AppendJsonString(entry.detail, &out);
        out.push_back(',');
        const gsa::OperatorCounters& c = entry.counters;
        AppendField(&out, "in_pos", c.in_pos);
        AppendField(&out, "in_neg", c.in_neg);
        AppendField(&out, "out_pos", c.out_pos);
        AppendField(&out, "out_neg", c.out_neg);
        AppendField(&out, "pruned", c.pruned);
        AppendField(&out, "windows", c.windows);
        AppendField(&out, "edges", c.edges);
        AppendField(&out, "evals", c.evals);
        AppendField(&out, "wall_nanos", c.wall_nanos,
                    /*trailing_comma=*/false);
        out.push_back('}');
      }
      out.append("],\"supersteps_profile\":[");
      bool first_ss = true;
      for (const gsa::SuperstepProfile& ss : run.profile.supersteps()) {
        if (!first_ss) out.push_back(',');
        first_ss = false;
        out.push_back('{');
        AppendField(&out, "superstep", static_cast<uint64_t>(ss.superstep));
        out.append("\"incremental\":");
        out.append(ss.incremental ? "true," : "false,");
        AppendField(&out, "active_vertices", ss.active_vertices);
        AppendField(&out, "frontier", ss.frontier);
        AppendField(&out, "emissions", ss.emissions);
        AppendField(&out, "windows", ss.windows);
        AppendField(&out, "edges", ss.edges);
        AppendField(&out, "wall_nanos", ss.wall_nanos);
        AppendField(&out, "cpu_nanos", ss.cpu_nanos);
        AppendField(&out, "state_digest", ss.state_digest);
        out.append("\"shuffle_bytes\":[");
        for (size_t m = 0; m < ss.shuffle_bytes.size(); ++m) {
          if (m > 0) out.push_back(',');
          char nbuf[24];
          std::snprintf(nbuf, sizeof(nbuf), "%" PRIu64, ss.shuffle_bytes[m]);
          out.append(nbuf);
        }
        out.append("]}");
      }
      out.push_back(']');
    }
    out.push_back('}');
  }
  out.append("],\"results\":{");
  first = true;
  for (const auto& [name, value] : results_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    AppendDouble(&out, value);
  }
  out.append("},\"metrics\":");
  MetricsRegistry& registry = GlobalMetrics().registry();
  out.append(registry.ToJson());
  const uint64_t hits = registry.counter("buffer_pool.hits")->value();
  const uint64_t misses = registry.counter("buffer_pool.misses")->value();
  out.append(",\"buffer_pool\":{");
  AppendField(&out, "hits", hits);
  AppendField(&out, "misses", misses);
  out.append("\"hit_rate\":");
  AppendDouble(&out, hits + misses > 0
                         ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0.0);
  out.push_back('}');

  // Schema v3: per-structure memory section, collapsed from the
  // mem.<name>.bytes / mem.<name>.peak_bytes gauge pairs.
  out.append(",\"memory\":{");
  const MetricsRegistry::Snapshot snap = registry.Snap();
  bool first_mem = true;
  for (const auto& [name, value] : snap.gauges) {
    const std::string prefix = "mem.";
    const std::string bytes_suffix = ".bytes";
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() <= prefix.size() + bytes_suffix.size() ||
        name.compare(name.size() - bytes_suffix.size(), bytes_suffix.size(),
                     bytes_suffix) != 0) {
      continue;
    }
    const std::string struct_name = name.substr(
        prefix.size(), name.size() - prefix.size() - bytes_suffix.size());
    if (struct_name.size() > 5 &&
        struct_name.compare(struct_name.size() - 5, 5, ".peak") == 0) {
      continue;  // the peak gauge of a pair, folded below
    }
    const auto peak_it =
        snap.gauges.find("mem." + struct_name + ".peak_bytes");
    if (!first_mem) out.push_back(',');
    first_mem = false;
    AppendJsonString(struct_name, &out);
    out.append(":{");
    AppendField(&out, "bytes", static_cast<uint64_t>(value));
    AppendField(&out, "peak_bytes",
                static_cast<uint64_t>(peak_it != snap.gauges.end()
                                          ? peak_it->second
                                          : value),
                /*trailing_comma=*/false);
    out.push_back('}');
  }
  out.push_back('}');

  // Schema v8: per-context resource attribution, collapsed from the
  // resource.<ctx>.{cpu_nanos,pages_read,bytes_alloc} counter triples
  // (common/resource_scope.h). Always present; empty when no
  // ResourceContext was ever created.
  out.append(",\"resources\":{");
  {
    const std::string prefix = "resource.";
    const std::string cpu_suffix = ".cpu_nanos";
    auto counter_or_zero = [&snap](const std::string& name) -> uint64_t {
      const auto it = snap.counters.find(name);
      return it != snap.counters.end() ? it->second : 0;
    };
    bool first_ctx = true;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind(prefix, 0) != 0) continue;
      if (name.size() <= prefix.size() + cpu_suffix.size() ||
          name.compare(name.size() - cpu_suffix.size(), cpu_suffix.size(),
                       cpu_suffix) != 0) {
        continue;
      }
      const std::string ctx = name.substr(
          prefix.size(), name.size() - prefix.size() - cpu_suffix.size());
      if (!first_ctx) out.push_back(',');
      first_ctx = false;
      AppendJsonString(ctx, &out);
      out.append(":{");
      AppendField(&out, "cpu_nanos", value);
      AppendField(&out, "pages_read",
                  counter_or_zero(prefix + ctx + ".pages_read"));
      AppendField(&out, "bytes_alloc",
                  counter_or_zero(prefix + ctx + ".bytes_alloc"),
                  /*trailing_comma=*/false);
      out.push_back('}');
    }
  }
  out.push_back('}');

  // Schema v4: the drift auditor's outcome (omitted unless attached).
  if (has_audit_) {
    out.append(",\"audit\":{\"enabled\":");
    out.append(audit_.enabled ? "true," : "false,");
    AppendField(&out, "every", static_cast<uint64_t>(audit_.every));
    out.append("\"tolerance\":");
    AppendDouble(&out, audit_.tolerance);
    out.push_back(',');
    AppendField(&out, "audits", audit_.audits);
    AppendField(&out, "digest_mismatches", audit_.digest_mismatches);
    out.append("\"last_verified\":");
    out.append(std::to_string(audit_.last_verified));
    out.append(",\"digests\":[");
    for (size_t i = 0; i < audit_.digests.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append("{\"timestamp\":");
      out.append(std::to_string(audit_.digests[i].first));
      out.push_back(',');
      AppendField(&out, "digest", audit_.digests[i].second,
                  /*trailing_comma=*/false);
      out.push_back('}');
    }
    const AuditDivergence& d = audit_.divergence;
    out.append("],\"divergence\":{\"found\":");
    out.append(d.found ? "true," : "false,");
    out.append("\"detected_at\":");
    out.append(std::to_string(d.detected_at));
    out.append(",\"first_bad_batch\":");
    out.append(std::to_string(d.first_bad_batch));
    out.append(",\"bisection_probes\":");
    out.append(std::to_string(d.bisection_probes));
    out.append(",\"attrs\":[");
    for (size_t i = 0; i < d.attrs.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendJsonString(d.attrs[i], &out);
    }
    out.append("],");
    AppendField(&out, "divergent_vertices", d.divergent_vertices);
    out.append("\"vertices\":[");
    for (size_t i = 0; i < d.vertices.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append(std::to_string(d.vertices[i]));
    }
    out.append("],");
    AppendField(&out, "expected_digest", d.expected_digest);
    AppendField(&out, "actual_digest", d.actual_digest,
                /*trailing_comma=*/false);
    out.append("}}");
  }

  // Schema v5/v6: the serving daemon's tallies (omitted unless attached).
  if (has_serving_) {
    out.append(",\"serving\":{");
    AppendField(&out, "standing_queries", serving_.standing_queries);
    AppendField(&out, "ingest_batches", serving_.ingest_batches);
    AppendField(&out, "ingest_ops", serving_.ingest_ops);
    AppendField(&out, "backpressure_stalls", serving_.backpressure_stalls);
    AppendField(&out, "delta_messages", serving_.delta_messages);
    AppendField(&out, "slow_batches", serving_.slow_batches);
    out.append("\"stage_latency_us\":[");
    for (size_t i = 0; i < serving_.stages.size(); ++i) {
      if (i > 0) out.push_back(',');
      const ServingStageRow& st = serving_.stages[i];
      out.append("{\"stage\":");
      AppendJsonString(st.stage, &out);
      out.push_back(',');
      AppendField(&out, "count", st.count);
      AppendField(&out, "sum", st.sum_us);
      AppendField(&out, "p50", st.p50_us);
      AppendField(&out, "p95", st.p95_us);
      out.append("\"p99\":");
      out.append(std::to_string(st.p99_us));
      out.push_back('}');
    }
    out.append("],\"queries\":[");
    for (size_t i = 0; i < serving_.queries.size(); ++i) {
      if (i > 0) out.push_back(',');
      const ServingQueryRow& q = serving_.queries[i];
      out.append("{\"name\":");
      AppendJsonString(q.name, &out);
      out.append(",\"timestamp\":");
      out.append(std::to_string(q.timestamp));
      out.push_back(',');
      AppendField(&out, "digest", q.digest);
      AppendField(&out, "runs", q.runs);
      AppendField(&out, "budget_bytes", q.budget_bytes);
      AppendField(&out, "budget_used_bytes", q.budget_used_bytes);
      AppendField(&out, "lag_batches", q.lag_batches);
      AppendField(&out, "lag_us", q.lag_us);
      out.append("\"delta_latency_us\":{");
      AppendField(&out, "count", q.latency_count);
      AppendField(&out, "sum", q.latency_sum_us);
      AppendField(&out, "p50", q.p50_us);
      AppendField(&out, "p95", q.p95_us);
      AppendField(&out, "p99", q.p99_us);
      AppendField(&out, "p999", q.p999_us);
      out.append("\"buckets\":[");
      for (size_t b = 0; b < q.latency_buckets.size(); ++b) {
        if (b > 0) out.push_back(',');
        char bbuf[56];
        std::snprintf(bbuf, sizeof(bbuf), "[%" PRIu64 ",%" PRIu64 "]",
                      q.latency_buckets[b].first,
                      q.latency_buckets[b].second);
        out.append(bbuf);
      }
      out.append("]}}");
    }
    out.append("]}");
  }

  // Schema v7: the load driver's capacity curve (omitted unless attached).
  if (has_load_) {
    auto append_point_fields = [&out](const LoadPoint& p) {
      out.append("\"offered_rate\":");
      AppendDouble(&out, p.offered_rate);
      out.append(",\"achieved_rate\":");
      AppendDouble(&out, p.achieved_rate);
      out.push_back(',');
      AppendField(&out, "batches", p.batches);
      AppendField(&out, "samples", p.samples);
      AppendField(&out, "p50", p.p50_us);
      AppendField(&out, "p90", p.p90_us);
      AppendField(&out, "p99", p.p99_us);
      AppendField(&out, "p999", p.p999_us);
      AppendField(&out, "max", p.max_us);
      AppendField(&out, "backpressure_stalls", p.backpressure_stalls);
      AppendField(&out, "queue_depth_max", p.queue_depth_max);
      AppendField(&out, "view_lag_us_max", p.view_lag_us_max);
      AppendField(&out, "rejected_batches", p.rejected_batches);
      out.append("\"slo_ok\":");
      out.append(p.slo_ok ? "true" : "false");
    };
    out.append(",\"load\":{");
    AppendField(&out, "connections", load_.connections);
    AppendField(&out, "subscribers", load_.subscribers);
    out.append("\"arrival\":");
    AppendJsonString(load_.arrival, &out);
    out.push_back(',');
    AppendField(&out, "ops_per_batch", load_.ops_per_batch);
    out.append("\"slo_ms\":");
    AppendDouble(&out, load_.slo_ms);
    out.append(",\"sweep\":");
    out.append(load_.sweep ? "true" : "false");
    out.append(",\"points\":[");
    for (size_t i = 0; i < load_.points.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('{');
      append_point_fields(load_.points[i]);
      out.push_back('}');
    }
    out.append("],\"knee\":{\"found\":");
    out.append(load_.knee_found ? "true" : "false");
    if (load_.knee_found) {
      out.push_back(',');
      append_point_fields(load_.knee);
    }
    out.append("},\"slo_verdict\":");
    AppendJsonString(load_.slo_verdict, &out);
    if (!load_.server_timeseries_json.empty()) {
      out.append(",\"server_timeseries\":");
      out.append(load_.server_timeseries_json);
    }
    out.push_back('}');
  }

  // Schema v9: the alert engine's end-of-run summary (omitted unless
  // attached).
  if (has_alerts_) {
    out.append(",\"alerts\":{\"enabled\":");
    out.append(alerts_.enabled ? "true," : "false,");
    AppendField(&out, "period_ms", alerts_.period_ms);
    AppendField(&out, "evaluations", alerts_.evaluations);
    AppendField(&out, "bundles_written", alerts_.bundles_written);
    AppendField(&out, "bundles_suppressed", alerts_.bundles_suppressed);
    out.append("\"rules\":[");
    bool first_rule = true;
    for (const AlertRuleRow& r : alerts_.rules) {
      if (!first_rule) out.push_back(',');
      first_rule = false;
      out.append("{\"name\":");
      AppendJsonString(r.name, &out);
      out.append(",\"severity\":");
      AppendJsonString(r.severity, &out);
      out.append(",\"state\":");
      AppendJsonString(r.state, &out);
      out.push_back(',');
      AppendField(&out, "fires", r.fires);
      AppendField(&out, "flaps", r.flaps);
      out.append("\"last_value\":");
      AppendDouble(&out, r.last_value);
      out.append(",\"expr\":");
      AppendJsonString(r.expr, &out);
      out.push_back('}');
    }
    out.append("]}");
  }

  out.push_back('}');
  return out;
}

Status RunReport::WriteTo(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IOError("cannot open " + path);
  f << ToJson() << "\n";
  f.flush();
  if (!f) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace itg
