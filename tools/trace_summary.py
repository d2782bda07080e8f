#!/usr/bin/env python3
"""Summarize iTurboGraph trace files and validate run reports.

Usage:
  trace_summary.py --trace <trace.json> [--top N] [--waterfall]
  trace_summary.py --report <report.json>
  trace_summary.py --trace <trace.json> --report <report.json>

--trace expects the Chrome trace-event JSON written when ITG_TRACE=<path>
is set (loadable in Perfetto / chrome://tracing). Prints a per-phase wall
time table (aggregated over span names) and the top-N longest spans.
Flow events ('s'/'t'/'f', the serving pipeline's ingest->notify links)
are validated: every flow event must carry an "id" and every flow start
must be closed by a flow finish with the same id.

--waterfall additionally prints, for each flow id (one ingested Δ-batch),
the time-ordered spans tagged with that id — the textual version of the
arrow chain Perfetto draws. Exits non-zero when the trace contains no
flow events, so the serve smoke can assert the pipeline is traced.

--report expects the machine-readable run report written by the bench
binaries' --metrics-json=<path> flag (schema_version MIN_SCHEMA..
MAX_SCHEMA from tools/report_schema.py, see src/harness/run_report.h;
version 2 adds per-run "operators" and "supersteps_profile" sections,
version 3 adds per-machine barrier_wait_nanos and a top-level "memory"
section of per-structure current/peak byte counts, version 4 adds state
digests and the drift auditor's "audit" section, version 5 the serving
daemon's "serving" section, version 6 the serving pipeline's per-stage
latency rows, slow-batch counter and per-query staleness fields,
version 7 per-query delta-latency percentile fields — cross-checked
here against a recomputation from the sparse buckets via
tools/histogram_math.py — and the optional "load" section holding
itg_loadgen's capacity curve, knee and SLO verdict, version 8 the
always-present "resources" section of per-ResourceContext attribution
rows cross-checked against the resource.<ctx>.* counters, version 9
the optional "alerts" section: the alert engine's end-of-run rule
states, fire/flap tallies and incident-bundle counts, version 10 drops
the runs' modeled-makespan field and version 11 the superstep rows'
"state_digest").
Validates the schema and prints a short digest. Exits non-zero on any schema violation, so it
doubles as the ctest smoke check.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import histogram_math as hm  # noqa: E402
from report_schema import MAX_SCHEMA, MIN_SCHEMA, SCHEMA_RANGE  # noqa: E402


def fail(msg):
    print(f"trace_summary: {msg}", file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------- trace ----

def print_waterfall(spans, flow_ids):
    """Prints the per-flow-id (= per-Δ-batch) stage waterfall.

    A pipeline span is tied to its batch by the span's args.value (the
    trace id the service stamps on serve.ingest/apply/view_run/
    stream_flush), matching the flow events' "id" field.
    """
    by_id = {}
    for name, cat, dur, ts, tid, arg in spans:
        if arg is not None and str(arg) in flow_ids:
            by_id.setdefault(str(arg), []).append((ts, dur, cat, name, tid))
    print()
    print(f"  waterfall ({len(flow_ids)} flows, "
          f"{sum(len(v) for v in by_id.values())} linked spans):")
    for fid in sorted(flow_ids, key=int):
        stages = sorted(by_id.get(fid, []))
        if not stages:
            print(f"    flow {fid}: no linked spans (dropped buffers?)")
            continue
        t0 = stages[0][0]
        total = max(ts + dur for ts, dur, _, _, _ in stages) - t0
        print(f"    flow {fid}: {len(stages)} stages, "
              f"{total / 1000.0:.3f} ms end-to-end")
        for ts, dur, cat, name, tid in stages:
            off = ts - t0
            print(f"      +{off / 1000.0:>9.3f} ms  {dur / 1000.0:>9.3f} ms  "
                  f"{cat}/{name} (tid {tid})")


def summarize_trace(path, top_n, waterfall=False):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse trace {path}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: not a Chrome trace (missing traceEvents)")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")

    thread_names = {}
    spans = []       # (name, cat, dur_us, ts, tid, arg-or-None)
    instants = {}    # name -> count
    flow_starts = {}  # id -> count of 's'
    flow_ends = {}    # id -> count of 'f'
    flow_steps = 0
    for ev in events:
        if not isinstance(ev, dict) or "ph" not in ev:
            fail(f"{path}: malformed event {ev!r}")
        ph = ev["ph"]
        if ph == "M":
            if ev.get("name") == "thread_name":
                thread_names[ev.get("tid")] = ev["args"]["name"]
        elif ph == "X":
            for key in ("name", "ts", "dur", "tid"):
                if key not in ev:
                    fail(f"{path}: X event missing {key}: {ev!r}")
            arg = ev.get("args", {}).get("value")
            spans.append((ev["name"], ev.get("cat", ""), float(ev["dur"]),
                          float(ev["ts"]), ev["tid"], arg))
        elif ph == "i":
            instants[ev["name"]] = instants.get(ev["name"], 0) + 1
        elif ph in ("s", "t", "f"):
            fid = ev.get("id")
            if not isinstance(fid, str) or not fid:
                fail(f"{path}: flow event missing id: {ev!r}")
            for key in ("name", "ts", "tid"):
                if key not in ev:
                    fail(f"{path}: flow event missing {key}: {ev!r}")
            if ph == "s":
                flow_starts[fid] = flow_starts.get(fid, 0) + 1
            elif ph == "f":
                if ev.get("bp") != "e":
                    fail(f"{path}: flow finish without bp=e: {ev!r}")
                flow_ends[fid] = flow_ends.get(fid, 0) + 1
            else:
                flow_steps += 1

    # Every flow that starts must finish (a dangling start draws a broken
    # arrow in Perfetto and usually means a pipeline stage lost the id).
    for fid, n in sorted(flow_starts.items()):
        if flow_ends.get(fid, 0) != n:
            fail(f"{path}: flow {fid} has {n} start(s) but "
                 f"{flow_ends.get(fid, 0)} finish(es)")
    for fid in sorted(flow_ends):
        if fid not in flow_starts:
            fail(f"{path}: flow {fid} finishes without a start")

    if waterfall and not flow_starts:
        fail(f"{path}: --waterfall requested but the trace contains no "
             f"flow events (was the serving pipeline traced?)")

    if not spans and not instants and not flow_starts:
        # An empty trace is valid (e.g. a run with tracing enabled but no
        # instrumented work): report it and exit cleanly.
        print(f"trace: {path}")
        print("  no spans")
        dropped = doc.get("droppedSpans", 0)
        if dropped:
            print(f"  WARNING: {dropped} spans dropped (per-thread buffer "
                  f"cap hit)")
        return

    # Per-phase aggregation. Nested spans are counted under each name, so
    # the table answers "how much wall time was inside <phase>" — columns
    # do not sum to the run's wall time.
    by_phase = {}
    for name, cat, dur, _, _, _ in spans:
        tot, cnt = by_phase.get((cat, name), (0.0, 0))
        by_phase[(cat, name)] = (tot + dur, cnt + 1)

    dropped = doc.get("droppedSpans", 0)
    n_flow_events = (sum(flow_starts.values()) + flow_steps
                     + sum(flow_ends.values()))
    print(f"trace: {path}")
    print(f"  {len(spans)} spans, {sum(instants.values())} instant events, "
          f"{len(flow_starts)} flows ({n_flow_events} flow events), "
          f"{len(thread_names)} named threads")
    if dropped:
        print(f"  WARNING: {dropped} spans dropped (per-thread buffer cap "
              f"hit; raise Tracer::set_max_events_per_thread or trace a "
              f"shorter window)")
    print()
    print(f"  {'phase':<28} {'count':>8} {'total ms':>12} {'mean us':>12}")
    print(f"  {'-' * 28} {'-' * 8} {'-' * 12} {'-' * 12}")
    for (cat, name), (tot, cnt) in sorted(by_phase.items(),
                                          key=lambda kv: -kv[1][0]):
        label = f"{cat}/{name}"
        print(f"  {label:<28} {cnt:>8} {tot / 1000.0:>12.3f} "
              f"{tot / cnt:>12.1f}")
    if instants:
        print()
        for name, count in sorted(instants.items()):
            print(f"  instant {name}: {count}")

    print()
    print(f"  top {top_n} spans:")
    for name, cat, dur, ts, tid, _ in sorted(spans,
                                             key=lambda s: -s[2])[:top_n]:
        tname = thread_names.get(tid, f"tid {tid}")
        print(f"    {dur / 1000.0:>10.3f} ms  {cat}/{name}  "
              f"@{ts / 1000.0:.3f} ms on {tname}")

    if waterfall:
        print_waterfall(spans, set(flow_starts))


# --------------------------------------------------------------- report ----

def expect(cond, msg):
    if not cond:
        fail(f"report schema violation: {msg}")


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_uint(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


RUN_UINT_FIELDS = [
    "timestamp", "supersteps", "read_bytes", "write_bytes", "network_bytes",
    "windows_loaded", "edges_scanned", "emissions_applied",
    "recomputed_vertices", "threads", "parallel_tasks", "steals",
    "busy_nanos",
]

OPERATOR_UINT_FIELDS = [
    "in_pos", "in_neg", "out_pos", "out_neg", "pruned", "windows", "edges",
    "evals", "wall_nanos",
]

SUPERSTEP_UINT_FIELDS = [
    "superstep", "active_vertices", "frontier", "emissions", "windows",
    "edges", "wall_nanos", "cpu_nanos",
]


def validate_run_profile(run, where):
    """Validates the v2 per-run operators / supersteps_profile sections.

    Both are optional (a run recorded without a profile omits them), but
    when one is present the other must be too, and every row must carry
    the full counter set.
    """
    has_ops = "operators" in run
    has_ss = "supersteps_profile" in run
    expect(has_ops == has_ss,
           f"{where}: operators and supersteps_profile must appear together")
    if not has_ops:
        return
    ops = run["operators"]
    expect(isinstance(ops, list), f"{where}.operators is not a list")
    seen_ids = set()
    for j, op in enumerate(ops):
        ow = f"{where}.operators[{j}]"
        expect(isinstance(op, dict), f"{ow} is not an object")
        expect(is_uint(op.get("id")), f"{ow}.id is not a non-negative int")
        expect(op["id"] not in seen_ids, f"{ow}.id {op['id']} duplicated")
        seen_ids.add(op["id"])
        expect(isinstance(op.get("op"), str), f"{ow}.op missing")
        expect(isinstance(op.get("detail"), str), f"{ow}.detail missing")
        for field in OPERATOR_UINT_FIELDS:
            expect(is_uint(op.get(field)),
                   f"{ow}.{field} is not a non-negative integer")
    sss = run["supersteps_profile"]
    expect(isinstance(sss, list), f"{where}.supersteps_profile is not a list")
    for j, ss in enumerate(sss):
        sw = f"{where}.supersteps_profile[{j}]"
        expect(isinstance(ss, dict), f"{sw} is not an object")
        expect(isinstance(ss.get("incremental"), bool),
               f"{sw}.incremental is not a bool")
        for field in SUPERSTEP_UINT_FIELDS:
            expect(is_uint(ss.get(field)),
                   f"{sw}.{field} is not a non-negative integer")
        shuffle = ss.get("shuffle_bytes")
        expect(isinstance(shuffle, list) and all(is_uint(b) for b in shuffle),
               f"{sw}.shuffle_bytes malformed")


def validate_audit(audit):
    """Validates the optional v4 "audit" section (drift auditor)."""
    expect(isinstance(audit, dict), "audit is not an object")
    expect(isinstance(audit.get("enabled"), bool), "audit.enabled missing")
    for field in ("every", "audits", "digest_mismatches"):
        expect(is_uint(audit.get(field)),
               f"audit.{field} is not a non-negative integer")
    expect(is_num(audit.get("tolerance")), "audit.tolerance missing")
    expect(isinstance(audit.get("last_verified"), int),
           "audit.last_verified is not an integer")
    digests = audit.get("digests")
    expect(isinstance(digests, list), "audit.digests is not a list")
    for j, entry in enumerate(digests):
        expect(isinstance(entry, dict)
               and isinstance(entry.get("timestamp"), int)
               and is_uint(entry.get("digest")),
               f"audit.digests[{j}] malformed")
    div = audit.get("divergence")
    expect(isinstance(div, dict), "audit.divergence is not an object")
    expect(isinstance(div.get("found"), bool),
           "audit.divergence.found missing")
    for field in ("detected_at", "first_bad_batch"):
        expect(isinstance(div.get(field), int),
               f"audit.divergence.{field} is not an integer")
    for field in ("bisection_probes", "divergent_vertices",
                  "expected_digest", "actual_digest"):
        expect(is_uint(div.get(field)),
               f"audit.divergence.{field} is not a non-negative integer")
    expect(isinstance(div.get("attrs"), list)
           and all(isinstance(a, str) for a in div["attrs"]),
           "audit.divergence.attrs malformed")
    expect(isinstance(div.get("vertices"), list)
           and all(is_uint(v) for v in div["vertices"]),
           "audit.divergence.vertices malformed")
    if div["found"]:
        expect(audit["enabled"], "divergence found with auditing disabled")


SERVING_STAGES = ("validate", "queue_wait", "apply")


def validate_serving(serving, version):
    """Validates the optional v5 "serving" section (standing-query
    daemon). v6 adds per-stage latency rows, the slow-batch counter and
    per-query staleness fields."""
    expect(isinstance(serving, dict), "serving is not an object")
    for field in ("standing_queries", "ingest_batches", "ingest_ops",
                  "backpressure_stalls", "delta_messages"):
        expect(is_uint(serving.get(field)),
               f"serving.{field} is not a non-negative integer")
    if version >= 6:
        expect(is_uint(serving.get("slow_batches")),
               "serving.slow_batches is not a non-negative integer")
        stages = serving.get("stage_latency_us")
        expect(isinstance(stages, list),
               "serving.stage_latency_us is not a list")
        seen_stages = set()
        for j, row in enumerate(stages):
            where = f"serving.stage_latency_us[{j}]"
            expect(isinstance(row, dict), f"{where} is not an object")
            stage = row.get("stage")
            expect(isinstance(stage, str) and stage, f"{where}.stage missing")
            expect(stage not in seen_stages, f"{where}.stage duplicated")
            seen_stages.add(stage)
            expect(stage in SERVING_STAGES
                   or stage.startswith(("view_run.", "stream_flush.")),
                   f"{where}.stage {stage!r} is not a known pipeline stage")
            for field in ("count", "sum", "p50", "p95", "p99"):
                expect(is_uint(row.get(field)),
                       f"{where}.{field} is not a non-negative integer")
            expect(row["p50"] <= row["p95"] <= row["p99"],
                   f"{where}: percentiles not monotone")
        # A daemon that ingested anything must have the batch-level stages.
        if serving["ingest_batches"]:
            for stage in SERVING_STAGES:
                expect(stage in seen_stages,
                       f"serving.stage_latency_us missing stage {stage!r}")
    else:
        expect("slow_batches" not in serving
               and "stage_latency_us" not in serving,
               "v6 serving fields in a pre-v6 report")
    queries = serving.get("queries")
    expect(isinstance(queries, list), "serving.queries is not a list")
    expect(len(queries) == serving["standing_queries"],
           f"serving.queries has {len(queries)} rows but "
           f"standing_queries is {serving['standing_queries']}")
    for j, row in enumerate(queries):
        where = f"serving.queries[{j}]"
        expect(isinstance(row, dict), f"{where} is not an object")
        expect(isinstance(row.get("name"), str), f"{where}.name missing")
        for field in ("timestamp", "digest", "runs", "budget_bytes",
                      "budget_used_bytes"):
            expect(is_uint(row.get(field)),
                   f"{where}.{field} is not a non-negative integer")
        if row["budget_bytes"]:  # 0 = unlimited slice
            expect(row["budget_used_bytes"] <= row["budget_bytes"],
                   f"{where}: budget_used_bytes {row['budget_used_bytes']} "
                   f"above slice {row['budget_bytes']}")
        if version >= 6:
            for field in ("lag_batches", "lag_us"):
                expect(is_uint(row.get(field)),
                       f"{where}.{field} is not a non-negative integer")
        else:
            expect("lag_batches" not in row and "lag_us" not in row,
                   f"{where}: v6 lag fields in a pre-v6 report")
        hist = row.get("delta_latency_us")
        expect(isinstance(hist, dict) and is_uint(hist.get("count"))
               and is_num(hist.get("sum")),
               f"{where}.delta_latency_us malformed")
        buckets = hist.get("buckets")
        expect(isinstance(buckets, list) and all(
                   isinstance(b, list) and len(b) == 2 and is_num(b[0])
                   and is_uint(b[1]) for b in buckets),
               f"{where}.delta_latency_us.buckets malformed")
        expect(sum(b[1] for b in buckets) == hist["count"],
               f"{where}.delta_latency_us bucket counts do not sum to "
               f"count {hist['count']}")
        if version >= 7:
            # v7 stamps the percentiles next to the buckets; they must be
            # recomputable from the buckets bit-for-bit (histogram_math is
            # the Python mirror of the C++ helper that wrote them).
            sparse = [(int(b[0]), int(b[1])) for b in buckets]
            for field, p in (("p50", 50.0), ("p95", 95.0),
                             ("p99", 99.0), ("p999", 99.9)):
                expect(is_uint(hist.get(field)),
                       f"{where}.delta_latency_us.{field} is not a "
                       f"non-negative integer")
                want = hm.percentile_upper_bound(sparse, p,
                                                 hm.HISTOGRAM_SUB_BITS)
                expect(hist[field] == want,
                       f"{where}.delta_latency_us.{field} is "
                       f"{hist[field]} but the buckets say {want}")
        else:
            expect(all(f not in hist
                       for f in ("p50", "p95", "p99", "p999")),
                   f"{where}: v7 percentile fields in a pre-v7 report")


LOAD_POINT_UINTS = ("batches", "samples", "p50", "p90", "p99", "p999",
                    "max", "backpressure_stalls", "queue_depth_max",
                    "view_lag_us_max", "rejected_batches")


def validate_load_point(point, where):
    expect(isinstance(point, dict), f"{where} is not an object")
    for field in ("offered_rate", "achieved_rate"):
        expect(is_num(point.get(field)) and point[field] >= 0,
               f"{where}.{field} is not a non-negative number")
    for field in LOAD_POINT_UINTS:
        expect(is_uint(point.get(field)),
               f"{where}.{field} is not a non-negative integer")
    expect(isinstance(point.get("slo_ok"), bool), f"{where}.slo_ok missing")
    expect(point["p50"] <= point["p99"] <= point["p999"],
           f"{where}: percentiles not monotone")


def validate_load(load):
    """Validates the optional v7 "load" section (itg_loadgen capacity
    curve: per-offered-rate points, the detected knee, SLO verdict and
    the spliced /timeseriesz server ring)."""
    expect(isinstance(load, dict), "load is not an object")
    for field in ("connections", "subscribers", "ops_per_batch"):
        expect(is_uint(load.get(field)),
               f"load.{field} is not a non-negative integer")
    expect(load.get("arrival") in ("poisson", "uniform"),
           f"load.arrival {load.get('arrival')!r} is not poisson|uniform")
    expect(is_num(load.get("slo_ms")) and load["slo_ms"] > 0,
           "load.slo_ms is not a positive number")
    expect(isinstance(load.get("sweep"), bool), "load.sweep missing")
    points = load.get("points")
    expect(isinstance(points, list) and points, "load.points missing/empty")
    for j, point in enumerate(points):
        validate_load_point(point, f"load.points[{j}]")
    for j in range(1, len(points)):
        expect(points[j - 1]["offered_rate"] < points[j]["offered_rate"],
               f"load.points offered rates not strictly increasing at [{j}]")
    knee = load.get("knee")
    expect(isinstance(knee, dict) and isinstance(knee.get("found"), bool),
           "load.knee malformed")
    if knee["found"]:
        validate_load_point(knee, "load.knee")
        expect(knee["slo_ok"], "load.knee marked found but not slo_ok")
        expect(any(p["offered_rate"] == knee["offered_rate"]
                   for p in points),
               "load.knee offered_rate not among the sweep points")
    verdict = load.get("slo_verdict")
    expect(verdict in ("pass", "fail"),
           f"load.slo_verdict {verdict!r} is not pass|fail")
    expect((verdict == "pass") == knee["found"],
           "load.slo_verdict inconsistent with knee.found")
    series = load.get("server_timeseries")
    if series is not None:
        expect(isinstance(series, dict)
               and is_uint(series.get("capacity"))
               and is_uint(series.get("evicted"))
               and isinstance(series.get("samples"), list),
               "load.server_timeseries malformed")
        for j, s in enumerate(series["samples"]):
            expect(isinstance(s, dict) and is_uint(s.get("t_ms")),
                   f"load.server_timeseries.samples[{j}] malformed")


def validate_alerts(alerts):
    """Validates the optional v9 "alerts" section (common/alert_engine.h
    end-of-run summary: engine totals plus one row per rule)."""
    expect(isinstance(alerts, dict), "alerts is not an object")
    expect(isinstance(alerts.get("enabled"), bool), "alerts.enabled missing")
    for field in ("period_ms", "evaluations", "bundles_written",
                  "bundles_suppressed"):
        expect(is_uint(alerts.get(field)),
               f"alerts.{field} is not a non-negative integer")
    rules = alerts.get("rules")
    expect(isinstance(rules, list), "alerts.rules is not a list")
    names = set()
    for j, rule in enumerate(rules):
        where = f"alerts.rules[{j}]"
        expect(isinstance(rule, dict), f"{where} is not an object")
        name = rule.get("name")
        expect(isinstance(name, str) and name, f"{where}.name missing")
        expect(name not in names, f"{where}: duplicate rule name {name!r}")
        names.add(name)
        expect(rule.get("severity") in ("info", "warn", "critical"),
               f"{where}.severity {rule.get('severity')!r} is not "
               f"info|warn|critical")
        expect(rule.get("state") in ("inactive", "pending", "firing",
                                     "resolved"),
               f"{where}.state {rule.get('state')!r} is not a valid state")
        for field in ("fires", "flaps"):
            expect(is_uint(rule.get(field)),
                   f"{where}.{field} is not a non-negative integer")
        expect(is_num(rule.get("last_value")),
               f"{where}.last_value is not a number")
        expect(isinstance(rule.get("expr"), str) and rule["expr"],
               f"{where}.expr missing")


def validate_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse report {path}: {e}")

    expect(isinstance(doc, dict), "top level is not an object")
    version = doc.get("schema_version")
    expect(version in SCHEMA_RANGE,
           f"schema_version not in {MIN_SCHEMA}..{MAX_SCHEMA} "
           f"(got {version!r})")
    expect(isinstance(doc.get("binary"), str), "binary is not a string")

    runs = doc.get("runs")
    expect(isinstance(runs, list), "runs is not a list")
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        expect(isinstance(run, dict), f"{where} is not an object")
        expect(isinstance(run.get("name"), str), f"{where}.name missing")
        expect(isinstance(run.get("incremental"), bool),
               f"{where}.incremental is not a bool")
        expect(is_num(run.get("seconds")), f"{where}.seconds missing")
        for field in RUN_UINT_FIELDS:
            expect(is_uint(run.get(field)),
                   f"{where}.{field} is not a non-negative integer")
        if version >= 4:
            expect(is_uint(run.get("state_digest")),
                   f"{where}.state_digest is not a non-negative integer")
        dw = run.get("delta_walks")
        expect(isinstance(dw, dict) and is_uint(dw.get("enumerated"))
               and is_uint(dw.get("pruned")),
               f"{where}.delta_walks missing enumerated/pruned")
        machines = run.get("machines")
        expect(isinstance(machines, list), f"{where}.machines is not a list")
        for j, m in enumerate(machines):
            expect(isinstance(m, dict) and is_num(m.get("seconds"))
                   and is_uint(m.get("network_bytes")),
                   f"{where}.machines[{j}] malformed")
            if version >= 3:
                expect(is_uint(m.get("barrier_wait_nanos")),
                       f"{where}.machines[{j}].barrier_wait_nanos "
                       f"is not a non-negative integer")
        if version >= 2:
            validate_run_profile(run, where)
        else:
            expect("operators" not in run and "supersteps_profile" not in run,
                   f"{where}: v2 profile sections in a v1 report")

    results = doc.get("results")
    expect(isinstance(results, dict), "results is not an object")
    for name, value in results.items():
        expect(is_num(value), f"results[{name!r}] is not a number")

    metrics = doc.get("metrics")
    expect(isinstance(metrics, dict), "metrics is not an object")
    for section in ("counters", "gauges", "histograms"):
        expect(isinstance(metrics.get(section), dict),
               f"metrics.{section} is not an object")
    for name, value in metrics["counters"].items():
        expect(is_uint(value), f"metrics.counters[{name!r}] malformed")
    for name, value in metrics["gauges"].items():
        expect(isinstance(value, int) and not isinstance(value, bool),
               f"metrics.gauges[{name!r}] malformed")
    for name, h in metrics["histograms"].items():
        where = f"metrics.histograms[{name!r}]"
        expect(isinstance(h, dict) and is_uint(h.get("count"))
               and is_uint(h.get("sum")), f"{where} missing count/sum")
        buckets = h.get("buckets")
        expect(isinstance(buckets, list), f"{where}.buckets is not a list")
        total = 0
        for b in buckets:
            expect(isinstance(b, list) and len(b) == 2 and is_uint(b[0])
                   and is_uint(b[1]), f"{where}.buckets entry malformed")
            total += b[1]
        expect(total == h["count"],
               f"{where}: bucket counts sum to {total}, count is {h['count']}")

    pool = doc.get("buffer_pool")
    expect(isinstance(pool, dict) and is_uint(pool.get("hits"))
           and is_uint(pool.get("misses")) and is_num(pool.get("hit_rate")),
           "buffer_pool missing hits/misses/hit_rate")
    accesses = pool["hits"] + pool["misses"]
    want_rate = pool["hits"] / accesses if accesses else 0.0
    expect(abs(pool["hit_rate"] - want_rate) < 1e-9,
           f"buffer_pool.hit_rate {pool['hit_rate']} inconsistent with "
           f"hits/misses (want {want_rate})")

    memory = doc.get("memory")
    if version >= 3:
        expect(isinstance(memory, dict), "memory is not an object (v3)")
        for struct_name, entry in memory.items():
            where = f"memory[{struct_name!r}]"
            expect(isinstance(entry, dict) and is_uint(entry.get("bytes"))
                   and is_uint(entry.get("peak_bytes")),
                   f"{where} missing bytes/peak_bytes")
            expect(entry["peak_bytes"] >= entry["bytes"],
                   f"{where}: peak_bytes {entry['peak_bytes']} below "
                   f"current bytes {entry['bytes']}")
    else:
        expect(memory is None, "v3 memory section in a pre-v3 report")

    resources = doc.get("resources")
    if version >= 8:
        expect(isinstance(resources, dict),
               "resources is not an object (v8)")
        counters = metrics["counters"]
        for ctx, entry in resources.items():
            where = f"resources[{ctx!r}]"
            expect(isinstance(entry, dict), f"{where} is not an object")
            for field in ("cpu_nanos", "pages_read", "bytes_alloc"):
                expect(is_uint(entry.get(field)),
                       f"{where}.{field} is not a non-negative integer")
                # The section is collapsed from the registry counters at
                # the same snapshot, so the rows must agree with them
                # exactly (a missing counter reads as 0).
                want = counters.get(f"resource.{ctx}.{field}", 0)
                expect(entry[field] == want,
                       f"{where}.{field} is {entry[field]} but counter "
                       f"resource.{ctx}.{field} says {want}")
    else:
        expect(resources is None, "v8 resources section in a pre-v8 report")

    audit = doc.get("audit")
    if version >= 4:
        if audit is not None:
            validate_audit(audit)
    else:
        expect(audit is None, "v4 audit section in a pre-v4 report")

    serving = doc.get("serving")
    if version >= 5:
        if serving is not None:
            validate_serving(serving, version)
    else:
        expect(serving is None, "v5 serving section in a pre-v5 report")

    load = doc.get("load")
    if version >= 7:
        if load is not None:
            validate_load(load)
    else:
        expect(load is None, "v7 load section in a pre-v7 report")

    alerts = doc.get("alerts")
    if version >= 9:
        if alerts is not None:
            validate_alerts(alerts)
    else:
        expect(alerts is None, "v9 alerts section in a pre-v9 report")

    print(f"report: {path}")
    print(f"  binary: {doc['binary']}, {len(runs)} runs, "
          f"{len(results)} results, {len(metrics['counters'])} counters, "
          f"{len(metrics['histograms'])} histograms")
    for run in runs:
        kind = "incr" if run["incremental"] else "full"
        dw = run["delta_walks"]
        profile = ""
        if "operators" in run:
            profile = (f", profile: {len(run['operators'])} operators / "
                       f"{len(run['supersteps_profile'])} supersteps")
        print(f"  run {run['name']}: {kind} {run['seconds']:.4f}s, "
              f"{run['supersteps']} supersteps, "
              f"net {run['network_bytes']} B over "
              f"{len(run['machines'])} machines, "
              f"delta walks {dw['enumerated']} enumerated / "
              f"{dw['pruned']} pruned{profile}")
    if accesses:
        print(f"  buffer pool: {pool['hits']}/{accesses} hits "
              f"({100.0 * pool['hit_rate']:.1f}%)")
    if memory:
        parts = ", ".join(
            f"{name} {entry['bytes']}B (peak {entry['peak_bytes']}B)"
            for name, entry in sorted(memory.items()))
        print(f"  memory: {parts}")
    if resources:
        parts = ", ".join(
            f"{ctx} {entry['cpu_nanos']}ns cpu / {entry['pages_read']} pages"
            f" / {entry['bytes_alloc']}B"
            for ctx, entry in sorted(resources.items()))
        print(f"  resources: {parts}")
    if serving:
        slow = (f", {serving['slow_batches']} slow batches"
                if "slow_batches" in serving else "")
        print(f"  serving: {serving['standing_queries']} standing queries, "
              f"{serving['ingest_batches']} batches "
              f"({serving['ingest_ops']} ops), "
              f"{serving['delta_messages']} delta messages, "
              f"{serving['backpressure_stalls']} backpressure stalls{slow}")
        for row in serving.get("stage_latency_us", []):
            print(f"    stage {row['stage']}: {row['count']} samples, "
                  f"p50 {row['p50']}us p95 {row['p95']}us p99 {row['p99']}us")
        for row in serving["queries"]:
            hist = row["delta_latency_us"]
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            lag = (f", lag {row['lag_batches']} batches / {row['lag_us']}us"
                   if "lag_batches" in row else "")
            print(f"    query {row['name']}: t={row['timestamp']}, "
                  f"{row['runs']} runs, digest {row['digest']}, "
                  f"budget {row['budget_used_bytes']}/{row['budget_bytes']} B, "
                  f"mean delta latency {mean:.0f}us{lag}")
    if load:
        mode = "sweep" if load["sweep"] else "fixed rate"
        print(f"  load: {mode}, {len(load['points'])} points, "
              f"{load['connections']} ingesters / "
              f"{load['subscribers']} subscribers, {load['arrival']} "
              f"arrivals, SLO p99<={load['slo_ms']:g}ms -> "
              f"{load['slo_verdict']}")
        for p in load["points"]:
            ok = "ok" if p["slo_ok"] else "VIOLATED"
            print(f"    rate {p['offered_rate']:g}/s "
                  f"(achieved {p['achieved_rate']:.1f}/s): "
                  f"{p['batches']} batches, p50 {p['p50']}us "
                  f"p99 {p['p99']}us p99.9 {p['p999']}us, SLO {ok}")
        if load["knee"]["found"]:
            print(f"    knee: {load['knee']['offered_rate']:g}/s "
                  f"(p99 {load['knee']['p99']}us)")
    if alerts:
        print(f"  alerts: {len(alerts['rules'])} rules, "
              f"{alerts['evaluations']} evaluations every "
              f"{alerts['period_ms']}ms, "
              f"{alerts['bundles_written']} bundles written "
              f"({alerts['bundles_suppressed']} suppressed)")
        for rule in alerts["rules"]:
            if rule["fires"] or rule["state"] != "inactive":
                print(f"    {rule['name']} [{rule['severity']}]: "
                      f"{rule['state']}, fires={rule['fires']}, "
                      f"flaps={rule['flaps']}, "
                      f"last_value={rule['last_value']:g}")
    print("  schema: OK")


def main():
    parser = argparse.ArgumentParser(
        description="Summarize ITG_TRACE output and validate run reports.")
    parser.add_argument("--trace", help="Chrome trace JSON (ITG_TRACE output)")
    parser.add_argument("--report",
                        help="run report JSON (--metrics-json output)")
    parser.add_argument("--top", type=int, default=10,
                        help="number of longest spans to print (default 10)")
    parser.add_argument("--waterfall", action="store_true",
                        help="print the per-flow-id (Δ-batch) stage "
                             "waterfall; fails when the trace has no "
                             "flow events")
    args = parser.parse_args()
    if not args.trace and not args.report:
        parser.error("need --trace and/or --report")
    if args.waterfall and not args.trace:
        parser.error("--waterfall requires --trace")
    if args.trace:
        summarize_trace(args.trace, args.top, args.waterfall)
    if args.report:
        if args.trace:
            print()
        validate_report(args.report)


if __name__ == "__main__":
    main()
