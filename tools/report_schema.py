"""The run-report schema range shared by every report-reading tool.

src/harness/run_report.h owns the writer-side version; readers accept the
whole MIN..MAX range so an old baseline can be diffed against a new
candidate. Bump MAX_SCHEMA here (one place) when run_report.h grows a new
version.

Version history:
  1  base report (runs / results / metrics / buffer_pool)
  2  per-run "operators" and "supersteps_profile" profile sections
  3  per-machine barrier_wait_nanos, top-level "memory" section
  4  state digests (per run and per superstep row), "audit" section
  5  "serving" section (standing-query daemon: per-query rows with
     delta-latency histograms, ingest/backpressure counters)
  6  pipeline observability: serving gains per-stage "stage_latency_us"
     percentile rows and "slow_batches"; per-query rows gain
     "lag_batches" / "lag_us" staleness fields
  7  load observability: serving query rows gain "p50"/"p95"/"p99"/
     "p999" delta-latency percentile fields (recomputable from the
     buckets via tools/histogram_math.py); new optional "load" section
     (itg_loadgen capacity curves: per-rate points, knee, SLO verdict,
     spliced /timeseriesz server ring)
  8  resource attribution: new always-present "resources" section —
     one {"cpu_nanos","pages_read","bytes_alloc"} row per
     ResourceContext (e.g. "view.<query>"), collapsed from the
     resource.<ctx>.* counters (common/resource_scope.h); may be empty
     when no context was ever created
  9  alerting: new optional "alerts" section (common/alert_engine.h) —
     engine totals (period_ms / evaluations / incident-bundle counts)
     plus one {"name","severity","state","fires","flaps","last_value",
     "expr"} row per rule, states final at drain time; report_diff.py
     fails gated runs whose candidate still has a critical rule firing
  10 runs drop the field holding the pool's modeled makespan (Brent's
     bound); thread scaling is measured wall time only. Older reports
     keep that field and still validate
"""

MIN_SCHEMA = 1
MAX_SCHEMA = 10

SCHEMA_RANGE = range(MIN_SCHEMA, MAX_SCHEMA + 1)
