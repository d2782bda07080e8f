// Alert engine: expression / rule-file parsing with line-numbered
// errors, the per-rule state machine (for-duration hysteresis, cooldown
// flap suppression), windowed rate / percentile / burn math against
// hand-computed fixtures, wildcard aggregation, and the incident
// reporter's bundle + rate-limit behaviour.
#include "common/alert_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/metrics_registry.h"

namespace itg {
namespace {

namespace fs = std::filesystem;

// The burn/percentile fixtures below record the values 1 (inside SLO)
// and 9 (outside): with kExact = 8 the value 1 keeps its own exact
// bucket while 9 lands in the first sub-bucketed octave with lower
// bound 9 — strictly above the slo=5 threshold the rules use.
static_assert(Histogram::kExact == 8, "fixtures assume sub_bits = 3");

AlertRule MakeRule(const std::string& name, const std::string& expr) {
  AlertRule rule;
  rule.name = name;
  EXPECT_TRUE(ParseAlertExpr(expr, &rule).ok()) << expr;
  return rule;
}

AlertStatus StatusOf(const AlertEngine& engine, const std::string& name) {
  for (const AlertStatus& s : engine.Statuses()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no rule named " << name;
  return AlertStatus();
}

AlertEngine::Options TestOptions(MetricsRegistry* registry) {
  AlertEngine::Options options;
  options.registry = registry;
  options.capture_incidents = false;  // don't touch the global reporter
  return options;
}

// ---------------------------------------------------------------------------
// Expression parsing
// ---------------------------------------------------------------------------

TEST(AlertExprTest, ParsesEveryKind) {
  AlertRule r;
  ASSERT_TRUE(ParseAlertExpr("gauge(serve.queue_depth) >= 58", &r).ok());
  EXPECT_EQ(r.kind, AlertRule::Kind::kGauge);
  EXPECT_EQ(r.metric, "serve.queue_depth");
  EXPECT_EQ(r.op, '>');
  EXPECT_TRUE(r.or_equal);
  EXPECT_DOUBLE_EQ(r.threshold, 58.0);

  ASSERT_TRUE(ParseAlertExpr("rate(serve.backpressure_stalls) > 1", &r).ok());
  EXPECT_EQ(r.kind, AlertRule::Kind::kRate);
  EXPECT_FALSE(r.or_equal);

  ASSERT_TRUE(ParseAlertExpr("p99.9(serve.delta_latency_us.*) > 5000", &r)
                  .ok());
  EXPECT_EQ(r.kind, AlertRule::Kind::kPercentile);
  EXPECT_DOUBLE_EQ(r.percentile, 99.9);
  EXPECT_EQ(r.metric, "serve.delta_latency_us.*");

  ASSERT_TRUE(ParseAlertExpr("absent(ingest.batches_total)", &r).ok());
  EXPECT_EQ(r.kind, AlertRule::Kind::kAbsent);

  ASSERT_TRUE(ParseAlertExpr("stale(serve.view_lag_us.*)", &r).ok());
  EXPECT_EQ(r.kind, AlertRule::Kind::kStale);

  ASSERT_TRUE(
      ParseAlertExpr("burn(lat, slo=5000, objective=99.9)", &r).ok());
  EXPECT_EQ(r.kind, AlertRule::Kind::kBurn);
  EXPECT_DOUBLE_EQ(r.slo_value, 5000.0);
  EXPECT_DOUBLE_EQ(r.objective, 99.9);
}

TEST(AlertExprTest, RejectsMalformedExpressions) {
  AlertRule r;
  EXPECT_NE(ParseAlertExpr("bogus(x) > 1", &r).message().find(
                "unknown expr kind 'bogus'"),
            std::string::npos);
  EXPECT_NE(ParseAlertExpr("gauge(x", &r).message().find("missing ')'"),
            std::string::npos);
  EXPECT_NE(ParseAlertExpr("gauge(x) >", &r).message().find(
                "needs a comparison"),
            std::string::npos);
  EXPECT_NE(ParseAlertExpr("gauge(x) > lots", &r).message().find(
                "bad threshold"),
            std::string::npos);
  EXPECT_NE(ParseAlertExpr("gauge(x) = 3", &r).message().find(
                "bad comparison operator"),
            std::string::npos);
  EXPECT_NE(ParseAlertExpr("burn(x, objective=99)", &r).message().find(
                "requires slo="),
            std::string::npos);
  EXPECT_NE(ParseAlertExpr("burn(x, slo=5, objective=101)", &r)
                .message()
                .find("objective must be in (0, 100)"),
            std::string::npos);
  EXPECT_NE(ParseAlertExpr("absent(x) > 1", &r).message().find(
                "takes no comparison"),
            std::string::npos);
  EXPECT_NE(ParseAlertExpr("p200(x) > 1", &r).message().find(
                "unknown expr kind"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule-file parsing
// ---------------------------------------------------------------------------

TEST(AlertRulesTest, ParsesFileWithDurationsAndComments) {
  const std::string text =
      "# serving defaults, tuned\n"
      "alert queue_full\n"
      "  severity critical\n"
      "  expr gauge(serve.queue_depth) >= 58\n"
      "  for 2s\n"
      "  cooldown 5m\n"
      "\n"
      "alert slow_notify   # burn rule\n"
      "  expr burn(serve.delta_latency_us.*, slo=5000)\n"
      "  fast_window 1m\n"
      "  slow_window 1h\n"
      "  burn_factor 2\n";
  std::vector<AlertRule> rules;
  ASSERT_TRUE(ParseAlertRules(text, "rules.conf", &rules).ok());
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "queue_full");
  EXPECT_EQ(rules[0].severity, AlertSeverity::kCritical);
  EXPECT_EQ(rules[0].for_ms, 2000u);
  EXPECT_EQ(rules[0].cooldown_ms, 300'000u);
  EXPECT_EQ(rules[1].name, "slow_notify");
  EXPECT_EQ(rules[1].fast_window_ms, 60'000u);
  EXPECT_EQ(rules[1].slow_window_ms, 3'600'000u);
  EXPECT_DOUBLE_EQ(rules[1].burn_factor, 2.0);
}

TEST(AlertRulesTest, ErrorsCarrySourceAndLineNumber) {
  std::vector<AlertRule> rules;
  // Bad expr on line 2.
  Status s = ParseAlertRules("alert a\n  expr nope(x)\n", "r.conf", &rules);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("r.conf:2: "), std::string::npos)
      << s.message();
  // Key outside a block, line 1.
  s = ParseAlertRules("severity warn\n", "r.conf", &rules);
  EXPECT_NE(s.message().find("r.conf:1: "), std::string::npos);
  // Rule without an expr is reported at its opening line.
  s = ParseAlertRules("\n\nalert empty\n  severity warn\n", "r.conf",
                      &rules);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("r.conf:3: "), std::string::npos);
  EXPECT_NE(s.message().find("has no expr"), std::string::npos);
  // Duplicate names.
  s = ParseAlertRules(
      "alert a\n  expr absent(x)\nalert a\n  expr absent(y)\n", "r.conf",
      &rules);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate alert name 'a'"),
            std::string::npos);
  // Bad duration.
  s = ParseAlertRules("alert a\n  expr absent(x)\n  for 5parsecs\n",
                      "r.conf", &rules);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("r.conf:3: "), std::string::npos);
  EXPECT_NE(s.message().find("not a duration"), std::string::npos);
}

// ---------------------------------------------------------------------------
// State machine
// ---------------------------------------------------------------------------

TEST(AlertEngineTest, ForDurationHoldsBeforeFiring) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("q.depth");
  AlertEngine engine;
  AlertRule rule = MakeRule("deep_queue", "gauge(q.depth) > 10");
  rule.for_ms = 2000;
  engine.AddRule(rule);
  engine.ConfigureForTest(TestOptions(&registry));

  g->Set(5);
  engine.EvaluateOnceAt(1000);
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kInactive);

  g->Set(20);
  engine.EvaluateOnceAt(2000);
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kPending);
  engine.EvaluateOnceAt(3000);  // held 1s of the required 2s
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kPending);
  engine.EvaluateOnceAt(4000);  // held 2s: fire
  AlertStatus st = StatusOf(engine, "deep_queue");
  EXPECT_EQ(st.state, AlertState::kFiring);
  EXPECT_EQ(st.fires, 1u);
  EXPECT_DOUBLE_EQ(st.value, 20.0);
  EXPECT_EQ(registry.counter("alerts.fired_total")->value(), 1u);
}

TEST(AlertEngineTest, PendingBlipNeverFires) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("q.depth");
  AlertEngine engine;
  AlertRule rule = MakeRule("deep_queue", "gauge(q.depth) > 10");
  rule.for_ms = 2000;
  engine.AddRule(rule);
  engine.ConfigureForTest(TestOptions(&registry));

  g->Set(20);
  engine.EvaluateOnceAt(1000);
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kPending);
  g->Set(5);  // one-sample blip clears before the hold elapses
  engine.EvaluateOnceAt(2000);
  AlertStatus st = StatusOf(engine, "deep_queue");
  EXPECT_EQ(st.state, AlertState::kInactive);
  EXPECT_EQ(st.fires, 0u);
}

TEST(AlertEngineTest, CooldownSuppressesFlapsThenRearms) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("q.depth");
  AlertEngine engine;
  AlertRule rule = MakeRule("deep_queue", "gauge(q.depth) > 10");
  rule.for_ms = 0;  // fires in the same evaluation
  rule.cooldown_ms = 5000;
  engine.AddRule(rule);
  engine.ConfigureForTest(TestOptions(&registry));

  g->Set(20);
  engine.EvaluateOnceAt(1000);
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kFiring);
  EXPECT_EQ(StatusOf(engine, "deep_queue").fires, 1u);

  g->Set(5);
  engine.EvaluateOnceAt(2000);
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kResolved);

  // Oscillating back inside the cooldown is a flap: firing again but
  // with no new fire tally (and so no new incident bundle).
  g->Set(20);
  engine.EvaluateOnceAt(3000);
  AlertStatus st = StatusOf(engine, "deep_queue");
  EXPECT_EQ(st.state, AlertState::kFiring);
  EXPECT_EQ(st.fires, 1u);
  EXPECT_EQ(st.flaps, 1u);
  EXPECT_EQ(registry.counter("alerts.flaps_total")->value(), 1u);
  EXPECT_EQ(registry.counter("alerts.fired_total")->value(), 1u);

  // Quiet through the whole cooldown: resolved -> inactive re-arms.
  g->Set(5);
  engine.EvaluateOnceAt(4000);
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kResolved);
  engine.EvaluateOnceAt(8000);  // 4s into the 5s cooldown
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kResolved);
  engine.EvaluateOnceAt(9000);  // cooldown elapsed
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kInactive);

  // The next violation is a genuine new fire.
  g->Set(20);
  engine.EvaluateOnceAt(10000);
  st = StatusOf(engine, "deep_queue");
  EXPECT_EQ(st.state, AlertState::kFiring);
  EXPECT_EQ(st.fires, 2u);
  EXPECT_EQ(st.flaps, 1u);
}

// ---------------------------------------------------------------------------
// Windowed math
// ---------------------------------------------------------------------------

TEST(AlertEngineTest, RatePerSecondOverWindow) {
  MetricsRegistry registry;
  Counter* c = registry.counter("stalls");
  AlertEngine engine;
  AlertRule rule = MakeRule("stalling", "rate(stalls) > 5");
  rule.window_ms = 2000;
  engine.AddRule(rule);
  engine.ConfigureForTest(TestOptions(&registry));

  engine.EvaluateOnceAt(1000);  // baseline: counter at 0
  c->Add(100);
  engine.EvaluateOnceAt(3000);  // 100 events / 2s = 50/s
  AlertStatus st = StatusOf(engine, "stalling");
  EXPECT_EQ(st.state, AlertState::kFiring);
  EXPECT_DOUBLE_EQ(st.value, 50.0);
}

TEST(AlertEngineTest, PercentileOverWindowedDelta) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat.q1");
  AlertEngine engine;
  AlertRule rule = MakeRule("slow_p50", "p50(lat.*) > 4");
  rule.window_ms = 1000;
  engine.AddRule(rule);
  engine.ConfigureForTest(TestOptions(&registry));

  // A slow past that must NOT leak into the windowed delta.
  for (int i = 0; i < 100; ++i) h->Record(9);
  engine.EvaluateOnceAt(1000);
  // The window itself: 60 fast + 40 slow samples; p50 rank = 50 lands
  // in the bucket of value 1, whose exclusive upper bound is 2 (the
  // registry's shared percentile rule).
  for (int i = 0; i < 60; ++i) h->Record(1);
  for (int i = 0; i < 40; ++i) h->Record(9);
  engine.EvaluateOnceAt(2000);
  AlertStatus st = StatusOf(engine, "slow_p50");
  EXPECT_EQ(st.state, AlertState::kInactive);
  EXPECT_DOUBLE_EQ(st.value, 2.0);

  // Flip the mix: p50 rank = 50 of (40 fast + 60 slow) reaches value 9,
  // whose bucket's exclusive upper bound is 10.
  for (int i = 0; i < 40; ++i) h->Record(1);
  for (int i = 0; i < 60; ++i) h->Record(9);
  engine.EvaluateOnceAt(3000);
  st = StatusOf(engine, "slow_p50");
  EXPECT_EQ(st.state, AlertState::kFiring);  // for_ms default 0 -> fires
  EXPECT_DOUBLE_EQ(st.value, 10.0);
}

TEST(AlertEngineTest, BurnRateMultiWindowHandComputed) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat.q1");
  AlertEngine engine;
  // objective 99 -> error budget 0.01; value 9 is an error (bucket
  // lower bound 9 > slo 5), value 1 is not.
  AlertRule rule = MakeRule("burning", "burn(lat.*, slo=5, objective=99)");
  rule.burn_factor = 20;
  rule.fast_window_ms = 2000;
  rule.slow_window_ms = 8000;
  rule.cooldown_ms = 1000;
  engine.AddRule(rule);
  engine.ConfigureForTest(TestOptions(&registry));

  // t=0..8000: a clean steady state, 90 good samples per period.
  for (uint64_t t = 0; t <= 8000; t += 1000) {
    if (t > 0) {
      for (int i = 0; i < 90; ++i) h->Record(1);
    }
    engine.EvaluateOnceAt(t);
    EXPECT_EQ(StatusOf(engine, "burning").state, AlertState::kInactive)
        << "clean traffic must not burn (t=" << t << ")";
  }

  // t=9000: the incident starts — 10 good + 90 bad in this period.
  //   fast window (2s, baseline t=7000): 90 + 100 samples, 90 errors
  //     -> ratio 90/190, burn = (90/190)/0.01 = 47.36...
  //   slow window (8s, baseline t=1000): 630 + 100 samples, 90 errors
  //     -> ratio 90/730, burn = 12.32... < 20 -> slow window vetoes.
  for (int i = 0; i < 10; ++i) h->Record(1);
  for (int i = 0; i < 90; ++i) h->Record(9);
  engine.EvaluateOnceAt(9000);
  AlertStatus st = StatusOf(engine, "burning");
  EXPECT_EQ(st.state, AlertState::kInactive)
      << "one bad period over a clean history must not page";
  EXPECT_NEAR(st.value, (90.0 / 190.0) / 0.01, 1e-9);

  // t=10000: the incident persists — 90 more bad samples.
  //   fast window (baseline t=8000): 100 + 90 samples, 180 errors
  //     -> burn = (180/190)/0.01 = 94.73...
  //   slow window (baseline t=2000): 540 + 100 + 90, 180 errors
  //     -> burn = (180/730)/0.01 = 24.65... >= 20 -> both agree: fire.
  for (int i = 0; i < 90; ++i) h->Record(9);
  engine.EvaluateOnceAt(10000);
  st = StatusOf(engine, "burning");
  EXPECT_EQ(st.state, AlertState::kFiring);
  EXPECT_EQ(st.fires, 1u);
  EXPECT_NEAR(st.value, (180.0 / 190.0) / 0.01, 1e-9);
  EXPECT_DOUBLE_EQ(st.threshold, 20.0);

  // Load stops: no samples in the window -> ratio 0 -> resolves, and
  // after the 1s cooldown passes quietly the rule re-arms.
  engine.EvaluateOnceAt(13000);
  st = StatusOf(engine, "burning");
  EXPECT_EQ(st.state, AlertState::kResolved);
  EXPECT_NEAR(st.value, 0.0, 1e-9);
  engine.EvaluateOnceAt(14000);
  EXPECT_EQ(StatusOf(engine, "burning").state, AlertState::kInactive);
}

TEST(AlertEngineTest, AbsentAndStaleAndWildcards) {
  MetricsRegistry registry;
  AlertEngine engine;
  engine.AddRule(MakeRule("gone", "absent(never.recorded)"));
  AlertRule stale = MakeRule("stuck", "stale(serve.view_lag_us.*)");
  stale.window_ms = 2000;
  engine.AddRule(stale);
  engine.AddRule(MakeRule("deep", "gauge(serve.q.*) > 10"));
  engine.ConfigureForTest(TestOptions(&registry));

  Gauge* lag1 = registry.gauge("serve.view_lag_us.q1");
  Gauge* lag2 = registry.gauge("serve.view_lag_us.q2");
  Gauge* q1 = registry.gauge("serve.q.a");
  Gauge* q2 = registry.gauge("serve.q.b");
  // A sibling that the "serve.q.*" prefix must NOT match.
  registry.gauge("serve.qx")->Set(1000);
  lag1->Set(10);
  lag2->Set(20);
  q1->Set(3);
  q2->Set(4);

  engine.EvaluateOnceAt(1000);
  EXPECT_EQ(StatusOf(engine, "gone").state, AlertState::kFiring);
  // Not stale yet: history does not cover the full window.
  EXPECT_EQ(StatusOf(engine, "stuck").state, AlertState::kInactive);
  // max(3, 4) = 4, not 1000 from the sibling.
  EXPECT_EQ(StatusOf(engine, "deep").state, AlertState::kInactive);
  EXPECT_DOUBLE_EQ(StatusOf(engine, "deep").value, 4.0);

  q2->Set(99);
  engine.EvaluateOnceAt(2000);
  EXPECT_DOUBLE_EQ(StatusOf(engine, "deep").value, 99.0);

  // Full window with no lag-gauge movement: stale.
  engine.EvaluateOnceAt(3000);
  EXPECT_EQ(StatusOf(engine, "stuck").state, AlertState::kFiring);
  // Any movement un-sticks it.
  lag2->Set(21);
  engine.EvaluateOnceAt(4000);
  engine.EvaluateOnceAt(5000);
  EXPECT_EQ(StatusOf(engine, "stuck").state, AlertState::kResolved);
}

// ---------------------------------------------------------------------------
// Lifecycle / surfaces
// ---------------------------------------------------------------------------

TEST(AlertEngineTest, ZeroRulesMeansNoThread) {
  AlertEngine engine;
  engine.Start(AlertEngine::Options());
  EXPECT_FALSE(engine.running());
  engine.Stop();  // must be a harmless no-op
}

TEST(AlertEngineTest, CriticalFiringAndJson) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("q.depth");
  AlertEngine engine;
  AlertRule rule = MakeRule("deep_queue", "gauge(q.depth) > 10");
  rule.severity = AlertSeverity::kCritical;
  engine.AddRule(rule);
  AlertRule warn = MakeRule("warn_queue", "gauge(q.depth) > 15");
  warn.severity = AlertSeverity::kWarn;
  engine.AddRule(warn);
  engine.ConfigureForTest(TestOptions(&registry));

  EXPECT_TRUE(engine.CriticalFiring().empty());
  g->Set(20);
  engine.EvaluateOnceAt(1000);
  const std::vector<std::string> critical = engine.CriticalFiring();
  ASSERT_EQ(critical.size(), 1u);  // the warn rule fires but is not listed
  EXPECT_EQ(critical[0], "deep_queue");

  const std::string json = engine.ToJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"deep_queue\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"critical\""), std::string::npos);
  const std::string text = engine.ToText();
  EXPECT_NE(text.find("deep_queue"), std::string::npos);
  EXPECT_NE(text.find("firing"), std::string::npos);
}

TEST(AlertEngineTest, DuplicateRuleNamesRejected) {
  AlertEngine engine;
  engine.AddRule(MakeRule("dup", "absent(x)"));
  const Status s =
      engine.AddRulesFromText("alert dup\n  expr absent(y)\n", "inline");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate"), std::string::npos);
  EXPECT_EQ(engine.rule_count(), 1u);
}

TEST(DefaultServingRulesTest, GatedOnConfiguredLimits) {
  ServingAlertDefaults defaults;
  defaults.ingest_queue_depth = 64;
  defaults.slo_ms = 0;
  defaults.memory_budget_bytes = 0;
  std::vector<std::string> names;
  for (const AlertRule& r : DefaultServingAlertRules(defaults)) {
    names.push_back(r.name);
  }
  EXPECT_EQ(names.size(), 3u);  // no SLO, no budget -> no burn/memory rule

  defaults.slo_ms = 5.0;
  defaults.memory_budget_bytes = 1 << 20;
  const std::vector<AlertRule> all = DefaultServingAlertRules(defaults);
  names.clear();
  bool have_burn = false;
  for (const AlertRule& r : all) {
    names.push_back(r.name);
    if (r.name == "serve_notify_p99_burn") {
      have_burn = true;
      EXPECT_EQ(r.kind, AlertRule::Kind::kBurn);
      EXPECT_EQ(r.severity, AlertSeverity::kCritical);
      EXPECT_DOUBLE_EQ(r.slo_value, 5000.0);  // ms -> us
    }
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_TRUE(have_burn);
  // Every default must carry a valid, re-parseable expression.
  for (const AlertRule& r : all) {
    AlertRule reparsed;
    EXPECT_TRUE(ParseAlertExpr(r.expr, &reparsed).ok()) << r.expr;
  }
}

// ---------------------------------------------------------------------------
// Incident reporter
// ---------------------------------------------------------------------------

TEST(IncidentReporterTest, BundleArtifactsAndRateLimit) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "alert_engine_test_incidents";
  fs::remove_all(root);
  MetricsRegistry registry;
  registry.counter("some.counter")->Add(7);

  IncidentReporter& reporter = IncidentReporter::Global();
  // Unconfigured: strict no-op.
  reporter.Configure(IncidentReporter::Options());
  EXPECT_EQ(reporter.Capture("test", "info", "ignored"), "");

  IncidentReporter::Options options;
  options.dir = root.string();
  options.min_interval_ms = 3'600'000;  // force the second capture to drop
  options.profile_ms = 0;               // no sleep in tests
  options.registry = &registry;
  options.timeseries_json = [] { return std::string("{\"ring\":[]}"); };
  reporter.Configure(options);
  reporter.ResetRateLimitForTest();

  const uint64_t written_before = reporter.bundles_written();
  const std::string bundle =
      reporter.Capture("unit_test", "critical", "synthetic incident");
  ASSERT_FALSE(bundle.empty());
  EXPECT_EQ(reporter.bundles_written(), written_before + 1);
  for (const char* name :
       {"flightrecorder.txt", "metrics.json", "statusz.json",
        "timeseries.json", "profile.txt", "incident.json"}) {
    const fs::path artifact = fs::path(bundle) / name;
    EXPECT_TRUE(fs::exists(artifact)) << artifact;
    EXPECT_GT(fs::file_size(artifact), 0u) << artifact;
  }
  std::ifstream manifest(fs::path(bundle) / "incident.json");
  std::string manifest_text((std::istreambuf_iterator<char>(manifest)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(manifest_text.find("\"reason\":\"unit_test\""),
            std::string::npos);
  EXPECT_NE(manifest_text.find("\"severity\":\"critical\""),
            std::string::npos);
  std::ifstream metrics(fs::path(bundle) / "metrics.json");
  std::string metrics_text((std::istreambuf_iterator<char>(metrics)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(metrics_text.find("some.counter"), std::string::npos);

  // Inside min_interval: suppressed, counted, nothing written.
  const uint64_t suppressed_before = reporter.bundles_suppressed();
  EXPECT_EQ(reporter.Capture("again", "info", "too soon"), "");
  EXPECT_EQ(reporter.bundles_suppressed(), suppressed_before + 1);
  EXPECT_EQ(reporter.bundles_written(), written_before + 1);

  // Reset hook re-arms it.
  reporter.ResetRateLimitForTest();
  EXPECT_NE(reporter.Capture("after_reset", "info", "rearmed"), "");
  EXPECT_EQ(reporter.bundles_written(), written_before + 2);

  // De-configure so later tests (and the engine's global reporter path)
  // see the unconfigured no-op again.
  reporter.Configure(IncidentReporter::Options());
  EXPECT_FALSE(reporter.configured());
  fs::remove_all(root);
}

TEST(AlertEngineTest, FiringCapturesIncidentBundle) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "alert_engine_test_fire_bundle";
  fs::remove_all(root);
  MetricsRegistry registry;
  Gauge* g = registry.gauge("q.depth");

  IncidentReporter::Options ropts;
  ropts.dir = root.string();
  ropts.profile_ms = 0;
  ropts.registry = &registry;
  IncidentReporter::Global().Configure(ropts);
  IncidentReporter::Global().ResetRateLimitForTest();

  AlertEngine engine;
  engine.AddRule(MakeRule("deep_queue", "gauge(q.depth) > 10"));
  AlertEngine::Options options;
  options.registry = &registry;
  options.capture_incidents = true;
  engine.ConfigureForTest(options);

  g->Set(20);
  engine.EvaluateOnceAt(1000);
  EXPECT_EQ(StatusOf(engine, "deep_queue").state, AlertState::kFiring);
  bool found = false;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.path().filename().string().rfind("incident_", 0) == 0) {
      found = true;
      EXPECT_NE(entry.path().filename().string().find("deep_queue"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found) << "firing transition wrote no bundle under " << root;

  IncidentReporter::Global().Configure(IncidentReporter::Options());
  fs::remove_all(root);
}

}  // namespace
}  // namespace itg
