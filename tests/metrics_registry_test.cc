// Metrics registry: log-linear histogram bucketing, snapshots, merging,
// the time-series ring, and the Metrics compatibility facade on top.
#include "common/metrics_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"

namespace itg {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add(5);
  c.Increment();
  EXPECT_EQ(c.value(), 6u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddSigned) {
  Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.value(), -15);
}

TEST(HistogramTest, BucketOf) {
  // Values below kExact are their own bucket.
  for (uint64_t v = 0; v < Histogram::kExact; ++v) {
    EXPECT_EQ(Histogram::BucketOf(v), static_cast<int>(v));
  }
  // 8..15 stay exact too (first octave, 8 sub-buckets of width 1).
  EXPECT_EQ(Histogram::BucketOf(8), 8);
  EXPECT_EQ(Histogram::BucketOf(15), 15);
  // Octave [16, 32) splits into sub-buckets of width 2.
  EXPECT_EQ(Histogram::BucketOf(16), 16);
  EXPECT_EQ(Histogram::BucketOf(17), 16);
  EXPECT_EQ(Histogram::BucketOf(18), 17);
  // 1023 is the last sub-bucket of [512, 1024); 1024 opens the next octave.
  EXPECT_EQ(Histogram::BucketOf(1023), Histogram::BucketOf(1024) - 1);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(HistogramTest, SubBucketResolutionAtLoopbackLatencies) {
  // The point of the log-linear refit: sub-100us latencies are
  // distinguishable where pure power-of-two buckets lumped [64, 128).
  EXPECT_NE(Histogram::BucketOf(70), Histogram::BucketOf(100));
  EXPECT_NE(Histogram::BucketOf(64), Histogram::BucketOf(80));
  EXPECT_NE(Histogram::BucketOf(96), Histogram::BucketOf(112));
  // Relative bucket width stays bounded at 1/8 of the lower bound.
  for (int b = Histogram::kExact; b < Histogram::kBuckets - 1; ++b) {
    const uint64_t lo = Histogram::BucketLowerBound(b);
    const uint64_t hi = Histogram::BucketUpperBound(b);
    EXPECT_LE(hi - lo + 1, lo / 8 + 1) << "bucket " << b;
  }
}

TEST(HistogramTest, BucketUpperBound) {
  for (int b = 0; b < Histogram::kBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBound(b),
              Histogram::BucketLowerBound(b + 1) - 1)
        << "bucket " << b;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1), UINT64_MAX);
}

TEST(HistogramTest, BucketBoundsRoundTrip) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  for (int b = 1; b < Histogram::kBuckets; ++b) {
    uint64_t lo = Histogram::BucketLowerBound(b);
    EXPECT_EQ(Histogram::BucketOf(lo), b) << "bucket " << b;
    if (b > 1) {
      EXPECT_EQ(Histogram::BucketOf(lo - 1), b - 1) << "bucket " << b;
    }
  }
}

TEST(HistogramTest, RecordTallies) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // the zero
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(5), 2u);  // 5 twice, exact bucket
}

TEST(HistogramTest, PercentileUpperBound) {
  Histogram h;
  EXPECT_EQ(h.PercentileUpperBound(50), 0u);
  for (int i = 0; i < 90; ++i) h.Record(3);    // exact bucket 3
  for (int i = 0; i < 10; ++i) h.Record(100);  // sub-bucket [96, 104)
  EXPECT_EQ(h.PercentileUpperBound(50), 4u);
  EXPECT_EQ(h.PercentileUpperBound(89), 4u);
  EXPECT_EQ(h.PercentileUpperBound(99), 104u);
}

TEST(HistogramTest, MergeAddsBucketwise) {
  Histogram a, b;
  a.Record(1);
  a.Record(1000);
  b.Record(1);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 1002u);
  EXPECT_EQ(a.bucket_count(1), 2u);
  EXPECT_EQ(a.bucket_count(Histogram::BucketOf(1000)), 1u);
}

TEST(MetricsRegistryTest, GetOrCreateIsStable) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("a.count");
  Counter* c2 = reg.counter("a.count");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.counter("b.count"), c1);
  EXPECT_EQ(reg.gauge("g"), reg.gauge("g"));
  EXPECT_EQ(reg.histogram("h"), reg.histogram("h"));
}

TEST(MetricsRegistryTest, SnapshotReflectsValues) {
  MetricsRegistry reg;
  reg.counter("c")->Add(3);
  reg.gauge("g")->Set(-7);
  reg.histogram("h")->Record(12);
  auto snap = reg.Snap();
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), -7);
  const auto& h = snap.histograms.at("h");
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, 12u);
  // Non-empty buckets carry (lower bound, count) pairs.
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0].first, 12u);  // 12 is exact in the first octave
  EXPECT_EQ(h.buckets[0].second, 1u);
}

TEST(MetricsRegistryTest, SnapshotPercentileMatchesLiveHistogram) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("lat");
  for (uint64_t v : {0u, 3u, 70u, 70u, 100u, 1000u, 123456u}) h->Record(v);
  const auto snap = reg.Snap().histograms.at("lat");
  for (double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(snap.PercentileUpperBound(p), h->PercentileUpperBound(p))
        << "p" << p;
  }
}

TEST(MetricsRegistryTest, MergeCreatesAndAccumulates) {
  MetricsRegistry a, b;
  a.counter("shared")->Add(1);
  b.counter("shared")->Add(2);
  b.counter("only_b")->Add(5);
  b.gauge("g")->Set(4);
  b.histogram("h")->Record(9);
  b.histogram("h")->Record(0);
  a.Merge(b);
  EXPECT_EQ(a.counter("shared")->value(), 3u);
  EXPECT_EQ(a.counter("only_b")->value(), 5u);
  EXPECT_EQ(a.gauge("g")->value(), 4);
  EXPECT_EQ(a.histogram("h")->count(), 2u);
  EXPECT_EQ(a.histogram("h")->sum(), 9u);
  EXPECT_EQ(a.histogram("h")->bucket_count(0), 1u);
  EXPECT_EQ(a.histogram("h")->bucket_count(9), 1u);
}

TEST(MetricsRegistryTest, ResetKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  c->Add(9);
  reg.histogram("h")->Record(2);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.counter("c"), c);  // same object, still registered
  EXPECT_EQ(reg.histogram("h")->count(), 0u);
}

TEST(MetricsRegistryTest, ToJsonShape) {
  MetricsRegistry reg;
  reg.counter("c.one")->Add(1);
  reg.gauge("g.two")->Set(2);
  reg.histogram("h.three")->Record(3);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"c.one\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"g.two\":2"), std::string::npos);
  EXPECT_NE(json.find("\"h.three\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[3,1]]"), std::string::npos);
}

TEST(MetricsRegistryTest, RemoveRetiresSeriesExactly) {
  MetricsRegistry reg;
  reg.counter("serve.c.q1")->Add(3);
  reg.counter("serve.c.q10")->Add(5);
  reg.gauge("serve.g.q1")->Set(7);
  reg.histogram("serve.h.q1")->Record(9);

  EXPECT_TRUE(reg.RemoveCounter("serve.c.q1"));
  EXPECT_TRUE(reg.RemoveGauge("serve.g.q1"));
  EXPECT_TRUE(reg.RemoveHistogram("serve.h.q1"));
  // Exact-name matching: "serve.c.q1" must not take "serve.c.q10" along.
  MetricsRegistry::Snapshot snap = reg.Snap();
  EXPECT_EQ(snap.counters.count("serve.c.q1"), 0u);
  EXPECT_EQ(snap.counters.at("serve.c.q10"), 5u);
  EXPECT_EQ(snap.gauges.count("serve.g.q1"), 0u);
  EXPECT_EQ(snap.histograms.count("serve.h.q1"), 0u);

  // Removing an absent or wrong-kind name is a no-op returning false.
  EXPECT_FALSE(reg.RemoveCounter("serve.c.q1"));
  EXPECT_FALSE(reg.RemoveCounter("serve.g.q1"));
  EXPECT_FALSE(reg.RemoveGauge("nope"));
  EXPECT_FALSE(reg.RemoveHistogram("nope"));

  // Re-requesting a removed name creates a fresh series from zero.
  EXPECT_EQ(reg.counter("serve.c.q1")->value(), 0u);
  EXPECT_EQ(reg.histogram("serve.h.q1")->count(), 0u);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesDontLoseCounts) {
  MetricsRegistry reg;
  Counter* c = reg.counter("hot");
  Histogram* h = reg.histogram("sizes");
  constexpr size_t kTasks = 1000;
  ThreadPool pool(4);
  pool.ParallelFor(kTasks, [&](size_t task, int /*worker*/) {
    c->Increment();
    h->Record(task % 16);
  });
  EXPECT_EQ(c->value(), kTasks);
  EXPECT_EQ(h->count(), kTasks);
}

TEST(MetricsRegistryTest, SnapshotConsistentUnderConcurrentRecords) {
  // A Record() is three independent relaxed adds; a snapshot racing it
  // must still satisfy Σ bucket counts == count (the invariant every
  // report validator asserts), because Snap derives count from the
  // bucket tallies it actually read.
  MetricsRegistry reg;
  Histogram* h = reg.histogram("hot");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t v = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        h->Record(v++ % 4096);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const auto snap = reg.Snap().histograms.at("hot");
    uint64_t total = 0;
    for (const auto& [lower, n] : snap.buckets) total += n;
    ASSERT_EQ(total, snap.count) << "snapshot " << i;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  // Quiescent: the derived count agrees with the live counter.
  EXPECT_EQ(reg.Snap().histograms.at("hot").count, h->count());
}

TEST(TimeSeriesRingTest, EvictsOldestAtCapacity) {
  TimeSeriesRing ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (uint64_t t = 1; t <= 5; ++t) {
    MetricsRegistry::Snapshot snap;
    snap.counters["c"] = t;
    ring.Push(t, std::move(snap));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.evicted(), 2u);
  const auto samples = ring.Samples();
  ASSERT_EQ(samples.size(), 3u);
  // Oldest-first, with the two oldest samples gone.
  EXPECT_EQ(samples[0].t_ms, 3u);
  EXPECT_EQ(samples[1].t_ms, 4u);
  EXPECT_EQ(samples[2].t_ms, 5u);
  EXPECT_EQ(samples[0].snap.counters.at("c"), 3u);
}

TEST(TimeSeriesRingTest, ToJsonDigestsHistograms) {
  TimeSeriesRing ring(8);
  MetricsRegistry reg;
  reg.counter("serve.ingest_batches")->Add(2);
  reg.gauge("serve.queue_depth")->Set(5);
  for (int i = 0; i < 10; ++i) reg.histogram("serve.delta_latency_us")->Record(70);
  ring.Push(1722470400000ull, reg.Snap());
  const std::string json = ring.ToJson(250);
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(json.find("\"evicted\":0"), std::string::npos);
  EXPECT_NE(json.find("\"interval_ms\":250"), std::string::npos);
  EXPECT_NE(json.find("\"t_ms\":1722470400000"), std::string::npos);
  EXPECT_NE(json.find("\"serve.ingest_batches\":2"), std::string::npos);
  EXPECT_NE(json.find("\"serve.queue_depth\":5"), std::string::npos);
  // Histograms are digested to count/sum/p50/p99, not full buckets.
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(json.find("\"buckets\""), std::string::npos);
}

TEST(MetricsRegistryTest, ToJsonEscapesControlBytesInNames) {
  // Series names can carry client-chosen view names (e.g.
  // serve.delta_latency_us.<view>); neither JSON writer may emit a raw
  // control byte for them.
  const std::string name = std::string("view.a\"b\\c\nd") + '\x01' + "e";
  MetricsRegistry reg;
  reg.counter(name)->Add(1);
  reg.gauge(name)->Set(2);
  reg.histogram(name)->Record(3);
  TimeSeriesRing ring(2);
  ring.Push(1, reg.Snap());
  for (const std::string& json : {reg.ToJson(), ring.ToJson()}) {
    for (char c : json) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
    }
    EXPECT_NE(json.find("view.a\\\"b\\\\c\\nd\\u0001e"), std::string::npos)
        << json;
  }
}

TEST(MetricsFacadeTest, CountersLiveInRegistry) {
  Metrics m;
  m.AddReadBytes(100);
  m.AddNetworkBytes(7);
  m.AddPageReads(3);
  EXPECT_EQ(m.read_bytes(), 100u);
  EXPECT_EQ(m.registry().counter("io.read_bytes")->value(), 100u);
  EXPECT_EQ(m.registry().counter("net.bytes")->value(), 7u);
  EXPECT_EQ(m.registry().counter("io.page_reads")->value(), 3u);
}

TEST(MetricsFacadeTest, SnapshotAndMerge) {
  Metrics a, b;
  a.AddWriteBytes(10);
  a.AddThreadCpuNanos(1, 50);
  b.AddWriteBytes(32);
  b.AddThreadCpuNanos(1, 8);
  b.registry().histogram("custom")->Record(4);
  a.Merge(b);
  MetricsSnapshot snap = a.Snapshot();
  EXPECT_EQ(snap.write_bytes, 42u);
  EXPECT_EQ(snap.thread_cpu_nanos[1], 58u);
  // Named metrics roll up through the same merge.
  EXPECT_EQ(a.registry().histogram("custom")->count(), 1u);
}

TEST(MetricsFacadeTest, ResetClearsEverything) {
  Metrics m;
  m.AddCpuNanos(5);
  m.AddThreadCpuNanos(0, 5);
  m.registry().counter("extra")->Add(2);
  m.Reset();
  EXPECT_EQ(m.cpu_nanos(), 0u);
  EXPECT_EQ(m.thread_cpu_nanos(0), 0u);
  EXPECT_EQ(m.registry().counter("extra")->value(), 0u);
}

TEST(MetricsFacadeTest, GlobalRegistryIsGlobalMetricsRegistry) {
  EXPECT_EQ(&GlobalRegistry(), &GlobalMetrics().registry());
}

}  // namespace
}  // namespace itg
