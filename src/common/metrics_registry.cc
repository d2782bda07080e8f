#include "common/metrics_registry.h"

#include "common/json.h"

namespace itg {

namespace {

template <typename T>
T* GetOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>* m,
               std::string_view name) {
  auto it = m->find(name);
  if (it == m->end()) {
    it = m->emplace(std::string(name), std::make_unique<T>()).first;
  }
  return it->second.get();
}

void AppendJsonKey(const std::string& name, std::string* out) {
  AppendJsonString(name, out);
  out->push_back(':');
}

// Index of the bucket holding rank `rank` within `total` samples walked
// as cumulative counts; the one shared rank rule for both percentile
// entry points (and mirrored by tools/histogram_math.py).
uint64_t RankOf(double p, uint64_t total) {
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  return rank;
}

}  // namespace

uint64_t Histogram::PercentileUpperBound(double p) const {
  uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) total += bucket_count(b);
  if (total == 0) return 0;
  const uint64_t rank = RankOf(p, total);
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket_count(b);
    if (seen > rank) {
      if (b + 1 >= kBuckets) return ~uint64_t{0};
      return BucketLowerBound(b + 1);
    }
  }
  return ~uint64_t{0};
}

uint64_t MetricsRegistry::HistogramSnapshot::PercentileUpperBound(
    double p) const {
  uint64_t total = 0;
  for (const auto& [lower, n] : buckets) total += n;
  if (total == 0) return 0;
  const uint64_t rank = RankOf(p, total);
  uint64_t seen = 0;
  for (const auto& [lower, n] : buckets) {
    seen += n;
    if (seen > rank) {
      const int b = Histogram::BucketOf(lower);
      if (b + 1 >= Histogram::kBuckets) return ~uint64_t{0};
      return Histogram::BucketLowerBound(b + 1);
    }
  }
  return ~uint64_t{0};
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(&counters_, name);
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(&gauges_, name);
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(&histograms_, name);
}

namespace {

template <typename T>
bool RemoveByName(std::map<std::string, std::unique_ptr<T>, std::less<>>* m,
                  std::string_view name) {
  auto it = m->find(name);
  if (it == m->end()) return false;
  m->erase(it);
  return true;
}

}  // namespace

bool MetricsRegistry::RemoveCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return RemoveByName(&counters_, name);
}

bool MetricsRegistry::RemoveGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return RemoveByName(&gauges_, name);
}

bool MetricsRegistry::RemoveHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return RemoveByName(&histograms_, name);
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    // A concurrent Record() is three independent relaxed adds, so the
    // count_ cell can run ahead of the bucket tallies we read here.
    // Deriving count from the buckets makes every snapshot internally
    // consistent (Σ buckets == count) — the invariant report validators
    // and the serving smoke assert on.
    HistogramSnapshot hs;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      uint64_t n = h->bucket_count(b);
      if (n != 0) {
        hs.buckets.emplace_back(Histogram::BucketLowerBound(b), n);
        hs.count += n;
      }
    }
    hs.sum = h->sum();
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  // Snapshot `other` first so we never hold both registry mutexes at once.
  Snapshot snap = other.Snap();
  for (const auto& [name, v] : snap.counters) counter(name)->Add(v);
  for (const auto& [name, v] : snap.gauges) gauge(name)->Add(v);
  for (const auto& [name, hs] : snap.histograms) {
    histogram(name)->MergeRaw(hs.count, hs.sum, hs.buckets);
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ToJson() const {
  Snapshot snap = Snap();
  std::string out;
  out.append("{\"counters\":{");
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonKey(name, &out);
    out.append(std::to_string(v));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonKey(name, &out);
    out.append(std::to_string(v));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, hs] : snap.histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonKey(name, &out);
    out.append("{\"count\":");
    out.append(std::to_string(hs.count));
    out.append(",\"sum\":");
    out.append(std::to_string(hs.sum));
    out.append(",\"buckets\":[");
    bool bfirst = true;
    for (const auto& [lower, n] : hs.buckets) {
      if (!bfirst) out.push_back(',');
      bfirst = false;
      out.push_back('[');
      out.append(std::to_string(lower));
      out.push_back(',');
      out.append(std::to_string(n));
      out.push_back(']');
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

TimeSeriesRing::TimeSeriesRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TimeSeriesRing::Push(uint64_t t_ms, MetricsRegistry::Snapshot snap) {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() == capacity_) {
    samples_.pop_front();
    ++evicted_;
  }
  samples_.push_back(Sample{t_ms, std::move(snap)});
}

size_t TimeSeriesRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

uint64_t TimeSeriesRing::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::vector<TimeSeriesRing::Sample> TimeSeriesRing::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Sample>(samples_.begin(), samples_.end());
}

std::string TimeSeriesRing::ToJson(uint64_t interval_ms) const {
  const std::vector<Sample> samples = Samples();
  std::string out;
  out.reserve(1 << 14);
  out.append("{\"capacity\":").append(std::to_string(capacity_));
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.append(",\"evicted\":").append(std::to_string(evicted_));
  }
  out.append(",\"interval_ms\":").append(std::to_string(interval_ms));
  out.append(",\"samples\":[");
  bool sfirst = true;
  for (const Sample& s : samples) {
    if (!sfirst) out.push_back(',');
    sfirst = false;
    out.append("{\"t_ms\":").append(std::to_string(s.t_ms));
    out.append(",\"counters\":{");
    bool first = true;
    for (const auto& [name, v] : s.snap.counters) {
      if (!first) out.push_back(',');
      first = false;
      AppendJsonKey(name, &out);
      out.append(std::to_string(v));
    }
    out.append("},\"gauges\":{");
    first = true;
    for (const auto& [name, v] : s.snap.gauges) {
      if (!first) out.push_back(',');
      first = false;
      AppendJsonKey(name, &out);
      out.append(std::to_string(v));
    }
    out.append("},\"histograms\":{");
    first = true;
    for (const auto& [name, hs] : s.snap.histograms) {
      if (!first) out.push_back(',');
      first = false;
      AppendJsonKey(name, &out);
      out.append("{\"count\":").append(std::to_string(hs.count));
      out.append(",\"sum\":").append(std::to_string(hs.sum));
      out.append(",\"p50\":")
          .append(std::to_string(hs.PercentileUpperBound(50)));
      out.append(",\"p99\":")
          .append(std::to_string(hs.PercentileUpperBound(99)));
      out.push_back('}');
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

}  // namespace itg
