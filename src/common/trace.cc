#include "common/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/flight_recorder.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics_registry.h"

namespace itg {

namespace internal_trace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_flight{false};
std::atomic<bool> g_stacks{false};

namespace {

// Spans discarded because a per-thread buffer was full (satellite fix:
// losses used to be impossible only because buffers grew without bound;
// now they are bounded and every loss is counted and reported).
std::atomic<uint64_t> g_dropped{0};
std::atomic<size_t> g_max_events_per_thread{
    Tracer::kDefaultMaxEventsPerThread};

}  // namespace

namespace {

// Per-thread event buffer. Buffers are registered once per thread and leak
// intentionally (like GlobalMetrics) so events survive thread exit and the
// writer can run at process exit. Each buffer carries its own mutex so a
// snapshot/export can run while other threads keep recording.
// Stored frames of the live span stack; deeper nesting is still counted
// in live_depth (so pushes and pops balance) but not sampled.
constexpr int kMaxLiveDepth = 64;

struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::string thread_name;
  int tid = 0;
  // Live span stack for the sampling wall-profiler. Single writer (the
  // owning thread); the sampler acquires live_depth and then reads the
  // published frames. Frames are static string literals, so a racing
  // sample can at worst be one frame stale — never invalid.
  std::array<std::atomic<const char*>, kMaxLiveDepth> live_stack{};
  std::atomic<int> live_depth{0};
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;
  int next_tid = 1;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}

ThreadBuffer* GetThreadBuffer() {
  thread_local ThreadBuffer* buf = [] {
    auto* b = new ThreadBuffer();
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return buf;
}

uint64_t RawNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Epoch() {
  static const uint64_t epoch = RawNanos();
  return epoch;
}

}  // namespace

// Microseconds with nanosecond precision kept in the fraction.
void AppendMicros(uint64_t nanos, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(nanos / 1000),
                static_cast<unsigned long long>(nanos % 1000));
  out->append(buf);
}

namespace {

void FlushEnvTraceAtExit() {
  const std::string& path = Tracer::env_path();
  if (path.empty()) return;
  Status s = Tracer::WriteTo(path);
  if (!s.ok()) {
    std::fprintf(stderr, "[itg] failed to write ITG_TRACE file %s: %s\n",
                 path.c_str(), s.ToString().c_str());
  }
}

// Enables tracing at startup when ITG_TRACE names an output path.
struct EnvInit {
  EnvInit() {
    if (!Tracer::env_path().empty()) {
      Tracer::Enable();
      std::atexit(FlushEnvTraceAtExit);
    }
  }
};
EnvInit g_env_init;

}  // namespace

uint64_t NowNanos() { return RawNanos() - Epoch(); }

void PushLiveSpan(const char* name) {
  ThreadBuffer* buf = GetThreadBuffer();
  const int d = buf->live_depth.load(std::memory_order_relaxed);
  if (d < kMaxLiveDepth) {
    buf->live_stack[static_cast<size_t>(d)].store(name,
                                                  std::memory_order_relaxed);
  }
  // Publish the frame before the depth that exposes it.
  buf->live_depth.store(d + 1, std::memory_order_release);
}

void PopLiveSpan() {
  ThreadBuffer* buf = GetThreadBuffer();
  const int d = buf->live_depth.load(std::memory_order_relaxed);
  if (d > 0) buf->live_depth.store(d - 1, std::memory_order_release);
}

void Emit(const TraceEvent& event, bool force_buffer) {
  ThreadBuffer* buf = GetThreadBuffer();
  if (g_enabled.load(std::memory_order_relaxed) || force_buffer) {
    std::lock_guard<std::mutex> lock(buf->mu);
    if (buf->events.size() <
        g_max_events_per_thread.load(std::memory_order_relaxed)) {
      buf->events.push_back(event);
    } else {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      // Mirrored into the registry so /metrics surfaces the loss live.
      static Counter* dropped_counter =
          GlobalRegistry().counter("trace.spans_dropped");
      dropped_counter->Increment();
    }
  }
  if (g_flight.load(std::memory_order_relaxed)) {
    FlightRecorder::Global().Record(event, buf->tid);
  }
}

}  // namespace internal_trace

using internal_trace::GetRegistry;
using internal_trace::GetThreadBuffer;
using internal_trace::Registry;
using internal_trace::ThreadBuffer;

void Tracer::Enable() {
  internal_trace::Epoch();  // pin the epoch before the first event
  internal_trace::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() {
  internal_trace::g_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::SetStacksEnabled(bool on) {
  internal_trace::g_stacks.store(on, std::memory_order_relaxed);
}

std::vector<std::string> Tracer::SampleLiveStacks() {
  std::vector<std::string> out;
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (ThreadBuffer* buf : r.buffers) {
    int depth = buf->live_depth.load(std::memory_order_acquire);
    if (depth <= 0) continue;  // idle threads don't produce samples
    depth = std::min(depth, internal_trace::kMaxLiveDepth);
    std::string folded;
    {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      folded = buf->thread_name.empty() ? "tid-" + std::to_string(buf->tid)
                                        : buf->thread_name;
    }
    for (int i = 0; i < depth; ++i) {
      const char* frame =
          buf->live_stack[static_cast<size_t>(i)].load(
              std::memory_order_relaxed);
      if (frame == nullptr) break;  // racing first push; take what we have
      folded.push_back(';');
      folded.append(frame);
    }
    out.push_back(std::move(folded));
  }
  return out;
}

int Tracer::LiveStackDepth() {
  return GetThreadBuffer()->live_depth.load(std::memory_order_relaxed);
}

void Tracer::Reset() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (ThreadBuffer* buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
  }
  internal_trace::g_dropped.store(0, std::memory_order_relaxed);
  GlobalRegistry().counter("trace.spans_dropped")->Reset();
}

uint64_t Tracer::dropped_count() {
  return internal_trace::g_dropped.load(std::memory_order_relaxed);
}

void Tracer::set_max_events_per_thread(size_t cap) {
  internal_trace::g_max_events_per_thread.store(
      cap == 0 ? kDefaultMaxEventsPerThread : cap,
      std::memory_order_relaxed);
}

size_t Tracer::max_events_per_thread() {
  return internal_trace::g_max_events_per_thread.load(
      std::memory_order_relaxed);
}

size_t Tracer::event_count() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  size_t total = 0;
  for (ThreadBuffer* buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    total += buf->events.size();
  }
  return total;
}

std::vector<Tracer::CollectedEvent> Tracer::Collect() {
  std::vector<CollectedEvent> out;
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (ThreadBuffer* buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    for (const internal_trace::TraceEvent& e : buf->events) {
      CollectedEvent c;
      c.name = e.name;
      c.cat = e.cat;
      c.ts_nanos = e.ts_nanos;
      c.dur_nanos = e.dur_nanos;
      c.arg = e.arg;
      c.has_arg = e.has_arg;
      c.tid = buf->tid;
      c.phase = e.phase;
      c.flow_id = e.flow_id;
      out.push_back(std::move(c));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CollectedEvent& a, const CollectedEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.ts_nanos < b.ts_nanos;
            });
  return out;
}

std::string Tracer::ToJson() {
  std::string out;
  out.reserve(1 << 16);
  out.append("{\"traceEvents\":[");
  bool first = true;

  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (ThreadBuffer* buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    if (!buf->thread_name.empty()) {
      if (!first) out.push_back(',');
      first = false;
      out.append(
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
      out.append(std::to_string(buf->tid));
      out.append(",\"args\":{\"name\":");
      AppendJsonString(buf->thread_name, &out);
      out.append("}}");
    }
    for (const internal_trace::TraceEvent& e : buf->events) {
      if (!first) out.push_back(',');
      first = false;
      out.append("{\"name\":");
      AppendJsonString(e.name, &out);
      out.append(",\"cat\":");
      AppendJsonString(e.cat, &out);
      out.append(",\"ph\":\"");
      out.push_back(e.phase);
      out.append("\",\"pid\":1,\"tid\":");
      out.append(std::to_string(buf->tid));
      out.append(",\"ts\":");
      internal_trace::AppendMicros(e.ts_nanos, &out);
      if (e.phase == 'X') {
        out.append(",\"dur\":");
        internal_trace::AppendMicros(e.dur_nanos == 0 ? 1 : e.dur_nanos,
                                     &out);
      } else if (e.phase == 'i') {
        out.append(",\"s\":\"t\"");
      } else if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
        // Flow events carry the correlation id; the finish event binds to
        // the enclosing slice ("bp":"e") so the arrow lands on the span
        // that completed the flow rather than the next slice to start.
        out.append(",\"id\":\"");
        out.append(std::to_string(e.flow_id));
        out.push_back('"');
        if (e.phase == 'f') out.append(",\"bp\":\"e\"");
      }
      if (e.has_arg) {
        out.append(",\"args\":{\"value\":");
        out.append(std::to_string(e.arg));
        out.append("}");
      }
      out.append("}");
    }
  }
  out.append("],\"droppedSpans\":");
  out.append(std::to_string(
      internal_trace::g_dropped.load(std::memory_order_relaxed)));
  out.append(",\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

Status Tracer::WriteTo(const std::string& path) {
  std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

void Tracer::SetThreadName(const std::string& name) {
  ThreadBuffer* buf = GetThreadBuffer();
  std::lock_guard<std::mutex> lock(buf->mu);
  buf->thread_name = name;
}

const std::string& Tracer::env_path() {
  static const std::string* path = [] {
    const char* env = std::getenv("ITG_TRACE");
    return new std::string(env == nullptr ? "" : env);
  }();
  return *path;
}

void TraceSpan::Begin(const char* name, const char* cat, int64_t arg,
                      bool record, bool push) {
  if (push) {
    internal_trace::PushLiveSpan(name);
    pushed_ = true;
  }
  if (record) {
    name_ = name;
    cat_ = cat;
    arg_ = arg;
    buffered_ = Tracer::enabled();
    t0_ = internal_trace::NowNanos();
  }
}

void TraceSpan::End() {
  if (pushed_) internal_trace::PopLiveSpan();
  if (name_ == nullptr) return;  // live-stack-only span, nothing buffered
  // If tracing was disabled mid-span, still record it: the begin was
  // observed, and a dangling begin would corrupt nesting in the export.
  uint64_t t1 = internal_trace::NowNanos();
  internal_trace::Emit({name_, cat_, t0_, t1 - t0_, arg_, 'X',
                        arg_ != Tracer::kNoArg},
                       /*force_buffer=*/buffered_);
}

}  // namespace itg
