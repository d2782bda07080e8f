// perfbench_tool: the benchmark's measuring half. It drives the library's
// public calls (CompileProgram, DynamicGraphStore::Create/ApplyMutations,
// Engine::RunOneShot/RunIncremental) on inputs it generates from a seed,
// times each call, checks the results against the native references, and
// prints one JSON object of raw samples and counters on stdout. run.py
// turns the samples into metrics.
//
//   perfbench_tool batch --workload pagerank-batch --seed 1 --dir D
//                        --rounds 4 --snapshots 8 [--trace-out F]
//   perfbench_tool serve-gen --seed 1 --batches 300 --dir D
//   perfbench_tool serve-check --dir D --applied 300 --repeats 3
//                              [--trace-out F]
//
// With --trace-out every timed call is also recorded as a span (name,
// layer, parent, batch id) and the spans are written to F at exit as a
// Chrome trace. Without it nothing is recorded.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "algos/programs.h"
#include "algos/reference.h"
#include "baselines/graphbolt.h"
#include "common/memory_budget.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "gen/rmat.h"
#include "gen/workload.h"
#include "storage/csr.h"
#include "storage/graph_store.h"

namespace {

using namespace itg;

constexpr int kThreads = 4;  // engine worker threads (nproc of the host)
constexpr int kSetups = 3;   // fresh stores per round, each with a one-shot

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_tool: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T Must(StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

// ---------------------------------------------------------------- tracing --

/// In-memory span recorder. Spans nest by a stack (the benchmark is
/// single-threaded on this side); each carries a layer and an optional
/// batch id. Recording is off unless a trace path was given; the time
/// spent recording is kept in overhead_ns so the traced run can report it.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int id = 0;
    int parent = 0;
    int batch = -1;
    uint64_t pool_busy_ns = 0;  // thread-pool busy time inside the span
  };

  void Enable() { on_ = true; }

  int Open(const std::string& name, const std::string& layer, int batch) {
    if (!on_) return 0;
    const int64_t t0 = NowNs();
    Span s;
    s.name = name;
    s.layer = layer;
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.batch = batch;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    overhead_ns_ += NowNs() - t0;
    return spans_.back().id;
  }

  void Close(int id, int64_t start_ns, int64_t end_ns) {
    if (!on_ || id == 0) return;
    const int64_t t0 = NowNs();
    Span& s = spans_[static_cast<size_t>(id - 1)];
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    stack_.pop_back();
    overhead_ns_ += NowNs() - t0;
  }

  void SetPoolBusy(int id, uint64_t nanos) {
    if (on_ && id != 0) spans_[static_cast<size_t>(id - 1)].pool_busy_ns = nanos;
  }

  int64_t overhead_ns() const { return overhead_ns_; }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      if (!first) out << ",";
      first = false;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1",
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer << "\","
          << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"batch\":" << s.batch
          << ",\"pool_busy_ns\":" << s.pool_busy_ns << "}}";
    }
    out << "]}\n";
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int64_t overhead_ns_ = 0;
};

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

/// Times one region; records it as a span when tracing is on.
class Timed {
 public:
  Timed(const std::string& name, const std::string& layer, int batch = -1)
      : id_(GlobalTracer().Open(name, layer, batch)), start_(NowNs()) {}
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Attaches the engine run's RunStats::busy_nanos to the span.
  void SetPoolBusy(uint64_t nanos) { GlobalTracer().SetPoolBusy(id_, nanos); }

  /// Ends the region (idempotent) and returns its length in seconds.
  double Stop() {
    if (end_ == 0) {
      end_ = NowNs();
      GlobalTracer().Close(id_, start_, end_);
    }
    return static_cast<double>(end_ - start_) / 1e9;
  }

 private:
  int id_;
  int64_t start_;
  int64_t end_ = 0;
};

// ------------------------------------------------------------- JSON out --

/// Flat JSON object writer: named scalars and arrays of doubles.
class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Field(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Field(key, "\"" + v + "\"");
  }
  void Array(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    Field(key, s + "]");
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + raw;
  }
  std::string body_;
};

// ---------------------------------------------------------------- args --

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  return args;
}

std::string Arg(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback = "") {
  auto it = args.find(key);
  if (it != args.end()) return it->second;
  if (fallback.empty()) Die("missing --" + key);
  return fallback;
}

int IntArg(const std::map<std::string, std::string>& args,
           const std::string& key, const std::string& fallback = "") {
  return std::stoi(Arg(args, key, fallback));
}

/// Returns the allocator's free memory to the kernel, then restarts the
/// kernel's peak-RSS tracking (VmHWM), so the next peak counts the memory
/// in use from here on and not what earlier rounds left cached.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

/// Applies canonical or directed deltas to an edge set.
void ApplyToSet(const std::vector<EdgeDelta>& batch,
                std::unordered_set<Edge, EdgeHash>* edges) {
  for (const EdgeDelta& d : batch) {
    if (d.mult > 0) {
      edges->insert(d.edge);
    } else {
      edges->erase(d.edge);
    }
  }
}

std::vector<EdgeDelta> Mirrored(const std::vector<EdgeDelta>& batch) {
  std::vector<EdgeDelta> out;
  out.reserve(batch.size() * 2);
  for (const EdgeDelta& d : batch) {
    out.push_back(d);
    out.push_back({{d.edge.dst, d.edge.src}, d.mult});
  }
  return out;
}

// Registry counters the storage layer exports, read around each call.
struct IoCounters {
  uint64_t write_bytes = 0;
  uint64_t read_bytes = 0;
  uint64_t page_reads = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;

  static IoCounters Read(Metrics* m) {
    IoCounters c;
    c.write_bytes = m->write_bytes();
    c.read_bytes = m->read_bytes();
    c.page_reads = m->page_reads();
    c.hits = m->registry().counter("buffer_pool.hits")->value();
    c.misses = m->registry().counter("buffer_pool.misses")->value();
    return c;
  }
  IoCounters Minus(const IoCounters& o) const {
    return {write_bytes - o.write_bytes, read_bytes - o.read_bytes,
            page_reads - o.page_reads, hits - o.hits, misses - o.misses};
  }
};

/// Walk and Update operator time and the evaluation count of one run's
/// EXPLAIN ANALYZE profile.
struct ProfileSums {
  double walk_s = 0;
  double update_s = 0;
  uint64_t evals = 0;

  static ProfileSums Of(const gsa::ExecutionProfile& profile) {
    ProfileSums p;
    for (const auto& [id, entry] : profile.ops()) {
      p.evals += entry.counters.evals;
      if (entry.op == "Walk") p.walk_s += entry.counters.wall_nanos / 1e9;
      if (entry.op == "Apply" && entry.detail == "Update") {
        p.update_s += entry.counters.wall_nanos / 1e9;
      }
    }
    return p;
  }
};

/// One store + compiled program + engine over `edges`, each step timed.
struct Pipeline {
  std::unique_ptr<Metrics> metrics = std::make_unique<Metrics>();
  std::unique_ptr<DynamicGraphStore> store;
  std::unique_ptr<CompiledProgram> program;
  std::unique_ptr<Engine> engine;
  std::string dir;
  double create_s = 0;
  double compile_s = 0;

  Pipeline(const std::string& store_dir, VertexId n, std::vector<Edge> edges,
           const std::string& source, const EngineOptions& eopt) {
    dir = store_dir;
    std::filesystem::create_directories(dir);
    {
      Timed t("storage.create", "storage");
      store = Must(DynamicGraphStore::Create(dir + "/g", n, std::move(edges),
                                             DynamicGraphStore::Options{},
                                             metrics.get()),
                   "DynamicGraphStore::Create");
      create_s = t.Stop();
    }
    {
      Timed t("compiler.compile", "compiler");
      program = Must(CompileProgram(source), "CompileProgram");
      compile_s = t.Stop();
    }
    engine = std::make_unique<Engine>(store.get(), program.get(), eopt);
  }
  ~Pipeline() {
    engine.reset();
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
};

/// Samples of one run, one vector per quantity.
using Samples = std::map<std::string, std::vector<double>>;

void PrintSamples(const Samples& samples, JsonOut* out) {
  for (const auto& [key, values] : samples) out->Array(key, values);
}

/// Runs the one-shot on `p` and records what every one-shot yields: its
/// time, the profile's Walk/Update time and evaluations, the pool's busy
/// time and steals, and the storage counters.
Status TimedOneShot(Pipeline* p, int id, Samples* s) {
  const IoCounters io0 = IoCounters::Read(p->metrics.get());
  Status st;
  {
    Timed t("engine.oneshot", "engine", id);
    st = p->engine->RunOneShot(0);
    (*s)["oneshot_s"].push_back(t.Stop());
    t.SetPoolBusy(p->engine->last_stats().busy_nanos);
  }
  if (!st.ok()) return st;
  const IoCounters io = IoCounters::Read(p->metrics.get()).Minus(io0);
  const RunStats& rs = p->engine->last_stats();
  const ProfileSums prof = ProfileSums::Of(p->engine->last_profile());
  (*s)["engine_walk_s"].push_back(prof.walk_s);
  (*s)["engine_update_s"].push_back(prof.update_s);
  (*s)["engine_oneshot_edges"].push_back(static_cast<double>(rs.edges_scanned));
  (*s)["engine_oneshot_evals"].push_back(static_cast<double>(prof.evals));
  (*s)["storage_oneshot_write_mb"].push_back(io.write_bytes / 1e6);
  (*s)["storage_pool_hit_rate"].push_back(
      io.hits + io.misses ? static_cast<double>(io.hits) / (io.hits + io.misses)
                          : 0.0);
  (*s)["storage_page_reads"].push_back(static_cast<double>(io.page_reads));
  (*s)["pool_busy_s"].push_back(rs.busy_nanos / 1e9);
  (*s)["pool_threads"].push_back(rs.threads);
  (*s)["pool_steals"].push_back(static_cast<double>(rs.steals));
  return st;
}

/// The same one-shot at one thread, twice: the scaling baseline.
void TimeOneThread(const std::string& dir, VertexId n,
                   const std::vector<Edge>& edges, const std::string& source,
                   EngineOptions eopt, Samples* s) {
  eopt.num_threads = 1;
  for (int r = 0; r < 2; ++r) {
    Timed phase("scaling", "bench", r);
    Pipeline p(dir, n, edges, source, eopt);
    Timed t("engine.oneshot_1t", "engine", r);
    if (!p.engine->RunOneShot(0).ok()) Die("one-thread one-shot failed");
    (*s)["engine_oneshot_1t_s"].push_back(t.Stop());
  }
}

// ------------------------------------------------------------ batch mode --

struct BatchSpec {
  int scale;
  bool symmetric;
  size_t batch_size;
  std::string source;
  int supersteps;
  bool pagerank;  // else triangle count
};

BatchSpec SpecFor(const std::string& workload) {
  if (workload == "pagerank-batch") {
    return {19, false, 2000, QuantizedPageRankProgram(), 10, true};
  }
  if (workload == "triangles-batch") {
    return {17, true, 300, TriangleCountProgram(), -1, false};
  }
  Die("unknown batch workload " + workload);
}

/// Compares the engine's result with the native reference on `edges`
/// (stored form). Returns an error text, empty when they agree.
std::string CheckResult(const BatchSpec& spec, const Engine& engine,
                        VertexId n, const std::vector<Edge>& edges) {
  Csr csr = Csr::FromEdges(n, edges);
  if (spec.pagerank) {
    const std::vector<double> want = RefQuantizedPageRank(csr, 10);
    const int rank = engine.AttrIndex("rank");
    for (VertexId v = 0; v < n; ++v) {
      if (engine.AttrValue(rank, v) != want[static_cast<size_t>(v)]) {
        return "rank of vertex " + std::to_string(v) + " differs";
      }
    }
    return "";
  }
  const uint64_t want = RefTriangleCount(csr);
  const double got = engine.GlobalValue(engine.GlobalIndex("cnts"))[0];
  if (static_cast<uint64_t>(got) != want) {
    return "cnts " + std::to_string(got) + " != " + std::to_string(want);
  }
  return "";
}

int RunBatch(const std::map<std::string, std::string>& args) {
  const std::string workload = Arg(args, "workload");
  const uint64_t seed = std::stoull(Arg(args, "seed"));
  const std::string dir = Arg(args, "dir");
  const int rounds = IntArg(args, "rounds");
  const int snapshots = IntArg(args, "snapshots");
  const std::string trace_out = Arg(args, "trace-out", "-");
  const bool traced = trace_out != "-";
  if (traced) GlobalTracer().Enable();
  const BatchSpec spec = SpecFor(workload);

  Samples samples;
  auto add = [&samples](const std::string& key, double v) {
    samples[key].push_back(v);
  };
  std::vector<std::string> errors;      // failed operations
  std::vector<std::string> mismatches;  // wrong results
  int attempted = 0;
  int failed = 0;
  double snapshot_wall_s = 0;  // back-to-back snapshot time, all rounds

  // Inputs: RMAT edges from the seed, a 90% sample as G0 and the batches
  // (75:25 insert:delete), made once before any timing. Every round
  // replays the same G0 and batches on fresh stores.
  const VertexId n = RmatVertices(spec.scale);
  std::vector<Edge> g0;
  std::vector<std::vector<EdgeDelta>> batches;
  std::vector<Edge> final_edges;
  {
    Timed t("gen", "bench");
    RmatOptions ropt;
    ropt.seed = seed;
    MutationWorkload wl(GenerateRmat(spec.scale, ropt), 0.9, seed,
                        spec.symmetric);
    g0 = wl.initial_edges();
    std::unordered_set<Edge, EdgeHash> current(g0.begin(), g0.end());
    for (int k = 0; k < snapshots; ++k) {
      batches.push_back(wl.NextBatch(spec.batch_size, 0.75));
      ApplyToSet(batches.back(), &current);
    }
    final_edges.assign(current.begin(), current.end());
    if (spec.symmetric) {
      g0 = SymmetrizeEdges(g0);
      final_edges = SymmetrizeEdges(final_edges);
      for (auto& b : batches) b = Mirrored(b);
    }
  }

  EngineOptions eopt;
  eopt.fixed_supersteps = spec.supersteps;
  eopt.num_threads = kThreads;

  for (int round = 0; round < rounds; ++round) {
    Timed round_span("round", "bench", round);
    ResetPeakRss();
    // kSetups fresh pipelines (store build + compile), each running the
    // one-shot on G0. Every one-shot must reach the same state digest;
    // the last is checked against the reference and takes the snapshots.
    std::unique_ptr<Pipeline> pipe;
    bool broken = false;
    uint64_t digest = 0;
    for (int r = 0; r < kSetups && !broken; ++r) {
      pipe.reset();
      {
        Timed t("setup", "bench", r);
        pipe = std::make_unique<Pipeline>(dir + "/store", n, g0, spec.source,
                                          eopt);
      }
      add("setup_s", pipe->create_s + pipe->compile_s);
      add("storage_create_s", pipe->create_s);
      add("compiler_compile_ms", pipe->compile_s * 1e3);

      ++attempted;
      const Status st = TimedOneShot(pipe.get(), r, &samples);
      if (!st.ok()) {
        ++failed;
        broken = true;
        errors.push_back("one-shot: " + st.ToString());
        break;
      }
      const RunStats& rs = pipe->engine->last_stats();
      if (r > 0 && rs.state_digest != digest) {
        mismatches.push_back("one-shot digests differ between stores");
      }
      digest = rs.state_digest;
    }
    if (!broken) {
      Timed t("check.oneshot", "bench", round);
      const std::string bad = CheckResult(spec, *pipe->engine, n, g0);
      if (!bad.empty()) mismatches.push_back("one-shot on G0: " + bad);
    }

    // Snapshots: ApplyMutations + RunIncremental per batch, back to back.
    const int64_t snap_begin = NowNs();
    {
      Timed phase("snapshots", "bench", round);
      for (int k = 0; k < snapshots; ++k) {
        ++attempted;
        if (broken) {
          ++failed;
          continue;
        }
        Timed snap("snapshot", "bench", k);
        const IoCounters io0 = IoCounters::Read(pipe->metrics.get());
        StatusOr<Timestamp> t_or = Status::OK();
        {
          Timed t("storage.apply", "storage", k);
          t_or = pipe->store->ApplyMutations(batches[static_cast<size_t>(k)]);
          add("storage_apply_ms", t.Stop() * 1e3);
        }
        Status st = t_or.status();
        if (st.ok()) {
          Timed t("engine.incremental", "engine", k);
          st = pipe->engine->RunIncremental(t_or.value());
          t.SetPoolBusy(pipe->engine->last_stats().busy_nanos);
        }
        add("incremental_s", snap.Stop());
        if (!st.ok()) {
          ++failed;
          broken = true;
          errors.push_back("snapshot " + std::to_string(k) + ": " +
                           st.ToString());
          continue;
        }
        const IoCounters io = IoCounters::Read(pipe->metrics.get()).Minus(io0);
        const RunStats& rs = pipe->engine->last_stats();
        add("storage_write_mb", io.write_bytes / 1e6);
        add("storage_read_mb", io.read_bytes / 1e6);
        add("engine_inc_edges", static_cast<double>(rs.edges_scanned));
        add("engine_inc_emissions", static_cast<double>(rs.emissions_applied));
        add("engine_walks_pruned", static_cast<double>(rs.delta_walks_pruned));
        add("engine_inc_update_s",
            ProfileSums::Of(pipe->engine->last_profile()).update_s);
      }
    }
    snapshot_wall_s += (NowNs() - snap_begin) / 1e9;
    add("peak_rss_mb", PeakRssMb());
    if (!broken) {
      Timed t("check.final", "bench", round);
      const std::string bad = CheckResult(spec, *pipe->engine, n, final_edges);
      if (!bad.empty()) mismatches.push_back("after the snapshots: " + bad);
    }
  }

  // Traced run only: the same one-shot at one thread, and the
  // GraphBolt-style baseline over the same G0 and batches.
  if (traced) {
    TimeOneThread(dir + "/store1t", n, g0, spec.source, eopt, &samples);
    if (spec.pagerank) {
      Timed phase("baselines", "bench");
      MemoryBudget budget(0);
      GraphBoltEngine gb(GraphBoltEngine::Algo::kPageRank, 1, 10, &budget);
      {
        Timed t("baselines.graphbolt_initial", "baselines");
        if (!gb.RunInitial(n, g0).ok()) Die("GraphBolt initial run failed");
        add("baselines_graphbolt_oneshot_s", t.Stop());
      }
      for (int k = 0; k < snapshots; ++k) {
        Timed t("baselines.graphbolt_refine", "baselines", k);
        if (!gb.ApplyMutationsAndRefine(batches[static_cast<size_t>(k)])
                 .ok()) {
          Die("GraphBolt refine failed");
        }
        add("baselines_graphbolt_incremental_s", t.Stop());
      }
    }
  }

  JsonOut out;
  out.Num("attempted", attempted);
  out.Num("failed", failed);
  out.Str("mismatch", mismatches.empty() ? "" : mismatches.front());
  out.Str("error", errors.empty() ? "" : errors.front());
  PrintSamples(samples, &out);
  out.Num("snapshot_wall_s", snapshot_wall_s);
  out.Num("trace_overhead_ns",
          static_cast<double>(GlobalTracer().overhead_ns()));
  if (traced) GlobalTracer().Write(trace_out);
  out.Print();
  return 0;
}

// ------------------------------------------------------------ serve mode --

/// Serving inputs: symmetrized RMAT-16 as canonical (u < v) edges, a 90%
/// sample as the daemon's base graph and `batches` batches of 16 ops
/// (12 inserts, 4 deletes). Ids stay below the base graph's largest id
/// + 1, which is the vertex count the daemon derives from its edge file.
struct ServeInputs {
  std::vector<Edge> g0;
  std::vector<std::vector<EdgeDelta>> batches;
};

ServeInputs MakeServeInputs(uint64_t seed, int num_batches) {
  RmatOptions ropt;
  ropt.seed = seed;
  std::unordered_set<Edge, EdgeHash> seen;
  std::vector<Edge> all;
  for (const Edge& e : GenerateRmat(16, ropt)) {
    if (e.src == e.dst) continue;
    const Edge c{std::min(e.src, e.dst), std::max(e.src, e.dst)};
    if (seen.insert(c).second) all.push_back(c);
  }
  Rng rng(seed ^ 0x5e7e5e7eull);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Uniform(i)]);
  }
  const size_t base = all.size() * 9 / 10;
  ServeInputs in;
  in.g0.assign(all.begin(), all.begin() + static_cast<long>(base));
  VertexId max_v = 0;
  for (const Edge& e : in.g0) max_v = std::max(max_v, e.dst);
  std::vector<Edge> pool;
  for (size_t i = base; i < all.size(); ++i) {
    if (all[i].dst <= max_v) pool.push_back(all[i]);
  }
  std::vector<Edge> current = in.g0;
  std::unordered_set<Edge, EdgeHash> present(current.begin(), current.end());
  for (int b = 0; b < num_batches; ++b) {
    std::vector<EdgeDelta> batch;
    for (int i = 0; i < 4; ++i) {
      const size_t j = rng.Uniform(current.size());
      batch.push_back({current[j], Multiplicity{-1}});
      present.erase(current[j]);
      current[j] = current.back();
      current.pop_back();
    }
    for (int i = 0; i < 12; ++i) {
      Edge e;
      if (!pool.empty()) {
        e = pool.back();
        pool.pop_back();
      } else {
        do {
          const VertexId a = static_cast<VertexId>(rng.Uniform(max_v + 1));
          const VertexId c = static_cast<VertexId>(rng.Uniform(max_v + 1));
          e = {std::min(a, c), std::max(a, c)};
        } while (e.src == e.dst || present.count(e) != 0);
      }
      batch.push_back({e, Multiplicity{1}});
      present.insert(e);
      current.push_back(e);
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

/// Writes the daemon's base edge file and the batches (one line per
/// batch: the inserts, then "|", then the deletes, as flat id pairs).
int ServeGen(const std::map<std::string, std::string>& args) {
  const ServeInputs in = MakeServeInputs(std::stoull(Arg(args, "seed")),
                                         IntArg(args, "batches"));
  const std::string dir = Arg(args, "dir");
  std::ofstream g0(dir + "/g0.txt");
  VertexId max_v = 0;
  for (const Edge& e : in.g0) {
    g0 << e.src << ' ' << e.dst << '\n';
    max_v = std::max(max_v, e.dst);
  }
  std::ofstream batches(dir + "/batches.txt");
  for (const auto& batch : in.batches) {
    for (int sign : {1, -1}) {
      if (sign < 0) batches << '|';
      for (const EdgeDelta& d : batch) {
        if (d.mult == sign) batches << ' ' << d.edge.src << ' ' << d.edge.dst;
      }
    }
    batches << '\n';
  }
  JsonOut out;
  out.Num("num_vertices", max_v + 1);
  out.Num("base_edges", static_cast<double>(in.g0.size()));
  out.Print();
  return 0;
}

/// The drain check's reference: WCC one-shot over G0 plus the first
/// `applied` batches, run `repeats` times on fresh stores. Prints the
/// state digest (which every view's last ΔQ digest must equal) and the
/// timings of each run.
int ServeCheck(const std::map<std::string, std::string>& args) {
  const std::string dir = Arg(args, "dir");
  const int applied = IntArg(args, "applied");
  const int repeats = IntArg(args, "repeats");
  const std::string trace_out = Arg(args, "trace-out", "-");
  const bool traced = trace_out != "-";
  if (traced) GlobalTracer().Enable();

  std::unordered_set<Edge, EdgeHash> edges;
  VertexId n = 0;
  {
    Timed t("check.load", "bench");
    std::ifstream g0(dir + "/g0.txt");
    Edge e;
    while (g0 >> e.src >> e.dst) edges.insert(e);
    std::ifstream in(dir + "/batches.txt");
    std::string line;
    for (int b = 0; b < applied && std::getline(in, line); ++b) {
      const size_t bar = line.find('|');
      std::istringstream ins(line.substr(0, bar)), del(line.substr(bar + 1));
      while (del >> e.src >> e.dst) edges.erase(e);
      while (ins >> e.src >> e.dst) edges.insert(e);
    }
    for (const Edge& x : edges) n = std::max(n, x.dst + 1);
    // The daemon sizes its vertex space from the base edge file.
    std::ifstream again(dir + "/g0.txt");
    while (again >> e.src >> e.dst) n = std::max(n, e.dst + 1);
  }
  const std::vector<Edge> sym =
      SymmetrizeEdges(std::vector<Edge>(edges.begin(), edges.end()));

  EngineOptions eopt;
  eopt.num_threads = kThreads;
  eopt.record_history = false;
  Samples samples;
  uint64_t digest = 0;
  for (int r = 0; r < repeats; ++r) {
    Timed phase("check.oneshot", "bench", r);
    Pipeline p(dir + "/check", n, sym, WccProgram(), eopt);
    samples["storage_create_s"].push_back(p.create_s);
    samples["compiler_compile_ms"].push_back(p.compile_s * 1e3);
    if (!TimedOneShot(&p, r, &samples).ok()) Die("WCC one-shot failed");
    const uint64_t d = p.engine->last_stats().state_digest;
    if (r > 0 && d != digest) Die("WCC one-shot digests differ between runs");
    digest = d;
  }
  if (traced) {
    TimeOneThread(dir + "/check1t", n, sym, WccProgram(), eopt, &samples);
  }
  JsonOut out;
  out.Str("digest", std::to_string(digest));
  PrintSamples(samples, &out);
  out.Num("trace_overhead_ns", static_cast<double>(GlobalTracer().overhead_ns()));
  if (traced) GlobalTracer().Write(trace_out);
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_tool batch|serve-gen|serve-check ...");
  const std::string mode = argv[1];
  const auto args = ParseArgs(argc, argv);
  if (mode == "batch") return RunBatch(args);
  if (mode == "serve-gen") return ServeGen(args);
  if (mode == "serve-check") return ServeCheck(args);
  Die("unknown mode " + mode);
}
