#include "engine/engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <thread>

#include "common/digest.h"
#include "common/live_status.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "engine/msbfs.h"

namespace itg {

namespace {

// The superstep timeline's cpu column uses the shared ThreadCpuNanos()
// from common/resource_scope.h (via engine.h -> memory_budget.h).

/// Marks a run live on GlobalLiveStatus for the enclosing scope; EndRun
/// fires on every exit path, error returns included. A non-empty
/// query_label (EngineOptions::query_label) retags the live query first —
/// how the serving daemon's interleaved per-view runs stay attributable
/// on /statusz.
struct LiveRunScope {
  LiveRunScope(const char* phase, Timestamp t,
               const std::string& query_label) {
    if (!query_label.empty()) GlobalLiveStatus().SetQuery(query_label);
    GlobalLiveStatus().BeginRun(phase, t);
  }
  ~LiveRunScope() { GlobalLiveStatus().EndRun(); }
};

/// Test hook (EngineOptions::debug_stall_first_superstep_ms): a real
/// in-superstep sleep so the stall watchdog can be exercised end-to-end.
void MaybeInjectStall(const EngineOptions& options, Superstep s) {
  if (options.debug_stall_first_superstep_ms == 0 || s != 0) return;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(options.debug_stall_first_superstep_ms));
}

/// Attributes that are derived from the graph structure (filled per
/// snapshot) or purely positional; they are never persisted as deltas.
bool IsVirtualAttr(const std::string& name) {
  return name == "id" || name == "nbrs" || name == "in_nbrs" ||
         name == "out_nbrs" || name == "degree" || name == "in_degree" ||
         name == "out_degree";
}

/// Runs `body` for the vertices `admit` takes from positions [begin,
/// end), in order: a block of lanes at a time, or one lane at a time when
/// `one_lane`. `admit(i)` returns the vertex at position i, or -1 to skip
/// it. Returns the number of bodies run.
template <typename Admit>
uint64_t RunBody(const SlotCode& body, bool one_lane, EvalContext ctx,
                 size_t begin, size_t end, Admit&& admit, EvalFrame* frame) {
  VertexId* lanes = frame->lanes();
  ctx.rows = lanes;
  ctx.row_len = 1;
  const int block = one_lane ? 1 : kBlockLanes;
  uint64_t bodies = 0;
  int n = 0;
  auto flush = [&] {
    Execute(body, ctx, n, frame);
    bodies += static_cast<uint64_t>(n);
    n = 0;
  };
  for (size_t i = begin; i < end; ++i) {
    const VertexId v = admit(i);
    if (v < 0) continue;
    lanes[n++] = v;
    if (n == block) flush();
  }
  if (n > 0) flush();
  return bodies;
}

/// Folds one inserted contribution (`width` doubles) into `cell`: the
/// operator for groups and array monoids, and for a scalar MIN/MAX (a
/// non-null `support`) support counting of the extremum. Returns false
/// when a scalar monoid's value lost to the extremum. The record and the
/// pull paths both fold through here.
inline bool InsertContribution(lang::AccmOp op, int width, double* cell,
                               double* support, const double* value) {
  if (support == nullptr) {
    for (int i = 0; i < width; ++i) lang::AccmApply(op, &cell[i], value[i]);
    return true;
  }
  const double v = value[0];
  if (op == lang::AccmOp::kMin ? v < cell[0] : v > cell[0]) {
    cell[0] = v;
    support[0] = 1;
    return true;
  }
  if (v == cell[0]) {
    support[0] += 1;
    return true;
  }
  return false;
}

/// interp.body_runs: the Initialize and Update bodies the engine
/// interpreted, added once per phase. It gives run reports the per-run
/// Update/Initialize call volume (paper §6.2 Group 3's CPU work driver).
Counter& BodyRuns() {
  static Counter* const counter = GlobalRegistry().counter("interp.body_runs");
  return *counter;
}

}  // namespace

Engine::Engine(DynamicGraphStore* store, const CompiledProgram* program,
               const EngineOptions& options)
    : store_(store),
      program_(program),
      options_(options),
      code_(*program),
      enumerator_(program, store, store->pool(),
                  {options.window_vertices, options.multiway_intersection}) {
  // Column layout: program attrs, then the hidden contribution counter,
  // then one support column per scalar-monoid accumulator.
  const int n_attrs = num_program_attrs();
  support_attr_.assign(static_cast<size_t>(n_attrs), -1);
  for (int a = 0; a < n_attrs; ++a) {
    const lang::Type& type = program_->vertex_attrs[a].type;
    all_widths_.push_back(type.width);
    if (type.is_accumulator) accm_attrs_.push_back(a);
  }
  contribs_attr_ = static_cast<int>(all_widths_.size());
  all_widths_.push_back(1);
  for (int a : accm_attrs_) {
    if (IsMonoidScalar(a)) {
      support_attr_[a] = static_cast<int>(all_widths_.size());
      all_widths_.push_back(1);
    }
  }
  // Register the same layout in the vertex store (indices align).
  VertexStore* vs = store_->vertex_store();
  if (vs->attribute_count() == 0) {
    for (int a = 0; a < n_attrs; ++a) {
      vs->RegisterAttribute(program_->vertex_attrs[a].name, all_widths_[a]);
    }
    vs->RegisterAttribute("__contribs", 1);
    for (int a : accm_attrs_) {
      if (support_attr_[a] >= 0) {
        vs->RegisterAttribute("__support_" + program_->vertex_attrs[a].name,
                              1);
      }
    }
  }
  recompute_sets_.resize(static_cast<size_t>(n_attrs));
  monoid_marks_.resize(static_cast<size_t>(n_attrs));
  adj_stack_.resize(static_cast<size_t>(program_->walk_length()) + 2);
  // A recompute cannot take the previous superstep's share out of a
  // global accumulator, which carries a running total (DESIGN.md §6).
  one_hop_recomputable_ =
      program_->walk_length() == 1 &&
      std::none_of(program_->traverse.emissions.begin(),
                   program_->traverse.emissions.end(),
                   [](const Emission& e) { return e.is_global; });
  emits_at_depth_.assign(static_cast<size_t>(program_->walk_length()) + 1,
                         0);
  for (const Emission& e : program_->traverse.emissions) {
    emits_at_depth_.at(static_cast<size_t>(e.stmt_depth)) = 1;
  }
  pull_shape_ =
      program_->walk_length() == 1 &&
      program_->traverse.levels[0].where == nullptr &&
      std::all_of(program_->traverse.emissions.begin(),
                  program_->traverse.emissions.end(), [](const Emission& e) {
                    return !e.is_global && e.start_invariant &&
                           e.stmt_depth == 1 && e.target_depth == 1;
                  });
  program_->RegisterOperators(&profile_);
  CacheProfileCells();
  num_threads_ = (options_.num_threads > 0)
                     ? std::min(options_.num_threads,
                                Metrics::kMaxTrackedThreads)
                     : ThreadPool::DefaultThreads();
  frames_.assign(static_cast<size_t>(num_threads_), code_.NewFrame());
  enumerator_.SetCode(&code_, &frames_[0]);
  for (int w = 1; w < num_threads_; ++w) {
    workers_.push_back(std::make_unique<WalkEnumerator>(
        program_, store_, store_->pool(),
        WalkEnumerator::Options{options_.window_vertices,
                                options_.multiway_intersection}));
    workers_.back()->SetCode(&code_, &frames_[static_cast<size_t>(w)]);
  }
  if (options_.lineage) {
    lineage_ = std::make_unique<LineageTracker>(store_->num_vertices());
  }
  InitGlobals(&cur_globals_);
  if (options_.num_partitions > 1) {
    for (int m = 0; m < options_.num_partitions; ++m) {
      machine_pools_.push_back(std::make_unique<BufferPool>(
          store_->page_store(), options_.partition_pool_pages));
    }
  }
  if (store_->metrics() != nullptr) {
    mem_columns_.Bind(&store_->metrics()->registry(), "accumulator_columns");
  }
}

void Engine::CacheProfileCells() {
  auto cell = [&](int op) -> gsa::OperatorCounters* {
    return op >= 0 ? &profile_.Op(op) : nullptr;
  };
  emission_map_cells_.clear();
  emission_accum_cells_.clear();
  for (const Emission& e : program_->traverse.emissions) {
    emission_map_cells_.push_back(cell(e.map_op));
    emission_accum_cells_.push_back(cell(e.accum_op));
  }
  init_cell_ = cell(program_->init_op);
  update_cell_ = cell(program_->update_op);
  start_filter_cell_ = cell(program_->traverse.start_filter_op);
  start_stream_cell_ = cell(program_->traverse.start_stream_op);
  walk_cell_ = cell(program_->traverse.walk_op);
}

void Engine::RecordStartFilter(uint64_t in, uint64_t out) {
  if (start_filter_cell_ == nullptr) return;
  start_filter_cell_->in_pos += in;
  start_filter_cell_->out_pos += out;
}

void Engine::FoldWalkCounters() {
  const uint64_t starts = walk_ledger_.starts;
  if (start_stream_cell_ != nullptr) start_stream_cell_->out_pos += starts;
  if (walk_cell_ != nullptr) {
    walk_cell_->in_pos += starts;
    walk_cell_->out_pos += starts;  // depth-0 prefixes; levels add theirs
  }
  uint64_t in_pos = starts;  // level 1 joins against the start tuples
  uint64_t in_neg = 0;
  for (size_t i = 0; i < walk_ledger_.levels.size(); ++i) {
    const WalkEnumerator::LevelCounts& d = walk_ledger_.levels[i];
    gsa::OperatorCounters c;
    c.out_pos = d.out_pos;
    c.out_neg = d.out_neg;
    c.pruned = d.pruned;
    c.windows = d.windows;
    c.edges = d.edges;
    c.evals = d.evals;
    c.wall_nanos = d.wall_nanos;
    if (walk_cell_ != nullptr) walk_cell_->Merge(c);
    const int op = program_->traverse.levels[i].op;
    if (op >= 0) {
      c.in_pos = in_pos;
      c.in_neg = in_neg;
      profile_.Op(op).Merge(c);
    }
    // The next level extends the prefixes this one emitted.
    in_pos = d.out_pos;
    in_neg = d.out_neg;
  }
}

std::vector<uint64_t> Engine::ShuffleSnapshot() const {
  std::vector<uint64_t> out;
  if (options_.num_partitions > 1) {
    out.reserve(machine_stats_.size());
    for (const MachineStats& m : machine_stats_) {
      out.push_back(m.network_bytes);
    }
  }
  return out;
}

std::vector<double> Engine::MachineSecondsSnapshot() const {
  std::vector<double> out;
  if (options_.num_partitions > 1) {
    out.reserve(machine_stats_.size());
    for (const MachineStats& m : machine_stats_) out.push_back(m.seconds);
  }
  return out;
}

void Engine::PublishSuperstepTelemetry(const std::vector<double>& seconds0) {
  if (options_.num_partitions > 1 &&
      seconds0.size() == machine_stats_.size()) {
    // Barrier model: the superstep ends for everyone when the slowest
    // machine finishes, so each machine idles for the difference.
    double slowest = 0;
    for (size_t m = 0; m < machine_stats_.size(); ++m) {
      slowest = std::max(slowest, machine_stats_[m].seconds - seconds0[m]);
    }
    for (size_t m = 0; m < machine_stats_.size(); ++m) {
      const double wait = slowest - (machine_stats_[m].seconds - seconds0[m]);
      if (wait > 0) {
        machine_stats_[m].barrier_wait_nanos +=
            static_cast<uint64_t>(wait * 1e9);
      }
    }
  }

  std::vector<LiveStatus::PartitionState> parts;
  parts.reserve(machine_stats_.size());
  for (const MachineStats& m : machine_stats_) {
    LiveStatus::PartitionState p;
    p.network_bytes = m.network_bytes;
    p.barrier_wait_nanos = m.barrier_wait_nanos;
    p.seconds = m.seconds;
    parts.push_back(p);
  }
  GlobalLiveStatus().SetPartitions(parts);

  if (store_->metrics() != nullptr) {
    MetricsRegistry& reg = store_->metrics()->registry();
    uint64_t net_max = 0;
    uint64_t net_sum = 0;
    uint64_t wait_max = 0;
    for (size_t m = 0; m < machine_stats_.size(); ++m) {
      const MachineStats& ms = machine_stats_[m];
      const std::string key = "partition." + std::to_string(m);
      reg.gauge(key + ".network_bytes")
          ->Set(static_cast<int64_t>(ms.network_bytes));
      reg.gauge(key + ".barrier_wait_nanos")
          ->Set(static_cast<int64_t>(ms.barrier_wait_nanos));
      net_max = std::max(net_max, ms.network_bytes);
      net_sum += ms.network_bytes;
      wait_max = std::max(wait_max, ms.barrier_wait_nanos);
    }
    if (!machine_stats_.empty()) {
      const double mean =
          static_cast<double>(net_sum) / machine_stats_.size();
      reg.gauge("partition.network_bytes.max")
          ->Set(static_cast<int64_t>(net_max));
      reg.gauge("partition.network_bytes.mean")
          ->Set(static_cast<int64_t>(mean));
      // max/mean of the shuffle volume in percent (100 = perfectly even).
      reg.gauge("partition.network_skew_pct")
          ->Set(mean > 0 ? static_cast<int64_t>(100.0 * net_max / mean)
                         : 0);
      reg.gauge("partition.barrier_wait_nanos.max")
          ->Set(static_cast<int64_t>(wait_max));
    }
  }
  PublishColumnMemory();
}

void Engine::PublishColumnMemory() {
  mem_columns_.Set(
      static_cast<int64_t>(cur_cols_.ByteSize() + prev_cols_.ByteSize()));
}

void Engine::ChargeSharedSeconds(double seconds) {
  if (options_.num_partitions <= 1) return;
  for (MachineStats& m : machine_stats_) {
    m.seconds += seconds / options_.num_partitions;
  }
}

void Engine::ResetMachineStats() {
  machine_stats_.assign(
      static_cast<size_t>(std::max(1, options_.num_partitions)),
      MachineStats{});
  remote_seen_.clear();
}

double Engine::SimulatedDistributedSeconds() const {
  double worst = 0;
  for (const MachineStats& m : machine_stats_) {
    worst = std::max(worst, m.seconds + static_cast<double>(m.network_bytes) /
                                            options_.network_bytes_per_second);
  }
  return worst;
}

bool Engine::IsMonoidScalar(int attr) const {
  const lang::Type& type = program_->vertex_attrs[attr].type;
  return type.is_accumulator && !lang::IsAbelianGroup(type.accm_op) &&
         type.width == 1;
}

int Engine::AttrIndex(const std::string& name) const {
  for (size_t i = 0; i < program_->vertex_attrs.size(); ++i) {
    if (program_->vertex_attrs[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int Engine::GlobalIndex(const std::string& name) const {
  for (size_t i = 0; i < program_->globals.size(); ++i) {
    if (program_->globals[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Engine::FillDegreeColumns(ColumnSet* cols, Timestamp t) {
  const VertexId n = store_->num_vertices();
  auto fill = [&](const char* name, Direction dir) {
    int attr = AttrIndex(name);
    if (attr < 0) return;
    double* col = cols->Column(attr).data();
    for (VertexId v = 0; v < n; ++v) {
      col[v] = static_cast<double>(store_->Degree(v, t, dir));
    }
  };
  fill("degree", Direction::kOut);
  fill("out_degree", Direction::kOut);
  fill("in_degree", Direction::kIn);
}

void Engine::RunInitialize(ColumnSet* cols,
                           std::vector<std::vector<double>>* globals,
                           Timestamp t) {
  Stopwatch watch;
  const VertexId n = store_->num_vertices();
  EvalContext ctx = BodyContext(cols, globals, static_cast<double>(n),
                                static_cast<double>(store_->num_edges(t)));
  if (init_cell_ != nullptr) {
    ctx.eval_counter = &init_cell_->evals;
    ctx.assigns_applied = &init_cell_->out_pos;
  }
  const uint64_t bodies = RunBody(
      code_.init, code_.init_writes_globals, ctx, 0, static_cast<size_t>(n),
      [](size_t i) { return static_cast<VertexId>(i); }, &frames_[0]);
  BodyRuns().Add(bodies);
  if (init_cell_ != nullptr) {
    init_cell_->in_pos += bodies;
    init_cell_->wall_nanos += watch.ElapsedNanos();
  }
}

void Engine::ResetAccumulators(ColumnSet* cols) {
  for (int a : accm_attrs_) {
    double identity =
        lang::AccmIdentity(program_->vertex_attrs[a].type.accm_op);
    auto& col = cols->Column(a);
    std::fill(col.begin(), col.end(), identity);
    if (support_attr_[a] >= 0) {
      auto& sup = cols->Column(support_attr_[a]);
      std::fill(sup.begin(), sup.end(), 0.0);
    }
  }
  auto& contribs = cols->Column(contribs_attr_);
  std::fill(contribs.begin(), contribs.end(), 0.0);
}

std::vector<VertexId> Engine::ActiveList(const ColumnSet& cols) const {
  TraceSpan span("plan", "engine");
  std::vector<VertexId> active;
  const double* col = cols.Column(program_->active_attr).data();
  for (VertexId v = 0; v < store_->num_vertices(); ++v) {
    if (col[v] != 0.0) active.push_back(v);
  }
  return active;
}

Engine::ApplyCounts Engine::NewApplyCounts() const {
  ApplyCounts counts;
  counts.accum.resize(program_->traverse.emissions.size());
  counts.marked.resize(static_cast<size_t>(num_program_attrs()));
  return counts;
}

void Engine::FoldApplyCounts(const ApplyCounts& counts) {
  stats_.emissions_applied += counts.applied;
  for (size_t ei = 0; ei < counts.accum.size(); ++ei) {
    if (emission_accum_cells_[ei] != nullptr) {
      emission_accum_cells_[ei]->Merge(counts.accum[ei]);
    }
  }
  for (size_t a = 0; a < counts.marked.size(); ++a) {
    recompute_sets_[a].insert(recompute_sets_[a].end(),
                              counts.marked[a].begin(),
                              counts.marked[a].end());
  }
}

void Engine::ApplyEmissionValue(const Emission& emission, VertexId target,
                                const double* values, int mult,
                                ApplyCounts* counts) {
  const lang::AccmOp op = emission.op;
  ++counts->applied;
  const size_t ei = static_cast<size_t>(
      &emission - program_->traverse.emissions.data());
  gsa::OperatorCounters& c = counts->accum[ei];
  (mult > 0 ? c.in_pos : c.in_neg) += 1;
  (mult > 0 ? c.out_pos : c.out_neg) += 1;

  if (emission.is_global) {
    std::vector<double>& g = cur_globals_[emission.target];
    for (int i = 0; i < emission.width; ++i) {
      double v = values[i];
      if (mult < 0) {
        ITG_CHECK(lang::IsAbelianGroup(op))
            << "deletions over global monoid accumulators are unsupported";
        v = lang::AccmInverse(op, v);
      }
      lang::AccmApply(op, &g[static_cast<size_t>(i)], v);
    }
    return;
  }

  if (options_.num_partitions > 1 && OwnerOf(target) != current_machine_) {
    // Partial pre-aggregation: one shuffled message per distinct
    // (sender machine, target vertex) per superstep (§6.2.2).
    uint64_t key = (static_cast<uint64_t>(current_machine_) << 48) |
                   static_cast<uint64_t>(target);
    if (remote_seen_.insert(key).second) {
      machine_stats_[static_cast<size_t>(current_machine_)].network_bytes +=
          16 + 8 * static_cast<uint64_t>(emission.width);
    }
  }
  double* cell = cur_cols_.Cell(emission.target, target);
  double* contribs = cur_cols_.Cell(contribs_attr_, target);
  contribs[0] += mult;
  const int attr = emission.target;
  const bool group = lang::IsAbelianGroup(op);
  double* support = !group && emission.width == 1
                        ? cur_cols_.Cell(support_attr_[attr], target)
                        : nullptr;
  if (mult > 0) {
    // A scalar monoid value that matches or beats the extremum resolves
    // a pending recompute of the target.
    if (InsertContribution(op, emission.width, cell, support, values) &&
        support != nullptr) {
      UnmarkRecompute(attr, target);
    }
    return;
  }
  if (group) {
    for (int i = 0; i < emission.width; ++i) {
      lang::AccmApply(op, &cell[i], lang::AccmInverse(op, values[i]));
    }
    return;
  }

  // Deletion from a monoid accumulator (MIN / MAX).
  auto mark = [&] {
    if (SetRecomputeMark(attr, target)) counts->marked[attr].push_back(target);
  };
  if (support == nullptr) {
    // Array monoids: no support counting; any equal-element deletion
    // falls back to recomputation.
    for (int i = 0; i < emission.width; ++i) {
      if (values[i] == cell[i]) {
        mark();
        break;
      }
    }
    return;
  }
  if (values[0] == cell[0]) {
    if (options_.min_counting) {
      support[0] -= 1;
      if (support[0] <= 0) mark();
    } else {
      mark();
    }
  }
  // A value worse than the current extremum does not affect the aggregate.
}

// ---------------------------------------------------------------------------
// Walk-job execution: evaluate every task, then apply its records
// ---------------------------------------------------------------------------

namespace {

/// Target ranges per pool thread in a pooled apply: enough that stealing
/// evens out ranges holding more records than others (RMAT hubs have low
/// ids).
constexpr size_t kRangesPerThread = 4;

}  // namespace

void Engine::TaskBuffer::Reset(size_t num_emissions, size_t num_buckets) {
  status = Status::OK();
  buckets.resize(num_buckets);
  for (RecordBucket& bucket : buckets) {
    bucket.records.clear();
    bucket.values.clear();
    bucket.lineage.clear();
  }
  slots.assign(num_emissions, EmissionSlot{});
  map_counters.assign(num_emissions, gsa::OperatorCounters{});
}

Status Engine::RunWalkJobs(const std::vector<WalkJob>& jobs) {
  // Cut the jobs into tasks of consecutive starts — per machine when
  // partitioned, since every machine enumerates its own starts. The task
  // order (job-major, then machine, then start) is the apply order. A
  // one-hop job's task is one window block, the order one enumerator
  // would visit the blocks in. A multi-hop start costs about the square
  // of its degree (the wedges it extends), so on RMAT graphs the first
  // blocks, which hold the hubs, would dominate: such a job is cut into
  // runs of at most one block whose estimated work Σ(1 + deg²) stays
  // within the average block's, and a start above that is a run of its
  // own. The cut depends only on the job, never on the thread count.
  const size_t block = static_cast<size_t>(options_.window_vertices);
  const int machines = std::max(1, options_.num_partitions);
  // Per-(job, machine) start lists; reserved up front because tasks
  // point into it.
  std::vector<std::vector<VertexId>> shares;
  shares.reserve(machines > 1 ? jobs.size() * machines : 0);
  std::vector<WalkTask> tasks;
  size_t num_starts = 0;
  for (const WalkJob& job : jobs) {
    num_starts += job.starts.size();
    const double num_edges =
        static_cast<double>(store_->num_edges(job.eval_t));
    for (int m = 0; m < machines; ++m) {
      const std::vector<VertexId>* starts = &job.starts;
      if (machines > 1) {
        std::vector<VertexId>& share = shares.emplace_back();
        for (VertexId v : job.starts) {
          if (OwnerOf(v) == m) share.push_back(v);
        }
        starts = &share;
      }
      // A job of at most one block is one task either way.
      const size_t n = starts->size();
      if (job.max_depth < 2 || n <= block) {
        for (size_t b = 0; b < n; b += block) {
          tasks.push_back(
              {&job, starts, b, std::min(n, b + block), m, num_edges});
        }
        continue;
      }
      // Degrees in the snapshot the first level reads (a Δ level's batch
      // belongs to the current one).
      const Timestamp t = job.streams[0] == LevelStream::kPrevious
                              ? job.previous_t
                              : job.current_t;
      const Direction dir = program_->traverse.levels[0].dir;
      std::vector<uint64_t> work(n);
      uint64_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        const auto deg =
            static_cast<uint64_t>(store_->Degree((*starts)[i], t, dir));
        work[i] = 1 + deg * deg;
        total += work[i];
      }
      const uint64_t target = total / ((n + block - 1) / block);
      size_t begin = 0;
      uint64_t run = 0;
      for (size_t i = 0; i < n; ++i) {
        if (i > begin && (i - begin == block || run + work[i] > target)) {
          tasks.push_back({&job, starts, begin, i, m, num_edges});
          begin = i;
          run = 0;
        }
        run += work[i];
      }
      tasks.push_back({&job, starts, begin, n, m, num_edges});
    }
  }
  TraceSpan span("walk", "engine", static_cast<int64_t>(tasks.size()));
  const size_t num_emissions = program_->traverse.emissions.size();

  // Jobs below one window block of starts stay on the caller: the walks
  // cost less than the pool's two wake-ups (evaluate, apply).
  if (num_threads_ > 1 && machines == 1 && num_starts >= block) {
    ThreadPool& pool = Pool();
    // Each target lies in one range and each range is applied by one
    // worker in task order, so every target sees the sequential order.
    // Lineage keeps one range applied by the caller: OnEmission reads
    // the start's provenance set, which another range may be writing.
    const size_t ranges =
        lineage_ != nullptr
            ? 1
            : kRangesPerThread * static_cast<size_t>(num_threads_);
    std::vector<TaskBuffer> buffers(tasks.size());
    pool.ParallelFor(tasks.size(), [&](size_t ti, int w) {
      buffers[ti].Reset(num_emissions, ranges);
      EvalTask(tasks[ti],
               w == 0 ? &enumerator_ : workers_[static_cast<size_t>(w - 1)]
                                           .get(),
               &frames_[static_cast<size_t>(w)], &buffers[ti]);
    });
    stats_.parallel_tasks += tasks.size();
    // A failing task is applied up to its own partial records and ends
    // the batch, as on the caller path.
    size_t applied = buffers.size();
    for (size_t i = 0; i < buffers.size(); ++i) {
      if (!buffers[i].status.ok()) {
        applied = i + 1;
        break;
      }
    }
    TraceSpan accumulate_span("accumulate", "engine",
                              static_cast<int64_t>(applied));
    std::vector<ApplyCounts> counts(ranges, NewApplyCounts());
    auto apply_range = [&](size_t r, int) {
      for (size_t i = 0; i < applied; ++i) {
        ApplyRecords(buffers[i].buckets[r], &counts[r]);
      }
    };
    if (ranges == 1) {
      apply_range(0, 0);
    } else {
      // Marks are set in place by whichever worker holds the target's
      // range, so they must exist before the pool runs.
      for (const Emission& e : program_->traverse.emissions) {
        if (e.is_global || !IsAccmMonoid(e.target)) continue;
        auto& marks = monoid_marks_[static_cast<size_t>(e.target)];
        if (marks.empty()) {
          marks.assign(static_cast<size_t>(store_->num_vertices()), 0);
        }
      }
      pool.ParallelFor(ranges, apply_range);
      ++stats_.pooled_applies;
    }
    for (const ApplyCounts& c : counts) FoldApplyCounts(c);
    for (size_t i = 0; i < applied; ++i) FoldTaskCounters(buffers[i]);
    return applied > 0 ? buffers[applied - 1].status : Status::OK();
  }

  // Inline: evaluate one task into the reused buffer, then apply it, so
  // at most one task's records are ever buffered. A partitioned
  // run enumerates each task through its machine's buffer pool and bills
  // the task's time to that machine.
  TaskBuffer buffer;
  Status status;
  for (const WalkTask& task : tasks) {
    Stopwatch watch;
    if (machines > 1) {
      current_machine_ = task.machine;
      enumerator_.set_pool(
          machine_pools_[static_cast<size_t>(task.machine)].get());
    }
    buffer.Reset(num_emissions, 1);
    EvalTask(task, &enumerator_, &frames_[0], &buffer);
    {
      TraceSpan accumulate_span("accumulate", "engine");
      status = ApplyTask(buffer);
    }
    if (machines > 1) {
      machine_stats_[static_cast<size_t>(task.machine)].seconds +=
          watch.ElapsedSeconds();
    }
    if (!status.ok()) break;
  }
  current_machine_ = 0;
  enumerator_.set_pool(store_->pool());
  return status;
}

void Engine::EvalTask(const WalkTask& task, WalkEnumerator* we,
                      EvalFrame* frame, TaskBuffer* out) const {
  const WalkJob& job = *task.job;
  const double n = static_cast<double>(store_->num_vertices());
  we->SetEvalBase(job.eval_cols, job.eval_globals, n, task.num_edges);
  EvalContext ctx;
  ctx.columns = job.eval_cols;
  ctx.globals = job.eval_globals;
  ctx.num_vertices = n;
  ctx.num_edges = task.num_edges;
  const WalkSink sink = [&](const VertexId* row, int depth, int mult) {
    if (emits_at_depth_[static_cast<size_t>(depth)] != 0) {
      EvalEmissions(job, row, depth, mult, &ctx, frame, out);
    }
  };
  const std::vector<VertexId> starts(
      task.starts->begin() + static_cast<ptrdiff_t>(task.begin),
      task.starts->begin() + static_cast<ptrdiff_t>(task.end));
  out->status = we->Enumerate(starts, job.streams, job.current_t,
                              job.previous_t, job.level_allow, job.max_depth,
                              sink);
  we->TakeCounts(&out->walk);
}

void Engine::EvalEmissions(const WalkJob& job, const VertexId* row,
                           int depth, int mult, EvalContext* ctx,
                           EvalFrame* frame, TaskBuffer* out) const {
  if (depth < job.min_emit_depth) return;
  const std::vector<Emission>& emissions = program_->traverse.emissions;
  const int signed_mult = job.mult_sign * mult;
  const size_t num_buckets = out->buckets.size();
  for (size_t ei = 0; ei < emissions.size(); ++ei) {
    const Emission& e = emissions[ei];
    if (e.stmt_depth != depth) continue;
    if (job.monoid_only) {
      if (e.is_global || !IsAccmMonoid(e.target)) continue;
      const std::vector<uint8_t>& marks =
          (*job.target_marks)[static_cast<size_t>(e.target)];
      if (marks.empty() ||
          !marks[static_cast<size_t>(row[e.target_depth])]) {
        continue;
      }
    }
    ctx->rows = row;
    ctx->row_len = depth + 1;
    gsa::OperatorCounters& map_c = out->map_counters[ei];
    (signed_mult > 0 ? map_c.in_pos : map_c.in_neg) += 1;
    ctx->eval_counter = &map_c.evals;
    // Nothing Traverse reads changes during the walk phase, so a
    // start-invariant emission's slot holds for all of its start's walks
    // in this task; any other emission is evaluated on every walk.
    EmissionSlot& slot = out->slots[ei];
    if (!e.start_invariant || slot.start != row[0]) {
      slot.start = row[0];
      const SlotCode& code = code_.emissions[ei];
      const double* value = ExecuteOne(code, *ctx, frame);
      slot.pass = value != nullptr;
      if (slot.pass) std::copy_n(value, code.value_width(), slot.value.data());
    }
    if (!slot.pass) continue;
    const double* value = slot.value.data();
    (signed_mult > 0 ? map_c.out_pos : map_c.out_neg) += 1;
    const VertexId target = e.is_global ? 0 : row[e.target_depth];
    RecordBucket& bucket =
        out->buckets[e.is_global || num_buckets == 1
                         ? 0
                         : static_cast<size_t>(target) * num_buckets /
                               static_cast<size_t>(store_->num_vertices())];
    bucket.records.push_back({static_cast<int>(ei), signed_mult, target});
    const int value_width = e.value->type.width;
    for (int i = 0; i < e.width; ++i) {
      bucket.values.push_back(value_width == 1 ? value[0] : value[i]);
    }
    if (lineage_ != nullptr) {
      int64_t delta_id = -1;
      if (job.delta_level > 0 && depth >= job.delta_level) {
        // The walk crossed ΔE between positions p-1 and p; translate the
        // traversal step into the stored (kOut) orientation for lookup.
        const int p = job.delta_level;
        const Direction dir =
            program_->traverse.levels[static_cast<size_t>(p - 1)].dir;
        const Edge stored = (dir == Direction::kOut)
                                ? Edge{row[p - 1], row[p]}
                                : Edge{row[p], row[p - 1]};
        delta_id = lineage_->DeltaEdgeId(stored);
      }
      bucket.lineage.push_back({row[0], delta_id});
    }
  }
}

void Engine::ApplyRecords(const RecordBucket& bucket, ApplyCounts* counts) {
  const std::vector<Emission>& emissions = program_->traverse.emissions;
  const double* vp = bucket.values.data();
  for (size_t i = 0; i < bucket.records.size(); ++i) {
    const EmissionRecord& rec = bucket.records[i];
    const Emission& e = emissions[static_cast<size_t>(rec.emission)];
    ApplyEmissionValue(e, rec.target, vp, rec.mult, counts);
    vp += e.width;
    if (lineage_ != nullptr && !e.is_global) {
      // The target absorbs the walk start's provenance set, plus the id
      // of the delta edge the walk crossed.
      lineage_->OnEmission(bucket.lineage[i].start, rec.target,
                           bucket.lineage[i].delta_id);
    }
  }
}

void Engine::FoldTaskCounters(const TaskBuffer& buffer) {
  walk_ledger_.Add(buffer.walk);
  for (size_t ei = 0; ei < buffer.map_counters.size(); ++ei) {
    if (emission_map_cells_[ei] != nullptr) {
      emission_map_cells_[ei]->Merge(buffer.map_counters[ei]);
    }
  }
}

Status Engine::ApplyTask(const TaskBuffer& buffer) {
  ApplyCounts counts = NewApplyCounts();
  for (const RecordBucket& bucket : buffer.buckets) {
    ApplyRecords(bucket, &counts);
  }
  FoldApplyCounts(counts);
  FoldTaskCounters(buffer);
  // A failing task aborts after its own partial records.
  return buffer.status;
}

ThreadPool& Engine::Pool() {
  if (pool_threads_ == nullptr) {
    pool_threads_ =
        std::make_unique<ThreadPool>(num_threads_, store_->metrics());
  }
  return *pool_threads_;
}

void Engine::FillThreadStats(uint64_t steals0, uint64_t busy0) {
  stats_.threads =
      (num_threads_ > 1 && options_.num_partitions <= 1) ? num_threads_ : 1;
  if (pool_threads_ != nullptr) {
    stats_.steals = pool_threads_->steals() - steals0;
    stats_.busy_nanos = pool_threads_->total_busy_nanos() - busy0;
  }
}

bool Engine::SetRecomputeMark(int attr, VertexId v) {
  auto& marks = monoid_marks_[attr];
  if (marks.empty()) {
    marks.assign(static_cast<size_t>(store_->num_vertices()), 0);
  }
  if (marks[static_cast<size_t>(v)] != 0) return false;
  marks[static_cast<size_t>(v)] = 1;
  return true;
}

void Engine::UnmarkRecompute(int attr, VertexId v) {
  auto& marks = monoid_marks_[attr];
  if (!marks.empty()) marks[static_cast<size_t>(v)] = 0;
}

void Engine::RunUpdatePhase(Timestamp t, const std::vector<VertexId>* domain,
                            const ColumnSet* restore) {
  TraceSpan span("update", "engine",
                 domain != nullptr ? static_cast<int64_t>(domain->size())
                                   : Tracer::kNoArg);
  Stopwatch update_watch;
  ColumnSet* cols = &cur_cols_;
  if (domain == nullptr) {
    // All vertices deactivate; Update re-activates (vertex-centric
    // "vote-to-halt" semantics, §3).
    auto& active = cols->Column(program_->active_attr);
    std::fill(active.begin(), active.end(), 0.0);
  }
  const double* contribs = cols->Column(contribs_attr_).data();
  const std::vector<int>& restore_attrs = AttrFileAttrs();
  const EvalContext ctx =
      BodyContext(cols, &cur_globals_,
                  static_cast<double>(store_->num_vertices()),
                  static_cast<double>(store_->num_edges(t)));
  const size_t count = domain != nullptr
                           ? domain->size()
                           : static_cast<size_t>(store_->num_vertices());
  auto vertex_at = [&](size_t i) {
    return domain != nullptr ? (*domain)[i] : static_cast<VertexId>(i);
  };
  // ΔUpdate restores every domain vertex's A_{t,s} values and deactivates
  // it; a body runs only for V_accm, the vertices with contributions.
  auto admit = [&](size_t i) -> VertexId {
    const VertexId v = vertex_at(i);
    if (restore != nullptr) {
      for (int attr : restore_attrs) {
        const double* src = restore->Cell(attr, v);
        std::copy(src, src + cols->width(attr), cols->Cell(attr, v));
      }
      cols->Cell(program_->active_attr, v)[0] = 0.0;
    }
    return contribs[v] > 0.0 ? v : -1;
  };
  // Work counters (bodies run / evals / assigns) of one pool task, or of
  // the whole loop when it runs on the caller.
  struct UpdateCounts {
    uint64_t bodies = 0;
    uint64_t evals = 0;
    uint64_t assigns = 0;
  };
  auto counted = [&](UpdateCounts* counts) {
    EvalContext c = ctx;
    if (update_cell_ != nullptr) {
      c.eval_counter = &counts->evals;
      c.assigns_applied = &counts->assigns;
    }
    return c;
  };
  uint64_t bodies = 0;
  auto fold = [&](const UpdateCounts& counts) {
    bodies += counts.bodies;
    if (update_cell_ == nullptr) return;
    update_cell_->in_pos += counts.bodies;
    update_cell_->evals += counts.evals;
    update_cell_->out_pos += counts.assigns;
  };

  const int machines = std::max(1, options_.num_partitions);
  const size_t threads = static_cast<size_t>(num_threads_);
  const size_t per =
      std::max<size_t>(64, (count + threads * 8 - 1) / (threads * 8));
  const size_t num_tasks = (count + per - 1) / per;
  if (machines <= 1 && num_threads_ > 1 && !code_.update_writes_globals &&
      num_tasks >= 2) {
    // Vertex-sharded Update: each body writes only its own vertex's
    // cells (a global assignment keeps the loop on the caller), so shards
    // are disjoint and the result is order-independent — the same bits
    // as the sequential loop, no replay needed.
    std::vector<UpdateCounts> task_counts(num_tasks);
    Pool().ParallelFor(num_tasks, [&](size_t task, int w) {
      UpdateCounts& tc = task_counts[task];
      tc.bodies = RunBody(code_.update, false, counted(&tc), task * per,
                          std::min(count, (task + 1) * per), admit,
                          &frames_[static_cast<size_t>(w)]);
    });
    stats_.update_tasks += num_tasks;
    // Summed in task order: the totals match the sequential loop.
    for (const UpdateCounts& tc : task_counts) fold(tc);
  } else {
    UpdateCounts counts;
    const EvalContext machine_ctx = counted(&counts);
    for (int m = 0; m < machines; ++m) {
      Stopwatch watch;
      counts.bodies += RunBody(
          code_.update, code_.update_writes_globals, machine_ctx, 0, count,
          [&](size_t i) -> VertexId {
            return machines > 1 && OwnerOf(vertex_at(i)) != m ? -1
                                                               : admit(i);
          },
          &frames_[0]);
      if (machines > 1) {
        machine_stats_[static_cast<size_t>(m)].seconds +=
            watch.ElapsedSeconds();
      }
    }
    fold(counts);
  }
  BodyRuns().Add(bodies);
  if (update_cell_ != nullptr) {
    update_cell_->wall_nanos += update_watch.ElapsedNanos();
  }
}

namespace {

// True if any of `attrs` differs at `v` between two column sets.
bool AnyCellDiffers(const ColumnSet& a, const ColumnSet& b,
                    const std::vector<int>& attrs, VertexId v) {
  for (int attr : attrs) {
    if (ColumnSet::CellDiffers(a, b, attr, v)) return true;
  }
  return false;
}

}  // namespace

void Engine::CollectChanged(const ColumnSet& a, const ColumnSet& b,
                            const std::vector<int>& attrs,
                            std::vector<VertexId>* out) const {
  TraceSpan span("collect_changed", "engine");
  out->clear();
  for (VertexId v = 0; v < store_->num_vertices(); ++v) {
    if (AnyCellDiffers(a, b, attrs, v)) out->push_back(v);
  }
}

void Engine::CollectUpdateDomain(std::vector<VertexId>* accm_changed,
                                 std::vector<VertexId>* domain) const {
  TraceSpan span("collect_changed", "engine");
  accm_changed->clear();
  domain->clear();
  const std::vector<int>& accm_attrs = AccmFileAttrs();
  const std::vector<int>& attrs = NonAccmAttrs();
  for (VertexId v = 0; v < store_->num_vertices(); ++v) {
    if (AnyCellDiffers(cur_cols_, prev_cols_, accm_attrs, v)) {
      accm_changed->push_back(v);
      domain->push_back(v);
    } else if (AnyCellDiffers(cur_cols_, prev_cols_, attrs, v)) {
      domain->push_back(v);
    }
  }
}

Status Engine::WriteDeltaFiles(Timestamp t, Superstep s,
                               const std::vector<int>& attrs,
                               const std::vector<VertexId>& candidates,
                               const ColumnSet& values,
                               const ColumnSet* reference_a,
                               const ColumnSet* reference_b,
                               const std::vector<VertexId>* more_candidates) {
  TraceSpan span("write_deltas", "engine", s);
  const std::vector<VertexId>* vertices = &candidates;
  std::vector<VertexId> united;
  if (more_candidates != nullptr) {
    std::vector<uint8_t> marked(static_cast<size_t>(store_->num_vertices()));
    for (VertexId v : candidates) marked[static_cast<size_t>(v)] = 1;
    for (VertexId v : *more_candidates) marked[static_cast<size_t>(v)] = 1;
    for (VertexId v = 0; v < store_->num_vertices(); ++v) {
      if (marked[static_cast<size_t>(v)]) united.push_back(v);
    }
    vertices = &united;
  }
  VertexStore* vs = store_->vertex_store();
  const bool keep_all = reference_a == nullptr && reference_b == nullptr;
  std::vector<VertexId> vids;
  for (int attr : attrs) {
    vids.clear();
    for (VertexId v : *vertices) {
      if (keep_all ||
          (reference_a != nullptr &&
           ColumnSet::CellDiffers(values, *reference_a, attr, v)) ||
          (reference_b != nullptr &&
           ColumnSet::CellDiffers(values, *reference_b, attr, v))) {
        vids.push_back(v);
      }
    }
    ITG_RETURN_IF_ERROR(
        vs->WriteDelta(t, s, attr, vids, values.Column(attr).data()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The superstep loop
// ---------------------------------------------------------------------------

Status Engine::RunSupersteps(Timestamp t, bool incremental,
                             const std::function<void()>& init,
                             const SuperstepBody& body) {
  const char* phase = incremental ? "incremental" : "oneshot";
  TraceSpan run_span(phase, "engine", t);
  LiveRunScope live_run(phase, t, options_.query_label);
  Stopwatch watch;
  Metrics& metrics = *store_->metrics();
  const uint64_t read0 = metrics.read_bytes();
  const uint64_t write0 = metrics.write_bytes();
  stats_ = RunStats{};
  stats_.timestamp = t;
  stats_.incremental = incremental;
  const uint64_t steals0 = pool_threads_ ? pool_threads_->steals() : 0;
  const uint64_t busy0 = pool_threads_ ? pool_threads_->total_busy_nanos() : 0;
  profile_.ResetCounters();
  ResetMachineStats();
  init();

  PublishColumnMemory();
  Superstep s = 0;
  while (s < options_.max_supersteps &&
         (options_.fixed_supersteps < 0 || s < options_.fixed_supersteps)) {
    TraceSpan superstep_span("superstep", "engine", s);
    std::vector<VertexId> active = ActiveList(cur_cols_);
    if (active.empty() && (!incremental || s >= prev_supersteps_)) break;
    GlobalLiveStatus().BeginSuperstep(s);
    MaybeInjectStall(options_, s);
    const std::vector<double> seconds0 = MachineSecondsSnapshot();
    const std::vector<uint64_t> shuffle0 = ShuffleSnapshot();
    const uint64_t emissions0 = stats_.emissions_applied;
    const uint64_t wall0 = TraceNowNanos();
    const uint64_t cpu0 = ThreadCpuNanos();
    walk_ledger_.Reset();
    remote_seen_.clear();
    gsa::SuperstepProfile row;
    row.superstep = s;
    row.incremental = incremental;
    row.active_vertices = active.size();
    row.frontier = active.size();
    ITG_RETURN_IF_ERROR(body(s, std::move(active), &row.frontier));

    const WalkEnumerator::LevelCounts walked = walk_ledger_.Total();
    row.emissions = stats_.emissions_applied - emissions0;
    row.windows = walked.windows;
    row.edges = walked.edges;
    row.wall_nanos = TraceNowNanos() - wall0;
    row.cpu_nanos = ThreadCpuNanos() - cpu0;
    row.shuffle_bytes = ShuffleSnapshot();
    for (size_t m = 0; m < shuffle0.size(); ++m) {
      row.shuffle_bytes[m] -= shuffle0[m];
    }
    profile_.supersteps().push_back(std::move(row));
    stats_.windows_loaded += walked.windows;
    stats_.edges_scanned += walked.edges;
    stats_.delta_walks_pruned += walked.pruned;
    FoldWalkCounters();
    PublishSuperstepTelemetry(seconds0);
    GlobalLiveStatus().EndSuperstep();
    ++s;
  }
  PublishStateDigest(t);
  if (incremental && options_.record_history) {
    ITG_RETURN_IF_ERROR(store_->vertex_store()->MaintainAfterSnapshot(
        t, store_->pool()));
  }

  last_run_t_ = t;
  prev_supersteps_ = s;
  stats_.supersteps = s;
  stats_.seconds = watch.ElapsedSeconds();
  stats_.read_bytes = metrics.read_bytes() - read0;
  stats_.write_bytes = metrics.write_bytes() - write0;
  FillThreadStats(steals0, busy0);
  return Status::OK();
}

Engine::WalkJob Engine::NewJob(std::vector<VertexId> starts,
                               LevelStream stream, Timestamp t,
                               Timestamp previous_t) const {
  const int k = program_->walk_length();
  WalkJob job;
  job.starts = std::move(starts);
  job.streams.assign(static_cast<size_t>(k), stream);
  job.level_allow.assign(static_cast<size_t>(k), nullptr);
  job.max_depth = k;
  job.eval_cols = &cur_cols_;
  job.eval_globals = &cur_globals_;
  job.eval_t = t;
  job.current_t = t;
  job.previous_t = previous_t;
  return job;
}

// ---------------------------------------------------------------------------
// One-shot execution
// ---------------------------------------------------------------------------

Status Engine::RunOneShot(Timestamp t) {
  const VertexId n = store_->num_vertices();
  ColumnSet snapshot;  // A_{t,s} before Update, reused across supersteps
  auto init = [&] {
    cur_cols_.Init(n, all_widths_);
    InitGlobals(&cur_globals_);
    TraceSpan init_span("initialize", "engine");
    FillDegreeColumns(&cur_cols_, t);
    RunInitialize(&cur_cols_, &cur_globals_, t);
  };
  auto superstep = [&](Superstep s, std::vector<VertexId> active,
                       uint64_t*) -> Status {
    // One-shot starts: the Filter over `vs` admits exactly the active set.
    RecordStartFilter(static_cast<uint64_t>(n), active.size());
    ITG_RETURN_IF_ERROR(RecomputeAccumulators(t, std::move(active)));

    if (options_.record_history) {
      // Accumulator files: after-images of touched vertices (V_accm).
      std::vector<VertexId> touched;
      const double* contribs = cur_cols_.Column(contribs_attr_).data();
      for (VertexId v = 0; v < n; ++v) {
        if (contribs[v] > 0.0) touched.push_back(v);
      }
      ITG_RETURN_IF_ERROR(WriteDeltaFiles(t, s, AccmFileAttrs(), touched,
                                          cur_cols_, nullptr, nullptr));
    }

    {
      TraceSpan copy_span("copy_columns", "engine", s);
      snapshot = cur_cols_;
    }
    RunUpdatePhase(t, /*domain=*/nullptr, /*restore=*/nullptr);

    if (options_.record_history) {
      std::vector<VertexId> changed;
      CollectChanged(cur_cols_, snapshot, NonAccmAttrs(), &changed);
      ITG_RETURN_IF_ERROR(WriteDeltaFiles(t, s + 1, AttrFileAttrs(), changed,
                                          cur_cols_, &snapshot, nullptr));
    }
    return Status::OK();
  };
  return RunSupersteps(t, /*incremental=*/false, init, superstep);
}

Status Engine::RecomputeAccumulators(Timestamp t,
                                     std::vector<VertexId> starts) {
  ResetAccumulators(&cur_cols_);
  ClearRecomputeState();
  if (PullIsDense(t, starts)) return PullAccumulators(t, starts);
  std::vector<WalkJob> jobs;
  jobs.push_back(NewJob(std::move(starts), LevelStream::kCurrent, t, t));
  return RunWalkJobs(jobs);
}

// ---------------------------------------------------------------------------
// Pull superstep: dense one-hop frontiers without emission records
// ---------------------------------------------------------------------------

namespace {

/// The pull's density rule: a superstep pulls when its starts' edges,
/// Σ deg_t, are at least 1/kPullDensity of |E_t|. The pull scans every
/// in-edge, the record path only the starts' out-edges. Timed over the
/// supersteps of 24 BFS runs (14 roots, directed and symmetric) and of
/// qpr and wcc on RMAT-19 (Release, 4-core host), both paths forced in
/// turn, the pull won from about 0.11 of |E_t| on at one thread (0.97×
/// at 0.10, 1.25× at 0.145) and from about 0.03 at four (1.4× at 0.03).
/// 1/8 makes every pulled superstep a win at both.
constexpr uint64_t kPullDensity = 8;

/// One emission of a pull superstep, resolved to raw columns.
struct PullEmission {
  const uint8_t* pass;   // per source vertex: 1 when it contributes
  const double* values;  // per source vertex: `width` doubles
  double* cells;         // the target accumulator column
  double* support;       // the support column of a scalar MIN/MAX, or null
  lang::AccmOp op;
  int width;
};

}  // namespace

bool Engine::PullIsDense(Timestamp t,
                         const std::vector<VertexId>& starts) const {
  if (!pull_shape_ || lineage_ != nullptr || options_.num_partitions > 1) {
    return false;
  }
  const Direction dir = program_->traverse.levels[0].dir;
  const uint64_t num_edges = store_->num_edges(t);
  uint64_t reach = 0;
  for (VertexId u : starts) {
    reach += static_cast<uint64_t>(store_->Degree(u, t, dir));
    if (kPullDensity * reach >= num_edges) return true;
  }
  return false;
}

Status Engine::PullAccumulators(Timestamp t,
                                const std::vector<VertexId>& starts) {
  const VertexId n = store_->num_vertices();
  const size_t block = static_cast<size_t>(options_.window_vertices);
  const size_t eval_tasks = (starts.size() + block - 1) / block;
  const size_t pull_tasks = (static_cast<size_t>(n) + block - 1) / block;
  TraceSpan span("pull", "engine", static_cast<int64_t>(pull_tasks));
  ++stats_.pulled_supersteps;
  const std::vector<Emission>& emissions = program_->traverse.emissions;
  const size_t num_emissions = emissions.size();
  const Direction dir = program_->traverse.levels[0].dir;

  // Dense pass and value columns, indexed by source vertex; vertices that
  // are not starts never pass.
  std::vector<std::vector<uint8_t>> pass(num_emissions);
  std::vector<std::vector<double>> values(num_emissions);
  std::vector<PullEmission> pulls;
  for (size_t ei = 0; ei < num_emissions; ++ei) {
    const Emission& e = emissions[ei];
    pass[ei].assign(static_cast<size_t>(n), 0);
    values[ei].resize(static_cast<size_t>(n) * static_cast<size_t>(e.width));
    const int support = support_attr_[static_cast<size_t>(e.target)];
    pulls.push_back({pass[ei].data(), values[ei].data(),
                     cur_cols_.Column(e.target).data(),
                     support >= 0 ? cur_cols_.Column(support).data()
                                  : nullptr,
                     e.op, e.width});
  }

  // Evaluation by ranges of window_vertices starts. A start with no edge
  // has no walk, so, as on the record path, it is not evaluated.
  struct EvalCounts {
    // Map counters per emission; out_pos counts its contributions.
    std::vector<gsa::OperatorCounters> map;
    uint64_t edges = 0;
    uint64_t nanos = 0;
  };
  std::vector<EvalCounts> eval_counts(eval_tasks);
  const double num_edges = static_cast<double>(store_->num_edges(t));
  auto evaluate = [&](size_t task, int w) {
    Stopwatch watch;
    EvalCounts& c = eval_counts[task];
    c.map.assign(num_emissions, gsa::OperatorCounters{});
    EvalFrame& frame = frames_[static_cast<size_t>(w)];
    // A start-invariant emission reads no row position past the start,
    // so each lane's row is its start alone.
    EvalContext ctx;
    ctx.columns = &cur_cols_;
    ctx.globals = &cur_globals_;
    ctx.num_vertices = static_cast<double>(n);
    ctx.num_edges = num_edges;
    ctx.rows = frame.lanes();
    ctx.row_len = 1;
    std::array<uint64_t, kBlockLanes> degree;
    const size_t end = std::min(starts.size(), (task + 1) * block);
    for (size_t i = task * block; i < end;) {
      // The next block of starts with edges.
      int lanes = 0;
      uint64_t in = 0;
      for (; i < end && lanes < kBlockLanes; ++i) {
        const VertexId u = starts[i];
        const auto deg = static_cast<uint64_t>(store_->Degree(u, t, dir));
        if (deg == 0) continue;
        frame.lanes()[lanes] = u;
        degree[static_cast<size_t>(lanes++)] = deg;
        in += deg;
      }
      c.edges += in;
      for (size_t ei = 0; ei < num_emissions; ++ei) {
        const Emission& e = emissions[ei];
        const SlotCode& code = code_.emissions[ei];
        gsa::OperatorCounters& map_c = c.map[ei];
        map_c.in_pos += in;
        ctx.eval_counter = &map_c.evals;
        Execute(code, ctx, lanes, &frame);
        const bool scalar = code.value_width() == 1;
        for (int k = 0; k < frame.live_count(); ++k) {
          const int lane = frame.live_lane(k);
          const auto u = static_cast<size_t>(frame.lanes()[lane]);
          const double* value = frame.Value(code, lane);
          double* out = values[ei].data() + u * static_cast<size_t>(e.width);
          for (int x = 0; x < e.width; ++x) out[x] = value[scalar ? 0 : x];
          pass[ei][u] = 1;
          map_c.out_pos += degree[static_cast<size_t>(lane)];
        }
      }
    }
    c.nanos = watch.ElapsedNanos();
  };

  // The pull: each task owns `block` consecutive targets and folds their
  // sources' contributions in ascending source order, emission by
  // emission, which is the order of the target's records on the record
  // path. A task writes only its own targets' cells. A worker keeps its
  // page cursor across tasks: its tasks are mostly consecutive ranges.
  const Direction back =
      dir == Direction::kOut ? Direction::kIn : Direction::kOut;
  double* contribs = cur_cols_.Column(contribs_attr_).data();
  std::vector<Status> pull_status(pull_tasks);
  std::vector<uint64_t> pull_nanos(pull_tasks);
  std::vector<PageCursor> cursors(static_cast<size_t>(num_threads_));
  auto pull = [&](size_t task, int w) {
    Stopwatch watch;
    PageCursor& cursor = cursors[static_cast<size_t>(w)];
    std::vector<VertexId> sources;
    const auto end = static_cast<VertexId>(
        std::min(static_cast<size_t>(n), (task + 1) * block));
    for (auto v = static_cast<VertexId>(task * block); v < end; ++v) {
      Status st = store_->GetAdjacency(store_->pool(), v, t, back, &sources,
                                       &cursor);
      if (!st.ok()) {
        pull_status[task] = st;
        break;
      }
      const auto vi = static_cast<size_t>(v);
      for (VertexId u : sources) {
        const auto ui = static_cast<size_t>(u);
        for (const PullEmission& pe : pulls) {
          if (!pe.pass[ui]) continue;
          const auto width = static_cast<size_t>(pe.width);
          contribs[vi] += 1;
          InsertContribution(pe.op, pe.width, pe.cells + vi * width,
                             pe.support != nullptr ? pe.support + vi : nullptr,
                             pe.values + ui * width);
        }
      }
    }
    pull_nanos[task] = watch.ElapsedNanos();
  };

  if (num_threads_ > 1 && pull_tasks > 1) {
    ThreadPool& pool = Pool();
    pool.ParallelFor(eval_tasks, evaluate);
    pool.ParallelFor(pull_tasks, pull);
    stats_.parallel_tasks += eval_tasks + pull_tasks;
  } else {
    for (size_t task = 0; task < eval_tasks; ++task) evaluate(task, 0);
    for (size_t task = 0; task < pull_tasks; ++task) pull(task, 0);
  }

  // The counters of the walk the pull replaces: one level-1 window per
  // block of starts, one edge and one Map input per (start → neighbour),
  // one Accumulate per passing one. Summed in task order.
  ApplyCounts counts = NewApplyCounts();
  WalkEnumerator::Counts walk;
  walk.starts = starts.size();
  WalkEnumerator::LevelCounts& level = walk.levels.emplace_back();
  level.windows = eval_tasks;
  for (const EvalCounts& c : eval_counts) {
    level.edges += c.edges;
    level.wall_nanos += c.nanos;
    for (size_t ei = 0; ei < num_emissions; ++ei) {
      if (emission_map_cells_[ei] != nullptr) {
        emission_map_cells_[ei]->Merge(c.map[ei]);
      }
      const uint64_t applied = c.map[ei].out_pos;
      counts.applied += applied;
      counts.accum[ei].in_pos += applied;
      counts.accum[ei].out_pos += applied;
    }
  }
  for (uint64_t nanos : pull_nanos) level.wall_nanos += nanos;
  level.out_pos = level.edges;
  walk_ledger_.Add(walk);
  FoldApplyCounts(counts);
  for (const Status& st : pull_status) ITG_RETURN_IF_ERROR(st);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Incremental execution
// ---------------------------------------------------------------------------

Status Engine::RunIncremental(Timestamp t) {
  if (last_run_t_ != t - 1) {
    return Status::InvalidArgument(
        "RunIncremental(t) requires the previous run at t-1");
  }
  for (const auto& g : program_->globals) {
    if (g.type.is_accumulator && !lang::IsAbelianGroup(g.type.accm_op)) {
      return Status::Unsupported(
          "incremental execution with global monoid accumulators");
    }
  }
  if (lineage_ != nullptr) {
    ITG_RETURN_IF_ERROR(lineage_->BeginTimestamp(store_, t));
  }
  const VertexId n = store_->num_vertices();
  const Timestamp prev_t = t - 1;
  BufferPool* pool = store_->pool();
  VertexStore* vs = store_->vertex_store();

  // Materialize A_{t-1,0} and A_{t,0}: Initialize is deterministic given
  // the snapshot (it may read degrees), so both sides run it directly.
  auto init = [&] {
    prev_cols_.Init(n, all_widths_);
    cur_cols_.Init(n, all_widths_);
    InitGlobals(&prev_globals_);
    // Global accumulators carry the previous run's totals forward; deltas
    // are applied onto them. Other globals restart at their defaults.
    std::vector<std::vector<double>> carried = cur_globals_;
    InitGlobals(&cur_globals_);
    for (size_t g = 0; g < program_->globals.size(); ++g) {
      if (program_->globals[g].type.is_accumulator && g < carried.size()) {
        cur_globals_[g] = carried[g];
      }
    }
    TraceSpan init_span("initialize", "engine");
    FillDegreeColumns(&prev_cols_, prev_t);
    FillDegreeColumns(&cur_cols_, t);
    RunInitialize(&prev_cols_, &prev_globals_, prev_t);
    RunInitialize(&cur_cols_, &cur_globals_, t);
  };

  // Δvs starts are the vertices whose traverse-visible state changed.
  std::vector<int> traverse_attrs = program_->traverse_read_attrs;
  traverse_attrs.push_back(program_->active_attr);
  // A_{t,s} before ΔUpdate and the vertices the overlay changed, reused
  // across supersteps.
  ColumnSet cur_snapshot;
  std::vector<VertexId> overlay_changed;
  auto superstep = [&](Superstep s, std::vector<VertexId> cur_active,
                       uint64_t* frontier) -> Status {
    // --- ΔTraverse --------------------------------------------------------
    // Reconstruct A^accm_{t-1,s} from the store (identity + overlay).
    Stopwatch overlay_watch;
    {
      TraceSpan overlay_span("overlay", "engine", s);
      ResetAccumulators(&prev_cols_);
      for (int attr : AccmFileAttrs()) {
        ITG_RETURN_IF_ERROR(vs->OverlaySuperstep(
            pool, prev_t, s, attr, prev_cols_.Column(attr).data()));
      }
    }
    ChargeSharedSeconds(overlay_watch.ElapsedSeconds());

    std::vector<VertexId> changed_starts;
    CollectChanged(cur_cols_, prev_cols_, traverse_attrs, &changed_starts);
    *frontier = changed_starts.size();

    // Either plan leaves A_{t,s} in the current accumulators.
    const bool recompute = RecomputeIsCheaper(t, changed_starts, cur_active);
    if (recompute) {
      TraceSpan recompute_span("recompute", "engine", s);
      ++stats_.recomputed_supersteps;
      RecordStartFilter(cur_active.size(), cur_active.size());
      ITG_RETURN_IF_ERROR(RecomputeAccumulators(t, cur_active));
    } else {
      {
        // Current accumulators start from the previous snapshot's and
        // are patched by Δ-walk contributions.
        TraceSpan copy_span("copy_columns", "engine", s);
        for (int attr : AccmFileAttrs()) {
          cur_cols_.Column(attr) = prev_cols_.Column(attr);
        }
      }
      ClearRecomputeState();
      ITG_RETURN_IF_ERROR(
          RunDeltaTraverse(t, s, changed_starts, cur_active));
      ITG_RETURN_IF_ERROR(RunMonoidRecompute(t, s));
    }
    // Every emission of an incremental run is a Δ-walk's or a recompute's.
    stats_.delta_walk_emissions = stats_.emissions_applied;

    // Cross-snapshot changes: the accumulator deltas to persist, and the
    // ΔUpdate domain (any attribute or accumulator difference vs the
    // previous snapshot at this superstep).
    std::vector<VertexId> accm_changed;
    std::vector<VertexId> domain;
    CollectUpdateDomain(&accm_changed, &domain);
    if (options_.record_history) {
      ITG_RETURN_IF_ERROR(WriteDeltaFiles(t, s, AccmFileAttrs(),
                                          accm_changed, cur_cols_,
                                          &prev_cols_, nullptr));
    }

    // --- ΔUpdate ----------------------------------------------------------
    // Per-superstep plan diagnostics; enable with ITG_LOG_LEVEL=debug.
    ITG_LOG(Debug) << "t=" << t << " s=" << s
                   << " plan=" << (recompute ? "recompute" : "delta")
                   << " changed_starts=" << changed_starts.size()
                   << " cur_active=" << cur_active.size()
                   << " scans=" << walk_ledger_.Total().edges
                   << " update_domain=" << domain.size();

    {
      // Snapshot A_{t,s} (attrs) before advancing.
      TraceSpan copy_span("copy_columns", "engine", s);
      cur_snapshot = cur_cols_;
    }

    // Advance prev to A_{t-1,s+1} by overlaying the stored chains.
    overlay_changed.clear();
    overlay_watch.Restart();
    {
      TraceSpan overlay_span("overlay", "engine", s);
      for (int attr : AttrFileAttrs()) {
        ITG_RETURN_IF_ERROR(
            vs->OverlaySuperstep(pool, prev_t, s + 1, attr,
                                 prev_cols_.Column(attr).data(),
                                 &overlay_changed));
      }
    }
    ChargeSharedSeconds(overlay_watch.ElapsedSeconds());

    // Advance cur: identical to prev everywhere outside the domain.
    // Virtual attributes (degrees) stay snapshot-bound and are excluded.
    {
      TraceSpan copy_span("copy_columns", "engine", s);
      for (int attr : AttrFileAttrs()) {
        cur_cols_.Column(attr) = prev_cols_.Column(attr);
      }
    }
    // ΔUpdate: each domain vertex gets its A_{t,s} values back, is
    // deactivated, and runs Update if touched (V_accm at snapshot t).
    RunUpdatePhase(t, &domain, &cur_snapshot);

    // Drift-injection test hook (audit_smoke): corrupt one audited cell
    // after ΔUpdate and put the vertex in the candidate domain so the
    // corrupted after-image persists into the delta files — the same
    // footprint as real silent state corruption.
    if (t == options_.debug_corrupt_timestamp && s == 0 &&
        options_.debug_corrupt_vertex >= 0 &&
        options_.debug_corrupt_vertex < n && !AuditedAttrs().empty()) {
      cur_cols_.Cell(AuditedAttrs().front(),
                     options_.debug_corrupt_vertex)[0] +=
          options_.debug_corrupt_delta;
      domain.push_back(options_.debug_corrupt_vertex);
    }

    if (options_.record_history) {
      // File condition (§5.5): changed vs previous superstep OR vs the
      // previous snapshot at this superstep. The candidates are the
      // domain and the vertices the overlay changed.
      ITG_RETURN_IF_ERROR(WriteDeltaFiles(t, s + 1, AttrFileAttrs(), domain,
                                          cur_cols_, &prev_cols_,
                                          &cur_snapshot, &overlay_changed));
    }
    return Status::OK();
  };
  return RunSupersteps(t, /*incremental=*/true, init, superstep);
}

// ---------------------------------------------------------------------------
// Δ-walk enumeration (§5.3)
// ---------------------------------------------------------------------------

bool Engine::RecomputeIsCheaper(
    Timestamp t, const std::vector<VertexId>& changed_starts,
    const std::vector<VertexId>& cur_active) const {
  // Lineage attributes a mutation id through the q_es_p walk that
  // crossed the Δ edge; a recompute has no such walk.
  if (!one_hop_recomputable_ || lineage_ != nullptr) return false;
  TraceSpan span("plan", "engine");
  // Retract and assert both walk the old adjacency.
  const Direction dir = program_->traverse.levels[0].dir;
  const double* prev_active = prev_cols_.Column(program_->active_attr).data();
  const double* cur_active_col =
      cur_cols_.Column(program_->active_attr).data();
  uint64_t delta_cost = 0;
  for (VertexId v : changed_starts) {
    const int walks = (prev_active[v] != 0.0) + (cur_active_col[v] != 0.0);
    if (walks > 0) {
      delta_cost +=
          static_cast<uint64_t>(walks * store_->Degree(v, t - 1, dir));
    }
  }
  // Stop once the recompute reaches the Δ cost: a tiny batch pays only
  // for its changed starts. A tie keeps the Δ plan.
  uint64_t recompute_cost = 0;
  for (VertexId v : cur_active) {
    if (recompute_cost >= delta_cost) return false;
    recompute_cost += static_cast<uint64_t>(store_->Degree(v, t, dir));
  }
  return recompute_cost < delta_cost;
}

Status Engine::RunDeltaTraverse(Timestamp t, Superstep s,
                                const std::vector<VertexId>& changed_starts,
                                const std::vector<VertexId>& cur_active) {
  TraceSpan span("delta_traverse", "engine", s);
  const int k = program_->walk_length();
  const VertexId n = store_->num_vertices();
  const Timestamp prev_t = t - 1;

  // ---- q_vs: ω(Δvs, es, …, es) — old edge structure, changed starts. ----
  // Pass A retracts the old contributions (old attribute values, old
  // activation) with multiplicity −1; pass B asserts the new ones. Both
  // are queued as one batch: retraction only writes accumulator state,
  // which Traverse never reads (accumulators are write-only outside
  // Update), and the apply takes all of A before any of B.
  {
    std::vector<VertexId> old_active_starts;
    std::vector<VertexId> new_active_starts;
    const double* prev_active =
        prev_cols_.Column(program_->active_attr).data();
    const double* cur_active_col =
        cur_cols_.Column(program_->active_attr).data();
    for (VertexId v : changed_starts) {
      if (prev_active[v] != 0.0) old_active_starts.push_back(v);
      if (cur_active_col[v] != 0.0) new_active_starts.push_back(v);
    }
    // Δvs start filter: each changed start is tested twice (old-side and
    // new-side activation); the survivors become retract/assert starts.
    RecordStartFilter(2 * changed_starts.size(),
                      old_active_starts.size() + new_active_starts.size());
    std::vector<WalkJob> jobs;
    WalkJob& retract = jobs.emplace_back(NewJob(
        std::move(old_active_starts), LevelStream::kPrevious, t, prev_t));
    retract.mult_sign = -1;
    retract.eval_cols = &prev_cols_;
    retract.eval_globals = &prev_globals_;
    retract.eval_t = prev_t;
    jobs.push_back(NewJob(std::move(new_active_starts),
                          LevelStream::kPrevious, t, prev_t));
    ITG_RETURN_IF_ERROR(RunWalkJobs(jobs));
  }

  // ---- q_es_p: ω(vs', es'₁ … es'ₚ₋₁, Δesₚ, esₚ₊₁ … es_k). ---------------
  if (store_->BatchSize(t) == 0) return Status::OK();

  struct SubqueryPlan {
    int p;
    bool anchored = false;
    std::vector<LevelStream> streams;
    std::vector<std::vector<uint8_t>> allow;  // neighbor-pruning sets
    std::vector<VertexId> starts;
  };
  std::vector<SubqueryPlan> plans;
  int max_emit_depth = 0;
  for (const Emission& e : program_->traverse.emissions) {
    max_emit_depth = std::max(max_emit_depth, e.stmt_depth);
  }
  for (int p = 1; p <= k; ++p) {
    if (max_emit_depth < p) break;  // no emission can cross this delta
    SubqueryPlan plan;
    plan.p = p;
    plan.streams.resize(static_cast<size_t>(k));
    for (int j = 1; j <= k; ++j) {
      plan.streams[j - 1] = (j < p) ? LevelStream::kCurrent
                            : (j == p) ? LevelStream::kDelta
                                       : LevelStream::kPrevious;
    }
    // Traversal reordering: anchor the enumeration at the delta stream
    // when the plan allows reaching it first — directly (p == 1) or via
    // the closing constraint (p == k with u_{k+1} == u_1).
    if (options_.traversal_reordering && p == k && k >= 2 &&
        program_->traverse.closes_to_start) {
      plan.anchored = true;
      plans.push_back(std::move(plan));
      continue;
    }
    if (options_.traversal_reordering && p == 1) {
      // Starts restricted to the delta sources.
      std::vector<VertexId> sources;
      ITG_RETURN_IF_ERROR(store_->DeltaSources(
          t, program_->traverse.levels[0].dir, &sources));
      const double* active = cur_cols_.Column(program_->active_attr).data();
      for (VertexId v : sources) {
        if (active[v] != 0.0) plan.starts.push_back(v);
      }
      RecordStartFilter(sources.size(), plan.starts.size());
      plans.push_back(std::move(plan));
      continue;
    }
    if (options_.neighbor_pruning) {
      ITG_RETURN_IF_ERROR(ComputeNeighborPruning(*program_, store_,
                                                 store_->pool(), t, p,
                                                 &plan.allow));
      const std::vector<uint8_t>& start_allow = plan.allow[0];
      const double* active = cur_cols_.Column(program_->active_attr).data();
      for (VertexId v = 0; v < n; ++v) {
        if (active[v] != 0.0 && start_allow[static_cast<size_t>(v)]) {
          plan.starts.push_back(v);
        }
      }
      RecordStartFilter(static_cast<uint64_t>(n), plan.starts.size());
    } else {
      plan.starts = cur_active;
      RecordStartFilter(cur_active.size(), cur_active.size());
    }
    plans.push_back(std::move(plan));
  }

  // Contributions below depth p are owned by a smaller sub-query, hence
  // min_emit_depth = p.
  auto make_plan_job = [&](const SubqueryPlan& plan,
                           std::vector<VertexId> starts) -> WalkJob {
    WalkJob job =
        NewJob(std::move(starts), LevelStream::kCurrent, t, prev_t);
    job.streams = plan.streams;
    for (int j = 1; j < plan.p && j < static_cast<int>(plan.allow.size());
         ++j) {
      job.level_allow[static_cast<size_t>(j - 1)] = &plan.allow[j];
    }
    job.min_emit_depth = plan.p;
    job.delta_level = plan.p;
    return job;
  };

  // Anchored sub-queries first (they are cheap and independent). Their
  // time is split evenly across the simulated machines.
  for (const SubqueryPlan& plan : plans) {
    if (plan.anchored) {
      Stopwatch watch;
      ITG_RETURN_IF_ERROR(RunAnchoredClosing(t, plan.p));
      ChargeSharedSeconds(watch.ElapsedSeconds());
    }
  }
  std::vector<WalkJob> jobs;
  if (options_.seek_window_sharing && options_.num_partitions <= 1) {
    // Seek/window sharing: process the sub-queries block-by-block so the
    // pages a block pulls into the buffer pool serve every sub-query
    // before eviction (the batch-processed, annotated IO of §5.3). One
    // job per (block, plan) keeps that order as the apply order.
    std::vector<uint8_t> in_block(static_cast<size_t>(n), 0);
    const size_t block = static_cast<size_t>(options_.window_vertices);
    std::vector<VertexId> all_starts;
    {
      std::vector<uint8_t> seen(static_cast<size_t>(n), 0);
      for (const SubqueryPlan& plan : plans) {
        if (plan.anchored) continue;
        for (VertexId v : plan.starts) {
          if (!seen[static_cast<size_t>(v)]) {
            seen[static_cast<size_t>(v)] = 1;
            all_starts.push_back(v);
          }
        }
      }
      std::sort(all_starts.begin(), all_starts.end());
    }
    std::vector<VertexId> block_starts;
    for (size_t begin = 0; begin < all_starts.size(); begin += block) {
      size_t end = std::min(all_starts.size(), begin + block);
      std::fill(in_block.begin(), in_block.end(), 0);
      for (size_t i = begin; i < end; ++i) {
        in_block[static_cast<size_t>(all_starts[i])] = 1;
      }
      for (const SubqueryPlan& plan : plans) {
        if (plan.anchored) continue;
        block_starts.clear();
        for (VertexId v : plan.starts) {
          if (in_block[static_cast<size_t>(v)]) block_starts.push_back(v);
        }
        if (!block_starts.empty()) {
          jobs.push_back(make_plan_job(plan, block_starts));
        }
      }
    }
  } else {
    for (const SubqueryPlan& plan : plans) {
      if (plan.anchored) continue;
      jobs.push_back(make_plan_job(plan, plan.starts));
    }
  }
  return RunWalkJobs(jobs);
}

Status Engine::RunAnchoredClosing(Timestamp t, int p) {
  // Sub-query q_k of a closing walk (u_{k+1} == u_1): the reordered plan
  // of Figure 11(b). Each delta edge (a, b) fixes positions k and k+1;
  // the closing constraint fixes the start u_1 = b; forward enumeration
  // over the current snapshot binds positions 2..k-1 with a final
  // membership probe against `a`.
  TraceSpan span("anchored_closing", "engine", p);
  const int k = program_->walk_length();
  ITG_CHECK_EQ(p, k);
  const VertexId n = store_->num_vertices();
  const double* active = cur_cols_.Column(program_->active_attr).data();
  const Direction delta_dir = program_->traverse.levels[k - 1].dir;

  EvalContext ctx;
  ctx.columns = &cur_cols_;
  ctx.globals = &cur_globals_;
  ctx.num_vertices = static_cast<double>(n);
  ctx.num_edges = static_cast<double>(store_->num_edges(t));
  // Closing walks cross ΔE at level k; their emissions are recorded into
  // one buffer and applied after the scan.
  WalkJob job;
  job.min_emit_depth = k;
  job.delta_level = k;
  TaskBuffer buffer;
  buffer.Reset(program_->traverse.emissions.size(), 1);

  // EXPLAIN ANALYZE attribution: the anchored plan bypasses the walk
  // enumerator, so its edge probes and predicate evaluations are charged
  // directly to the level stream operators here.
  std::vector<gsa::OperatorCounters*> level_cells(static_cast<size_t>(k),
                                                  nullptr);
  for (int j = 0; j < k; ++j) {
    const int op = program_->traverse.levels[static_cast<size_t>(j)].op;
    if (op >= 0) level_cells[static_cast<size_t>(j)] = &profile_.Op(op);
  }

  // The general Where conjuncts of level index j, on the current row.
  EvalFrame& frame = frames_[0];
  auto passes = [&](int j) {
    const auto level = static_cast<size_t>(j);
    return program_->traverse.levels[level].general.empty() ||
           ExecuteOne(code_.where[level], ctx, &frame) != nullptr;
  };

  std::vector<VertexId> row(static_cast<size_t>(k) + 1);
  std::vector<VertexId> adj;
  Status status = Status::OK();
  Status scan_status = store_->ScanDeltas(
      store_->pool(), t, delta_dir, [&](Edge e, Multiplicity m) {
        if (!status.ok()) return;
        const VertexId a = e.src;
        const VertexId b = e.dst;
        if (b >= n || a >= n) return;
        if (level_cells[static_cast<size_t>(k - 1)] != nullptr) {
          ++level_cells[static_cast<size_t>(k - 1)]->edges;
        }
        // Start filter σ_active on u_1 = b (one candidate per delta edge).
        RecordStartFilter(1, active[b] != 0.0 ? 1 : 0);
        if (active[b] == 0.0) return;
        // Forward-enumerate positions 1..k-2 from u_1 = b over the
        // current snapshot, then probe position k-1 == a.
        std::function<void(int)> extend = [&](int depth) {
          if (!status.ok()) return;
          if (depth == k - 1) {
            // Bind position k-1 (row index k-1) to `a`: it must be a
            // current-snapshot neighbor of row[k-2] satisfying the
            // level's predicate; then row[k] = b closes the walk.
            const LevelSpec& level = program_->traverse.levels[k - 2];
            gsa::OperatorCounters* probe_cell =
                level_cells[static_cast<size_t>(k - 2)];
            row[static_cast<size_t>(k - 1)] = a;
            row[static_cast<size_t>(k)] = b;
            ctx.rows = row.data();
            ctx.row_len = k + 1;
            if (level.gt_pos >= 0 && !(a > row[level.gt_pos])) return;
            if (level.lt_pos >= 0 && !(a < row[level.lt_pos])) return;
            if (level.eq_pos >= 0 && a != row[level.eq_pos]) return;
            ctx.eval_counter =
                (probe_cell != nullptr) ? &probe_cell->evals : nullptr;
            if (!passes(k - 2)) return;
            if (probe_cell != nullptr) ++probe_cell->edges;
            auto has = store_->HasEdge(store_->pool(), row[k - 2], a, t,
                                       level.dir);
            if (!has.ok()) {
              status = has.status();
              return;
            }
            if (!*has) return;
            if (probe_cell != nullptr) ++probe_cell->out_pos;
            // Remaining conjuncts of the delta level itself.
            const LevelSpec& last = program_->traverse.levels[k - 1];
            gsa::OperatorCounters* last_cell =
                level_cells[static_cast<size_t>(k - 1)];
            if (last.gt_pos >= 0 && !(b > row[last.gt_pos])) return;
            if (last.lt_pos >= 0 && !(b < row[last.lt_pos])) return;
            ctx.eval_counter =
                (last_cell != nullptr) ? &last_cell->evals : nullptr;
            if (!passes(k - 1)) return;
            if (last_cell != nullptr) {
              (m > 0 ? last_cell->out_pos : last_cell->out_neg) += 1;
            }
            EvalEmissions(job, row.data(), k, m, &ctx, &frame, &buffer);
            return;
          }
          const LevelSpec& level = program_->traverse.levels[depth - 1];
          gsa::OperatorCounters* cell =
              level_cells[static_cast<size_t>(depth - 1)];
          Status st = store_->GetAdjacency(store_->pool(),
                                           row[static_cast<size_t>(depth - 1)],
                                           t, level.dir, &adj_stack_[depth]);
          if (!st.ok()) {
            status = st;
            return;
          }
          for (VertexId v : adj_stack_[depth]) {
            if (cell != nullptr) ++cell->edges;
            row[static_cast<size_t>(depth)] = v;
            ctx.rows = row.data();
            ctx.row_len = depth + 1;
            if (level.gt_pos >= 0 && !(v > row[level.gt_pos])) continue;
            if (level.lt_pos >= 0 && !(v < row[level.lt_pos])) continue;
            if (level.eq_pos >= 0 && v != row[level.eq_pos]) continue;
            ctx.eval_counter = (cell != nullptr) ? &cell->evals : nullptr;
            if (!passes(depth - 1)) continue;
            if (cell != nullptr) ++cell->out_pos;
            extend(depth + 1);
          }
        };
        row[0] = b;
        extend(1);
      });
  ITG_RETURN_IF_ERROR(scan_status);
  ITG_RETURN_IF_ERROR(status);
  TraceSpan accumulate_span("accumulate", "engine");
  return ApplyTask(buffer);
}

Status Engine::RunMonoidRecompute(Timestamp t, Superstep s) {
  const VertexId n = store_->num_vertices();
  bool any = false;
  for (int a = 0; a < num_program_attrs(); ++a) {
    if (!recompute_sets_[a].empty()) any = true;
  }
  if (!any) return Status::OK();
  TraceSpan span("monoid_recompute", "engine", s);

  // Re-derive the recompute targets that are still marked.
  std::vector<std::vector<uint8_t>> target_marks(
      static_cast<size_t>(num_program_attrs()));
  std::vector<VertexId> seeds;
  for (int a = 0; a < num_program_attrs(); ++a) {
    auto& list = recompute_sets_[a];
    if (list.empty()) continue;
    auto& marks = monoid_marks_[a];
    target_marks[a].assign(static_cast<size_t>(n), 0);
    for (VertexId v : list) {
      if (!marks.empty() && marks[static_cast<size_t>(v)]) {
        target_marks[a][static_cast<size_t>(v)] = 1;
        seeds.push_back(v);
        ++stats_.recomputed_vertices;
        // Reset the aggregate: full re-aggregation from current walks.
        const lang::Type& type = program_->vertex_attrs[a].type;
        double* cell = cur_cols_.Cell(a, v);
        for (int i = 0; i < type.width; ++i) {
          cell[i] = lang::AccmIdentity(type.accm_op);
        }
        if (support_attr_[a] >= 0) {
          cur_cols_.Cell(support_attr_[a], v)[0] = 0.0;
        }
      }
    }
  }
  if (seeds.empty()) return Status::OK();
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  // Candidate starts: backward over the current snapshot from the seeds,
  // up to the deepest emission's target depth (§5.4's backward MS-BFS to
  // find V_re).
  int max_target_depth = 0;
  for (const Emission& e : program_->traverse.emissions) {
    if (!e.is_global && IsAccmMonoid(e.target)) {
      max_target_depth = std::max(max_target_depth, e.target_depth);
    }
  }
  std::vector<uint8_t> start_marks(static_cast<size_t>(n), 0);
  std::vector<VertexId> frontier = seeds;
  if (max_target_depth == 0) {
    for (VertexId v : seeds) start_marks[static_cast<size_t>(v)] = 1;
  } else {
    std::vector<VertexId> adj;
    std::vector<VertexId> next;
    std::vector<uint8_t> visited(static_cast<size_t>(n), 0);
    for (VertexId v : frontier) visited[static_cast<size_t>(v)] = 1;
    for (int hop = max_target_depth; hop >= 1; --hop) {
      const LevelSpec& level = program_->traverse.levels[hop - 1];
      Direction back = (level.dir == Direction::kOut) ? Direction::kIn
                                                      : Direction::kOut;
      next.clear();
      for (VertexId x : frontier) {
        ITG_RETURN_IF_ERROR(
            store_->GetAdjacency(store_->pool(), x, t, back, &adj));
        for (VertexId w : adj) {
          if (hop == 1) {
            start_marks[static_cast<size_t>(w)] = 1;
          } else if (!visited[static_cast<size_t>(w)]) {
            visited[static_cast<size_t>(w)] = 1;
            next.push_back(w);
          }
        }
      }
      if (hop > 1) frontier.swap(next);
    }
    // Seeds themselves may also be targets at depth 0 emissions.
  }

  std::vector<VertexId> starts;
  const double* active = cur_cols_.Column(program_->active_attr).data();
  for (VertexId v = 0; v < n; ++v) {
    if (start_marks[static_cast<size_t>(v)] && active[v] != 0.0) {
      starts.push_back(v);
    }
  }
  RecordStartFilter(static_cast<uint64_t>(n), starts.size());

  std::vector<WalkJob> jobs;
  WalkJob& job = jobs.emplace_back(
      NewJob(std::move(starts), LevelStream::kCurrent, t, t));
  job.monoid_only = true;
  job.target_marks = &target_marks;
  ITG_RETURN_IF_ERROR(RunWalkJobs(jobs));
  // Re-aggregation resolved the marks.
  ClearRecomputeState();
  return Status::OK();
}

bool Engine::IsAccmMonoid(int attr) const {
  const lang::Type& type = program_->vertex_attrs[attr].type;
  return type.is_accumulator && !lang::IsAbelianGroup(type.accm_op);
}

void Engine::ClearRecomputeState() {
  for (int a = 0; a < num_program_attrs(); ++a) {
    recompute_sets_[a].clear();
    if (!monoid_marks_[a].empty()) {
      std::fill(monoid_marks_[a].begin(), monoid_marks_[a].end(), 0);
    }
  }
}

void Engine::InitGlobals(std::vector<std::vector<double>>* globals) {
  globals->clear();
  for (const auto& g : program_->globals) {
    double init = g.type.is_accumulator ? lang::AccmIdentity(g.type.accm_op)
                                        : 0.0;
    globals->push_back(
        std::vector<double>(static_cast<size_t>(g.type.width), init));
  }
}

const std::vector<int>& Engine::NonAccmAttrs() const {
  if (non_accm_attrs_.empty()) {
    for (int a = 0; a < num_program_attrs(); ++a) {
      if (!program_->vertex_attrs[a].type.is_accumulator) {
        non_accm_attrs_.push_back(a);
      }
    }
  }
  return non_accm_attrs_;
}

const std::vector<int>& Engine::AttrFileAttrs() const {
  if (attr_file_attrs_.empty()) {
    for (int a = 0; a < num_program_attrs(); ++a) {
      if (!program_->vertex_attrs[a].type.is_accumulator &&
          !IsVirtualAttr(program_->vertex_attrs[a].name)) {
        attr_file_attrs_.push_back(a);
      }
    }
  }
  return attr_file_attrs_;
}

// ---------------------------------------------------------------------------
// Correctness observability (state digests, lineage reports)
// ---------------------------------------------------------------------------

std::vector<int> Engine::AuditedAttrs() const {
  std::vector<int> out;
  for (int a : AttrFileAttrs()) {
    // Activation schedules work; it is not part of the query answer and
    // legitimately differs between incremental and one-shot execution
    // under fixed_supersteps.
    if (a == program_->active_attr) continue;
    out.push_back(a);
  }
  return out;
}

uint64_t Engine::ComputeStateDigest(
    std::vector<std::pair<std::string, uint64_t>>* per_attr) const {
  uint64_t combined = 0;
  for (int attr : AuditedAttrs()) {
    const uint64_t col =
        ColumnDigest(cur_cols_.Column(attr).data(), cur_cols_.num_vertices(),
                     cur_cols_.width(attr));
    if (per_attr != nullptr) {
      per_attr->emplace_back(program_->vertex_attrs[attr].name, col);
    }
    combined = CombineColumnDigest(combined, attr, col);
  }
  return Mix64(combined);
}

void Engine::PublishStateDigest(Timestamp t) {
  stats_.state_digest = ComputeStateDigest();
  if (store_->metrics() != nullptr) {
    store_->metrics()->registry().gauge("audit.state_digest")->Set(
        static_cast<int64_t>(stats_.state_digest));
  }
  GlobalLiveStatus().SetDigest(stats_.state_digest, t);
}

std::string Engine::ExplainLineage(VertexId v) const {
  if (lineage_ == nullptr) return "";
  std::string out = "lineage of vertex " + std::to_string(v) + ":\n";
  for (int attr : AuditedAttrs()) {
    out += "  " + program_->vertex_attrs[attr].name + " = ";
    const double* cell = cur_cols_.Cell(attr, v);
    for (int i = 0; i < cur_cols_.width(attr); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), i > 0 ? " %g" : "%g", cell[i]);
      out += buf;
    }
    out += "\n";
  }
  out += lineage_->Explain(v);
  return out;
}

const std::vector<int>& Engine::AccmFileAttrs() const {
  if (accm_file_attrs_.empty()) {
    for (int a : accm_attrs_) {
      accm_file_attrs_.push_back(a);
      if (support_attr_[a] >= 0) accm_file_attrs_.push_back(support_attr_[a]);
    }
    accm_file_attrs_.push_back(contribs_attr_);
  }
  return accm_file_attrs_;
}

}  // namespace itg
