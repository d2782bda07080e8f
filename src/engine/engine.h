#ifndef ITG_ENGINE_ENGINE_H_
#define ITG_ENGINE_ENGINE_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "compiler/compiled_program.h"
#include "engine/columns.h"
#include "engine/lineage.h"
#include "engine/walk.h"
#include "gsa/profile.h"
#include "storage/graph_store.h"

namespace itg {

/// Engine knobs. The optimization flags map to the paper's §6.4.2
/// ablation: traversal reordering (TR), neighbor pruning (NP),
/// seek/window sharing (SWS), MIN-with-counting (CNT); plus the
/// multi-way-intersection compiler rewrite (always on in the paper).
struct EngineOptions {
  int window_vertices = 256;
  bool traversal_reordering = true;
  bool neighbor_pruning = true;
  bool seek_window_sharing = true;
  bool min_counting = true;
  bool multiway_intersection = true;
  /// Run exactly this many supersteps (paper: 10 for PR/LP); -1 = until
  /// convergence.
  int fixed_supersteps = -1;
  int max_supersteps = 500;
  /// Write per-superstep history to the vertex store (required before
  /// RunIncremental; disable for throwaway one-shot comparison runs).
  bool record_history = true;
  /// Distributed simulation (§2 of DESIGN.md): hash-partition the work
  /// over this many simulated machines, each with its own buffer pool and
  /// meters. 1 = plain single-machine execution.
  int num_partitions = 1;
  /// Per-machine buffer pool capacity (pages) in the simulation.
  size_t partition_pool_pages = 512;
  /// Simulated interconnect bandwidth for the distributed time model.
  double network_bytes_per_second = 1.0e9;
  /// Worker threads for intra-machine parallel walk enumeration
  /// (§6.2 "in parallel for non-conflicting walks"). 0 = the ITG_THREADS
  /// env var, else hardware_concurrency(). 1 disables the pool: the
  /// calling thread evaluates and applies every walk task itself. Ignored
  /// (one thread) when num_partitions > 1 (see ARCHITECTURE.md,
  /// "Threading model").
  int num_threads = 0;
  /// Test hook for the stall watchdog: sleep this long inside the first
  /// superstep of every run. The sleep is observation-neutral (no work
  /// counter moves), so fingerprints are unaffected. 0 = off.
  uint64_t debug_stall_first_superstep_ms = 0;
  /// Opt-in Δ-record provenance: track a bounded set of contributing
  /// input-mutation ids per vertex (see engine/lineage.h).
  bool lineage = false;
  /// Drift-injection test hooks (audit_smoke): during
  /// RunIncremental(debug_corrupt_timestamp), superstep 0, add
  /// debug_corrupt_delta to the first audited attribute of
  /// debug_corrupt_vertex right after the ΔUpdate block — and add the
  /// vertex to the ΔUpdate domain so the corrupted after-image persists
  /// into the delta files exactly like real silent state corruption
  /// would. timestamp/vertex = -1 disables.
  Timestamp debug_corrupt_timestamp = -1;
  VertexId debug_corrupt_vertex = -1;
  double debug_corrupt_delta = 0.0;
  /// When non-empty, published as the GlobalLiveStatus query label at the
  /// start of every run. Long-lived drivers with one engine set the label
  /// once themselves; the serving daemon interleaves runs of many
  /// standing views on one thread, so each view's engine retags the live
  /// query as it runs and /statusz always names the view in flight.
  std::string query_label;
};

/// Per-machine outcome of a partitioned run.
struct MachineStats {
  double seconds = 0;          ///< measured compute + IO time of this machine
  uint64_t network_bytes = 0;  ///< pre-aggregated shuffle volume it sent
  /// Modeled BSP barrier wait: time this machine idled at superstep
  /// barriers for the round's slowest machine (skew indicator).
  uint64_t barrier_wait_nanos = 0;
};

/// Statistics of the latest run.
struct RunStats {
  Timestamp timestamp = 0;
  bool incremental = false;
  int supersteps = 0;
  uint64_t emissions_applied = 0;
  uint64_t delta_walk_emissions = 0;
  /// Candidate walk extensions rejected by neighbor pruning's MS-BFS
  /// visited sets (§5.4) — work the Δ-walk decomposition avoided.
  uint64_t delta_walks_pruned = 0;
  uint64_t recomputed_vertices = 0;
  /// Incremental supersteps that recomputed their accumulators over the
  /// new snapshot instead of running the Δ plan, because that scanned
  /// fewer edges (Engine::RecomputeIsCheaper). Not in the run report.
  uint64_t recomputed_supersteps = 0;
  /// Supersteps whose accumulators the pull kernel computed
  /// (Engine::PullAccumulators) instead of the record path. Not in the
  /// run report.
  uint64_t pulled_supersteps = 0;
  uint64_t windows_loaded = 0;
  uint64_t edges_scanned = 0;
  double seconds = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  /// Worker threads the run was allowed to use (1 when single-threaded
  /// or partitioned).
  int threads = 1;
  /// Walk-shard and pull tasks executed through the thread pool.
  uint64_t parallel_tasks = 0;
  /// Update shards executed through the thread pool (RunUpdatePhase).
  /// Not in the run report.
  uint64_t update_tasks = 0;
  /// Tasks claimed from another worker's queue (imbalance indicator).
  uint64_t steals = 0;
  /// Walk batches whose records the pool applied by target range
  /// (Engine::RunWalkJobs). Not in the run report.
  uint64_t pooled_applies = 0;
  /// Sum over workers of time spent inside pool tasks.
  uint64_t busy_nanos = 0;
  /// Order-independent digest of the audited attribute columns at the
  /// end of the run (Engine::ComputeStateDigest). Deterministic across
  /// thread counts; a state fingerprint, not a work counter.
  uint64_t state_digest = 0;
};

/// The iTurboGraph runtime engine: executes compiled L_NGA programs over
/// the dynamic graph store under the BSP model (§5.2), either one-shot
/// (full enumeration) or incrementally (Δ-walk enumeration with
/// incremental Accumulate, §5.3–5.4).
///
/// Lifecycle: one Engine per (store, program); RunOneShot on the initial
/// snapshot, then RunIncremental once per mutation batch. The engine
/// keeps the current snapshot's final attribute values in memory and the
/// per-superstep history in the vertex store (delta chains).
class Engine {
 public:
  Engine(DynamicGraphStore* store, const CompiledProgram* program,
         const EngineOptions& options);

  /// Full execution at snapshot `t` (normally 0).
  Status RunOneShot(Timestamp t);

  /// Incremental execution at snapshot `t`; requires that the previous
  /// run (one-shot or incremental) executed at `t-1` with history
  /// recording enabled.
  Status RunIncremental(Timestamp t);

  /// Final attribute value of `v` (first element for arrays).
  double AttrValue(int attr, VertexId v) const {
    return cur_cols_.Cell(attr, v)[0];
  }
  const double* AttrCell(int attr, VertexId v) const {
    return cur_cols_.Cell(attr, v);
  }
  /// Final global value (global accumulators total over the whole run —
  /// documented deviation: not reset per superstep).
  const std::vector<double>& GlobalValue(int g) const {
    return cur_globals_[g];
  }

  int AttrIndex(const std::string& name) const;
  int GlobalIndex(const std::string& name) const;

  const RunStats& last_stats() const { return stats_; }
  /// EXPLAIN ANALYZE profile of the last run: per-operator counters keyed
  /// by the compiler's stable plan ids, plus the superstep timeline.
  /// Reset at the start of every Run*; drivers that want whole-process
  /// totals accumulate with ExecutionProfile::Merge. The integer work
  /// counters are bit-identical across thread counts (enforced by
  /// parallel_determinism_test); wall/cpu fields are measured time.
  const gsa::ExecutionProfile& last_profile() const { return profile_; }
  const EngineOptions& options() const { return options_; }
  EngineOptions* mutable_options() { return &options_; }

  /// Per-machine stats of the last run (empty unless num_partitions > 1).
  const std::vector<MachineStats>& machine_stats() const {
    return machine_stats_;
  }
  /// Distributed-time model: max over machines of (measured time +
  /// shuffle volume / bandwidth). Meaningful when num_partitions > 1.
  double SimulatedDistributedSeconds() const;

  // ---- correctness observability ---------------------------------------
  /// Order-independent 64-bit digest of the audited attribute columns of
  /// the current state (common/digest.h). Bit-identical across thread
  /// counts; for integer-valued programs also across partition counts
  /// (floating-point SUM order differs between partitionings).
  /// `per_attr`, when non-null, receives (attribute name, column digest)
  /// pairs in program-attribute order.
  uint64_t ComputeStateDigest(
      std::vector<std::pair<std::string, uint64_t>>* per_attr =
          nullptr) const;
  /// The audit/digest domain: the program's result attributes — non-accm,
  /// non-virtual, minus the activation flag (activation schedules work;
  /// it is not part of the query answer and legitimately differs between
  /// incremental and one-shot execution under fixed_supersteps).
  std::vector<int> AuditedAttrs() const;
  /// Read access to the current attribute state (audit column diffs).
  const ColumnSet& columns() const { return cur_cols_; }
  /// Provenance report for `v`: current audited values plus the
  /// derivation chain of contributing raw edge mutations. Empty string
  /// unless EngineOptions::lineage is set.
  std::string ExplainLineage(VertexId v) const;
  const LineageTracker* lineage() const { return lineage_.get(); }

 private:
  friend class EngineTestPeer;
  // ---- shared helpers -------------------------------------------------
  void FillDegreeColumns(ColumnSet* cols, Timestamp t);
  void RunInitialize(ColumnSet* cols,
                     std::vector<std::vector<double>>* globals, Timestamp t);
  void ResetAccumulators(ColumnSet* cols);
  std::vector<VertexId> ActiveList(const ColumnSet& cols) const;
  void InitGlobals(std::vector<std::vector<double>>* globals);

  /// What applying one bucket of records did besides writing accumulator
  /// cells: folded into the run on the caller (FoldApplyCounts), so
  /// buckets applied on different workers share no counter.
  struct ApplyCounts {
    uint64_t applied = 0;
    /// Accumulate operator counters, one per emission.
    std::vector<gsa::OperatorCounters> accum;
    /// Per program attribute: monoid targets newly marked for recompute.
    std::vector<std::vector<VertexId>> marked;
  };
  ApplyCounts NewApplyCounts() const;
  void FoldApplyCounts(const ApplyCounts& counts);

  /// Applies one evaluated emission (value expanded to `emission.width`
  /// doubles) onto the *current* accumulator state, implementing
  /// incremental Accumulate (§5.4): Abelian-group inverse on deletions,
  /// support counting / recompute marking for monoids. Only ApplyRecords
  /// calls it, and every target receives its records in task order, so
  /// floating-point accumulation order is the same at every thread
  /// count. Besides `counts` it writes only what belongs to `target`: its
  /// cells and recompute mark, the globals of a global emission, and the
  /// shuffle meters of a partitioned run, which applies on one thread.
  void ApplyEmissionValue(const Emission& emission, VertexId target,
                          const double* values, int mult,
                          ApplyCounts* counts);

  // ---- walk-job execution ----------------------------------------------
  /// One enumeration request of a superstep: a start set walked over a
  /// fixed stream assignment with emissions evaluated against one
  /// snapshot's state. Supersteps queue jobs and run them as a batch so
  /// the pool can shard all of them at once.
  struct WalkJob {
    std::vector<VertexId> starts;
    std::vector<LevelStream> streams;
    std::vector<const std::vector<uint8_t>*> level_allow;
    int max_depth = 0;
    /// Emissions below this depth are owned by another sub-query (SWS).
    int min_emit_depth = 0;
    /// −1 retracts (q_vs pass A); +1 asserts.
    int mult_sign = 1;
    /// Restrict to monoid emissions onto marked targets (recompute jobs).
    bool monoid_only = false;
    /// Delta-stream level of a q_es_p sub-query (depth at which the walk
    /// crosses ΔE); -1 for non-delta jobs. Lineage tagging only.
    int delta_level = -1;
    const std::vector<std::vector<uint8_t>>* target_marks = nullptr;
    const ColumnSet* eval_cols = nullptr;
    const std::vector<std::vector<double>>* eval_globals = nullptr;
    /// Snapshot whose |E| feeds the eval context.
    Timestamp eval_t = 0;
    Timestamp current_t = 0;
    Timestamp previous_t = 0;
  };

  /// A run of consecutive starts of one job (of one machine's share of
  /// them when partitioned), at most one window block: the unit of
  /// evaluation and of apply order.
  struct WalkTask {
    const WalkJob* job = nullptr;
    const std::vector<VertexId>* starts = nullptr;
    size_t begin = 0;
    size_t end = 0;
    int machine = 0;
    double num_edges = 0;  // |E| at job->eval_t
  };
  /// One evaluated emission, applied after evaluation.
  struct EmissionRecord {
    int emission;
    int mult;
    VertexId target;
  };
  /// Lineage mode only: the walk start and the crossed delta-edge id of
  /// the record at the same index (-1 when no delta edge was crossed).
  struct LineageTag {
    VertexId start;
    int64_t delta_id;
  };
  /// The records of one task whose targets lie in one vertex-id range
  /// (global emissions go to range 0), in evaluation order.
  struct RecordBucket {
    std::vector<EmissionRecord> records;
    std::vector<double> values;  // emission.width doubles per record
    std::vector<LineageTag> lineage;
  };
  /// An emission's guard outcome and value at the start it was last
  /// evaluated for. A start-invariant emission's later walks from that
  /// start in the task reuse them.
  struct EmissionSlot {
    VertexId start = -1;
    bool pass = false;
    std::array<double, kMaxAttrWidth> value{};
  };
  /// Everything evaluating one task produced.
  struct TaskBuffer {
    Status status;
    std::vector<RecordBucket> buckets;  // one per target range
    std::vector<EmissionSlot> slots;    // one per emission
    // EXPLAIN ANALYZE Map counters, one per emission.
    std::vector<gsa::OperatorCounters> map_counters;
    // The walk counters the task's enumerator handed over (TakeCounts).
    WalkEnumerator::Counts walk;

    void Reset(size_t num_emissions, size_t num_buckets);
  };

  /// Runs a batch of jobs: cuts them into tasks and evaluates every task
  /// into a TaskBuffer whose records are bucketed by target range. When
  /// the jobs hold at least one window block of starts in an
  /// unpartitioned multi-threaded run, the pool evaluates the tasks and
  /// then applies the ranges, each range's buckets in task order (one
  /// range when lineage is on, applied by the caller). Otherwise the
  /// caller evaluates and applies task by task. Either way every target
  /// receives its records in task order (job-major, start-minor); see
  /// ARCHITECTURE.md, "Threading model".
  Status RunWalkJobs(const std::vector<WalkJob>& jobs);
  /// Enumerates one task's walks on `we` into `out`, evaluating in
  /// `frame` (the running worker's).
  void EvalTask(const WalkTask& task, WalkEnumerator* we, EvalFrame* frame,
                TaskBuffer* out) const;
  /// The one emission evaluator: for the walk prefix `row[0..depth]`,
  /// filters the program's emissions by depth, the job's min_emit_depth
  /// and monoid marks, checks guards, evaluates and widens the value, and
  /// appends a record to the bucket of its target's range in `out` (plus
  /// a LineageTag in lineage mode). A start-invariant emission is
  /// evaluated once per start and reused from `out`'s slot. Thread-safe:
  /// reads only evaluation state, never accumulators.
  void EvalEmissions(const WalkJob& job, const VertexId* row, int depth,
                     int mult, EvalContext* ctx, EvalFrame* frame,
                     TaskBuffer* out) const;
  /// The one apply loop: applies a bucket's records in order and feeds
  /// lineage, charging `counts`.
  void ApplyRecords(const RecordBucket& bucket, ApplyCounts* counts);
  /// Folds a task's walk counters into the superstep's ledger and its Map
  /// counters into the profile.
  void FoldTaskCounters(const TaskBuffer& buffer);
  /// Applies all of a task's buckets on the caller, folds its counters,
  /// and returns the task's status.
  Status ApplyTask(const TaskBuffer& buffer);
  /// The worker pool, created on first use.
  ThreadPool& Pool();
  /// Fills the thread-scaling fields of stats_ from the pool's cumulative
  /// counters (deltas against the given run-start baselines).
  void FillThreadStats(uint64_t steals0, uint64_t busy0);

  // ---- EXPLAIN ANALYZE recording ---------------------------------------
  /// Re-resolves the cached per-operator counter cells (map-node addresses
  /// in profile_ are stable, so this runs once in the constructor).
  void CacheProfileCells();
  /// Start-filter (σ_active) attribution: `in` candidates inspected, `out`
  /// kept as walk starts.
  void RecordStartFilter(uint64_t in, uint64_t out);
  /// Folds the superstep's walk ledger into the per-operator profile:
  /// level i → LevelSpec::op, plus the Walk roll-up and the start-stream
  /// output.
  void FoldWalkCounters();
  /// Per-partition network_bytes snapshot (empty when unpartitioned).
  std::vector<uint64_t> ShuffleSnapshot() const;

  // ---- live telemetry ---------------------------------------------------
  /// Per-machine seconds at superstep start (empty when unpartitioned) —
  /// the baseline for the superstep's barrier-wait model.
  std::vector<double> MachineSecondsSnapshot() const;
  /// End-of-superstep telemetry: folds the barrier-wait model into
  /// machine_stats_, publishes per-partition progress to GlobalLiveStatus,
  /// and refreshes the partition skew and memory gauges in the store's
  /// registry. Observation-only — no work counter or accumulator moves.
  void PublishSuperstepTelemetry(const std::vector<double>& seconds0);
  /// Refreshes the mem.accumulator_columns byte gauge from the resident
  /// column sets.
  void PublishColumnMemory();
  /// Splits shared store time (delta-chain overlays, the anchored
  /// closing) evenly over the simulated machines of a partitioned run.
  void ChargeSharedSeconds(double seconds);

  /// Sets v's recompute mark for `attr`; true when it was not set (the
  /// caller then queues v). The marks are allocated on first use, or
  /// before a pooled apply.
  bool SetRecomputeMark(int attr, VertexId v);
  void MarkRecompute(int attr, VertexId v) {
    if (SetRecomputeMark(attr, v)) recompute_sets_[attr].push_back(v);
  }
  void UnmarkRecompute(int attr, VertexId v);
  void ClearRecomputeState();

  /// End-of-run digest: fills RunStats::state_digest and mirrors it into
  /// the metrics registry and GlobalLiveStatus. Observation-only.
  void PublishStateDigest(Timestamp t);

  /// A superstep body: runs superstep `s` from the `active` vertices and
  /// may set the timeline row's `frontier` (preset to the active count).
  using SuperstepBody = std::function<Status(
      Superstep s, std::vector<VertexId> active, uint64_t* frontier)>;
  /// The one superstep loop (§5.2) of one-shot and incremental runs: owns
  /// the run and superstep spans, the live status, the stall hook, the
  /// timeline row, telemetry and the end-of-run RunStats. `init` fills
  /// the superstep-0 state; `body` runs each superstep. A one-shot stops
  /// at the first empty active set, an incremental run not before the
  /// previous run's superstep count. A failing body ends the run at once.
  Status RunSupersteps(Timestamp t, bool incremental,
                       const std::function<void()>& init,
                       const SuperstepBody& body);

  /// A job walking `starts` over all levels of `stream` with emissions
  /// evaluated on the current state at t.
  WalkJob NewJob(std::vector<VertexId> starts, LevelStream stream,
                 Timestamp t, Timestamp previous_t) const;

  /// Resets the current accumulators and walks `starts` over snapshot t
  /// with emissions evaluated on the current state: a one-shot superstep,
  /// and the recompute plan of an incremental one. A dense frontier
  /// (PullIsDense) takes PullAccumulators instead of the walk.
  Status RecomputeAccumulators(Timestamp t, std::vector<VertexId> starts);
  /// True when the program has the pull's shape, the run is unpartitioned
  /// and without lineage, and `starts` reach a large share of E_t:
  /// kPullDensity · Σ deg_t(starts) ≥ |E_t|. Reads only the job.
  bool PullIsDense(Timestamp t, const std::vector<VertexId>& starts) const;
  /// The record-free one-hop superstep. Each start's emissions are
  /// evaluated once into dense pass and value columns (on the pool by
  /// start ranges), then each task owns a range of window_vertices
  /// targets and pulls over their reverse adjacency at t, folding the
  /// passing sources in ascending id order: the order in which the
  /// record path applies a target's records, so the bits are the same.
  /// Charges the Walk, Map and Accumulate counters of the walk it
  /// replaces.
  Status PullAccumulators(Timestamp t, const std::vector<VertexId>& starts);

  /// Runs Update on cur_cols_ for the vertices of `domain` that received a
  /// contribution (V_accm); Update re-activates. With a null domain every
  /// vertex is visited and all activations are cleared first (one-shot).
  /// A ΔUpdate domain instead restores each vertex's cells from `restore`
  /// (A_{t,s}) and deactivates it. Shards the vertices over the pool when
  /// Update writes no global, the run is unpartitioned, the engine has more
  /// than one thread and the vertices cut into two or more tasks of at
  /// least 64; per-task counters are summed in task order.
  void RunUpdatePhase(Timestamp t, const std::vector<VertexId>* domain,
                      const ColumnSet* restore);

  /// Vertices where any of `attrs` differs between two column sets.
  void CollectChanged(const ColumnSet& a, const ColumnSet& b,
                      const std::vector<int>& attrs,
                      std::vector<VertexId>* out) const;
  /// One diff of cur_cols_ against prev_cols_ after an incremental
  /// superstep's walks: `accm_changed` receives the vertices whose
  /// accumulator cells differ, `domain` those whose accumulator or
  /// attribute cells differ (the ΔUpdate domain), both ascending.
  void CollectUpdateDomain(std::vector<VertexId>* accm_changed,
                           std::vector<VertexId>* domain) const;

  /// Writes F(t, s) files for `attrs`: after-images of candidate vertices
  /// whose value differs from either reference (both null = keep all).
  /// The candidates are `candidates`, ascending; with `more_candidates`
  /// (any order, duplicates allowed) they are the union of both lists,
  /// marked into a |V| byte map and collected by one ascending scan.
  Status WriteDeltaFiles(Timestamp t, Superstep s,
                         const std::vector<int>& attrs,
                         const std::vector<VertexId>& candidates,
                         const ColumnSet& values, const ColumnSet* reference_a,
                         const ColumnSet* reference_b,
                         const std::vector<VertexId>* more_candidates =
                             nullptr);

  // ---- incremental machinery ------------------------------------------
  /// The per-superstep plan choice: true when recomputing the superstep
  /// (Σ deg_t over `cur_active`) scans strictly fewer edges than the Δ
  /// plan's q_vs walks (Σ deg_{t−1} over the changed starts active at
  /// t−1, plus over those active at t). Only one-hop programs with no
  /// global emission and lineage off qualify. q_es_p and the monoid
  /// recompute are left out, so the Δ cost is never over-estimated.
  bool RecomputeIsCheaper(Timestamp t,
                          const std::vector<VertexId>& changed_starts,
                          const std::vector<VertexId>& cur_active) const;
  Status RunDeltaTraverse(Timestamp t, Superstep s,
                          const std::vector<VertexId>& changed_starts,
                          const std::vector<VertexId>& cur_active);
  Status RunAnchoredClosing(Timestamp t, int p);
  Status RunMonoidRecompute(Timestamp t, Superstep s);

  // Attribute layout: program attrs [0, num_program_attrs), then hidden
  // contribs column, then per-monoid support columns.
  int num_program_attrs() const {
    return static_cast<int>(program_->vertex_attrs.size());
  }
  bool IsMonoidScalar(int attr) const;
  bool IsAccmMonoid(int attr) const;
  const std::vector<int>& NonAccmAttrs() const;
  const std::vector<int>& AttrFileAttrs() const;
  const std::vector<int>& AccmFileAttrs() const;

  DynamicGraphStore* store_;
  const CompiledProgram* program_;
  EngineOptions options_;
  // The program's expressions and bodies, lowered once.
  ProgramCode code_;
  // The calling thread's enumerator (inline tasks, and worker 0 of pool
  // batches).
  WalkEnumerator enumerator_;
  // The current superstep's walk counters: every task's and every pull's,
  // folded on the caller in task order. The timeline row, RunStats and
  // the Walk and level operator rows read it.
  WalkEnumerator::Counts walk_ledger_;

  // ---- intra-machine parallelism ---------------------------------------
  // Walk length 1 and no global emission: an incremental superstep may
  // recompute instead of running the Δ plan (RecomputeIsCheaper).
  bool one_hop_recomputable_ = false;
  // emits_at_depth_[d] != 0: some emission sits at walk depth d. The
  // walk sink skips EvalEmissions at the other depths (TC's two inner
  // levels, for one).
  std::vector<uint8_t> emits_at_depth_;
  // One level with no Where clause, and every emission start-invariant,
  // non-global and aimed at the neighbour: a dense superstep may pull
  // (PullIsDense). Tests clear it through EngineTestPeer to keep every
  // superstep on the record path.
  bool pull_shape_ = false;
  int num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_threads_;  // lazily created
  // Enumerators of pool workers 1..num_threads_-1 (worker 0 is the caller
  // and uses enumerator_). They share the internally locked buffer pool
  // but keep private windows and counters.
  std::vector<std::unique_ptr<WalkEnumerator>> workers_;
  // Executor scratch of each pool worker (0 = the caller), also lent to
  // that worker's enumerator. Never resized after construction.
  std::vector<EvalFrame> frames_;

  std::vector<int> all_widths_;       // program + hidden columns
  int contribs_attr_ = -1;            // hidden: per-vertex contribution count
  std::vector<int> support_attr_;     // per program attr: hidden support or -1
  std::vector<int> accm_attrs_;       // program attrs that are accumulators
  mutable std::vector<int> non_accm_attrs_;
  mutable std::vector<int> attr_file_attrs_;
  mutable std::vector<int> accm_file_attrs_;

  ColumnSet cur_cols_;
  ColumnSet prev_cols_;
  std::vector<std::vector<double>> cur_globals_;
  std::vector<std::vector<double>> prev_globals_;

  // Monoid recompute tracking (per program attr; cleared per superstep).
  std::vector<std::vector<uint8_t>> monoid_marks_;
  std::vector<std::vector<VertexId>> recompute_sets_;
  // Adjacency scratch for the anchored enumeration (indexed by depth).
  std::vector<std::vector<VertexId>> adj_stack_;

  // ---- distributed simulation ------------------------------------------
  int OwnerOf(VertexId v) const {
    return static_cast<int>(v % options_.num_partitions);
  }
  void ResetMachineStats();

  std::vector<std::unique_ptr<BufferPool>> machine_pools_;
  std::vector<MachineStats> machine_stats_;
  int current_machine_ = 0;
  // Distinct (machine, target) pairs per superstep for pre-aggregated
  // shuffle accounting.
  std::unordered_set<uint64_t> remote_seen_;

  Timestamp last_run_t_ = -1;
  Superstep prev_supersteps_ = 0;
  RunStats stats_;

  // Δ-record provenance (null unless options_.lineage).
  std::unique_ptr<LineageTracker> lineage_;

  // Resident accumulator-column bytes (cur + prev column sets), mirrored
  // into mem.accumulator_columns.* of the store's registry.
  ByteGauge mem_columns_;

  // ---- EXPLAIN ANALYZE profile -----------------------------------------
  gsa::ExecutionProfile profile_;
  // Cached cells of profile_ for the hot recording paths (std::map node
  // addresses are stable; entries are created by RegisterOperators in the
  // constructor and survive ResetCounters). Null when the program has no
  // such operator.
  std::vector<gsa::OperatorCounters*> emission_map_cells_;
  std::vector<gsa::OperatorCounters*> emission_accum_cells_;
  gsa::OperatorCounters* init_cell_ = nullptr;
  gsa::OperatorCounters* update_cell_ = nullptr;
  gsa::OperatorCounters* start_filter_cell_ = nullptr;
  gsa::OperatorCounters* start_stream_cell_ = nullptr;
  gsa::OperatorCounters* walk_cell_ = nullptr;
};

}  // namespace itg

#endif  // ITG_ENGINE_ENGINE_H_
