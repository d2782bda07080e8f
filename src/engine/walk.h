#ifndef ITG_ENGINE_WALK_H_
#define ITG_ENGINE_WALK_H_

#include <functional>
#include <vector>

#include "common/memory_budget.h"
#include "common/status.h"
#include "common/types.h"
#include "compiler/compiled_program.h"
#include "engine/eval.h"
#include "storage/graph_store.h"

namespace itg {

/// Which edge stream a traversal level reads (incremental sub-queries mix
/// versions per rule ⑦: levels left of the delta position read the
/// current snapshot s'_i = s_i ∪ Δs_i, the delta position reads Δs_p, and
/// levels right of it read the previous snapshot s_i).
enum class LevelStream { kCurrent, kPrevious, kDelta };

/// Receives every enumerated walk prefix: `row[0..depth]` are the bound
/// positions, `mult` is the prefix multiplicity (product of the crossed
/// stream multiplicities; ±1).
using WalkSink =
    std::function<void(const VertexId* row, int depth, int mult)>;

/// Enumerates walks over nested graph windows (§4.2/4.3).
///
/// The enumerator is the physical Walk operator: level by level it
/// W-Seeks the adjacency of a bounded *window* of frontier vertices into
/// memory (reads go through the buffer pool, so cold windows are real
/// IO), W-Joins the loaded lists against the current prefixes, applies
/// the level predicate (with sorted-adjacency fast paths for ordering and
/// closing constraints), fires the sink at every depth, and recurses.
/// Memory is bounded by the window sizes; walks stream out without being
/// materialized — the property that separates the paper's design from
/// the arrangement-keeping Differential-Dataflow baseline.
class WalkEnumerator {
 public:
  struct Options {
    /// Window size (vertices whose adjacency is co-resident per level).
    int window_vertices = 256;
    /// Use the binary-search closing-constraint probe (the compiler's
    /// multi-way intersection rewrite). Off = scan + filter.
    bool eq_fast_path = true;
  };

  /// Per-traversal-level work counters (EXPLAIN ANALYZE): entry i
  /// belongs to level i+1, i.e. the plans' `es_{i+1}` stream operator
  /// (LevelSpec::op). `out_*` counts walk tuples fired at that depth by
  /// multiplicity sign; `pruned` counts the extensions `level_allow`
  /// rejected, the walks neighbor pruning (§5.4's MS-BFS visited sets)
  /// saved enumerating; `evals` counts expression nodes the general-
  /// conjunct residue evaluated; `wall_nanos` is the level's own time
  /// (frontier index, prefix grouping, W-Seek and W-Join), exclusive of
  /// deeper levels. All fields except wall are deterministic.
  struct LevelCounts {
    uint64_t windows = 0;
    uint64_t edges = 0;
    uint64_t pruned = 0;
    uint64_t evals = 0;
    uint64_t out_pos = 0;
    uint64_t out_neg = 0;
    uint64_t wall_nanos = 0;

    void Merge(const LevelCounts& o) {
      windows += o.windows;
      edges += o.edges;
      pruned += o.pruned;
      evals += o.evals;
      out_pos += o.out_pos;
      out_neg += o.out_neg;
      wall_nanos += o.wall_nanos;
    }
  };

  /// The walk work of a run of Enumerate calls: the tuples enumerated at
  /// depth 0 (the start-stream output) and one LevelCounts per level.
  struct Counts {
    uint64_t starts = 0;
    std::vector<LevelCounts> levels;

    void Add(const Counts& o) {
      starts += o.starts;
      if (levels.size() < o.levels.size()) levels.resize(o.levels.size());
      for (size_t i = 0; i < o.levels.size(); ++i) {
        levels[i].Merge(o.levels[i]);
      }
    }
    /// Zeroes every count and keeps the levels' storage.
    void Reset() {
      starts = 0;
      for (LevelCounts& level : levels) level = LevelCounts{};
    }
    /// The levels' counts summed.
    LevelCounts Total() const {
      LevelCounts total;
      for (const LevelCounts& level : levels) total.Merge(level);
      return total;
    }
  };

  WalkEnumerator(const CompiledProgram* program, DynamicGraphStore* store,
                 BufferPool* pool, const Options& options)
      : program_(program),
        store_(store),
        pool_(pool),
        options_(options) {
    counts_.levels.resize(static_cast<size_t>(program->walk_length()));
    if (store_ != nullptr && store_->metrics() != nullptr) {
      // Add-deltas: every live window (one per traversal level per
      // enumerator, worker-thread enumerators included) aggregates into
      // one mem.window_cache gauge pair.
      mem_window_.Bind(&store_->metrics()->registry(), "window_cache");
    }
  }

  /// Redirects window loads through another buffer pool (the distributed
  /// simulation gives every machine its own pool).
  void set_pool(BufferPool* pool) { pool_ = pool; }

  /// Evaluation context for level predicates (start-vertex attribute
  /// reads use these columns; the incremental executor points them at the
  /// right snapshot's values).
  void SetEvalBase(const ColumnSet* columns,
                   const std::vector<std::vector<double>>* globals,
                   double num_vertices, double num_edges) {
    columns_ = columns;
    globals_ = globals;
    num_vertices_ = num_vertices;
    num_edges_ = num_edges;
  }

  /// Enumerates walks from `starts` (already filtered by the caller).
  ///
  /// `streams[j]` selects the graph version of level j+1; `current_t` /
  /// `previous_t` name the snapshots; kDelta levels read the mutation
  /// batch of `current_t`. `level_allow[j]`, when non-null, restricts the
  /// vertex bound at depth j+1 (neighbor pruning's MS-BFS visited sets).
  /// Enumeration extends to `max_depth` levels (≤ program walk length).
  Status Enumerate(const std::vector<VertexId>& starts,
                   const std::vector<LevelStream>& streams,
                   Timestamp current_t, Timestamp previous_t,
                   const std::vector<const std::vector<uint8_t>*>& level_allow,
                   int max_depth, const WalkSink& sink);

  /// Walk-window statistics of the counts not yet taken (tests).
  uint64_t windows_loaded() const { return counts_.Total().windows; }
  uint64_t edges_scanned() const { return counts_.Total().edges; }

  /// Copies the counts gathered since the last call into `out` and zeroes
  /// them in place; allocates nothing once `out` has the levels.
  void TakeCounts(Counts* out) {
    *out = counts_;
    counts_.Reset();
  }

 private:
  struct AdjacencyWindow;

  Status Extend(int level, const std::vector<VertexId>& prefixes,
                const std::vector<int8_t>& mults, int prefix_len,
                const std::vector<LevelStream>& streams,
                Timestamp current_t, Timestamp previous_t,
                const std::vector<const std::vector<uint8_t>*>& level_allow,
                int max_depth, const WalkSink& sink);

  Status LoadWindow(const std::vector<VertexId>& vertices, LevelStream stream,
                    Direction dir, Timestamp current_t, Timestamp previous_t,
                    AdjacencyWindow* window);

  const CompiledProgram* program_;
  DynamicGraphStore* store_;
  BufferPool* pool_;
  Options options_;

  const ColumnSet* columns_ = nullptr;
  const std::vector<std::vector<double>>* globals_ = nullptr;
  double num_vertices_ = 0;
  double num_edges_ = 0;

  Counts counts_;
  ByteGauge mem_window_;  // mem.window_cache.* resident window bytes
};

}  // namespace itg

#endif  // ITG_ENGINE_WALK_H_
