#ifndef ITG_COMPILER_COMPILED_PROGRAM_H_
#define ITG_COMPILER_COMPILED_PROGRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gsa/plan.h"
#include "lang/ast.h"
#include "lang/sema.h"
#include "storage/edge_delta_store.h"

namespace itg {

/// One value emission of Traverse: `target.Accumulate(value)` reached at
/// loop depth `stmt_depth` under the conjunction of `guards`.
struct Emission {
  /// Loop depth of the statement (0 = outside all loops); the emission
  /// fires once per walk prefix of length stmt_depth + 1.
  int stmt_depth = 0;
  /// If-guards on the path to the statement: (condition, expected value).
  std::vector<std::pair<const lang::Expr*, bool>> guards;
  /// The accumulated expression (Lets inlined).
  const lang::Expr* value = nullptr;
  bool is_global = false;
  /// Vertex attribute index or global index.
  int target = -1;
  /// Row position of the target vertex (vertex emissions only).
  int target_depth = 0;
  lang::AccmOp op = lang::AccmOp::kSum;
  int width = 1;
  /// No guard and no value reads a vertex bound below the start (a vertex
  /// variable or `id` at a position above 0). Traverse reads attributes
  /// of the start only, so such an emission evaluates to the same guards
  /// and value on every walk from one start: the engine evaluates it once
  /// per start vertex (loop-invariant hoisting).
  bool start_invariant = false;
  /// Operator ids of this emission's logical Map (value computation;
  /// guard/value evaluations are charged here) and Accumulate (tuples
  /// in / applied emissions out). Shared by the one-shot and incremental
  /// plans: physically there is one emission site.
  int map_op = -1;
  int accum_op = -1;
};

/// One traversal level (one For loop of Traverse).
///
/// The Where predicate is decomposed at compile time into fast-path
/// conjuncts over the newly bound position and a residue of general
/// conjuncts:
///  * `next > row[gt_pos]` — ordering constraints like `u1 < u2` turn the
///    adjacency scan into a lower-bound seek over the sorted list;
///  * `next < row[lt_pos]` — upper-bounded scans;
///  * `next == row[eq_pos]` — closing constraints like `u4 == u1` become a
///    binary-search membership probe, which is the compiler's multi-way
///    intersection rewrite of common-neighbor loops (§2).
struct LevelSpec {
  Direction dir = Direction::kOut;
  /// The full Where predicate (Lets inlined); null if absent.
  const lang::Expr* where = nullptr;
  int gt_pos = -1;
  int lt_pos = -1;
  int eq_pos = -1;
  /// Conjuncts not covered by the fast paths (evaluated per candidate).
  std::vector<const lang::Expr*> general;
  /// Operator id of this level's edge stream (the `es_i` Stream node of
  /// the GSA plans); seek/window/edge-scan counters are charged here.
  int op = -1;
};

/// The physical form of the Traverse plan: a single Walk of `levels`
/// with guarded emissions, produced by compiling the nested For loops
/// into the Walk operator via Apply-decorrelation (§4.4).
struct TraverseSpec {
  std::vector<LevelSpec> levels;
  std::vector<Emission> emissions;
  /// True when the innermost Where contains the conjunct
  /// `u_last == u_first` — the walk closes a cycle back to the start.
  /// Enables traversal reordering of the deepest delta sub-query and the
  /// multi-way-intersection rewrite of common-neighbor loops.
  bool closes_to_start = false;

  /// Physical → logical operator-id mapping (EXPLAIN ANALYZE): the Walk
  /// node, the σ_active start filter, and the vs1 start stream. Per-level
  /// and per-emission ids live on LevelSpec::op and Emission::{map_op,
  /// accum_op}. Every emission branch of the logical plan clones one
  /// physical walk, so the clones deliberately share these ids.
  int walk_op = -1;
  int start_filter_op = -1;
  int start_stream_op = -1;
};

/// A fully compiled L_NGA program: resolved AST, physical Traverse spec,
/// interpreted Initialize/Update bodies, and the logical GSA plans (one-
/// shot and automatically incrementalized).
class CompiledProgram {
 public:
  struct AttrMeta {
    std::string name;
    lang::Type type;
  };

  std::unique_ptr<lang::Program> ast;
  lang::ProgramInfo info;

  std::vector<AttrMeta> vertex_attrs;
  std::vector<AttrMeta> globals;
  /// Index of the predefined `active` attribute (declared or implicit).
  int active_attr = -1;
  /// Vertex attribute indices Traverse reads (start-vertex attributes);
  /// a change in any of them makes a vertex a Δvs start.
  std::vector<int> traverse_read_attrs;

  TraverseSpec traverse;

  /// Statement bodies with Lets inlined (owned by `ast`).
  const std::vector<lang::StmtPtr>* init_body = nullptr;
  const std::vector<lang::StmtPtr>* update_body = nullptr;

  /// Logical GSA plans (explain form). Operator ids are assigned on the
  /// one-shot plan and preserved through incrementalization; nodes the
  /// Table-4 rewrite introduces get fresh ids from the same sequence.
  std::unique_ptr<gsa::PlanNode> oneshot_plan;
  std::unique_ptr<gsa::PlanNode> incremental_plan;

  /// Synthetic operator ids for the Initialize / Update Apply phases
  /// (they execute outside the Traverse plan trees).
  int init_op = -1;
  int update_op = -1;
  /// All assigned ids are in [0, num_operator_ids).
  int num_operator_ids = 0;

  int walk_length() const { return static_cast<int>(traverse.levels.size()); }
  int attr_width(int attr) const { return vertex_attrs[attr].type.width; }
  bool attr_is_accumulator(int attr) const {
    return vertex_attrs[attr].type.is_accumulator;
  }

  /// EXPLAIN output for both plans.
  std::string Explain() const;

  /// EXPLAIN ANALYZE: both plans plus the Init/Update Apply phases,
  /// annotated with the runtime counters `profile` recorded per id.
  std::string ExplainAnalyze(const gsa::ExecutionProfile& profile) const;

  /// Registers every operator id (both plans, Init/Update phases) with
  /// its name and detail so profile reports carry labels.
  void RegisterOperators(gsa::ExecutionProfile* profile) const;

  /// Expressions materialized by Let inlining (kept alive with the AST).
  std::vector<lang::ExprPtr> owned_exprs_;
};

/// Parses, analyzes and compiles an L_NGA source program. This is the
/// main entry of the compiler: it performs Let inlining, collapses the
/// nested For loops into a Walk spec (Apply-decorrelation), builds the
/// logical GSA plan, and applies the incrementalization rules.
StatusOr<std::unique_ptr<CompiledProgram>> CompileProgram(
    const std::string& source);

}  // namespace itg

#endif  // ITG_COMPILER_COMPILED_PROGRAM_H_
