// L_NGA executor: the runtime for the P_ω predicates and emission values
// the compiler extracts from Traverse bodies (§4.4), for the Where
// conjuncts the walk fast paths leave over, and for the Initialize /
// Update UDF bodies (§4.2) — one evaluator for all of them.
//
// Each expression and body is lowered once per engine into *slot code*:
// a flat list of ops over numbered slots (scratch arrays), with
// attributes, `id`, V/E and callee names resolved at lowering. The
// executor runs every op over a block of *lanes* (one lane per vertex,
// or one lane holding a walk row) under a *selection vector*, the list
// of live lanes, so an op's dispatch is paid once per block: block-at-
// a-time interpretation (MonetDB/X100). `If` splits the selection and
// `&&`/`||` narrow it for their right operand. Each lane does the same
// double operations in the same order as a per-vertex tree walk would,
// so results and the EXPLAIN ANALYZE counters do not depend on how
// lanes are blocked (DESIGN.md §6.9). Implements the x/0 = 0 rule that
// keeps rule-⑦ retract/assert pairs exactly cancelling in floating
// point (DESIGN.md §6.2). Scratch lives in a caller-owned EvalFrame, so
// pool workers run shared code on frames of their own (ARCHITECTURE.md,
// threading model).
#ifndef ITG_ENGINE_EVAL_H_
#define ITG_ENGINE_EVAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "compiler/compiled_program.h"
#include "engine/columns.h"
#include "lang/ast.h"

namespace itg {

/// Lanes per block: the vertices one executor call evaluates together.
/// A scalar slot is 2 KiB, so a body's slots stay in L1. Measured on the
/// qpr RMAT-19 one-shot's Update (Release, 4-core x86-64, 12 runs each),
/// 64, 256 and 1024 lanes took 6.3, 6.3 and 6.7 ms at 1 thread and 7.3,
/// 6.9 and 7.1 ms at 4: flat within noise, 256 never behind.
inline constexpr int kBlockLanes = 256;

/// Everything lowered code may reference at runtime. Attribute reads
/// other than `id` are bound to each lane's start vertex (row[0]);
/// `columns` selects which version (previous vs. current snapshot) those
/// reads see — the incremental executor swaps it per delta sub-query.
struct EvalContext {
  const ColumnSet* columns = nullptr;
  const std::vector<std::vector<double>>* globals = nullptr;
  double num_vertices = 0;
  double num_edges = 0;
  /// Walk rows, `row_len` vertices per lane: lane l's row[d], the vertex
  /// bound at loop depth d (0 = the start, or the vertex a body runs
  /// for), is rows[l * row_len + d].
  const VertexId* rows = nullptr;
  int row_len = 0;
  /// When non-null, grows by the lanes each expression node ran on — the
  /// EXPLAIN ANALYZE `evals` work counter. Callers point it at the
  /// profile cell of the operator the evaluation belongs to (a level
  /// predicate's es-stream, an emission's Map, an Apply phase). Counts
  /// are deterministic: short-circuiting &&/|| depends only on values.
  uint64_t* eval_counter = nullptr;
  /// Initialize/Update bodies only: where assignments land (the column
  /// set and globals the reads above see), and the Apply phase's out_pos
  /// counter, which grows by the lanes each assignment ran on.
  ColumnSet* assign_columns = nullptr;
  std::vector<std::vector<double>>* assign_globals = nullptr;
  uint64_t* assigns_applied = nullptr;
};

/// The context of an Initialize/Update body: it reads and assigns
/// `columns` and `globals`.
EvalContext BodyContext(ColumnSet* columns,
                        std::vector<std::vector<double>>* globals,
                        double num_vertices, double num_edges);

/// One slot-code instruction. Slot s of width w holds lane l's element i
/// at frame double s * kBlockLanes + l * w + i.
struct SlotOp {
  enum class Code : uint8_t {
    // Expression nodes (each adds its lanes to `evals`).
    kConst,        // dst ← literal
    kRow,          // dst ← row[arg] (a vertex variable or `id`)
    kBuiltin,      // dst ← V (arg 0) or E (arg 1)
    kGlobal,       // dst ← globals[arg]
    kCell,         // dst ← column arg at the lane's row[0]
    kBinary,       // scalar: dst ← a `binary` b
    kWideBinary,   // array, broadcasting a width-1 operand
    kNeg,
    kNot,
    kAbs,
    kFloor,
    kMin,          // element-wise against b, broadcast when b is scalar
    kMax,
    kMaxElem,      // dst ← the largest of a's a_width elements
    kIndex,        // dst ← a[b], bounds-checked
    // Selections.
    kSelect,       // selection dst ← lanes of `sel` with (a != 0) == expected
    kFilter,       // the same, narrowing `sel` in place
    // Assignments (each adds its lanes to `assigns_applied`).
    kStoreCell,    // column arg at row[0] ← a (width elements, a broadcast)
    kStoreCellAt,  // its element b ← a, bounds-checked against width
    kStoreGlobal,  // globals[arg] ← a
    kStoreGlobalAt,
  };
  Code code = Code::kConst;
  lang::BinaryOp binary = lang::BinaryOp::kAdd;
  bool expected = false;  // kSelect / kFilter
  int sel = 0;            // the selection the op runs on
  int dst = 0;            // result slot; kSelect: the selection it builds
  int a = 0;              // operand slots
  int b = 0;
  int width = 1;          // result width; stores: the target's width
  int a_width = 1;
  int b_width = 1;
  int arg = 0;            // row depth, builtin, global or attribute index
  int skip = 0;           // kSelect / kFilter: next op when no lane is kept
  double literal = 0;
};

class EvalFrame;

/// The slot code of one expression, guard chain or statement body.
class SlotCode {
 public:
  /// Checks `guards` in order — a lane leaves at the first whose
  /// condition does not evaluate to its expected value — then evaluates
  /// `value`, when non-null, for the lanes that passed.
  static SlotCode Guarded(
      const std::vector<std::pair<const lang::Expr*, bool>>& guards,
      const lang::Expr* value);
  /// `value` alone.
  static SlotCode Value(const lang::Expr& value);
  /// Conjuncts, in order: a lane passes when all are true.
  static SlotCode Conjuncts(const std::vector<const lang::Expr*>& conds);
  /// An Initialize/Update body (Lets inlined; statements are Assign and
  /// If only — guaranteed by sema + compiler), the fused physical form of
  /// the UDF's σ/Π/← algebra tree.
  static SlotCode Body(const std::vector<lang::StmtPtr>& body);

  /// Frame doubles per lane and selections the code needs.
  int slot_doubles() const { return slot_doubles_; }
  int num_sels() const { return num_sels_; }
  int value_width() const { return value_width_; }

 private:
  friend class EvalFrame;
  friend void Execute(const SlotCode& code, const EvalContext& ctx,
                      int lanes, EvalFrame* frame);
  std::vector<SlotOp> ops_;
  int slot_doubles_ = 0;
  int num_sels_ = 1;
  int value_slot_ = 0;
  int value_width_ = 0;
};

/// Scratch of one executor: slots and selections for kBlockLanes lanes,
/// plus the lane vertex array a block run reads its rows from. Sized by
/// Fit when its owner is built; running allocates nothing.
class EvalFrame {
 public:
  EvalFrame() = default;
  explicit EvalFrame(const SlotCode& code) { Fit(code); }
  /// Grows the frame to fit `code`.
  void Fit(const SlotCode& code);

  /// Vertex ids of a block run's lanes (pass as EvalContext::rows with
  /// row_len 1).
  VertexId* lanes() { return lanes_.data(); }
  /// After Run: the lanes that passed the code's guards, ascending (all
  /// lanes for code without guards).
  int live_count() const { return sels_[0].n; }
  int live_lane(int k) const {
    return sels_[0].dense ? k : sel_lanes_[static_cast<size_t>(k)];
  }
  /// After Run: `lane`'s value, code.value_width() doubles.
  const double* Value(const SlotCode& code, int lane) const {
    return slots_.data() +
           static_cast<size_t>(code.value_slot_) * kBlockLanes +
           static_cast<size_t>(lane) * code.value_width_;
  }

 private:
  friend void Execute(const SlotCode& code, const EvalContext& ctx,
                      int lanes, EvalFrame* frame);
  struct SelState {
    int n = 0;
    bool dense = true;  // lanes 0..n-1
  };
  std::vector<double> slots_;
  std::vector<uint16_t> sel_lanes_;  // selection k at k * kBlockLanes
  std::vector<SelState> sels_;
  std::vector<VertexId> lanes_;
};

/// Runs `code` on lanes [0, lanes) (at most kBlockLanes) in `frame`,
/// which must fit it. Type-checked code cannot fail; violations (an
/// array index out of bounds, a row depth past row_len) are checked.
void Execute(const SlotCode& code, const EvalContext& ctx, int lanes,
             EvalFrame* frame);

/// One lane: runs guarded code on ctx's single row and returns its value,
/// or null when a guard failed.
inline const double* ExecuteOne(const SlotCode& code,
                                const EvalContext& ctx, EvalFrame* frame) {
  Execute(code, ctx, 1, frame);
  return frame->live_count() == 1 ? frame->Value(code, 0) : nullptr;
}

/// Every expression and body of a compiled program, lowered once.
struct ProgramCode {
  explicit ProgramCode(const CompiledProgram& program);

  SlotCode init;
  SlotCode update;
  /// The body assigns a global. Such a body runs one lane at a time in
  /// vertex order: the final global depends on that order, and a later
  /// vertex reads what an earlier one wrote.
  bool init_writes_globals = false;
  bool update_writes_globals = false;
  /// Per emission: its guards, then its value.
  std::vector<SlotCode> emissions;
  /// Per traversal level: its general Where conjuncts.
  std::vector<SlotCode> where;

  /// A frame that fits every code above.
  EvalFrame NewFrame() const;
};

}  // namespace itg

#endif  // ITG_ENGINE_EVAL_H_
