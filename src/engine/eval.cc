#include "engine/eval.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace itg {

namespace {

using lang::BinaryOp;
using lang::Expr;
using lang::Stmt;
using lang::StmtPtr;
using lang::UnaryOp;
using lang::VarKind;
using Code = SlotOp::Code;

inline double EvalBinaryScalar(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::kAdd: return a + b;
    case BinaryOp::kSub: return a - b;
    case BinaryOp::kMul: return a * b;
    // x/0 and x%0 are defined as 0. Besides avoiding inf/nan in user
    // programs, this makes the Δ-walk decomposition FP-safe: rule ⑦
    // evaluates new attribute values over old edge structure, where a
    // vertex whose edges were all deleted would otherwise contribute
    // ±inf terms that cancel algebraically but not in floating point.
    case BinaryOp::kDiv: return (b == 0.0) ? 0.0 : a / b;
    case BinaryOp::kMod: return (b == 0.0) ? 0.0 : std::fmod(a, b);
    case BinaryOp::kLt: return a < b ? 1.0 : 0.0;
    case BinaryOp::kLe: return a <= b ? 1.0 : 0.0;
    case BinaryOp::kGt: return a > b ? 1.0 : 0.0;
    case BinaryOp::kGe: return a >= b ? 1.0 : 0.0;
    case BinaryOp::kEq: return a == b ? 1.0 : 0.0;
    case BinaryOp::kNe: return a != b ? 1.0 : 0.0;
    case BinaryOp::kAnd: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case BinaryOp::kOr: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
  }
  return 0.0;
}

/// True when any statement in `body` assigns to a global variable.
bool StmtsWriteGlobals(const std::vector<StmtPtr>& body) {
  for (const StmtPtr& stmt : body) {
    switch (stmt->kind) {
      case Stmt::Kind::kAssign: {
        const Expr* target = stmt->target.get();
        if (target->kind == Expr::Kind::kIndex) {
          target = target->children[0].get();
        }
        if (target->kind != Expr::Kind::kAttrRef) return true;
        break;
      }
      case Stmt::Kind::kIf:
        if (StmtsWriteGlobals(stmt->body) ||
            StmtsWriteGlobals(stmt->else_body)) {
          return true;
        }
        break;
      default:
        break;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Emits slot code. Slots are assigned by stack discipline: a node's
/// result sits at the stack top it found, its operands above it, and
/// when the result has its first operand's width it overwrites that
/// operand in place. A left-nested chain therefore needs two slots
/// however long it is. Selections are stacked the same way.
class Lowering {
 public:
  explicit Lowering(std::vector<SlotOp>* ops) : ops_(ops) {}

  /// Evaluates `e` on selection `sel` into the slot at the stack top;
  /// returns that slot, which then holds the stack's top `width` doubles.
  int Value(const Expr& e, int sel) {
    const int base = top_;
    const int w = e.type.width;
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        Emit(Code::kConst, sel, Alloc(1)).literal = e.literal_value;
        return base;
      case Expr::Kind::kVarRef:
        switch (e.var_kind) {
          case VarKind::kVertexVar:
            Emit(Code::kRow, sel, Alloc(1)).arg = e.resolved_index;
            return base;
          case VarKind::kGlobal: {
            SlotOp& op = Emit(Code::kGlobal, sel, Alloc(w));
            op.arg = e.resolved_index;
            op.width = w;
            return base;
          }
          case VarKind::kBuiltin:
            Emit(Code::kBuiltin, sel, Alloc(1)).arg = e.resolved_index;
            return base;
          case VarKind::kLet:
            // Lets are inlined by the compiler; a surviving reference is a
            // compiler bug.
            ITG_CHECK(false) << "un-inlined Let reference";
            return base;
          case VarKind::kUnresolved:
            ITG_CHECK(false) << "unresolved variable '" << e.name << "'";
            return base;
        }
        return base;
      case Expr::Kind::kAttrRef: {
        if (e.attr == "id") {
          Emit(Code::kRow, sel, Alloc(1)).arg = e.vertex_depth;
          return base;
        }
        ITG_CHECK_EQ(e.vertex_depth, 0);
        SlotOp& op = Emit(Code::kCell, sel, Alloc(w));
        op.arg = e.resolved_attr;
        op.width = w;
        return base;
      }
      case Expr::Kind::kBinary: {
        const Expr& lhs = *e.children[0];
        const Expr& rhs = *e.children[1];
        if (w == 1 && lang::IsLogical(e.binary_op)) {
          // Short-circuit: the right operand runs on the lanes the left
          // one did not decide.
          const int a = Value(lhs, sel);
          const int undecided = PushSel();
          const size_t select = EmitSelect(
              Code::kSelect, sel, a, e.binary_op == BinaryOp::kAnd);
          (*ops_)[select].dst = undecided;
          const int b = Value(rhs, undecided);
          (*ops_)[select].skip = static_cast<int>(ops_->size());
          PopSel();
          EmitBinary(Code::kBinary, e.binary_op, sel, a, b, 1, 1, 1);
          top_ = base + 1;
          return base;
        }
        if (w == 1) {
          const int a = Value(lhs, sel);
          const int b = Value(rhs, sel);
          EmitBinary(Code::kBinary, e.binary_op, sel, a, b, 1, 1, 1);
          top_ = base + 1;
          return base;
        }
        // A scalar left operand broadcasts: the result needs its own slot.
        if (lhs.type.width != w) Alloc(w);
        const int a = Value(lhs, sel);
        const int b = Value(rhs, sel);
        EmitBinary(Code::kWideBinary, e.binary_op, sel, a, b, w,
                   lhs.type.width, rhs.type.width)
            .dst = base;
        top_ = base + w;
        return base;
      }
      case Expr::Kind::kUnary: {
        const int a = Value(*e.children[0], sel);
        SlotOp& op = Emit(
            e.unary_op == UnaryOp::kNeg ? Code::kNeg : Code::kNot, sel, a);
        op.a = a;
        op.width = w;
        top_ = base + w;
        return base;
      }
      case Expr::Kind::kCall: {
        const Expr& arg = *e.children[0];
        if (e.callee == "MaxElem") {
          Alloc(1);
          const int a = Value(arg, sel);
          SlotOp& op = Emit(Code::kMaxElem, sel, base);
          op.a = a;
          op.a_width = arg.type.width;
          top_ = base + 1;
          return base;
        }
        if (e.callee == "Abs" || e.callee == "Floor") {
          const int a = Value(arg, sel);
          SlotOp& op =
              Emit(e.callee == "Abs" ? Code::kAbs : Code::kFloor, sel, a);
          op.a = a;
          op.width = w;
          top_ = base + w;
          return base;
        }
        ITG_CHECK(e.callee == "Min" || e.callee == "Max")
            << "unknown function '" << e.callee << "'";
        const Expr& rhs = *e.children[1];
        const int a = Value(arg, sel);
        const int b = Value(rhs, sel);
        SlotOp& op =
            Emit(e.callee == "Min" ? Code::kMin : Code::kMax, sel, a);
        op.a = a;
        op.b = b;
        op.width = w;
        op.b_width = rhs.type.width;
        top_ = base + w;
        return base;
      }
      case Expr::Kind::kIndex: {
        const Expr& array = *e.children[0];
        Alloc(1);
        const int a = Value(array, sel);
        const int b = Value(*e.children[1], sel);
        SlotOp& op = Emit(Code::kIndex, sel, base);
        op.a = a;
        op.b = b;
        op.a_width = array.type.width;
        top_ = base + 1;
        return base;
      }
    }
    return base;
  }

  /// Runs the statements of `body` on selection `sel`.
  void Body(const std::vector<StmtPtr>& body, int sel) {
    for (const StmtPtr& stmt : body) {
      const int base = top_;
      switch (stmt->kind) {
        case Stmt::Kind::kAssign: {
          // The value first, then the index, as the statement reads.
          const int v = Value(*stmt->value, sel);
          const Expr* target = stmt->target.get();
          int index = 0;
          Code code;
          if (target->kind == Expr::Kind::kIndex) {
            index = Value(*target->children[1], sel);
            target = target->children[0].get();
            code = target->kind == Expr::Kind::kAttrRef ? Code::kStoreCellAt
                                                        : Code::kStoreGlobalAt;
          } else {
            code = target->kind == Expr::Kind::kAttrRef ? Code::kStoreCell
                                                        : Code::kStoreGlobal;
          }
          SlotOp& op = Emit(code, sel, 0);
          op.a = v;
          op.a_width = stmt->value->type.width;
          op.b = index;
          op.width = target->type.width;
          op.arg = target->kind == Expr::Kind::kAttrRef
                       ? target->resolved_attr
                       : target->resolved_index;
          break;
        }
        case Stmt::Kind::kIf: {
          // The condition's slot lives until the else branch has read it.
          const int c = Value(*stmt->cond, sel);
          const int branch = PushSel();
          size_t select = EmitSelect(Code::kSelect, sel, c, true);
          (*ops_)[select].dst = branch;
          Body(stmt->body, branch);
          (*ops_)[select].skip = static_cast<int>(ops_->size());
          if (!stmt->else_body.empty()) {
            select = EmitSelect(Code::kSelect, sel, c, false);
            (*ops_)[select].dst = branch;
            Body(stmt->else_body, branch);
            (*ops_)[select].skip = static_cast<int>(ops_->size());
          }
          PopSel();
          break;
        }
        case Stmt::Kind::kLet:
        case Stmt::Kind::kFor:
        case Stmt::Kind::kAccumulate:
          ITG_CHECK(false) << "statement kind not allowed here";
      }
      top_ = base;
    }
  }

  /// Drops the lanes of selection 0 where `cond` is not `expected`; a
  /// block with no lane left ends the code.
  void Guard(const Expr& cond, bool expected) {
    const int base = top_;
    const int c = Value(cond, 0);
    exits_.push_back(EmitSelect(Code::kFilter, 0, c, expected));
    top_ = base;
  }

  /// Points the guards' exits at the end and records the frame size.
  void Finish(int* slot_doubles, int* num_sels) {
    for (size_t exit : exits_) {
      (*ops_)[exit].skip = static_cast<int>(ops_->size());
    }
    *slot_doubles = max_top_;
    *num_sels = max_sels_;
  }

 private:
  int Alloc(int width) {
    const int slot = top_;
    top_ += width;
    max_top_ = std::max(max_top_, top_);
    return slot;
  }
  int PushSel() {
    ++sels_;
    max_sels_ = std::max(max_sels_, sels_ + 1);
    return sels_;
  }
  void PopSel() { --sels_; }

  SlotOp& Emit(Code code, int sel, int dst) {
    SlotOp& op = ops_->emplace_back();
    op.code = code;
    op.sel = sel;
    op.dst = dst;
    return op;
  }
  SlotOp& EmitBinary(Code code, BinaryOp binary, int sel, int a, int b,
                     int width, int a_width, int b_width) {
    SlotOp& op = Emit(code, sel, a);
    op.binary = binary;
    op.a = a;
    op.b = b;
    op.width = width;
    op.a_width = a_width;
    op.b_width = b_width;
    return op;
  }
  size_t EmitSelect(Code code, int sel, int cond, bool expected) {
    SlotOp& op = Emit(code, sel, sel);
    op.a = cond;
    op.expected = expected;
    return ops_->size() - 1;
  }

  std::vector<SlotOp>* ops_;
  std::vector<size_t> exits_;
  int top_ = 0;
  int max_top_ = 0;
  int sels_ = 0;  // selection 0 is the block's lanes
  int max_sels_ = 1;
};

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The lanes an op runs on.
struct Lanes {
  const uint16_t* lane;  // ascending; unused when dense
  int n;
  bool dense;  // lanes 0..n-1
};

template <typename F>
inline void ForLanes(const Lanes& s, F&& f) {
  if (s.dense) {
    for (int l = 0; l < s.n; ++l) f(l);
  } else {
    for (int k = 0; k < s.n; ++k) f(static_cast<int>(s.lane[k]));
  }
}

template <BinaryOp kOp>
void BinaryLanes(const Lanes& s, double* d, const double* a,
                 const double* b) {
  ForLanes(s, [&](int l) { d[l] = EvalBinaryScalar(kOp, a[l], b[l]); });
}

void ScalarBinary(BinaryOp op, const Lanes& s, double* d, const double* a,
                  const double* b) {
  switch (op) {
    case BinaryOp::kAdd: return BinaryLanes<BinaryOp::kAdd>(s, d, a, b);
    case BinaryOp::kSub: return BinaryLanes<BinaryOp::kSub>(s, d, a, b);
    case BinaryOp::kMul: return BinaryLanes<BinaryOp::kMul>(s, d, a, b);
    case BinaryOp::kDiv: return BinaryLanes<BinaryOp::kDiv>(s, d, a, b);
    case BinaryOp::kMod: return BinaryLanes<BinaryOp::kMod>(s, d, a, b);
    case BinaryOp::kLt: return BinaryLanes<BinaryOp::kLt>(s, d, a, b);
    case BinaryOp::kLe: return BinaryLanes<BinaryOp::kLe>(s, d, a, b);
    case BinaryOp::kGt: return BinaryLanes<BinaryOp::kGt>(s, d, a, b);
    case BinaryOp::kGe: return BinaryLanes<BinaryOp::kGe>(s, d, a, b);
    case BinaryOp::kEq: return BinaryLanes<BinaryOp::kEq>(s, d, a, b);
    case BinaryOp::kNe: return BinaryLanes<BinaryOp::kNe>(s, d, a, b);
    // After a short-circuit select, b holds values only for the lanes a
    // left undecided, and only those lanes read it.
    case BinaryOp::kAnd: return BinaryLanes<BinaryOp::kAnd>(s, d, a, b);
    case BinaryOp::kOr: return BinaryLanes<BinaryOp::kOr>(s, d, a, b);
  }
}

/// Element `i` of lane `l` of a `width`-wide operand read as part of a
/// wider result: a scalar broadcasts, elements past its width read 0.
inline double Element(const double* x, int width, int l, int i) {
  if (width == 1) return x[l];
  return i < width ? x[static_cast<size_t>(l) * width + i] : 0.0;
}

inline int CheckedIndex(double value, int width) {
  const int idx = static_cast<int>(value);
  ITG_CHECK_GE(idx, 0);
  ITG_CHECK_LT(idx, width);
  return idx;
}

}  // namespace

EvalContext BodyContext(ColumnSet* columns,
                        std::vector<std::vector<double>>* globals,
                        double num_vertices, double num_edges) {
  EvalContext ctx;
  ctx.columns = columns;
  ctx.globals = globals;
  ctx.num_vertices = num_vertices;
  ctx.num_edges = num_edges;
  ctx.assign_columns = columns;
  ctx.assign_globals = globals;
  return ctx;
}

SlotCode SlotCode::Guarded(
    const std::vector<std::pair<const lang::Expr*, bool>>& guards,
    const lang::Expr* value) {
  SlotCode code;
  Lowering lower(&code.ops_);
  for (const auto& [cond, expected] : guards) lower.Guard(*cond, expected);
  if (value != nullptr) {
    code.value_slot_ = lower.Value(*value, 0);
    code.value_width_ = value->type.width;
  }
  lower.Finish(&code.slot_doubles_, &code.num_sels_);
  return code;
}

SlotCode SlotCode::Value(const lang::Expr& value) {
  return Guarded({}, &value);
}

SlotCode SlotCode::Conjuncts(const std::vector<const lang::Expr*>& conds) {
  std::vector<std::pair<const lang::Expr*, bool>> guards;
  for (const lang::Expr* cond : conds) guards.emplace_back(cond, true);
  return Guarded(guards, nullptr);
}

SlotCode SlotCode::Body(const std::vector<lang::StmtPtr>& body) {
  SlotCode code;
  Lowering lower(&code.ops_);
  lower.Body(body, 0);
  lower.Finish(&code.slot_doubles_, &code.num_sels_);
  return code;
}

void EvalFrame::Fit(const SlotCode& code) {
  const size_t doubles =
      static_cast<size_t>(code.slot_doubles_) * kBlockLanes;
  if (slots_.size() < doubles) slots_.resize(doubles, 0.0);
  const auto sels = static_cast<size_t>(code.num_sels_);
  if (sels_.size() < sels) {
    sels_.resize(sels);
    sel_lanes_.resize(sels * kBlockLanes);
  }
  lanes_.resize(kBlockLanes);
}

void Execute(const SlotCode& code, const EvalContext& ctx, int lanes,
             EvalFrame* frame) {
  ITG_CHECK_LE(lanes, kBlockLanes);
  ITG_CHECK_GE(frame->slots_.size(),
               static_cast<size_t>(code.slot_doubles_) * kBlockLanes);
  ITG_CHECK_GE(frame->sels_.size(), static_cast<size_t>(code.num_sels_));
  frame->sels_[0] = {lanes, true};
  if (lanes == 0) return;
  double* const slots = frame->slots_.data();
  auto slot = [slots](int s) {
    return slots + static_cast<size_t>(s) * kBlockLanes;
  };
  const SlotOp* const ops = code.ops_.data();
  const size_t num_ops = code.ops_.size();
  const VertexId* const rows = ctx.rows;
  const size_t row_len = static_cast<size_t>(ctx.row_len);
  size_t pc = 0;
  while (pc < num_ops) {
    const SlotOp& op = ops[pc++];
    const EvalFrame::SelState& state = frame->sels_[op.sel];
    const Lanes s{frame->sel_lanes_.data() +
                      static_cast<size_t>(op.sel) * kBlockLanes,
                  state.n, state.dense};
    if (op.code <= Code::kIndex && ctx.eval_counter != nullptr) {
      *ctx.eval_counter += static_cast<uint64_t>(s.n);
    }
    double* const d = slot(op.dst);
    const double* const a = slot(op.a);
    const double* const b = slot(op.b);
    const int w = op.width;
    switch (op.code) {
      case Code::kConst: {
        const double literal = op.literal;
        ForLanes(s, [&](int l) { d[l] = literal; });
        break;
      }
      case Code::kRow: {
        ITG_CHECK_LT(op.arg, ctx.row_len);
        const auto depth = static_cast<size_t>(op.arg);
        ForLanes(s, [&](int l) {
          d[l] = static_cast<double>(rows[l * row_len + depth]);
        });
        break;
      }
      case Code::kBuiltin: {
        const double value =
            op.arg == 0 ? ctx.num_vertices : ctx.num_edges;
        ForLanes(s, [&](int l) { d[l] = value; });
        break;
      }
      case Code::kGlobal: {
        const double* g = (*ctx.globals)[static_cast<size_t>(op.arg)].data();
        ForLanes(s, [&](int l) { std::copy_n(g, w, d + l * w); });
        break;
      }
      case Code::kCell: {
        const double* col = ctx.columns->Column(op.arg).data();
        const auto stride = static_cast<size_t>(ctx.columns->width(op.arg));
        auto cell = [&](int l) {
          return col + static_cast<size_t>(rows[l * row_len]) * stride;
        };
        if (w == 1) {
          ForLanes(s, [&](int l) { d[l] = *cell(l); });
        } else {
          ForLanes(s, [&](int l) { std::copy_n(cell(l), w, d + l * w); });
        }
        break;
      }
      case Code::kBinary:
        ScalarBinary(op.binary, s, d, a, b);
        break;
      case Code::kWideBinary:
        // In place over a (when a has the result's width): each element
        // is read before it is written.
        ForLanes(s, [&](int l) {
          for (int i = 0; i < w; ++i) {
            const double av = Element(a, op.a_width, l, i);
            const double bv = Element(b, op.b_width, l, i);
            d[l * w + i] = EvalBinaryScalar(op.binary, av, bv);
          }
        });
        break;
      case Code::kNeg:
        ForLanes(s, [&](int l) {
          for (int i = 0; i < w; ++i) d[l * w + i] = -a[l * w + i];
        });
        break;
      case Code::kNot:
        ForLanes(s, [&](int l) {
          for (int i = 0; i < w; ++i) {
            d[l * w + i] = a[l * w + i] == 0.0 ? 1.0 : 0.0;
          }
        });
        break;
      case Code::kAbs:
        ForLanes(s, [&](int l) {
          for (int i = 0; i < w; ++i) d[l * w + i] = std::abs(a[l * w + i]);
        });
        break;
      case Code::kFloor:
        ForLanes(s, [&](int l) {
          for (int i = 0; i < w; ++i) {
            d[l * w + i] = std::floor(a[l * w + i]);
          }
        });
        break;
      case Code::kMin:
      case Code::kMax: {
        const bool min = op.code == Code::kMin;
        ForLanes(s, [&](int l) {
          for (int i = 0; i < w; ++i) {
            const double av = a[l * w + i];
            const double bv = Element(b, op.b_width, l, i);
            d[l * w + i] = min ? std::min(av, bv) : std::max(av, bv);
          }
        });
        break;
      }
      case Code::kMaxElem: {
        const int aw = op.a_width;
        ForLanes(s, [&](int l) {
          double best = a[l * aw];
          for (int i = 1; i < aw; ++i) best = std::max(best, a[l * aw + i]);
          d[l] = best;
        });
        break;
      }
      case Code::kIndex: {
        const int aw = op.a_width;
        ForLanes(s, [&](int l) {
          d[l] = a[l * aw + CheckedIndex(b[l], aw)];
        });
        break;
      }
      case Code::kSelect:
      case Code::kFilter: {
        const int target = op.code == Code::kSelect ? op.dst : op.sel;
        uint16_t* out = frame->sel_lanes_.data() +
                        static_cast<size_t>(target) * kBlockLanes;
        const bool expected = op.expected;
        int n = 0;
        // In place, the k-th kept lane lands at or before where it was read.
        ForLanes(s, [&](int l) {
          if ((a[l] != 0.0) == expected) out[n++] = static_cast<uint16_t>(l);
        });
        frame->sels_[target] = {n, s.dense && n == s.n};
        if (n == 0) pc = static_cast<size_t>(op.skip);
        break;
      }
      case Code::kStoreCell: {
        double* col = ctx.assign_columns->Column(op.arg).data();
        const auto stride =
            static_cast<size_t>(ctx.assign_columns->width(op.arg));
        auto cell = [&](int l) {
          return col + static_cast<size_t>(rows[l * row_len]) * stride;
        };
        const int aw = op.a_width;
        if (w == 1 && aw == 1) {
          ForLanes(s, [&](int l) { *cell(l) = a[l]; });
        } else {
          ForLanes(s, [&](int l) {
            double* c = cell(l);
            for (int i = 0; i < w; ++i) c[i] = Element(a, aw, l, i);
          });
        }
        break;
      }
      case Code::kStoreCellAt: {
        ColumnSet& cols = *ctx.assign_columns;
        const int aw = op.a_width;
        ForLanes(s, [&](int l) {
          cols.Cell(op.arg, rows[l * row_len])[CheckedIndex(b[l], w)] =
              a[l * aw];
        });
        break;
      }
      case Code::kStoreGlobal: {
        std::vector<double>& g =
            (*ctx.assign_globals)[static_cast<size_t>(op.arg)];
        const int aw = op.a_width;
        ForLanes(s, [&](int l) {
          for (size_t i = 0; i < g.size(); ++i) {
            g[i] = Element(a, aw, l, static_cast<int>(i));
          }
        });
        break;
      }
      case Code::kStoreGlobalAt: {
        std::vector<double>& g =
            (*ctx.assign_globals)[static_cast<size_t>(op.arg)];
        const int aw = op.a_width;
        ForLanes(s, [&](int l) {
          g[static_cast<size_t>(CheckedIndex(b[l], w))] = a[l * aw];
        });
        break;
      }
    }
    if (op.code >= Code::kStoreCell && ctx.assigns_applied != nullptr) {
      *ctx.assigns_applied += static_cast<uint64_t>(s.n);
    }
  }
}

ProgramCode::ProgramCode(const CompiledProgram& program)
    : init(SlotCode::Body(*program.init_body)),
      update(SlotCode::Body(*program.update_body)),
      init_writes_globals(StmtsWriteGlobals(*program.init_body)),
      update_writes_globals(StmtsWriteGlobals(*program.update_body)) {
  for (const Emission& e : program.traverse.emissions) {
    emissions.push_back(SlotCode::Guarded(e.guards, e.value));
  }
  for (const LevelSpec& level : program.traverse.levels) {
    where.push_back(SlotCode::Conjuncts(level.general));
  }
}

EvalFrame ProgramCode::NewFrame() const {
  EvalFrame frame(init);
  frame.Fit(update);
  for (const SlotCode& code : emissions) frame.Fit(code);
  for (const SlotCode& code : where) frame.Fit(code);
  return frame;
}

}  // namespace itg
