#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "compiler/compiled_program.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace itg {

namespace {

using lang::Expr;
using lang::ExprPtr;
using lang::Stmt;
using lang::StmtPtr;
using lang::VarKind;

ExprPtr CloneExpr(const Expr& expr) {
  auto clone = std::make_unique<Expr>();
  clone->kind = expr.kind;
  clone->loc = expr.loc;
  clone->literal_value = expr.literal_value;
  clone->literal_is_bool = expr.literal_is_bool;
  clone->name = expr.name;
  clone->var_kind = expr.var_kind;
  clone->resolved_index = expr.resolved_index;
  clone->attr = expr.attr;
  clone->resolved_attr = expr.resolved_attr;
  clone->vertex_depth = expr.vertex_depth;
  clone->binary_op = expr.binary_op;
  clone->unary_op = expr.unary_op;
  clone->callee = expr.callee;
  clone->type = expr.type;
  for (const auto& child : expr.children) {
    clone->children.push_back(CloneExpr(*child));
  }
  return clone;
}

/// Replaces Let references with clones of their (already inlined) bound
/// expressions. Purely syntactic: L_NGA expressions are side-effect free,
/// so inlining preserves semantics (the classic view-unfolding step of
/// the paper's Table-2 "bind the variable" rule for Let).
ExprPtr InlineLets(const Expr& expr,
                   const std::map<int, const Expr*>& bindings) {
  if (expr.kind == Expr::Kind::kVarRef && expr.var_kind == VarKind::kLet) {
    auto it = bindings.find(expr.resolved_index);
    ITG_CHECK(it != bindings.end()) << "unbound Let slot";
    return CloneExpr(*it->second);
  }
  ExprPtr clone = CloneExpr(expr);
  clone->children.clear();
  for (const auto& child : expr.children) {
    clone->children.push_back(InlineLets(*child, bindings));
  }
  return clone;
}

/// Rewrites a statement block, dropping Let statements and inlining their
/// bindings downstream (scoped per block). Inlined binding expressions
/// are kept alive in `owned`.
void InlineBlock(std::vector<StmtPtr>* stmts,
                 std::map<int, const Expr*> bindings,
                 std::vector<ExprPtr>* owned) {
  std::vector<StmtPtr> out;
  for (StmtPtr& stmt : *stmts) {
    switch (stmt->kind) {
      case Stmt::Kind::kLet: {
        ExprPtr inlined = InlineLets(*stmt->value, bindings);
        bindings[stmt->let_slot] = inlined.get();
        owned->push_back(std::move(inlined));
        break;  // the Let statement itself disappears
      }
      case Stmt::Kind::kAssign:
      case Stmt::Kind::kAccumulate: {
        stmt->value = InlineLets(*stmt->value, bindings);
        if (stmt->target->kind == Expr::Kind::kIndex) {
          stmt->target->children[1] =
              InlineLets(*stmt->target->children[1], bindings);
        }
        out.push_back(std::move(stmt));
        break;
      }
      case Stmt::Kind::kFor: {
        if (stmt->where != nullptr) {
          stmt->where = InlineLets(*stmt->where, bindings);
        }
        InlineBlock(&stmt->body, bindings, owned);
        out.push_back(std::move(stmt));
        break;
      }
      case Stmt::Kind::kIf: {
        stmt->cond = InlineLets(*stmt->cond, bindings);
        InlineBlock(&stmt->body, bindings, owned);
        InlineBlock(&stmt->else_body, bindings, owned);
        out.push_back(std::move(stmt));
        break;
      }
    }
  }
  *stmts = std::move(out);
}

Status ErrorAt(lang::SourceLoc loc, const std::string& msg) {
  return Status::CompileError(msg + " (line " + std::to_string(loc.line) +
                              ")");
}

void DecomposePredicate(LevelSpec* level, int new_depth);

/// Extracts the Walk spec from the (Let-inlined) Traverse body: one
/// LevelSpec per nested For, guarded emissions per Accumulate. This is
/// the Apply-decorrelation of §4.4 performed structurally: each For is a
/// correlated sub-query over the neighbor stream; collapsing the chain
/// yields one Walk with per-level predicates.
class TraverseExtractor {
 public:
  explicit TraverseExtractor(CompiledProgram* out) : out_(out) {}

  Status Run(const std::vector<StmtPtr>& body) {
    return Visit(body, /*depth=*/0, /*guards=*/{});
  }

 private:
  Status Visit(const std::vector<StmtPtr>& stmts, int depth,
               std::vector<std::pair<const Expr*, bool>> guards) {
    for (const StmtPtr& stmt : stmts) {
      switch (stmt->kind) {
        case Stmt::Kind::kFor: {
          if (static_cast<int>(out_->traverse.levels.size()) != depth) {
            return ErrorAt(stmt->loc,
                           "multiple sibling For loops in Traverse are not "
                           "supported (one walk chain per program)");
          }
          if (!guards.empty()) {
            return ErrorAt(stmt->loc,
                           "For under If is not supported; move the "
                           "condition into the loop's Where clause");
          }
          LevelSpec level;
          level.dir = (stmt->for_source_attr == "in_nbrs") ? Direction::kIn
                                                           : Direction::kOut;
          level.where = stmt->where.get();
          DecomposePredicate(&level, /*new_depth=*/depth + 1);
          out_->traverse.levels.push_back(level);
          ITG_RETURN_IF_ERROR(Visit(stmt->body, depth + 1, guards));
          break;
        }
        case Stmt::Kind::kIf: {
          auto then_guards = guards;
          then_guards.emplace_back(stmt->cond.get(), true);
          ITG_RETURN_IF_ERROR(Visit(stmt->body, depth, then_guards));
          auto else_guards = guards;
          else_guards.emplace_back(stmt->cond.get(), false);
          ITG_RETURN_IF_ERROR(Visit(stmt->else_body, depth, else_guards));
          break;
        }
        case Stmt::Kind::kAccumulate: {
          Emission emission;
          emission.stmt_depth = depth;
          emission.guards = guards;
          emission.value = stmt->value.get();
          emission.width = stmt->target->type.width;
          emission.op = stmt->target->type.accm_op;
          if (stmt->target->kind == Expr::Kind::kVarRef) {
            emission.is_global = true;
            emission.target = stmt->target->resolved_index;
          } else {
            emission.is_global = false;
            emission.target = stmt->target->resolved_attr;
            emission.target_depth = stmt->target->vertex_depth;
          }
          out_->traverse.emissions.push_back(emission);
          break;
        }
        case Stmt::Kind::kLet:
          return ErrorAt(stmt->loc, "Let should have been inlined");
        case Stmt::Kind::kAssign:
          return ErrorAt(stmt->loc, "Assign is not allowed in Traverse");
      }
    }
    return Status::OK();
  }

  CompiledProgram* out_;
};

/// Collects the start-vertex attributes Traverse reads (AttrRef at depth
/// 0, excluding `id`). A change in any of them (or in `active`) makes a
/// vertex a Δvs start for the incremental query.
void CollectReadAttrs(const Expr& expr, std::set<int>* attrs) {
  if (expr.kind == Expr::Kind::kAttrRef && expr.attr != "id") {
    attrs->insert(expr.resolved_attr);
  }
  for (const auto& child : expr.children) CollectReadAttrs(*child, attrs);
}

void CollectReadAttrsStmt(const Stmt& stmt, std::set<int>* attrs) {
  if (stmt.value != nullptr) CollectReadAttrs(*stmt.value, attrs);
  if (stmt.where != nullptr) CollectReadAttrs(*stmt.where, attrs);
  if (stmt.cond != nullptr) CollectReadAttrs(*stmt.cond, attrs);
  for (const auto& child : stmt.body) CollectReadAttrsStmt(*child, attrs);
  for (const auto& child : stmt.else_body) {
    CollectReadAttrsStmt(*child, attrs);
  }
}

/// Position (row depth) denoted by an expression, or -1: a vertex
/// variable or an `id` attribute reference.
int VertexPositionOf(const Expr& e) {
  if (e.kind == Expr::Kind::kVarRef && e.var_kind == VarKind::kVertexVar) {
    return e.resolved_index;
  }
  if (e.kind == Expr::Kind::kAttrRef && e.attr == "id") {
    return e.vertex_depth;
  }
  return -1;
}

/// True when `e` references no vertex position above 0: its value is
/// fixed by the walk's start vertex (attributes are read at the start).
bool ReadsOnlyStart(const Expr& e) {
  if (VertexPositionOf(e) > 0) return false;
  for (const auto& child : e.children) {
    if (!ReadsOnlyStart(*child)) return false;
  }
  return true;
}

void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary &&
      expr.binary_op == lang::BinaryOp::kAnd) {
    SplitConjuncts(*expr.children[0], out);
    SplitConjuncts(*expr.children[1], out);
    return;
  }
  out->push_back(&expr);
}

/// Decomposes a level's Where into fast-path conjuncts over the new
/// position (`new_depth`) plus a general residue.
void DecomposePredicate(LevelSpec* level, int new_depth) {
  if (level->where == nullptr) return;
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(*level->where, &conjuncts);
  for (const Expr* c : conjuncts) {
    bool handled = false;
    if (c->kind == Expr::Kind::kBinary && c->children.size() == 2) {
      int a = VertexPositionOf(*c->children[0]);
      int b = VertexPositionOf(*c->children[1]);
      if (a >= 0 && b >= 0 && (a == new_depth) != (b == new_depth)) {
        int other = (a == new_depth) ? b : a;
        bool new_on_left = (a == new_depth);
        switch (c->binary_op) {
          case lang::BinaryOp::kLt:
            // new < other  |  other < new
            if (new_on_left && level->lt_pos < 0) {
              level->lt_pos = other;
              handled = true;
            } else if (!new_on_left && level->gt_pos < 0) {
              level->gt_pos = other;
              handled = true;
            }
            break;
          case lang::BinaryOp::kGt:
            if (new_on_left && level->gt_pos < 0) {
              level->gt_pos = other;
              handled = true;
            } else if (!new_on_left && level->lt_pos < 0) {
              level->lt_pos = other;
              handled = true;
            }
            break;
          case lang::BinaryOp::kEq:
            if (level->eq_pos < 0) {
              level->eq_pos = other;
              handled = true;
            }
            break;
          default:
            break;
        }
      }
    }
    if (!handled) level->general.push_back(c);
  }
}

/// Detects the closing conjunct `u_{k+1} == u_1` in the innermost Where.
bool HasClosingConjunct(const Expr& expr, int last_depth) {
  if (expr.kind == Expr::Kind::kBinary) {
    if (expr.binary_op == lang::BinaryOp::kAnd) {
      return HasClosingConjunct(*expr.children[0], last_depth) ||
             HasClosingConjunct(*expr.children[1], last_depth);
    }
    if (expr.binary_op == lang::BinaryOp::kEq) {
      const Expr& lhs = *expr.children[0];
      const Expr& rhs = *expr.children[1];
      auto depth_of = [](const Expr& e) -> int {
        if (e.kind == Expr::Kind::kVarRef &&
            e.var_kind == VarKind::kVertexVar) {
          return e.resolved_index;
        }
        if (e.kind == Expr::Kind::kAttrRef && e.attr == "id") {
          return e.vertex_depth;
        }
        return -1;
      };
      int a = depth_of(lhs);
      int b = depth_of(rhs);
      return (a == last_depth && b == 0) || (a == 0 && b == last_depth);
    }
  }
  return false;
}

/// Builds the logical GSA tree for Traverse:
///   ⊎_target(Π_value(Walk_p(σ_active(vs1), es1, …, es_k)))   per emission,
/// unioned when there are several emissions.
///
/// Also assigns stable operator ids (EXPLAIN ANALYZE) and records the
/// physical → logical mapping into the TraverseSpec. Ids are assigned on
/// the walk chain *before* it is cloned per emission branch: there is one
/// physical walk, so all branches deliberately share its ids.
std::unique_ptr<gsa::PlanNode> BuildTraversePlan(CompiledProgram* program,
                                                 int* next_id) {
  const int k = program->walk_length();
  auto walk = gsa::PlanNode::Make("Walk", "k=" + std::to_string(k));
  auto vs = gsa::PlanNode::Make("Stream", "vs1");
  auto filter = gsa::PlanNode::Make("Filter", "active=true");
  filter->children.push_back(std::move(vs));
  walk->children.push_back(std::move(filter));
  for (int i = 1; i <= k; ++i) {
    std::string name = "es" + std::to_string(i);
    const LevelSpec& level = program->traverse.levels[i - 1];
    std::string detail =
        name + (level.dir == Direction::kIn ? " (in)" : "");
    if (level.where != nullptr) detail += " σ(where)";
    walk->children.push_back(gsa::PlanNode::Make("Stream", detail));
  }
  gsa::AssignOperatorIds(walk.get(), next_id);
  program->traverse.walk_op = walk->op_id;
  program->traverse.start_filter_op = walk->children[0]->op_id;
  program->traverse.start_stream_op = walk->children[0]->children[0]->op_id;
  for (int i = 1; i <= k; ++i) {
    program->traverse.levels[i - 1].op = walk->children[i]->op_id;
  }

  std::vector<std::unique_ptr<gsa::PlanNode>> branches;
  for (Emission& e : program->traverse.emissions) {
    std::string target =
        e.is_global ? program->globals[e.target].name
                    : ("u" + std::to_string(e.target_depth + 1) + "." +
                       program->vertex_attrs[e.target].name);
    auto accm = gsa::PlanNode::Make(
        "Accumulate", target + ", " + lang::AccmOpName(e.op));
    auto map = gsa::PlanNode::Make(
        "Map", "value @ depth " + std::to_string(e.stmt_depth));
    accm->op_id = (*next_id)++;
    map->op_id = (*next_id)++;
    e.accum_op = accm->op_id;
    e.map_op = map->op_id;
    map->children.push_back(walk->Clone());
    accm->children.push_back(std::move(map));
    branches.push_back(std::move(accm));
  }
  if (branches.empty()) {
    return walk;  // a traversal with no emissions (degenerate)
  }
  if (branches.size() == 1) return std::move(branches[0]);
  auto result = gsa::PlanNode::Make("Union", "emissions");
  result->children = std::move(branches);
  return result;
}

void RegisterPlanOps(const gsa::PlanNode& node,
                     gsa::ExecutionProfile* profile) {
  if (node.op_id >= 0) profile->RegisterOp(node.op_id, node.op, node.detail);
  for (const auto& child : node.children) {
    RegisterPlanOps(*child, profile);
  }
}

}  // namespace

std::string CompiledProgram::Explain() const {
  std::ostringstream os;
  os << "=== One-shot Traverse plan (GSA) ===\n"
     << gsa::Explain(*oneshot_plan)
     << "=== Incremental Traverse plan (Table-4 rules) ===\n"
     << gsa::Explain(*incremental_plan)
     << "=== Update plan ===\nApply[Update program](Stream vs_accm)\n";
  return os.str();
}

std::string CompiledProgram::ExplainAnalyze(
    const gsa::ExecutionProfile& profile) const {
  // The Init/Update phases are not part of the Traverse trees; render
  // them as the Apply operators they are so they share the annotation
  // format.
  auto init = gsa::PlanNode::Make("Apply", "Initialize program");
  init->op_id = init_op;
  init->children.push_back(gsa::PlanNode::Make("Stream", "vs"));
  auto update = gsa::PlanNode::Make("Apply", "Update program");
  update->op_id = update_op;
  update->children.push_back(gsa::PlanNode::Make("Stream", "vs_accm"));

  std::ostringstream os;
  os << "=== One-shot Traverse plan (GSA) ===\n"
     << gsa::ExplainAnalyze(*oneshot_plan, profile)
     << "=== Incremental Traverse plan (Table-4 rules) ===\n"
     << gsa::ExplainAnalyze(*incremental_plan, profile)
     << "=== Initialize plan ===\n"
     << gsa::ExplainAnalyze(*init, profile) << "=== Update plan ===\n"
     << gsa::ExplainAnalyze(*update, profile);
  return os.str();
}

void CompiledProgram::RegisterOperators(gsa::ExecutionProfile* profile) const {
  // Incremental first: for ids shared between the plans the one-shot
  // node's name/detail is the canonical label.
  if (incremental_plan != nullptr) RegisterPlanOps(*incremental_plan, profile);
  if (oneshot_plan != nullptr) RegisterPlanOps(*oneshot_plan, profile);
  if (init_op >= 0) profile->RegisterOp(init_op, "Apply", "Initialize");
  if (update_op >= 0) profile->RegisterOp(update_op, "Apply", "Update");
}

StatusOr<std::unique_ptr<CompiledProgram>> CompileProgram(
    const std::string& source) {
  ITG_ASSIGN_OR_RETURN(std::unique_ptr<lang::Program> ast,
                       lang::Parse(source));
  ITG_ASSIGN_OR_RETURN(lang::ProgramInfo info, lang::Analyze(ast.get()));

  auto program = std::make_unique<CompiledProgram>();
  program->ast = std::move(ast);
  program->info = info;

  for (const lang::AttrDecl& decl : program->ast->vertex_attrs) {
    program->vertex_attrs.push_back({decl.name, decl.type});
    if (decl.name == "active") {
      program->active_attr =
          static_cast<int>(program->vertex_attrs.size()) - 1;
    }
  }
  if (program->active_attr < 0) {
    return Status::CompileError(
        "program must declare the predefined attribute 'active'");
  }
  for (const lang::AttrDecl& decl : program->ast->globals) {
    program->globals.push_back({decl.name, decl.type});
  }

  // Let inlining across all three UDFs.
  {
    std::vector<ExprPtr> owned;
    InlineBlock(&program->ast->initialize.body, {}, &owned);
    InlineBlock(&program->ast->traverse.body, {}, &owned);
    InlineBlock(&program->ast->update.body, {}, &owned);
    // Keep inlined expressions alive alongside the AST.
    program->owned_exprs_ = std::move(owned);
  }

  TraverseExtractor extractor(program.get());
  ITG_RETURN_IF_ERROR(extractor.Run(program->ast->traverse.body));
  for (Emission& e : program->traverse.emissions) {
    e.start_invariant =
        ReadsOnlyStart(*e.value) &&
        std::all_of(e.guards.begin(), e.guards.end(), [](const auto& guard) {
          return ReadsOnlyStart(*guard.first);
        });
  }

  std::set<int> read_attrs;
  for (const StmtPtr& stmt : program->ast->traverse.body) {
    CollectReadAttrsStmt(*stmt, &read_attrs);
  }
  program->traverse_read_attrs.assign(read_attrs.begin(), read_attrs.end());

  if (!program->traverse.levels.empty()) {
    const LevelSpec& last = program->traverse.levels.back();
    if (last.where != nullptr) {
      program->traverse.closes_to_start =
          HasClosingConjunct(*last.where, program->walk_length());
    }
  }

  program->init_body = &program->ast->initialize.body;
  program->update_body = &program->ast->update.body;

  int next_op_id = 0;
  program->oneshot_plan = BuildTraversePlan(program.get(), &next_op_id);
  // The emission Union root (when present) still carries no id.
  gsa::AssignOperatorIds(program->oneshot_plan.get(), &next_op_id);
  program->incremental_plan = gsa::Incrementalize(*program->oneshot_plan);
  // Fresh ids for the nodes the rewrite introduced (rule-⑦ Unions);
  // everything else inherited its one-shot id.
  gsa::AssignOperatorIds(program->incremental_plan.get(), &next_op_id);
  program->init_op = next_op_id++;
  program->update_op = next_op_id++;
  program->num_operator_ids = next_op_id;
  return program;
}

}  // namespace itg
