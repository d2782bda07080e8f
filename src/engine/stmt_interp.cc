#include "engine/stmt_interp.h"

#include <array>

#include "common/logging.h"
#include "engine/eval.h"

namespace itg {

namespace {

using lang::Expr;
using lang::Stmt;
using lang::StmtPtr;

void RunBlock(const std::vector<StmtPtr>& body, StmtContext* ctx,
              const EvalContext& eval_ctx) {
  std::array<double, kMaxAttrWidth> value{};
  for (const StmtPtr& stmt : body) {
    switch (stmt->kind) {
      case Stmt::Kind::kAssign: {
        if (ctx->assigns_applied != nullptr) ++*ctx->assigns_applied;
        Evaluate(*stmt->value, eval_ctx, value.data());
        const Expr* target = stmt->target.get();
        if (target->kind == Expr::Kind::kIndex) {
          const Expr* base = target->children[0].get();
          int idx = static_cast<int>(
              EvaluateScalar(*target->children[1], eval_ctx));
          ITG_CHECK_GE(idx, 0);
          ITG_CHECK_LT(idx, base->type.width);
          if (base->kind == Expr::Kind::kAttrRef) {
            ctx->columns->Cell(base->resolved_attr, ctx->vertex)[idx] =
                value[0];
          } else {
            (*ctx->globals)[base->resolved_index][static_cast<size_t>(idx)] =
                value[0];
          }
          break;
        }
        if (target->kind == Expr::Kind::kAttrRef) {
          double* cell =
              ctx->columns->Cell(target->resolved_attr, ctx->vertex);
          const int width = target->type.width;
          const int value_width = stmt->value->type.width;
          for (int i = 0; i < width; ++i) {
            cell[i] = (value_width == 1) ? value[0] : value[i];
          }
        } else {
          std::vector<double>& g = (*ctx->globals)[target->resolved_index];
          const int value_width = stmt->value->type.width;
          for (size_t i = 0; i < g.size(); ++i) {
            g[i] = (value_width == 1) ? value[0] : value[i];
          }
        }
        break;
      }
      case Stmt::Kind::kIf: {
        if (EvaluateBool(*stmt->cond, eval_ctx)) {
          RunBlock(stmt->body, ctx, eval_ctx);
        } else {
          RunBlock(stmt->else_body, ctx, eval_ctx);
        }
        break;
      }
      case Stmt::Kind::kLet:
      case Stmt::Kind::kFor:
      case Stmt::Kind::kAccumulate:
        ITG_CHECK(false) << "statement kind not allowed here";
    }
  }
}

}  // namespace

void RunStatements(const std::vector<StmtPtr>& body, StmtContext* ctx) {
  EvalContext eval_ctx;
  eval_ctx.columns = ctx->columns;
  eval_ctx.globals = ctx->globals;
  eval_ctx.num_vertices = ctx->num_vertices;
  eval_ctx.num_edges = ctx->num_edges;
  eval_ctx.eval_counter = ctx->eval_counter;
  VertexId row[1] = {ctx->vertex};
  eval_ctx.row = row;
  eval_ctx.row_len = 1;
  RunBlock(body, ctx, eval_ctx);
}

}  // namespace itg
