#include "hir/semantics.h"

#include "hir/eval.h"
#include "support/error.h"

namespace hydride {

std::vector<int64_t>
CanonicalSemantics::defaultParamValues() const
{
    std::vector<int64_t> values;
    values.reserve(params.size());
    for (const auto &info : params)
        values.push_back(info.default_value);
    return values;
}

int
CanonicalSemantics::outputWidth(const std::vector<int64_t> &param_values) const
{
    EvalEnv env;
    env.param_values = &param_values;
    const int64_t outer = evalInt(outer_count, env);
    const int64_t inner = evalInt(inner_count, env);
    const int64_t width = evalInt(elem_width, env);
    return static_cast<int>(outer * inner * width);
}

int
CanonicalSemantics::argWidth(int index,
                             const std::vector<int64_t> &param_values) const
{
    HYD_ASSERT(index >= 0 && index < static_cast<int>(bv_args.size()),
               "argWidth index out of range");
    EvalEnv env;
    env.param_values = &param_values;
    return static_cast<int>(evalInt(bv_args[index].width, env));
}

const ExprPtr &
CanonicalSemantics::templateFor(int64_t i, int64_t j) const
{
    switch (mode) {
      case TemplateMode::Uniform:
        return templates[0];
      case TemplateMode::ByInner:
        HYD_ASSERT(j < static_cast<int64_t>(templates.size()),
                   "inner index exceeds template count");
        return templates[j];
      case TemplateMode::ByOuter:
        HYD_ASSERT(i < static_cast<int64_t>(templates.size()),
                   "outer index exceeds template count");
        return templates[i];
    }
    panic("unknown TemplateMode");
}

BitVector
CanonicalSemantics::evaluate(const std::vector<BitVector> &args,
                             const std::vector<int64_t> &param_values,
                             const std::vector<int64_t> &int_arg_values) const
{
    BitVectorDomain dom;
    return evalSemanticsDom(dom, *this, args, param_values, int_arg_values);
}

bool
CanonicalSemantics::sameShape(const CanonicalSemantics &a,
                              const CanonicalSemantics &b)
{
    if (a.mode != b.mode || a.templates.size() != b.templates.size() ||
        a.bv_args.size() != b.bv_args.size() ||
        a.int_args.size() != b.int_args.size() ||
        a.params.size() != b.params.size()) {
        return false;
    }
    if (!Expr::equals(a.outer_count, b.outer_count) ||
        !Expr::equals(a.inner_count, b.inner_count) ||
        !Expr::equals(a.elem_width, b.elem_width)) {
        return false;
    }
    for (size_t i = 0; i < a.bv_args.size(); ++i)
        if (!Expr::equals(a.bv_args[i].width, b.bv_args[i].width))
            return false;
    for (size_t i = 0; i < a.templates.size(); ++i)
        if (!Expr::equals(a.templates[i], b.templates[i]))
            return false;
    return true;
}

uint64_t
CanonicalSemantics::shapeHash() const
{
    uint64_t h = static_cast<uint64_t>(mode) * 0x2545F4914F6CDD1Dull;
    h ^= templates.size() + bv_args.size() * 131 + params.size() * 65537 +
         int_args.size() * 8191;
    h ^= Expr::hashOf(outer_count) * 3;
    h ^= Expr::hashOf(inner_count) * 5;
    h ^= Expr::hashOf(elem_width) * 7;
    for (const auto &arg : bv_args)
        h ^= Expr::hashOf(arg.width) + (h << 6) + (h >> 2);
    for (const auto &tmpl : templates)
        h ^= Expr::hashOf(tmpl) + (h << 6) + (h >> 2);
    return h;
}

std::vector<BVBinOp>
CanonicalSemantics::bvBinOps() const
{
    std::vector<BVBinOp> ops;
    std::vector<ExprPtr> nodes;
    for (const auto &tmpl : templates)
        collectNodes(tmpl, nodes);
    for (const auto &node : nodes)
        if (node->kind == ExprKind::BVBin)
            ops.push_back(static_cast<BVBinOp>(node->value));
    return ops;
}

// ---- Statement IR ------------------------------------------------------------

StmtPtr
stmtFor(std::string var, ExprPtr lo, ExprPtr hi, std::vector<StmtPtr> body)
{
    auto stmt = std::make_shared<Stmt>();
    stmt->kind = StmtKind::For;
    stmt->var = std::move(var);
    stmt->lo = std::move(lo);
    stmt->hi = std::move(hi);
    stmt->body = std::move(body);
    return stmt;
}

StmtPtr
stmtSliceAssign(ExprPtr low, ExprPtr width, ExprPtr value)
{
    auto stmt = std::make_shared<Stmt>();
    stmt->kind = StmtKind::SliceAssign;
    stmt->low = std::move(low);
    stmt->width = std::move(width);
    stmt->value = std::move(value);
    return stmt;
}

StmtPtr
stmtLetInt(std::string var, ExprPtr value)
{
    auto stmt = std::make_shared<Stmt>();
    stmt->kind = StmtKind::LetInt;
    stmt->var = std::move(var);
    stmt->lo = std::move(value);
    return stmt;
}

namespace {

void
executeStmt(const StmtPtr &stmt, EvalEnv &env, BitVector &out)
{
    switch (stmt->kind) {
      case StmtKind::For: {
        const int64_t lo = evalInt(stmt->lo, env);
        const int64_t hi = evalInt(stmt->hi, env);
        for (int64_t it = lo; it <= hi; ++it) {
            env.named[stmt->var] = it;
            for (const auto &inner : stmt->body)
                executeStmt(inner, env, out);
        }
        env.named.erase(stmt->var);
        break;
      }
      case StmtKind::SliceAssign: {
        const int low = static_cast<int>(evalInt(stmt->low, env));
        const int width = static_cast<int>(evalInt(stmt->width, env));
        BitVector value = evalBV(stmt->value, env);
        HYD_ASSERT(value.width() == width,
                   "slice assignment width mismatch");
        out.setSlice(low, value);
        break;
      }
      case StmtKind::LetInt:
        env.named[stmt->var] = evalInt(stmt->lo, env);
        break;
    }
}

} // namespace

BitVector
SpecFunction::evaluate(const std::vector<BitVector> &args,
                       const std::vector<int64_t> &int_arg_values) const
{
    HYD_ASSERT(args.size() == bv_args.size(),
               "argument count mismatch for " + name);
    HYD_ASSERT(int_arg_values.size() == int_args.size(),
               "integer argument count mismatch for " + name);
    EvalEnv env;
    env.bv_args = &args;
    for (size_t i = 0; i < int_args.size(); ++i)
        env.named[int_args[i]] = int_arg_values[i];
    BitVector out(out_width);
    for (const auto &stmt : body)
        executeStmt(stmt, env, out);
    return out;
}

} // namespace hydride
