/**
 * @file
 * The one evaluator of Hydride IR, templated on the value domain.
 *
 * `evalBVDom` walks one BV-typed expression and `evalSemanticsDom`
 * runs a canonical semantics' loop nest. Int-typed operands (widths,
 * indices, loop bounds) are always concrete (`evalInt`); only BV-typed
 * dataflow goes through the Domain: `BitVectorDomain` (below, the
 * interpreter), `AigDomain` and `KnownBitsDomain`
 * (analysis/symbolic/sym_eval.h), `IntervalDomain` and `ProductDomain`
 * (analysis/dataflow/). A Domain supplies `Value`, `constant`,
 * `makeZero`, `widthOf`, `setSlice`, `binOp`, `unOp`, `cast`,
 * `extract`, `concat`, `cmp`, `select`, `shiftConst` (shift by a
 * concrete amount) and `knownBool` (1 / 0 when the value is surely
 * nonzero / zero, -1 when the domain cannot tell).
 *
 * Select runs only the taken branch whenever the condition is decided
 * (for BitVectorDomain, always): vendor pseudocode guards out-of-range
 * extracts behind lane-index comparisons (alignr/vext), and the dead
 * branch would raise a spurious error. An undecided condition
 * evaluates both branches and muxes. Every evaluation error is an
 * AssertionError, so speculative callers (synthesis probing scaled
 * variants, the equivalence checker's `unknown`) can catch it in any
 * domain.
 */
#ifndef HYDRIDE_HIR_EVAL_H
#define HYDRIDE_HIR_EVAL_H

#include <vector>

#include "hir/semantics.h"
#include "support/error.h"

namespace hydride {

/** Concrete values: the interpreter. */
class BitVectorDomain
{
  public:
    using Value = BitVector;

    Value constant(BitVector v) const { return v; }
    Value makeZero(int width) const { return BitVector(width); }
    int widthOf(const Value &v) const { return v.width(); }
    void setSlice(Value &acc, int low, const Value &v) const
    {
        acc.setSlice(low, v);
    }

    Value binOp(BVBinOp op, const Value &a, const Value &b) const
    {
        return applyBVBinOp(op, a, b);
    }
    Value unOp(BVUnOp op, const Value &a) const;
    Value cast(BVCastOp op, const Value &a, int width) const;
    Value extract(const Value &a, int low, int count) const
    {
        return a.extract(low, count);
    }
    Value concat(const Value &high, const Value &low) const
    {
        return BitVector::concat(high, low);
    }
    Value cmp(BVCmpOp op, const Value &a, const Value &b) const;
    Value select(const Value &cond, const Value &t, const Value &e) const
    {
        return cond.isZero() ? e : t;
    }
    /** Shift by a concrete amount (op must be Shl/LShr/AShr). */
    Value shiftConst(BVBinOp op, const Value &a, int amount) const;
    int knownBool(const Value &v) const { return v.isZero() ? 0 : 1; }
};

/** The environment of an evaluation in `Domain`. */
template <typename Domain>
using DomEnv = ValueEnv<typename Domain::Value>;

/** The argument an ArgBV node names. */
template <typename Value>
const Value &
argValue(const ValueEnv<Value> &env, const ExprPtr &arg)
{
    HYD_ASSERT(env.bv_args &&
                   arg->value < static_cast<int64_t>(env.bv_args->size()),
               "bitvector argument missing during evaluation");
    return (*env.bv_args)[arg->value];
}

template <typename Domain>
typename Domain::Value
evalBVDom(Domain &dom, const ExprPtr &expr, const DomEnv<Domain> &env)
{
    using Value = typename Domain::Value;
    switch (expr->kind) {
      case ExprKind::ArgBV:
        return argValue(env, expr);
      case ExprKind::BVConst: {
        const int width = static_cast<int>(evalInt(expr->kids[0], env));
        const int64_t value = evalInt(expr->kids[1], env);
        return dom.constant(BitVector::fromInt(width, value));
      }
      case ExprKind::BVBin: {
        const Value a = evalBVDom(dom, expr->kids[0], env);
        const Value b = evalBVDom(dom, expr->kids[1], env);
        HYD_ASSERT(dom.widthOf(a) == dom.widthOf(b),
                   "bvBin operand width mismatch during evaluation");
        return dom.binOp(static_cast<BVBinOp>(expr->value), a, b);
      }
      case ExprKind::BVUn:
        return dom.unOp(static_cast<BVUnOp>(expr->value),
                        evalBVDom(dom, expr->kids[0], env));
      case ExprKind::BVCast: {
        const Value a = evalBVDom(dom, expr->kids[0], env);
        const int width = static_cast<int>(evalInt(expr->kids[1], env));
        return dom.cast(static_cast<BVCastOp>(expr->value), a, width);
      }
      case ExprKind::Extract: {
        // Slice an argument in place: copying a wide register only to
        // take one element of it costs an allocation per use.
        const ExprPtr &src = expr->kids[0];
        const bool in_place = src->kind == ExprKind::ArgBV;
        const Value copy = in_place ? Value() : evalBVDom(dom, src, env);
        const Value &a = in_place ? argValue(env, src) : copy;
        const int low = static_cast<int>(evalInt(expr->kids[1], env));
        const int width = static_cast<int>(evalInt(expr->kids[2], env));
        return dom.extract(a, low, width);
      }
      case ExprKind::Concat: {
        const Value high = evalBVDom(dom, expr->kids[0], env);
        const Value low = evalBVDom(dom, expr->kids[1], env);
        return dom.concat(high, low);
      }
      case ExprKind::BVCmp: {
        const Value a = evalBVDom(dom, expr->kids[0], env);
        const Value b = evalBVDom(dom, expr->kids[1], env);
        HYD_ASSERT(dom.widthOf(a) == dom.widthOf(b),
                   "bvCmp operand width mismatch during evaluation");
        return dom.cmp(static_cast<BVCmpOp>(expr->value), a, b);
      }
      case ExprKind::Select: {
        const Value cond = evalBVDom(dom, expr->kids[0], env);
        const int taken = dom.knownBool(cond);
        if (taken >= 0)
            return evalBVDom(dom, expr->kids[taken ? 1 : 2], env);
        const Value t = evalBVDom(dom, expr->kids[1], env);
        const Value e = evalBVDom(dom, expr->kids[2], env);
        return dom.select(cond, t, e);
      }
      case ExprKind::Hole:
        HYD_ASSERT(false, "evaluation of an unfilled synthesis hole");
      default:
        HYD_ASSERT(false, "BV evaluation of an Int-typed node");
    }
}

/**
 * Run the canonical loop nest: every output element (i, j) evaluates
 * `sem.templateFor(i, j)` and lands at bit (i * inner + j) * width.
 * `int_arg_values` supplies the integer immediates, in `int_args`
 * order.
 */
template <typename Domain>
typename Domain::Value
evalSemanticsDom(Domain &dom, const CanonicalSemantics &sem,
                 const std::vector<typename Domain::Value> &args,
                 const std::vector<int64_t> &param_values,
                 const std::vector<int64_t> &int_arg_values = {})
{
    HYD_ASSERT(int_arg_values.size() == sem.int_args.size(),
               "integer argument count mismatch for " + sem.name);
    DomEnv<Domain> env;
    env.bv_args = &args;
    env.param_values = &param_values;
    for (size_t i = 0; i < sem.int_args.size(); ++i)
        env.named[sem.int_args[i]] = int_arg_values[i];

    const int64_t outer = evalInt(sem.outer_count, env);
    const int64_t inner = evalInt(sem.inner_count, env);
    const int width = static_cast<int>(evalInt(sem.elem_width, env));
    HYD_ASSERT(outer >= 1 && inner >= 1 && width >= 1,
               "degenerate canonical loop bounds");

    typename Domain::Value out =
        dom.makeZero(static_cast<int>(outer * inner * width));
    for (int64_t i = 0; i < outer; ++i) {
        for (int64_t j = 0; j < inner; ++j) {
            env.loop_i = i;
            env.loop_j = j;
            const typename Domain::Value elem =
                evalBVDom(dom, sem.templateFor(i, j), env);
            HYD_ASSERT(dom.widthOf(elem) == width,
                       "template produced mis-sized element in " + sem.name);
            dom.setSlice(out, static_cast<int>((i * inner + j) * width), elem);
        }
    }
    return out;
}

} // namespace hydride

#endif // HYDRIDE_HIR_EVAL_H
