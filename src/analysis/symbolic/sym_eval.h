/**
 * @file
 * Symbolic evaluation of Hydride IR over pluggable abstract domains.
 *
 * `evalBVDom` is the symbolic twin of `evalBV` (hir/expr.cpp): same
 * node dispatch, same width assertions, same integer sub-expression
 * handling (Int-typed operands — widths, indices, loop bounds — are
 * always *concrete* and evaluated with the ordinary `evalInt`; only
 * BV-typed dataflow becomes symbolic). It is templated on a Domain so
 * the known-bits tier and the AIG bit-blasting tier share one
 * evaluator and cannot diverge structurally.
 *
 * `evalSemanticsDom` mirrors `CanonicalSemantics::evaluate` the same
 * way, using the shared `templateFor(i, j)` selection hook.
 *
 * One deliberate semantic difference: concrete Select evaluation is
 * lazy (only the taken branch runs), while symbolic evaluation must
 * in general evaluate both branches and mux. When the condition folds
 * to a constant the evaluator takes only that branch — vendor
 * pseudocode routinely guards out-of-range extracts behind
 * lane-index comparisons that are concrete once loop variables are
 * bound (alignr/vext are the canonical case), and expanding the dead
 * branch would raise a spurious evaluation error. If the untaken
 * branch of a genuinely *symbolic* condition raises one, the query
 * throws where a concrete run would not — the equivalence checker
 * catches AssertionError and reports `unknown`, which is sound.
 */
#ifndef HYDRIDE_ANALYSIS_SYMBOLIC_SYM_EVAL_H
#define HYDRIDE_ANALYSIS_SYMBOLIC_SYM_EVAL_H

#include <unordered_map>
#include <vector>

#include "analysis/symbolic/bitblast.h"
#include "analysis/symbolic/knownbits.h"
#include "hir/semantics.h"
#include "support/error.h"

namespace hydride {
namespace sym {

/**
 * Bit-blasting domain: values are AIG literal vectors.
 *
 * `binOp` puts operands in canonical order before bit-blasting, so
 * operand order and association do not change the circuit
 * (docs/symbolic_engine.md, tier 2). For the associative-commutative
 * ops (Add, Mul, And, Or, Xor, MinS, MaxS, MinU, MaxU) the domain
 * remembers which sorted leaves each result was folded from; an
 * operand built by the same op contributes its leaves instead of
 * itself; the leaves are sorted, duplicates are dropped for the
 * idempotent ops and cancelled in pairs for Xor, and the rest is
 * left-folded through the plain builders. The commutative-only ops
 * (AddSatS, AddSatU, AvgU, AvgS) order their two operands. Sound
 * because a literal vector in the hashed AIG denotes
 * exactly one function of the inputs, and each rewrite is the op's
 * own algebraic law. The bookkeeping lives as long as the domain:
 * one equivalence query, whose two sides share the AIG.
 */
class AigDomain
{
  public:
    using Value = SymVec;

    explicit AigDomain(Aig &aig)
        : aig_(aig)
    {
    }

    Aig &aig() { return aig_; }

    Value constant(const BitVector &v) const { return svConst(v); }
    Value makeZero(int width) const { return svConst(BitVector(width)); }
    int widthOf(const Value &v) const { return v.width(); }
    void setSlice(Value &acc, int low, const Value &v) const
    {
        acc.setSlice(low, v);
    }

    Value binOp(BVBinOp op, const Value &a, const Value &b);
    Value unOp(BVUnOp op, const Value &a);
    Value cast(BVCastOp op, const Value &a, int width);
    Value extract(const Value &a, int low, int count);
    Value concat(const Value &high, const Value &low);
    Value cmp(BVCmpOp op, const Value &a, const Value &b);
    Value select(const Value &cond, const Value &t, const Value &e);
    /** Shift by a concrete amount (op must be Shl/LShr/AShr). */
    Value shiftConst(BVBinOp op, const Value &a, int amount);
    /** 1 / 0 when the value is definitely nonzero / zero, -1 else. */
    int knownBool(const Value &v) const;

  private:
    struct LitsHash
    {
        size_t operator()(const std::vector<Lit> &lits) const;
    };

    /** The plain builder for one operator, operands as given. */
    SymVec build(BVBinOp op, const SymVec &a, const SymVec &b);
    /** An associative-commutative op over flattened, sorted leaves. */
    SymVec acOp(BVBinOp op, const SymVec &a, const SymVec &b);
    /** Left fold of sorted leaves, memoized on every prefix. */
    SymVec foldLeaves(BVBinOp op, const std::vector<SymVec> &leaves);

    Aig &aig_;
    /** (op, result literals) -> the sorted leaves it was folded from. */
    std::unordered_map<std::vector<Lit>, std::vector<SymVec>, LitsHash>
        terms_;
    /** (op, width, leaf literals...) -> the fold of those leaves. */
    std::unordered_map<std::vector<Lit>, SymVec, LitsHash> folds_;
};

/** Known-bits domain: sound abstract interpretation, no AIG nodes. */
class KnownBitsDomain
{
  public:
    using Value = KnownBits;

    Value constant(const BitVector &v) const { return KnownBits::constant(v); }
    Value makeZero(int width) const
    {
        return KnownBits::constant(BitVector(width));
    }
    int widthOf(const Value &v) const { return v.width(); }
    void setSlice(Value &acc, int low, const Value &v) const
    {
        acc.known.setSlice(low, v.known);
        acc.value.setSlice(low, v.value);
    }

    Value binOp(BVBinOp op, const Value &a, const Value &b) const;
    Value unOp(BVUnOp op, const Value &a) const;
    Value cast(BVCastOp op, const Value &a, int width) const;
    Value extract(const Value &a, int low, int count) const;
    Value concat(const Value &high, const Value &low) const;
    Value cmp(BVCmpOp op, const Value &a, const Value &b) const;
    Value select(const Value &cond, const Value &t, const Value &e) const;
    /** Shift by a concrete amount (op must be Shl/LShr/AShr). */
    Value shiftConst(BVBinOp op, const Value &a, int amount) const;
    /** 1 / 0 when the value is definitely nonzero / zero, -1 else. */
    int knownBool(const Value &v) const;

    // AbstractDomain lattice surface (analysis/dataflow/domain.h):
    // the known-bits domain behind the same interface as the
    // interval domain, so the reduced product can compose them.
    Value top(int width) const { return KnownBits::top(width); }
    Value join(const Value &a, const Value &b) const
    {
        return KnownBits::join(a, b);
    }
    bool contains(const Value &v, const BitVector &c) const
    {
        return v.contains(c);
    }
};

/** Environment: symbolic BV arguments + concrete integer state. */
template <typename Domain>
struct DomEnv
{
    const std::vector<typename Domain::Value> *bv_args = nullptr;
    /** Concrete environment for Int-typed sub-expressions (its own
     *  bv_args member stays null; evalInt never touches BV state). */
    EvalEnv ints;
};

template <typename Domain>
typename Domain::Value
evalBVDom(Domain &dom, const ExprPtr &expr, const DomEnv<Domain> &env)
{
    using Value = typename Domain::Value;
    switch (expr->kind) {
      case ExprKind::ArgBV: {
        HYD_ASSERT(env.bv_args &&
                   expr->value < static_cast<int64_t>(env.bv_args->size()),
                   "bitvector argument missing during symbolic evaluation");
        return (*env.bv_args)[expr->value];
      }
      case ExprKind::BVConst: {
        const int width = static_cast<int>(evalInt(expr->kids[0], env.ints));
        const int64_t value = evalInt(expr->kids[1], env.ints);
        return dom.constant(BitVector::fromInt(width, value));
      }
      case ExprKind::BVBin: {
        const Value a = evalBVDom(dom, expr->kids[0], env);
        const Value b = evalBVDom(dom, expr->kids[1], env);
        HYD_ASSERT(dom.widthOf(a) == dom.widthOf(b),
                   "bvBin operand width mismatch during symbolic evaluation");
        return dom.binOp(static_cast<BVBinOp>(expr->value), a, b);
      }
      case ExprKind::BVUn:
        return dom.unOp(static_cast<BVUnOp>(expr->value),
                        evalBVDom(dom, expr->kids[0], env));
      case ExprKind::BVCast: {
        const Value a = evalBVDom(dom, expr->kids[0], env);
        const int width = static_cast<int>(evalInt(expr->kids[1], env.ints));
        return dom.cast(static_cast<BVCastOp>(expr->value), a, width);
      }
      case ExprKind::Extract: {
        const Value a = evalBVDom(dom, expr->kids[0], env);
        const int low = static_cast<int>(evalInt(expr->kids[1], env.ints));
        const int width = static_cast<int>(evalInt(expr->kids[2], env.ints));
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
                   "bvCmp operand width mismatch during symbolic evaluation");
        return dom.cmp(static_cast<BVCmpOp>(expr->value), a, b);
      }
      case ExprKind::Select: {
        const Value cond = evalBVDom(dom, expr->kids[0], env);
        // Mirror concrete laziness when the condition is decided:
        // dead branches may be genuinely unevaluable (range guards).
        const int taken = dom.knownBool(cond);
        if (taken >= 0)
            return evalBVDom(dom, expr->kids[taken ? 1 : 2], env);
        const Value t = evalBVDom(dom, expr->kids[1], env);
        const Value e = evalBVDom(dom, expr->kids[2], env);
        return dom.select(cond, t, e);
      }
      case ExprKind::Hole:
        HYD_ASSERT(false, "symbolic evaluation of an unfilled hole");
      default:
        HYD_ASSERT(false, "evalBVDom on an Int-typed node");
    }
    // Unreachable; HYD_ASSERT(false, ...) throws.
    return Value();
}

/**
 * Symbolic twin of CanonicalSemantics::evaluate: same loop nest, same
 * template selection (templateFor), same element width check.
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
    env.ints.param_values = &param_values;
    for (size_t i = 0; i < sem.int_args.size(); ++i)
        env.ints.named[sem.int_args[i]] = int_arg_values[i];

    const int64_t outer = evalInt(sem.outer_count, env.ints);
    const int64_t inner = evalInt(sem.inner_count, env.ints);
    const int width = static_cast<int>(evalInt(sem.elem_width, env.ints));
    HYD_ASSERT(outer >= 1 && inner >= 1 && width >= 1,
               "degenerate canonical loop bounds");

    typename Domain::Value out =
        dom.makeZero(static_cast<int>(outer * inner * width));
    for (int64_t i = 0; i < outer; ++i) {
        for (int64_t j = 0; j < inner; ++j) {
            env.ints.loop_i = i;
            env.ints.loop_j = j;
            const typename Domain::Value elem =
                evalBVDom(dom, sem.templateFor(i, j), env);
            HYD_ASSERT(dom.widthOf(elem) == width,
                       "template produced mis-sized element in " + sem.name);
            dom.setSlice(out, static_cast<int>((i * inner + j) * width), elem);
        }
    }
    return out;
}

} // namespace sym
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_SYMBOLIC_SYM_EVAL_H
