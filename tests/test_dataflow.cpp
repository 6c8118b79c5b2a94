/**
 * @file
 * Tests for the abstract-interpretation dataflow framework
 * (src/analysis/dataflow/): interval transfer functions, the reduced
 * product, Int-expression ranges, and — most importantly — the
 * differential soundness fuzz: for random well-typed expressions and
 * random inputs, the concrete result must always be contained in the
 * abstract value.  That containment is the invariant that keeps the
 * CEGIS static pruner from rejecting correct candidates and the UB
 * proofs sound.
 */
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "analysis/dataflow/abs_eval.h"
#include "analysis/dataflow/int_range.h"
#include "analysis/dataflow/interval.h"
#include "analysis/dataflow/product.h"
#include "analysis/expr_check.h"
#include "analysis/symbolic/sym_eval.h"
#include "hir/expr.h"
#include "hir/semantics.h"
#include "support/rng.h"

using namespace hydride;
using namespace hydride::dataflow;
using hydride::analysis::CheckEnv;
using hydride::analysis::CheckedInt;
using hydride::analysis::checkedEvalInt;
using sym::KnownBits;

namespace {

// ---- random well-typed expression generator ----------------------------

struct GenContext
{
    std::vector<int> arg_widths;
    Rng *rng;

    int pick(int n) { return static_cast<int>(rng->next() % n); }
};

ExprPtr genBV(GenContext &ctx, int width, int depth);

/** A width-1 condition: either a comparison or a 1-bit value. */
ExprPtr
genCond(GenContext &ctx, int depth)
{
    if (depth > 0 && ctx.pick(2) == 0) {
        const int w = 1 + ctx.pick(12);
        const auto op = static_cast<BVCmpOp>(ctx.pick(6));
        return bvCmp(op, genBV(ctx, w, depth - 1), genBV(ctx, w, depth - 1));
    }
    return genBV(ctx, 1, depth > 0 ? depth - 1 : 0);
}

ExprPtr
genBV(GenContext &ctx, int width, int depth)
{
    // Leaves: an argument of the right width when one exists, else a
    // random constant.
    if (depth <= 0 || ctx.pick(4) == 0) {
        if (ctx.pick(2) == 0) {
            for (size_t k = 0; k < ctx.arg_widths.size(); ++k) {
                const size_t idx =
                    (k + ctx.rng->next()) % ctx.arg_widths.size();
                if (ctx.arg_widths[idx] == width)
                    return argBV(static_cast<int>(idx));
            }
        }
        const int64_t v = static_cast<int64_t>(ctx.rng->next());
        return bvConst(intConst(width), intConst(v));
    }
    switch (ctx.pick(7)) {
      case 0: { // binary
        const auto op = static_cast<BVBinOp>(ctx.pick(20));
        return bvBin(op, genBV(ctx, width, depth - 1),
                     genBV(ctx, width, depth - 1));
      }
      case 1: { // unary
        const auto op = static_cast<BVUnOp>(ctx.pick(4));
        return bvUn(op, genBV(ctx, width, depth - 1));
      }
      case 2: { // widening cast
        if (width < 2)
            return genBV(ctx, width, depth - 1);
        const int from = 1 + ctx.pick(width - 1);
        const auto op = ctx.pick(2) ? BVCastOp::ZExt : BVCastOp::SExt;
        return bvCast(op, genBV(ctx, from, depth - 1), intConst(width));
      }
      case 3: { // narrowing cast
        const int from = width + 1 + ctx.pick(8);
        const int which = ctx.pick(3);
        const auto op = which == 0   ? BVCastOp::Trunc
                        : which == 1 ? BVCastOp::SatNarrowS
                                     : BVCastOp::SatNarrowU;
        return bvCast(op, genBV(ctx, from, depth - 1), intConst(width));
      }
      case 4: { // extract
        const int extra = ctx.pick(8);
        const int from = width + extra;
        const int low = ctx.pick(extra + 1);
        return extract(genBV(ctx, from, depth - 1), intConst(low),
                       intConst(width));
      }
      case 5: { // concat
        if (width < 2)
            return genBV(ctx, width, depth - 1);
        const int wl = 1 + ctx.pick(width - 1);
        return concat(genBV(ctx, width - wl, depth - 1),
                      genBV(ctx, wl, depth - 1));
      }
      default: // select
        return select(genCond(ctx, depth - 1),
                      genBV(ctx, width, depth - 1),
                      genBV(ctx, width, depth - 1));
    }
}

// ---- containment-checking harness ---------------------------------------

/** How abstract argument values relate to the concrete inputs. */
enum class ArgMode { Top, Exact, Loose };

template <typename Domain>
typename Domain::Value
makeArg(Domain &dom, const BitVector &concrete, ArgMode mode, Rng &rng);

template <>
Interval
makeArg(IntervalDomain &, const BitVector &concrete, ArgMode mode, Rng &rng)
{
    const int w = concrete.width();
    switch (mode) {
      case ArgMode::Top:
        return Interval::top(w);
      case ArgMode::Exact:
        return Interval::constant(concrete);
      case ArgMode::Loose: {
        BitVector a = BitVector::random(w, rng);
        BitVector b = BitVector::random(w, rng);
        Interval iv(a.minU(b), a.maxU(b));
        if (!iv.contains(concrete))
            iv = Interval::join(iv, Interval::constant(concrete));
        return iv;
      }
    }
    return Interval::top(w);
}

template <>
KnownBits
makeArg(sym::KnownBitsDomain &, const BitVector &concrete, ArgMode mode,
        Rng &rng)
{
    const int w = concrete.width();
    switch (mode) {
      case ArgMode::Top:
        return KnownBits::top(w);
      case ArgMode::Exact:
        return KnownBits::constant(concrete);
      case ArgMode::Loose: {
        KnownBits kb;
        kb.known = BitVector::random(w, rng);
        kb.value = concrete.bvand(kb.known);
        return kb;
      }
    }
    return KnownBits::top(w);
}

template <>
AbsValue
makeArg(ProductDomain &, const BitVector &concrete, ArgMode mode, Rng &rng)
{
    IntervalDomain ivd;
    sym::KnownBitsDomain kbd;
    AbsValue v{makeArg(ivd, concrete, mode, rng),
               makeArg(kbd, concrete, mode, rng)};
    ProductDomain::reduce(v);
    return v;
}

/**
 * One domain's differential fuzz: `trials` random (expr, input)
 * pairs, each checked in all three argument modes.
 */
template <typename Domain>
void
fuzzDomain(Domain &dom, int trials, uint64_t seed)
{
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
        GenContext ctx;
        const int nargs = 1 + static_cast<int>(rng.next() % 3);
        for (int k = 0; k < nargs; ++k)
            ctx.arg_widths.push_back(1 + static_cast<int>(rng.next() % 24));
        ctx.rng = &rng;
        const int width = 1 + static_cast<int>(rng.next() % 24);
        const ExprPtr expr = genBV(ctx, width, 2 + static_cast<int>(rng.next() % 3));

        std::vector<BitVector> concrete;
        for (int w : ctx.arg_widths)
            concrete.push_back(BitVector::random(w, rng));
        EvalEnv cenv;
        cenv.bv_args = &concrete;
        const BitVector expected = evalBV(expr, cenv);

        for (ArgMode mode : {ArgMode::Top, ArgMode::Exact, ArgMode::Loose}) {
            std::vector<typename Domain::Value> abs_args;
            for (const BitVector &c : concrete)
                abs_args.push_back(makeArg(dom, c, mode, rng));
            DomEnv<Domain> env;
            env.bv_args = &abs_args;
            const auto result = evalBVDom(dom, expr, env);
            ASSERT_TRUE(dom.contains(result, expected))
                << "trial " << t << " mode " << static_cast<int>(mode)
                << ": concrete result escapes the abstract value";
        }
    }
}

} // namespace

// ---- differential soundness fuzz (>= 10k pairs per domain) ---------------

TEST(DataflowFuzz, IntervalContainsConcrete)
{
    IntervalDomain dom;
    fuzzDomain(dom, 3400, 0xA11CE);
}

TEST(DataflowFuzz, KnownBitsContainsConcrete)
{
    sym::KnownBitsDomain dom;
    fuzzDomain(dom, 3400, 0xB0B);
}

TEST(DataflowFuzz, ProductContainsConcrete)
{
    ProductDomain dom;
    fuzzDomain(dom, 3400, 0xCAFE);
}

// ---- Int-range fuzz ------------------------------------------------------

namespace {

ExprPtr
genInt(GenContext &ctx, int depth)
{
    if (depth <= 0 || ctx.pick(3) == 0) {
        switch (ctx.pick(4)) {
          case 0:
            return intConst(static_cast<int64_t>(ctx.rng->next() % 2001) - 1000);
          case 1:
            return param(ctx.pick(2), ctx.pick(2) ? "n" : "w");
          default:
            return loopVar(ctx.pick(2));
        }
    }
    const auto op = static_cast<IntBinOp>(ctx.pick(7));
    return intBin(op, genInt(ctx, depth - 1), genInt(ctx, depth - 1));
}

} // namespace

TEST(DataflowFuzz, IntRangeContainsConcrete)
{
    Rng rng(0x5EED);
    const std::vector<int64_t> params = {16, 8};
    for (int t = 0; t < 10000; ++t) {
        GenContext ctx;
        ctx.rng = &rng;
        const ExprPtr expr = genInt(ctx, 3);

        RangeEnv renv;
        renv.param_values = &params;
        renv.i_lo = 0;
        renv.i_hi = static_cast<int64_t>(rng.next() % 16);
        renv.j_lo = 0;
        renv.j_hi = static_cast<int64_t>(rng.next() % 8);
        const IntRange range = evalIntRange(expr, renv);

        CheckEnv cenv;
        cenv.param_values = &params;
        cenv.loop_i = renv.i_lo + static_cast<int64_t>(
                                      rng.next() % (renv.i_hi - renv.i_lo + 1));
        cenv.loop_j = renv.j_lo + static_cast<int64_t>(
                                      rng.next() % (renv.j_hi - renv.j_lo + 1));
        const CheckedInt concrete = checkedEvalInt(expr, cenv);

        if (concrete.status == CheckedInt::Status::Value && range.known) {
            EXPECT_LE(range.lo, concrete.value) << "trial " << t;
            EXPECT_GE(range.hi, concrete.value) << "trial " << t;
        }
        if (concrete.status == CheckedInt::Status::DivZero) {
            EXPECT_TRUE(range.may_divzero) << "trial " << t;
        }
        if (concrete.status == CheckedInt::Status::Overflow) {
            EXPECT_TRUE(range.may_overflow) << "trial " << t;
        }
        if (range.must_divzero) {
            EXPECT_NE(static_cast<int>(concrete.status),
                      static_cast<int>(CheckedInt::Status::Value))
                << "trial " << t;
        }
    }
}

// ---- interval unit tests -------------------------------------------------

TEST(Interval, SignedRegionQueries)
{
    const Interval nonneg(BitVector::fromUint(8, 3), BitVector::fromUint(8, 100));
    EXPECT_FALSE(nonneg.crossesSigned());
    EXPECT_TRUE(nonneg.allNonNegative());

    const Interval crossing(BitVector::fromUint(8, 100),
                            BitVector::fromUint(8, 200));
    EXPECT_TRUE(crossing.crossesSigned());

    const Interval negative(BitVector::fromUint(8, 200),
                            BitVector::fromUint(8, 250));
    EXPECT_FALSE(negative.crossesSigned());
    EXPECT_TRUE(negative.allNegative());
}

TEST(Interval, AddDetectsWrap)
{
    IntervalDomain dom;
    const Interval a(BitVector::fromUint(8, 10), BitVector::fromUint(8, 20));
    const Interval b(BitVector::fromUint(8, 5), BitVector::fromUint(8, 30));
    const Interval sum = dom.binOp(BVBinOp::Add, a, b);
    EXPECT_EQ(sum.lo.toUint64(), 15u);
    EXPECT_EQ(sum.hi.toUint64(), 50u);

    const Interval big(BitVector::fromUint(8, 200), BitVector::fromUint(8, 250));
    EXPECT_TRUE(dom.binOp(BVBinOp::Add, big, b).isTop());
}

TEST(Interval, UDivByPossiblyZero)
{
    IntervalDomain dom;
    const Interval a(BitVector::fromUint(8, 100), BitVector::fromUint(8, 100));
    const Interval zero = Interval::constant(BitVector(8));
    const Interval q = dom.binOp(BVBinOp::UDiv, a, zero);
    EXPECT_TRUE(q.isSingleton());
    EXPECT_EQ(q.lo.toUint64(), 255u); // bvudiv by zero yields all-ones

    const Interval maybe(BitVector::fromUint(8, 0), BitVector::fromUint(8, 4));
    const Interval q2 = dom.binOp(BVBinOp::UDiv, a, maybe);
    EXPECT_EQ(q2.hi.toUint64(), 255u);
    EXPECT_EQ(q2.lo.toUint64(), 25u);
}

TEST(Interval, SatNarrowBoundsAreMonotone)
{
    IntervalDomain dom;
    const Interval a(BitVector::fromUint(16, 10), BitVector::fromUint(16, 200));
    const Interval n = dom.cast(BVCastOp::SatNarrowU, a, 8);
    EXPECT_EQ(n.lo.toUint64(), 10u);
    EXPECT_EQ(n.hi.toUint64(), 200u);

    const Interval wide(BitVector::fromUint(16, 100),
                        BitVector::fromUint(16, 5000));
    const Interval clamped = dom.cast(BVCastOp::SatNarrowU, wide, 8);
    EXPECT_EQ(clamped.hi.toUint64(), 255u);
}

TEST(Interval, ShiftByRange)
{
    IntervalDomain dom;
    const Interval a(BitVector::fromUint(8, 64), BitVector::fromUint(8, 128));
    const Interval s(BitVector::fromUint(8, 1), BitVector::fromUint(8, 3));
    const Interval r = dom.binOp(BVBinOp::LShr, a, s);
    EXPECT_EQ(r.lo.toUint64(), 8u);  // 64 >> 3
    EXPECT_EQ(r.hi.toUint64(), 64u); // 128 >> 1
}

TEST(Product, ReductionTightensBothSides)
{
    // Interval [0, 12] zeroes the bits above bit 3.
    AbsValue v{Interval(BitVector(8), BitVector::fromUint(8, 12)),
               KnownBits::top(8)};
    ProductDomain::reduce(v);
    for (int bit = 4; bit < 8; ++bit) {
        EXPECT_TRUE(v.kb.known.getBit(bit));
        EXPECT_FALSE(v.kb.value.getBit(bit));
    }

    // Fully-known bits collapse the range to a point.
    AbsValue w{Interval::top(8),
               KnownBits::constant(BitVector::fromUint(8, 77))};
    ProductDomain::reduce(w);
    EXPECT_TRUE(w.iv.isSingleton());
    EXPECT_EQ(w.iv.lo.toUint64(), 77u);
}

// ---- whole-semantics containment (evalSemanticsDom + setSlice) -----------

TEST(Dataflow, SemanticsContainment)
{
    // A small 4-lane x 8-bit saturating add, evaluated concretely and
    // through the product domain with top arguments.
    CanonicalSemantics sem;
    sem.name = "test_addsat";
    sem.bv_args = {{"a", intConst(32)}, {"b", intConst(32)}};
    sem.mode = TemplateMode::Uniform;
    sem.outer_count = intConst(4);
    sem.inner_count = intConst(1);
    sem.elem_width = intConst(8);
    const ExprPtr lane = intBin(IntBinOp::Mul, loopVar(0), intConst(8));
    sem.templates = {bvBin(
        BVBinOp::AddSatU,
        extract(argBV(0), lane, intConst(8)),
        extract(argBV(1), intBin(IntBinOp::Mul, loopVar(0), intConst(8)),
                intConst(8)))};

    Rng rng(0xD00D);
    ProductDomain dom;
    for (int t = 0; t < 200; ++t) {
        std::vector<BitVector> args = {BitVector::random(32, rng),
                                       BitVector::random(32, rng)};
        const BitVector expected = sem.evaluate(args, {});

        std::vector<AbsValue> abs_args = {dom.top(32), dom.top(32)};
        const AbsValue out = evalSemanticsDom(dom, sem, abs_args, {});
        ASSERT_TRUE(out.containsConcrete(expected)) << "trial " << t;

        std::vector<AbsValue> exact = {dom.constant(args[0]),
                                       dom.constant(args[1])};
        const AbsValue out2 = evalSemanticsDom(dom, sem, exact, {});
        ASSERT_TRUE(out2.containsConcrete(expected)) << "trial " << t;
    }
}

// ---- total walker (absEval) ----------------------------------------------

TEST(Dataflow, AbsEvalMatchesEvalBVDomOnWellTyped)
{
    Rng rng(0xF00D);
    ProductDomain dom;
    for (int t = 0; t < 2000; ++t) {
        GenContext ctx;
        const int nargs = 1 + static_cast<int>(rng.next() % 3);
        for (int k = 0; k < nargs; ++k)
            ctx.arg_widths.push_back(1 + static_cast<int>(rng.next() % 16));
        ctx.rng = &rng;
        const int width = 1 + static_cast<int>(rng.next() % 16);
        const ExprPtr expr = genBV(ctx, width, 2);

        std::vector<BitVector> concrete;
        for (int w : ctx.arg_widths)
            concrete.push_back(BitVector::random(w, rng));
        EvalEnv cenv;
        cenv.bv_args = &concrete;
        const BitVector expected = evalBV(expr, cenv);

        std::vector<std::optional<AbsValue>> args;
        for (int w : ctx.arg_widths)
            args.emplace_back(dom.top(w));
        AbsEnv env;
        env.args = &args;
        const std::optional<AbsValue> out = absEval(expr, env, {});
        ASSERT_TRUE(out.has_value()) << "walker bailed on well-typed input";
        EXPECT_EQ(out->width(), width);
        ASSERT_TRUE(out->containsConcrete(expected)) << "trial " << t;
    }
}

TEST(Dataflow, AbsEvalIsTotalOnMalformedInput)
{
    // Width-mismatched operands, out-of-range arguments, holes: the
    // walker must return nullopt, never throw.
    AbsEnv env;
    std::vector<std::optional<AbsValue>> args;
    env.args = &args;

    const ExprPtr mismatch =
        bvBin(BVBinOp::Add, bvConst(intConst(8), intConst(1)),
              bvConst(intConst(16), intConst(2)));
    EXPECT_FALSE(absEval(mismatch, env, {}).has_value());

    EXPECT_FALSE(absEval(argBV(3), env, {}).has_value());
    EXPECT_FALSE(absEval(hole({}), env, {}).has_value());

    const ExprPtr bad_width = bvConst(namedVar("imm"), intConst(0));
    EXPECT_FALSE(absEval(bad_width, env, {}).has_value());
}
