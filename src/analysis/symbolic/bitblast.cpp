#include "analysis/symbolic/bitblast.h"

#include "support/error.h"

namespace hydride {
namespace sym {

namespace {

/** Majority-of-three: the full-adder carry function. */
Lit
maj3(Aig &aig, Lit a, Lit b, Lit c)
{
    return aig.mkOr(aig.mkAnd(a, b), aig.mkAnd(c, aig.mkOr(a, b)));
}

/** Ripple-carry a + b + carry_in; optionally exposes carry-out. */
SymVec
addWithCarry(Aig &aig, const SymVec &a, const SymVec &b, Lit carry_in,
             Lit *carry_out = nullptr)
{
    HYD_ASSERT(a.width() == b.width(), "symbolic add width mismatch");
    SymVec out(a.width());
    Lit carry = carry_in;
    for (int i = 0; i < a.width(); ++i) {
        out.bits[i] = aig.mkXor(aig.mkXor(a.bits[i], b.bits[i]), carry);
        carry = maj3(aig, a.bits[i], b.bits[i], carry);
    }
    if (carry_out)
        *carry_out = carry;
    return out;
}

} // namespace

void
SymVec::setSlice(int low, const SymVec &value)
{
    HYD_ASSERT(low >= 0 && low + value.width() <= width(),
               "symbolic setSlice out of range");
    for (int i = 0; i < value.width(); ++i)
        bits[low + i] = value.bits[i];
}

SymVec
svConst(const BitVector &value)
{
    SymVec out(value.width());
    for (int i = 0; i < value.width(); ++i)
        out.bits[i] = value.getBit(i) ? kTrueLit : kFalseLit;
    return out;
}

SymVec
svInputs(Aig &aig, int width)
{
    SymVec out(width);
    for (int i = 0; i < width; ++i)
        out.bits[i] = aig.addInput();
    return out;
}

SymVec
svAnd(Aig &aig, const SymVec &a, const SymVec &b)
{
    HYD_ASSERT(a.width() == b.width(), "symbolic and width mismatch");
    SymVec out(a.width());
    for (int i = 0; i < a.width(); ++i)
        out.bits[i] = aig.mkAnd(a.bits[i], b.bits[i]);
    return out;
}

SymVec
svOr(Aig &aig, const SymVec &a, const SymVec &b)
{
    HYD_ASSERT(a.width() == b.width(), "symbolic or width mismatch");
    SymVec out(a.width());
    for (int i = 0; i < a.width(); ++i)
        out.bits[i] = aig.mkOr(a.bits[i], b.bits[i]);
    return out;
}

SymVec
svXor(Aig &aig, const SymVec &a, const SymVec &b)
{
    HYD_ASSERT(a.width() == b.width(), "symbolic xor width mismatch");
    SymVec out(a.width());
    for (int i = 0; i < a.width(); ++i)
        out.bits[i] = aig.mkXor(a.bits[i], b.bits[i]);
    return out;
}

SymVec
svNot(Aig &aig, const SymVec &a)
{
    (void)aig;
    SymVec out(a.width());
    for (int i = 0; i < a.width(); ++i)
        out.bits[i] = litNot(a.bits[i]);
    return out;
}

SymVec
svMux(Aig &aig, Lit sel, const SymVec &t, const SymVec &e)
{
    HYD_ASSERT(t.width() == e.width(), "symbolic mux width mismatch");
    SymVec out(t.width());
    for (int i = 0; i < t.width(); ++i)
        out.bits[i] = aig.mkMux(sel, t.bits[i], e.bits[i]);
    return out;
}

SymVec
svAdd(Aig &aig, const SymVec &a, const SymVec &b)
{
    return addWithCarry(aig, a, b, kFalseLit);
}

SymVec
svSub(Aig &aig, const SymVec &a, const SymVec &b)
{
    // Mirrors BitVector::sub = add(neg(other)) = a + ~b + 1.
    return addWithCarry(aig, a, svNot(aig, b), kTrueLit);
}

SymVec
svNeg(Aig &aig, const SymVec &a)
{
    // Mirrors BitVector::neg = bvnot() + 1.
    return addWithCarry(aig, svNot(aig, a), svConst(BitVector(a.width())),
                        kTrueLit);
}

SymVec
svMul(Aig &aig, const SymVec &a, const SymVec &b)
{
    HYD_ASSERT(a.width() == b.width(), "symbolic mul width mismatch");
    const int width = a.width();
    SymVec acc = svConst(BitVector(width));
    for (int i = 0; i < width; ++i) {
        SymVec addend(width);
        for (int j = i; j < width; ++j)
            addend.bits[j] = aig.mkAnd(a.bits[j - i], b.bits[i]);
        acc = svAdd(aig, acc, addend);
    }
    return acc;
}

SymVec
svUdiv(Aig &aig, const SymVec &a, const SymVec &b)
{
    HYD_ASSERT(a.width() == b.width(), "symbolic udiv width mismatch");
    // Restoring long division, mirroring BitVector::udiv. A zero
    // divisor needs no special case: no subtraction ever restores, so
    // the quotient naturally comes out all-ones, matching the concrete
    // (SMT-LIB) convention.
    const int width = a.width();
    SymVec quotient(width);
    SymVec remainder = svConst(BitVector(width));
    for (int bit = width - 1; bit >= 0; --bit) {
        remainder = svShlConst(remainder, 1);
        remainder.bits[0] = a.bits[bit];
        const Lit geq = litNot(svUltLit(aig, remainder, b));
        remainder = svMux(aig, geq, svSub(aig, remainder, b), remainder);
        quotient.bits[bit] = geq;
    }
    return quotient;
}

SymVec
svUrem(Aig &aig, const SymVec &a, const SymVec &b)
{
    // Mirrors BitVector::urem = a - udiv(a,b) * b (dividend when b=0).
    return svSub(aig, a, svMul(aig, svUdiv(aig, a, b), b));
}

SymVec
svSdiv(Aig &aig, const SymVec &a, const SymVec &b)
{
    // Sign/magnitude around udiv, exactly as BitVector::sdiv.
    const Lit neg_a = a.bits[a.width() - 1];
    const Lit neg_b = b.bits[b.width() - 1];
    const SymVec mag_a = svMux(aig, neg_a, svNeg(aig, a), a);
    const SymVec mag_b = svMux(aig, neg_b, svNeg(aig, b), b);
    const SymVec q = svUdiv(aig, mag_a, mag_b);
    return svMux(aig, aig.mkXor(neg_a, neg_b), svNeg(aig, q), q);
}

SymVec
svSrem(Aig &aig, const SymVec &a, const SymVec &b)
{
    const Lit neg_a = a.bits[a.width() - 1];
    const Lit neg_b = b.bits[b.width() - 1];
    const SymVec mag_a = svMux(aig, neg_a, svNeg(aig, a), a);
    const SymVec mag_b = svMux(aig, neg_b, svNeg(aig, b), b);
    const SymVec r = svUrem(aig, mag_a, mag_b);
    return svMux(aig, neg_a, svNeg(aig, r), r);
}

SymVec
svShlConst(const SymVec &a, int amount)
{
    HYD_ASSERT(amount >= 0, "negative symbolic shift");
    SymVec out(a.width());
    for (int i = amount; i < a.width(); ++i)
        out.bits[i] = a.bits[i - amount];
    return out;
}

SymVec
svLShrConst(const SymVec &a, int amount)
{
    HYD_ASSERT(amount >= 0, "negative symbolic shift");
    SymVec out(a.width());
    for (int i = 0; i + amount < a.width(); ++i)
        out.bits[i] = a.bits[i + amount];
    return out;
}

SymVec
svAShrConst(const SymVec &a, int amount)
{
    HYD_ASSERT(amount >= 0, "negative symbolic shift");
    const Lit sign = a.bits[a.width() - 1];
    SymVec out(a.width());
    for (int i = 0; i < a.width(); ++i)
        out.bits[i] = i + amount < a.width() ? a.bits[i + amount] : sign;
    return out;
}

namespace {

/**
 * Shared barrel shifter. `stage` applies one constant shift; `fill`
 * is the saturated result when the amount is >= width (zeros, or sign
 * fill for ashr), mirroring shiftAmount()'s clamp in hir/expr.cpp.
 */
template <typename Stage>
SymVec
barrelShift(Aig &aig, const SymVec &a, const SymVec &amount,
            const SymVec &fill, Stage stage)
{
    SymVec value = a;
    Lit big = kFalseLit; // Amount has a set bit worth >= width.
    for (int k = 0; k < amount.width(); ++k) {
        const int64_t step = k < 62 ? (int64_t(1) << k) : int64_t(1) << 62;
        if (step >= a.width()) {
            big = aig.mkOr(big, amount.bits[k]);
            continue;
        }
        value = svMux(aig, amount.bits[k],
                      stage(value, static_cast<int>(step)), value);
    }
    return svMux(aig, big, fill, value);
}

} // namespace

SymVec
svShl(Aig &aig, const SymVec &a, const SymVec &amount)
{
    return barrelShift(aig, a, amount, svConst(BitVector(a.width())),
                       [](const SymVec &v, int s) { return svShlConst(v, s); });
}

SymVec
svLShr(Aig &aig, const SymVec &a, const SymVec &amount)
{
    return barrelShift(aig, a, amount, svConst(BitVector(a.width())),
                       [](const SymVec &v, int s) { return svLShrConst(v, s); });
}

SymVec
svAShr(Aig &aig, const SymVec &a, const SymVec &amount)
{
    // Over-wide arithmetic shifts fill with the *original* sign bit.
    SymVec fill(a.width());
    for (int i = 0; i < a.width(); ++i)
        fill.bits[i] = a.bits[a.width() - 1];
    return barrelShift(aig, a, amount, fill, [](const SymVec &v, int s) {
        return svAShrConst(v, s);
    });
}

SymVec
svAddSatS(Aig &aig, const SymVec &a, const SymVec &b)
{
    const SymVec wide =
        svAdd(aig, svSext(a, a.width() + 1), svSext(b, b.width() + 1));
    return svSatNarrowS(aig, wide, a.width());
}

SymVec
svAddSatU(Aig &aig, const SymVec &a, const SymVec &b)
{
    const SymVec wide =
        svAdd(aig, svZext(a, a.width() + 1), svZext(b, b.width() + 1));
    return svMux(aig, wide.bits[a.width()],
                 svConst(BitVector::allOnes(a.width())),
                 svTrunc(wide, a.width()));
}

SymVec
svSubSatS(Aig &aig, const SymVec &a, const SymVec &b)
{
    const SymVec wide =
        svSub(aig, svSext(a, a.width() + 1), svSext(b, b.width() + 1));
    return svSatNarrowS(aig, wide, a.width());
}

SymVec
svSubSatU(Aig &aig, const SymVec &a, const SymVec &b)
{
    return svMux(aig, svUltLit(aig, a, b), svConst(BitVector(a.width())),
                 svSub(aig, a, b));
}

SymVec
svSatNarrowS(Aig &aig, const SymVec &a, int to_width)
{
    HYD_ASSERT(to_width <= a.width(), "symbolic satNarrowS must narrow");
    const BitVector max =
        BitVector::allOnes(a.width()).lshr(a.width() - to_width + 1);
    const BitVector min = max.bvnot();
    const Lit lt_min = svSltLit(aig, a, svConst(min));
    const Lit gt_max = svSltLit(aig, svConst(max), a);
    return svMux(aig, lt_min, svConst(min.trunc(to_width)),
                 svMux(aig, gt_max, svConst(max.trunc(to_width)),
                       svTrunc(a, to_width)));
}

SymVec
svSatNarrowU(Aig &aig, const SymVec &a, int to_width)
{
    HYD_ASSERT(to_width <= a.width(), "symbolic satNarrowU must narrow");
    BitVector max(a.width());
    for (int bit = 0; bit < to_width; ++bit)
        max.setBit(bit, true);
    const Lit sign = a.bits[a.width() - 1];
    const Lit gt_max = svUltLit(aig, svConst(max), a);
    return svMux(aig, sign, svConst(BitVector(to_width)),
                 svMux(aig, gt_max, svConst(max.trunc(to_width)),
                       svTrunc(a, to_width)));
}

SymVec
svMinS(Aig &aig, const SymVec &a, const SymVec &b)
{
    return svMux(aig, svSltLit(aig, a, b), a, b);
}

SymVec
svMaxS(Aig &aig, const SymVec &a, const SymVec &b)
{
    return svMux(aig, svSltLit(aig, a, b), b, a);
}

SymVec
svMinU(Aig &aig, const SymVec &a, const SymVec &b)
{
    return svMux(aig, svUltLit(aig, a, b), a, b);
}

SymVec
svMaxU(Aig &aig, const SymVec &a, const SymVec &b)
{
    return svMux(aig, svUltLit(aig, a, b), b, a);
}

SymVec
svAbsS(Aig &aig, const SymVec &a)
{
    return svMux(aig, a.bits[a.width() - 1], svNeg(aig, a), a);
}

SymVec
svAvgU(Aig &aig, const SymVec &a, const SymVec &b)
{
    SymVec wide =
        svAdd(aig, svZext(a, a.width() + 1), svZext(b, b.width() + 1));
    wide = svAdd(aig, wide, svConst(BitVector::fromUint(a.width() + 1, 1)));
    return svTrunc(svLShrConst(wide, 1), a.width());
}

SymVec
svAvgS(Aig &aig, const SymVec &a, const SymVec &b)
{
    SymVec wide =
        svAdd(aig, svSext(a, a.width() + 1), svSext(b, b.width() + 1));
    wide = svAdd(aig, wide, svConst(BitVector::fromUint(a.width() + 1, 1)));
    return svTrunc(svAShrConst(wide, 1), a.width());
}

SymVec
svPopcount(Aig &aig, const SymVec &a)
{
    SymVec acc = svConst(BitVector(a.width()));
    for (int i = 0; i < a.width(); ++i) {
        SymVec one(a.width());
        one.bits[0] = a.bits[i];
        acc = svAdd(aig, acc, one);
    }
    return acc;
}

SymVec
svZext(const SymVec &a, int new_width)
{
    HYD_ASSERT(new_width >= a.width(), "symbolic zext must not shrink");
    SymVec out(new_width);
    for (int i = 0; i < a.width(); ++i)
        out.bits[i] = a.bits[i];
    return out;
}

SymVec
svSext(const SymVec &a, int new_width)
{
    HYD_ASSERT(new_width >= a.width(), "symbolic sext must not shrink");
    SymVec out(new_width);
    for (int i = 0; i < new_width; ++i)
        out.bits[i] = a.bits[i < a.width() ? i : a.width() - 1];
    return out;
}

SymVec
svTrunc(const SymVec &a, int new_width)
{
    HYD_ASSERT(new_width <= a.width(), "symbolic trunc must not grow");
    SymVec out(new_width);
    for (int i = 0; i < new_width; ++i)
        out.bits[i] = a.bits[i];
    return out;
}

SymVec
svExtract(const SymVec &a, int low, int count)
{
    HYD_ASSERT(low >= 0 && count >= 1 && low + count <= a.width(),
               "symbolic extract slice out of range (low=" +
                   std::to_string(low) + " count=" + std::to_string(count) +
                   " width=" + std::to_string(a.width()) + ")");
    SymVec out(count);
    for (int i = 0; i < count; ++i)
        out.bits[i] = a.bits[low + i];
    return out;
}

SymVec
svConcat(const SymVec &high, const SymVec &low)
{
    SymVec out(high.width() + low.width());
    out.setSlice(0, low);
    out.setSlice(low.width(), high);
    return out;
}

Lit
svEqLit(Aig &aig, const SymVec &a, const SymVec &b)
{
    HYD_ASSERT(a.width() == b.width(), "symbolic eq width mismatch");
    Lit eq = kTrueLit;
    for (int i = 0; i < a.width(); ++i)
        eq = aig.mkAnd(eq, aig.mkXnor(a.bits[i], b.bits[i]));
    return eq;
}

Lit
svUltLit(Aig &aig, const SymVec &a, const SymVec &b)
{
    HYD_ASSERT(a.width() == b.width(), "symbolic ult width mismatch");
    // a < b iff a + ~b + 1 produces no carry out.
    Lit carry = kTrueLit;
    for (int i = 0; i < a.width(); ++i)
        carry = maj3(aig, a.bits[i], litNot(b.bits[i]), carry);
    return litNot(carry);
}

Lit
svUleLit(Aig &aig, const SymVec &a, const SymVec &b)
{
    return litNot(svUltLit(aig, b, a));
}

Lit
svSltLit(Aig &aig, const SymVec &a, const SymVec &b)
{
    const Lit sign_a = a.bits[a.width() - 1];
    const Lit sign_b = b.bits[b.width() - 1];
    return aig.mkMux(aig.mkXor(sign_a, sign_b), sign_a,
                     svUltLit(aig, a, b));
}

Lit
svSleLit(Aig &aig, const SymVec &a, const SymVec &b)
{
    return litNot(svSltLit(aig, b, a));
}

Lit
svNonzeroLit(Aig &aig, const SymVec &a)
{
    Lit any = kFalseLit;
    for (Lit bit : a.bits)
        any = aig.mkOr(any, bit);
    return any;
}

SymVec
svSelect(Aig &aig, const SymVec &cond, const SymVec &t, const SymVec &e)
{
    return svMux(aig, svNonzeroLit(aig, cond), t, e);
}

} // namespace sym
} // namespace hydride
