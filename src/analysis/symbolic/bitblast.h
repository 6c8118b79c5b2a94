/**
 * @file
 * Bit-blasting: symbolic BitVector operations over AIG literals.
 *
 * SymVec is the symbolic twin of hir::BitVector — one AIG literal per
 * bit, LSB first. Every operation here mirrors the corresponding
 * BitVector method *by construction*: where the concrete code is a
 * composition (sub = add(neg), addSatS = sext+add+satNarrowS, sdiv =
 * sign/magnitude around udiv, ...), the symbolic code performs the
 * same composition on literals, so concrete/symbolic agreement is
 * structural rather than re-derived. The differential fuzz tests in
 * tests/test_symbolic.cpp pin that agreement by exhaustive enumeration
 * on small widths.
 *
 * Division by zero follows the concrete (SMT-LIB) convention: udiv
 * yields all-ones, urem yields the dividend — both fall out of the
 * restoring-division circuit without a special case, exactly as the
 * signed wrappers rely on them concretely.
 *
 * Shifts by a *symbolic* amount are barrel shifters with an explicit
 * "amount >= width" clamp matching `shiftAmount()` in hir/expr.cpp
 * (over-wide shifts produce zeros, or sign fill for ashr).
 */
#ifndef HYDRIDE_ANALYSIS_SYMBOLIC_BITBLAST_H
#define HYDRIDE_ANALYSIS_SYMBOLIC_BITBLAST_H

#include <vector>

#include "analysis/symbolic/aig.h"
#include "hir/bitvector.h"

namespace hydride {
namespace sym {

/** A symbolic bitvector: one literal per bit, bit 0 = LSB. */
struct SymVec
{
    std::vector<Lit> bits;

    SymVec() = default;
    explicit SymVec(int width)
        : bits(static_cast<size_t>(width), kFalseLit)
    {
    }

    int width() const { return static_cast<int>(bits.size()); }

    /** Copy `value`'s literals into bits [low, low + value.width()). */
    void setSlice(int low, const SymVec &value);
};

/** Constant vector (no fresh nodes). */
SymVec svConst(const BitVector &value);

/** Fresh unconstrained inputs, one per bit. */
SymVec svInputs(Aig &aig, int width);

// ---- Bitwise ------------------------------------------------------------

SymVec svAnd(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svOr(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svXor(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svNot(Aig &aig, const SymVec &a);

/** Per-bit mux: sel ? t : e. */
SymVec svMux(Aig &aig, Lit sel, const SymVec &t, const SymVec &e);

// ---- Arithmetic (modular) -----------------------------------------------

SymVec svAdd(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svSub(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svNeg(Aig &aig, const SymVec &a);
SymVec svMul(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svUdiv(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svUrem(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svSdiv(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svSrem(Aig &aig, const SymVec &a, const SymVec &b);

// ---- Shifts -------------------------------------------------------------

SymVec svShlConst(const SymVec &a, int amount);
SymVec svLShrConst(const SymVec &a, int amount);
SymVec svAShrConst(const SymVec &a, int amount);

/** Barrel shifters; amount >= width clamps like the concrete engine. */
SymVec svShl(Aig &aig, const SymVec &a, const SymVec &amount);
SymVec svLShr(Aig &aig, const SymVec &a, const SymVec &amount);
SymVec svAShr(Aig &aig, const SymVec &a, const SymVec &amount);

// ---- Saturating arithmetic ----------------------------------------------

SymVec svAddSatS(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svAddSatU(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svSubSatS(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svSubSatU(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svSatNarrowS(Aig &aig, const SymVec &a, int to_width);
SymVec svSatNarrowU(Aig &aig, const SymVec &a, int to_width);

// ---- Min/max/abs/average/popcount ---------------------------------------

SymVec svMinS(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svMaxS(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svMinU(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svMaxU(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svAbsS(Aig &aig, const SymVec &a);
SymVec svAvgU(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svAvgS(Aig &aig, const SymVec &a, const SymVec &b);
SymVec svPopcount(Aig &aig, const SymVec &a);

// ---- Width changes ------------------------------------------------------

SymVec svZext(const SymVec &a, int new_width);
SymVec svSext(const SymVec &a, int new_width);
SymVec svTrunc(const SymVec &a, int new_width);
SymVec svExtract(const SymVec &a, int low, int count);
SymVec svConcat(const SymVec &high, const SymVec &low);

// ---- Comparisons (single-literal results) -------------------------------

Lit svEqLit(Aig &aig, const SymVec &a, const SymVec &b);
Lit svUltLit(Aig &aig, const SymVec &a, const SymVec &b);
Lit svUleLit(Aig &aig, const SymVec &a, const SymVec &b);
Lit svSltLit(Aig &aig, const SymVec &a, const SymVec &b);
Lit svSleLit(Aig &aig, const SymVec &a, const SymVec &b);

/** OR-reduction: true iff any bit set (mirrors !isZero()). */
Lit svNonzeroLit(Aig &aig, const SymVec &a);

/** Mirrors Select: cond == 0 picks `e`, anything else picks `t`. */
SymVec svSelect(Aig &aig, const SymVec &cond, const SymVec &t,
                const SymVec &e);

} // namespace sym
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_SYMBOLIC_BITBLAST_H
