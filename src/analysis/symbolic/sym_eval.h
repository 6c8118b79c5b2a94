/**
 * @file
 * The symbolic value domains of the Hydride IR evaluator.
 *
 * Hydride IR has one evaluator, `evalBVDom` / `evalSemanticsDom`
 * (hir/eval.h), templated on the value domain. This header supplies
 * two of its domains: `AigDomain` bit-blasts into an and-inverter
 * graph (the structural and SAT tiers) and `KnownBitsDomain` tracks
 * per-bit known/unknown facts (the cheap refutation tier). Both run
 * the same walker as the concrete interpreter, so no tier can drift
 * from the semantics synthesis executes.
 */
#ifndef HYDRIDE_ANALYSIS_SYMBOLIC_SYM_EVAL_H
#define HYDRIDE_ANALYSIS_SYMBOLIC_SYM_EVAL_H

#include <unordered_map>
#include <vector>

#include "analysis/symbolic/bitblast.h"
#include "analysis/symbolic/knownbits.h"
#include "hir/eval.h"

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

} // namespace sym
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_SYMBOLIC_SYM_EVAL_H
