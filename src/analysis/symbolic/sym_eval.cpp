#include "analysis/symbolic/sym_eval.h"

#include <algorithm>

namespace hydride {
namespace sym {

// ---- AigDomain ----------------------------------------------------------

namespace {

/** Leaf order: lexicographic on literals, with the constants 0/1
 *  ranked last, so constant operands fold in at the end, where source
 *  semantics usually write them ((a + b) + 1). */
bool
leafLess(const SymVec &a, const SymVec &b)
{
    return std::lexicographical_compare(
        a.bits.begin(), a.bits.end(), b.bits.begin(), b.bits.end(),
        [](Lit x, Lit y) { return x - 2u < y - 2u; });
}

bool
sameLeaf(const SymVec &a, const SymVec &b)
{
    return a.bits == b.bits;
}

/** x op x == x. */
bool
idempotent(BVBinOp op)
{
    return op == BVBinOp::And || op == BVBinOp::Or || op == BVBinOp::MinS ||
           op == BVBinOp::MaxS || op == BVBinOp::MinU || op == BVBinOp::MaxU;
}

std::vector<Lit>
termKey(BVBinOp op, const SymVec &value)
{
    std::vector<Lit> key;
    key.reserve(value.bits.size() + 1);
    key.push_back(static_cast<Lit>(op));
    key.insert(key.end(), value.bits.begin(), value.bits.end());
    return key;
}

/** Key of the fold of `leaves[0, count)`; all leaves share a width. */
std::vector<Lit>
foldKey(BVBinOp op, const std::vector<SymVec> &leaves, size_t count)
{
    std::vector<Lit> key = {static_cast<Lit>(op),
                            static_cast<Lit>(leaves[0].width())};
    key.reserve(2 + count * leaves[0].bits.size());
    for (size_t k = 0; k < count; ++k)
        key.insert(key.end(), leaves[k].bits.begin(), leaves[k].bits.end());
    return key;
}

} // namespace

size_t
AigDomain::LitsHash::operator()(const std::vector<Lit> &lits) const
{
    size_t h = lits.size();
    for (Lit l : lits)
        h ^= l + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

SymVec
AigDomain::binOp(BVBinOp op, const SymVec &a, const SymVec &b)
{
    switch (op) {
      case BVBinOp::Add:
      case BVBinOp::Mul:
      case BVBinOp::And:
      case BVBinOp::Or:
      case BVBinOp::Xor:
      case BVBinOp::MinS:
      case BVBinOp::MaxS:
      case BVBinOp::MinU:
      case BVBinOp::MaxU:
        return acOp(op, a, b);
      case BVBinOp::AddSatS:
      case BVBinOp::AddSatU:
      case BVBinOp::AvgU:
      case BVBinOp::AvgS:
        // Commutative, not associative: only the pair is ordered.
        return leafLess(b, a) ? build(op, b, a) : build(op, a, b);
      default:
        return build(op, a, b);
    }
}

SymVec
AigDomain::acOp(BVBinOp op, const SymVec &a, const SymVec &b)
{
    std::vector<SymVec> leaves;
    for (const SymVec *operand : {&a, &b}) {
        const auto it = terms_.find(termKey(op, *operand));
        if (it == terms_.end())
            leaves.push_back(*operand);
        else
            leaves.insert(leaves.end(), it->second.begin(), it->second.end());
    }
    std::sort(leaves.begin(), leaves.end(), leafLess);
    if (idempotent(op)) {
        leaves.erase(std::unique(leaves.begin(), leaves.end(), sameLeaf),
                     leaves.end());
    } else if (op == BVBinOp::Xor) {
        // x ^ x == 0: sorting made equal leaves adjacent; drop pairs.
        std::vector<SymVec> kept;
        for (SymVec &leaf : leaves) {
            if (!kept.empty() && sameLeaf(kept.back(), leaf))
                kept.pop_back();
            else
                kept.push_back(std::move(leaf));
        }
        if (kept.empty())
            return makeZero(a.width());
        leaves = std::move(kept);
    }
    SymVec out = foldLeaves(op, leaves);
    // A result that *is* one of its leaves (x + 0, max(x, x)) stays a
    // leaf: recording it would splice it into itself.
    if (std::none_of(leaves.begin(), leaves.end(),
                     [&](const SymVec &leaf) { return sameLeaf(leaf, out); }))
        terms_.emplace(termKey(op, out), std::move(leaves));
    return out;
}

SymVec
AigDomain::foldLeaves(BVBinOp op, const std::vector<SymVec> &leaves)
{
    // Resume from the longest prefix already folded, then extend it
    // one leaf at a time, memoizing each new prefix.
    size_t done = 1;
    SymVec acc = leaves[0];
    for (size_t count = leaves.size(); count > 1; --count) {
        const auto it = folds_.find(foldKey(op, leaves, count));
        if (it != folds_.end()) {
            acc = it->second;
            done = count;
            break;
        }
    }
    for (; done < leaves.size(); ++done) {
        acc = build(op, acc, leaves[done]);
        folds_.emplace(foldKey(op, leaves, done + 1), acc);
    }
    return acc;
}

SymVec
AigDomain::build(BVBinOp op, const SymVec &a, const SymVec &b)
{
    switch (op) {
      case BVBinOp::Add: return svAdd(aig_, a, b);
      case BVBinOp::Sub: return svSub(aig_, a, b);
      case BVBinOp::Mul: return svMul(aig_, a, b);
      case BVBinOp::UDiv: return svUdiv(aig_, a, b);
      case BVBinOp::URem: return svUrem(aig_, a, b);
      case BVBinOp::And: return svAnd(aig_, a, b);
      case BVBinOp::Or: return svOr(aig_, a, b);
      case BVBinOp::Xor: return svXor(aig_, a, b);
      case BVBinOp::Shl: return svShl(aig_, a, b);
      case BVBinOp::LShr: return svLShr(aig_, a, b);
      case BVBinOp::AShr: return svAShr(aig_, a, b);
      case BVBinOp::AddSatS: return svAddSatS(aig_, a, b);
      case BVBinOp::AddSatU: return svAddSatU(aig_, a, b);
      case BVBinOp::SubSatS: return svSubSatS(aig_, a, b);
      case BVBinOp::SubSatU: return svSubSatU(aig_, a, b);
      case BVBinOp::MinS: return svMinS(aig_, a, b);
      case BVBinOp::MaxS: return svMaxS(aig_, a, b);
      case BVBinOp::MinU: return svMinU(aig_, a, b);
      case BVBinOp::MaxU: return svMaxU(aig_, a, b);
      case BVBinOp::AvgU: return svAvgU(aig_, a, b);
      case BVBinOp::AvgS: return svAvgS(aig_, a, b);
    }
    HYD_ASSERT(false, "unknown BVBinOp in symbolic evaluation");
    return SymVec();
}

SymVec
AigDomain::unOp(BVUnOp op, const SymVec &a)
{
    switch (op) {
      case BVUnOp::Not: return svNot(aig_, a);
      case BVUnOp::Neg: return svNeg(aig_, a);
      case BVUnOp::AbsS: return svAbsS(aig_, a);
      case BVUnOp::Popcount: return svPopcount(aig_, a);
    }
    HYD_ASSERT(false, "unknown BVUnOp in symbolic evaluation");
    return SymVec();
}

SymVec
AigDomain::cast(BVCastOp op, const SymVec &a, int width)
{
    switch (op) {
      case BVCastOp::SExt: return svSext(a, width);
      case BVCastOp::ZExt: return svZext(a, width);
      case BVCastOp::Trunc: return svTrunc(a, width);
      case BVCastOp::SatNarrowS: return svSatNarrowS(aig_, a, width);
      case BVCastOp::SatNarrowU: return svSatNarrowU(aig_, a, width);
    }
    HYD_ASSERT(false, "unknown BVCastOp in symbolic evaluation");
    return SymVec();
}

SymVec
AigDomain::extract(const SymVec &a, int low, int count)
{
    return svExtract(a, low, count);
}

SymVec
AigDomain::concat(const SymVec &high, const SymVec &low)
{
    return svConcat(high, low);
}

SymVec
AigDomain::cmp(BVCmpOp op, const SymVec &a, const SymVec &b)
{
    Lit result = kFalseLit;
    switch (op) {
      case BVCmpOp::Eq: result = svEqLit(aig_, a, b); break;
      case BVCmpOp::Ne: result = litNot(svEqLit(aig_, a, b)); break;
      case BVCmpOp::Ult: result = svUltLit(aig_, a, b); break;
      case BVCmpOp::Ule: result = svUleLit(aig_, a, b); break;
      case BVCmpOp::Slt: result = svSltLit(aig_, a, b); break;
      case BVCmpOp::Sle: result = svSleLit(aig_, a, b); break;
    }
    SymVec out(1);
    out.bits[0] = result;
    return out;
}

SymVec
AigDomain::select(const SymVec &cond, const SymVec &t, const SymVec &e)
{
    return svSelect(aig_, cond, t, e);
}

int
AigDomain::knownBool(const SymVec &v) const
{
    bool all_false = true;
    for (Lit bit : v.bits) {
        if (bit == kTrueLit)
            return 1; // A constant-one bit makes the value nonzero.
        all_false = all_false && bit == kFalseLit;
    }
    return all_false ? 0 : -1;
}

SymVec
AigDomain::shiftConst(BVBinOp op, const SymVec &a, int amount)
{
    switch (op) {
      case BVBinOp::Shl: return svShlConst(a, amount);
      case BVBinOp::LShr: return svLShrConst(a, amount);
      case BVBinOp::AShr: return svAShrConst(a, amount);
      default:
        break;
    }
    HYD_ASSERT(false, "shiftConst on a non-shift operator");
    return SymVec();
}

// ---- KnownBitsDomain ----------------------------------------------------

namespace {

/** Fall back to exact concrete evaluation when everything is known. */
bool
bothKnown(const KnownBits &a, const KnownBits &b)
{
    return a.fullyKnown() && b.fullyKnown();
}

} // namespace

KnownBits
KnownBitsDomain::binOp(BVBinOp op, const KnownBits &a, const KnownBits &b) const
{
    switch (op) {
      case BVBinOp::Add: return kbAdd(a, b);
      case BVBinOp::Sub: return kbSub(a, b);
      case BVBinOp::And: return kbAnd(a, b);
      case BVBinOp::Or: return kbOr(a, b);
      case BVBinOp::Xor: return kbXor(a, b);
      case BVBinOp::Shl:
      case BVBinOp::LShr:
      case BVBinOp::AShr:
        if (b.fullyKnown())
            return shiftConst(op, a, shiftAmountOf(b.concreteValue()));
        break;
      default:
        break;
    }
    // Remaining ops: exact when fully known, top otherwise — those
    // queries are decided by the AIG/SAT tier instead.
    if (bothKnown(a, b))
        return KnownBits::constant(
            applyBVBinOp(op, a.concreteValue(), b.concreteValue()));
    return KnownBits::top(a.width());
}

KnownBits
KnownBitsDomain::unOp(BVUnOp op, const KnownBits &a) const
{
    switch (op) {
      case BVUnOp::Not: return kbNot(a);
      case BVUnOp::Neg: return kbNeg(a);
      default:
        break;
    }
    // AbsS, Popcount: exact when fully known, top otherwise.
    if (a.fullyKnown())
        return KnownBits::constant(
            BitVectorDomain().unOp(op, a.concreteValue()));
    return KnownBits::top(a.width());
}

KnownBits
KnownBitsDomain::cast(BVCastOp op, const KnownBits &a, int width) const
{
    switch (op) {
      case BVCastOp::SExt: return kbSext(a, width);
      case BVCastOp::ZExt: return kbZext(a, width);
      case BVCastOp::Trunc: return kbTrunc(a, width);
      default:
        break;
    }
    // Saturating narrows: exact when fully known, top otherwise.
    if (a.fullyKnown())
        return KnownBits::constant(
            BitVectorDomain().cast(op, a.concreteValue(), width));
    return KnownBits::top(width);
}

KnownBits
KnownBitsDomain::extract(const KnownBits &a, int low, int count) const
{
    return kbExtract(a, low, count);
}

KnownBits
KnownBitsDomain::concat(const KnownBits &high, const KnownBits &low) const
{
    return kbConcat(high, low);
}

KnownBits
KnownBitsDomain::cmp(BVCmpOp op, const KnownBits &a, const KnownBits &b) const
{
    switch (op) {
      case BVCmpOp::Eq: return kbEq(a, b);
      case BVCmpOp::Ne: return kbNe(a, b);
      case BVCmpOp::Ult: return kbUlt(a, b);
      case BVCmpOp::Ule: return kbUle(a, b);
      case BVCmpOp::Slt: return kbSlt(a, b);
      case BVCmpOp::Sle: return kbSle(a, b);
    }
    HYD_ASSERT(false, "unknown BVCmpOp in known-bits evaluation");
    return KnownBits();
}

KnownBits
KnownBitsDomain::select(const KnownBits &cond, const KnownBits &t,
                        const KnownBits &e) const
{
    return kbSelect(cond, t, e);
}

int
KnownBitsDomain::knownBool(const KnownBits &v) const
{
    if (!v.value.isZero())
        return 1; // Some bit is known one.
    return v.fullyKnown() ? 0 : -1;
}

KnownBits
KnownBitsDomain::shiftConst(BVBinOp op, const KnownBits &a, int amount) const
{
    switch (op) {
      case BVBinOp::Shl: return kbShl(a, amount);
      case BVBinOp::LShr: return kbLShr(a, amount);
      case BVBinOp::AShr: return kbAShr(a, amount);
      default:
        break;
    }
    HYD_ASSERT(false, "shiftConst on a non-shift operator");
    return KnownBits();
}

} // namespace sym
} // namespace hydride
