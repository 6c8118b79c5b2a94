/**
 * @file
 * Unsigned interval (value-range) abstract domain over BitVector.
 *
 * An Interval represents the set { v : lo <=u v <=u hi } of w-bit
 * values.  The representation is *unsigned and non-wrapping*: lo <=u
 * hi always holds, so the full range [0, 2^w-1] is the top element
 * and there is no way to express a wrapped set like [2^w-2, 1].
 * Transfer functions that would need a wrapped result return top
 * instead — sound, just less precise.
 *
 * Signed queries are answered through the region argument: an
 * interval whose bounds share a sign bit lies entirely inside one
 * signed region, where signed and unsigned order coincide, so lo/hi
 * are also the signed bounds.  An interval that crosses the signed
 * boundary (lo non-negative, hi negative) gives no signed
 * information.
 *
 * IntervalDomain plugs the type into the Domain concept of the IR
 * evaluators (hir/eval.h: evalBVDom / evalSemanticsDom) so they can run
 * whole-instruction range analysis; it additionally provides
 * top/join/contains, the AbstractDomain surface used by the reduced
 * product (product.h) and the verifier (abs_eval.h).
 */
#ifndef HYDRIDE_ANALYSIS_DATAFLOW_INTERVAL_H
#define HYDRIDE_ANALYSIS_DATAFLOW_INTERVAL_H

#include "hir/bitvector.h"
#include "hir/expr.h"

namespace hydride {
namespace dataflow {

/** Unsigned value-range [lo, hi] of one bitvector; lo <=u hi. */
struct Interval
{
    BitVector lo;
    BitVector hi;

    Interval() = default;
    Interval(BitVector l, BitVector h) : lo(std::move(l)), hi(std::move(h)) {}

    int width() const { return lo.width(); }

    /** The full range [0, 2^w - 1]. */
    static Interval top(int width)
    {
        return Interval(BitVector(width), BitVector::allOnes(width));
    }

    /** The singleton { v }. */
    static Interval constant(const BitVector &v) { return Interval(v, v); }

    bool isSingleton() const { return lo == hi; }
    bool isTop() const { return lo.isZero() && hi == BitVector::allOnes(hi.width()); }

    /** lo <=u v <=u hi. */
    bool contains(const BitVector &v) const
    {
        return lo.ule(v) && v.ule(hi);
    }

    /** Least interval containing both (unsigned hull). */
    static Interval join(const Interval &a, const Interval &b)
    {
        return Interval(a.lo.minU(b.lo), a.hi.maxU(b.hi));
    }

    /** True when the range spans the signed min/max boundary, i.e.
     *  contains both 2^(w-1)-1 and 2^(w-1); no signed bounds then. */
    bool crossesSigned() const { return !lo.signBit() && hi.signBit(); }

    /** All values non-negative under signed interpretation. */
    bool allNonNegative() const { return !hi.signBit(); }
    /** All values negative under signed interpretation. */
    bool allNegative() const { return lo.signBit(); }

    /** Signed minimum; only meaningful when !crossesSigned(). */
    const BitVector &smin() const { return lo; }
    /** Signed maximum; only meaningful when !crossesSigned(). */
    const BitVector &smax() const { return hi; }

    /**
     * Interval of { v : smin <=s v <=s smax } given *signed* bounds.
     * Exact when the signed range stays within one region; top when
     * it crosses zero (the unsigned picture wraps there).
     */
    static Interval fromSigned(const BitVector &smin, const BitVector &smax);
};

/**
 * Interval transfer functions, exposed as a sym_eval Domain.  All
 * functions are sound: for concrete a in A and b in B, the concrete
 * result of the operation is contained in the returned interval.
 */
class IntervalDomain
{
  public:
    using Value = Interval;

    // -- sym_eval Domain concept ------------------------------------
    Value constant(const BitVector &v) const { return Interval::constant(v); }
    Value makeZero(int width) const
    {
        return Interval::constant(BitVector(width));
    }
    int widthOf(const Value &v) const { return v.width(); }
    void setSlice(Value &acc, int low, const Value &v) const;

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

    // -- AbstractDomain surface (domain.h) --------------------------
    Value top(int width) const { return Interval::top(width); }
    Value join(const Value &a, const Value &b) const
    {
        return Interval::join(a, b);
    }
    bool contains(const Value &v, const BitVector &c) const
    {
        return v.contains(c);
    }
};

} // namespace dataflow
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_DATAFLOW_INTERVAL_H
