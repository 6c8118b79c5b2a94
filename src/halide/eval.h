/**
 * @file
 * The one evaluator of Halide windows, templated on the value domain
 * (the Domain concept of hir/eval.h). `evalHalide` is its
 * BitVectorDomain instantiation; the equivalence checker runs it over
 * the symbolic and abstract domains.
 */
#ifndef HYDRIDE_HALIDE_EVAL_H
#define HYDRIDE_HALIDE_EVAL_H

#include <utility>
#include <vector>

#include "halide/hexpr.h"
#include "hir/eval.h"

namespace hydride {

/** The element operator of a lane-wise binary Halide operator. */
inline BVBinOp
laneBinOp(HOp op)
{
    switch (op) {
      case HOp::Add: return BVBinOp::Add;
      case HOp::Sub: return BVBinOp::Sub;
      case HOp::Mul: return BVBinOp::Mul;
      case HOp::MinS: return BVBinOp::MinS;
      case HOp::MaxS: return BVBinOp::MaxS;
      case HOp::MinU: return BVBinOp::MinU;
      case HOp::MaxU: return BVBinOp::MaxU;
      case HOp::SatAddS: return BVBinOp::AddSatS;
      case HOp::SatAddU: return BVBinOp::AddSatU;
      case HOp::SatSubS: return BVBinOp::SubSatS;
      case HOp::SatSubU: return BVBinOp::SubSatU;
      case HOp::AvgU: return BVBinOp::AvgU;
      default: break;
    }
    HYD_ASSERT(false, "unhandled Halide operator");
    return BVBinOp::Add; // Unreachable; HYD_ASSERT(false, ...) throws.
}

/** Evaluate a Halide window in `dom`, lane 0 in the low-order bits. */
template <typename Domain>
typename Domain::Value
evalHalideDom(Domain &dom, const HExprPtr &expr,
              const std::vector<typename Domain::Value> &inputs)
{
    using Value = typename Domain::Value;
    const int ew = expr->elem_width;
    const int lanes = expr->lanes;
    auto eval_kid = [&](int k) {
        return evalHalideDom(dom, expr->kids[k], inputs);
    };
    // The result, lane by lane: `elem(lane)` is that lane's value.
    auto by_lane = [&](const auto &elem) {
        Value out = dom.makeZero(expr->totalWidth());
        for (int lane = 0; lane < lanes; ++lane)
            dom.setSlice(out, lane * ew, elem(lane));
        return out;
    };

    switch (expr->op) {
      case HOp::Input: {
        HYD_ASSERT(expr->imm < static_cast<int64_t>(inputs.size()),
                   "halide input index out of range");
        const Value &value = inputs[expr->imm];
        HYD_ASSERT(dom.widthOf(value) == expr->totalWidth(),
                   "halide input width mismatch");
        return value;
      }
      case HOp::ConstSplat: {
        BitVector out(expr->totalWidth());
        const BitVector elem = BitVector::fromInt(ew, expr->imm);
        for (int lane = 0; lane < lanes; ++lane)
            out.setSlice(lane * ew, elem);
        return dom.constant(std::move(out));
      }
      case HOp::Cast: {
        const Value a = eval_kid(0);
        const int from = expr->kids[0]->elem_width;
        const BVCastOp op = ew < from      ? BVCastOp::Trunc
                            : expr->sign ? BVCastOp::SExt
                                         : BVCastOp::ZExt;
        return by_lane([&](int lane) {
            Value elem = dom.extract(a, lane * from, from);
            if (ew != from)
                elem = dom.cast(op, elem, ew);
            return elem;
        });
      }
      case HOp::SatNarrowS:
      case HOp::SatNarrowU: {
        const Value a = eval_kid(0);
        const int from = expr->kids[0]->elem_width;
        const BVCastOp op = expr->op == HOp::SatNarrowS
                                ? BVCastOp::SatNarrowS
                                : BVCastOp::SatNarrowU;
        return by_lane([&](int lane) {
            return dom.cast(op, dom.extract(a, lane * from, from), ew);
        });
      }
      case HOp::ReduceAdd: {
        const Value a = eval_kid(0);
        const int stride = static_cast<int>(expr->imm);
        return by_lane([&](int lane) {
            Value sum = dom.constant(BitVector(ew));
            for (int j = 0; j < stride; ++j)
                sum = dom.binOp(BVBinOp::Add, sum,
                                dom.extract(a, (lane * stride + j) * ew, ew));
            return sum;
        });
      }
      case HOp::Concat:
        return dom.concat(eval_kid(1), eval_kid(0));
      case HOp::Slice: {
        const Value a = eval_kid(0);
        return dom.extract(a, static_cast<int>(expr->imm) * ew, lanes * ew);
      }
      case HOp::ShlC:
      case HOp::AShrC:
      case HOp::LShrC: {
        const Value a = eval_kid(0);
        const int amount = static_cast<int>(expr->imm);
        const BVBinOp op = expr->op == HOp::ShlC    ? BVBinOp::Shl
                           : expr->op == HOp::AShrC ? BVBinOp::AShr
                                                    : BVBinOp::LShr;
        return by_lane([&](int lane) {
            return dom.shiftConst(op, dom.extract(a, lane * ew, ew), amount);
        });
      }
      case HOp::AbsS: {
        const Value a = eval_kid(0);
        return by_lane([&](int lane) {
            return dom.unOp(BVUnOp::AbsS, dom.extract(a, lane * ew, ew));
        });
      }
      default: {
        // Lane-wise binary operators; MulHiS keeps the high half of the
        // widened signed product.
        const Value a = eval_kid(0);
        const Value b = eval_kid(1);
        const bool mul_hi = expr->op == HOp::MulHiS;
        const BVBinOp op = mul_hi ? BVBinOp::Mul : laneBinOp(expr->op);
        return by_lane([&](int lane) {
            const Value x = dom.extract(a, lane * ew, ew);
            const Value y = dom.extract(b, lane * ew, ew);
            if (!mul_hi)
                return dom.binOp(op, x, y);
            return dom.extract(dom.binOp(op,
                                         dom.cast(BVCastOp::SExt, x, 2 * ew),
                                         dom.cast(BVCastOp::SExt, y, 2 * ew)),
                               ew, ew);
        });
      }
    }
}

} // namespace hydride

#endif // HYDRIDE_HALIDE_EVAL_H
