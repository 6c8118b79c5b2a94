/**
 * @file
 * The HVX (Qualcomm PRM C-style) pseudocode dialect:
 *
 *   INST name(Vu: vN | Rt: imm, ...) -> vN LAT k {
 *     for (i = 0; i < N; i++) { ... }
 *     dst.h[idx] = expr;        // lane accessor assignment
 *     dst[hi:lo] = expr;        // raw bit-slice assignment
 *   }
 *
 * Lane accessors `.b/.h/.w` (and unsigned aliases `.ub/.uh/.uw`)
 * denote 8/16/32-bit elements.
 */
#include "specs/parser_common.h"

namespace hydride {

namespace {

/** `vN`: a vector of N bits. */
int64_t
vecType(PseudocodeParser &p)
{
    const std::string type = p.expectIdent();
    int64_t width = 0;
    if (type[0] != 'v' || !parseDecimal(std::string_view(type).substr(1),
                                        width))
        p.fail("expected vector type `vN`");
    return width;
}

/** `.<suffix>[idx]` after the `.`: the lane's low bit and width. */
std::pair<ExprPtr, int>
lane(PseudocodeParser &p, bool located)
{
    const std::string suffix = p.expectIdent();
    const int width = suffix == "b" || suffix == "ub"   ? 8
                      : suffix == "h" || suffix == "uh" ? 16
                      : suffix == "w" || suffix == "uw" ? 32
                                                        : 0;
    if (width == 0)
        p.fail("unknown lane accessor `." + suffix + "`");
    p.expect("[");
    TypedExpr idx = located ? p.parseLocatedExpr() : p.parseExpr();
    p.requireInt(idx, "lane index");
    p.expect("]");
    return {mulI(idx.expr, intConst(width)), width};
}

StmtPtr
statement(PseudocodeParser &p)
{
    if (p.accept("for")) {
        p.expect("(");
        const std::string var = p.expectIdent();
        p.expect("=");
        TypedExpr lo = p.parseLocatedExpr();
        p.requireInt(lo, "for lower bound");
        p.expect(";");
        if (p.expectIdent() != var)
            p.fail("for-loop condition must test the loop variable");
        p.expect("<");
        TypedExpr bound = p.parseLocatedExpr();
        p.requireInt(bound, "for upper bound");
        p.expect(";");
        if (p.expectIdent() != var)
            p.fail("for-loop increment must bump the loop variable");
        p.expect("+");
        p.expect("+");
        p.expect(")");
        p.expect("{");
        TypedExpr hi{simplify(subI(bound.expr, intConst(1)))};
        return p.loop(var, lo, hi, "for", "}");
    }
    if (!p.accept("dst"))
        return nullptr;
    const auto [low, width] =
        p.accept(".") ? lane(p, /*located=*/true) : p.dstSlice();
    return p.assignDst(low, width, "lane");
}

/** `.<suffix>[idx]` or a `[hi:lo]` slice. */
bool
postfix(PseudocodeParser &p, TypedExpr &base)
{
    if (!p.accept("."))
        return PseudocodeParser::slicePostfix(p, base);
    const auto [low, width] = lane(p, /*located=*/false);
    base = p.bits(base.expr, low, width);
    return true;
}

constexpr Intrinsic kIntrinsics[] = {
    {"sxt", BVCastOp::SExt},
    {"zxt", BVCastOp::ZExt},
    {"trunc", BVCastOp::Trunc},
    {"sat", BVCastOp::SatNarrowS},
    {"usat", BVCastOp::SatNarrowU},
    {"min", BVBinOp::MinS},
    {"max", BVBinOp::MaxS},
    {"minu", BVBinOp::MinU},
    {"maxu", BVBinOp::MaxU},
    {"avg", BVBinOp::AvgS},
    {"avgu", BVBinOp::AvgU},
    {"abs", BVUnOp::AbsS},
    {"popcount", BVUnOp::Popcount},
};

} // namespace

const Dialect kHvxDialect = {
    .isa = "hvx",
    .define = "INST",
    .arrow = "->",
    .latency = "LAT",
    .body_open = "{",
    .body_close = "}",
    .assign = "=",
    .stmt_end = ";",
    .intrinsics = kIntrinsics,
    .type = vecType,
    .stmt = statement,
    .postfix = postfix,
    .atom = nullptr,
};

} // namespace hydride
