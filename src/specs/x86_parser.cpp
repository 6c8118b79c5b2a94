/**
 * @file
 * The x86 (Intel Intrinsics Guide-style) pseudocode dialect:
 *
 *   DEFINE name(arg: bit[N] | arg: imm, ...) -> bit[N] LAT k
 *     FOR v := e to e ... ENDFOR
 *     v := int-expr                      // integer let
 *     dst[hi:lo] := bv-expr              // slice assignment
 *   ENDDEF
 *
 * Slices `a[hi:lo]`, single bits `a[i]` and slices of parenthesized
 * expressions `(e)[hi:lo]` are postfixes on any bitvector.
 */
#include "specs/parser_common.h"

namespace hydride {

namespace {

int64_t
bitType(PseudocodeParser &p)
{
    p.expect("bit");
    p.expect("[");
    const int64_t width = p.expectNumber();
    p.expect("]");
    return width;
}

StmtPtr
statement(PseudocodeParser &p)
{
    if (p.accept("FOR")) {
        const std::string var = p.expectIdent();
        p.expect(":=");
        TypedExpr lo = p.parseLocatedExpr();
        p.expect("to");
        TypedExpr hi = p.parseLocatedExpr();
        return p.loop(var, lo, hi, "FOR", "ENDFOR");
    }
    if (!p.accept("dst"))
        return nullptr;
    const auto [low, width] = p.dstSlice();
    return p.assignDst(low, width, "slice");
}

/** CMPULT(a, b) / CMPULE(a, b): unsigned a < b / a <= b. */
TypedExpr
unsignedCompare(PseudocodeParser &p, std::vector<TypedExpr> &args,
                const std::string &name)
{
    p.arity(args, 2, name);
    return p.makeCompare(name == "CMPULT" ? "<" : "<=", args[0], args[1],
                         /*unsigned_cmp=*/true);
}

/** ALLONES(w) / ZEROS(w). */
TypedExpr
constant(PseudocodeParser &p, std::vector<TypedExpr> &args,
         const std::string &name)
{
    return p.fill(args, name, name == "ALLONES" ? -1 : 0);
}

constexpr Intrinsic kIntrinsics[] = {
    {"SignExtend", BVCastOp::SExt},
    {"ZeroExtend", BVCastOp::ZExt},
    {"Truncate", BVCastOp::Trunc},
    {"Saturate", BVCastOp::SatNarrowS},
    {"SaturateU", BVCastOp::SatNarrowU},
    {"MIN", BVBinOp::MinS},
    {"MAX", BVBinOp::MaxS},
    {"MINU", BVBinOp::MinU},
    {"MAXU", BVBinOp::MaxU},
    {"AVGU", BVBinOp::AvgU},
    {"AVGS", BVBinOp::AvgS},
    {"ABS", BVUnOp::AbsS},
    {"POPCNT", BVUnOp::Popcount},
    {"CMPULT", unsignedCompare},
    {"CMPULE", unsignedCompare},
    {"ALLONES", constant},
    {"ZEROS", constant},
};

} // namespace

const Dialect kX86Dialect = {
    .isa = "x86",
    .define = "DEFINE",
    .arrow = "->",
    .latency = "LAT",
    .body_open = "",
    .body_close = "ENDDEF",
    .assign = ":=",
    .stmt_end = "",
    .intrinsics = kIntrinsics,
    .type = bitType,
    .stmt = statement,
    .postfix = PseudocodeParser::slicePostfix,
    .atom = nullptr,
};

} // namespace hydride
