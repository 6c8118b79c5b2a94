/**
 * @file
 * The ARM (ASL / ARM Developer-style) pseudocode dialect:
 *
 *   INSTRUCTION name (a: bits(128), n: imm, ...) => bits(128) LATENCY k
 *     for e = 0 to 7 do
 *       Elem[dst, e, 16] = SExt(Elem[a, e, 16], 17) + ...;
 *     endfor
 *   ENDINSTRUCTION
 *
 * `Elem[x, e, w]` denotes the w-bit element e of x (also on the
 * left-hand side), `Bits(x, hi, lo)` a raw bit-slice, and `dst = e;`
 * a whole-register assignment.
 */
#include "specs/parser_common.h"

namespace hydride {

namespace {

int64_t
bitsType(PseudocodeParser &p)
{
    p.expect("bits");
    p.expect("(");
    const int64_t width = p.expectNumber();
    p.expect(")");
    return width;
}

StmtPtr
statement(PseudocodeParser &p)
{
    if (p.accept("for")) {
        const std::string var = p.expectIdent();
        p.expect("=");
        TypedExpr lo = p.parseLocatedExpr();
        p.expect("to");
        TypedExpr hi = p.parseLocatedExpr();
        p.expect("do");
        return p.loop(var, lo, hi, "for", "endfor");
    }
    if (p.accept("Elem")) {
        p.expect("[");
        p.expect("dst");
        p.expect(",");
        TypedExpr idx = p.parseLocatedExpr();
        p.expect(",");
        TypedExpr width_e = p.parseLocatedExpr();
        p.expect("]");
        p.requireInt(idx, "element index");
        const int width = p.constOf(width_e.expr, "element width");
        return p.assignDst(mulI(idx.expr, intConst(width)), width,
                           "element");
    }
    if (!p.accept("dst"))
        return nullptr;
    TypedExpr value = p.assignedValue();
    if (!value.is_bv)
        p.fail("whole-register assignment must be a bitvector");
    return stmtSliceAssign(intConst(0), intConst(value.width), value.expr);
}

/** `Elem[x, e, w]`. */
bool
element(PseudocodeParser &p, TypedExpr &out)
{
    if (!p.accept("Elem"))
        return false;
    p.expect("[");
    TypedExpr base = p.parseExpr();
    if (!base.is_bv)
        p.fail("Elem base must be a bitvector");
    p.expect(",");
    TypedExpr idx = p.parseExpr();
    p.requireInt(idx, "element index");
    p.expect(",");
    TypedExpr width_e = p.parseExpr();
    p.expect("]");
    const int width = p.constOf(width_e.expr, "element width");
    out = p.bits(base.expr, mulI(idx.expr, intConst(width)), width);
    return true;
}

/** UGT(a, b) / UGE(a, b): unsigned a > b / a >= b, i.e. b < a. */
TypedExpr
unsignedCompare(PseudocodeParser &p, std::vector<TypedExpr> &args,
                const std::string &name)
{
    p.arity(args, 2, name);
    return p.makeCompare(name == "UGT" ? "<" : "<=", args[1], args[0],
                         /*unsigned_cmp=*/true);
}

/** Bits(x, hi, lo). */
TypedExpr
bitSlice(PseudocodeParser &p, std::vector<TypedExpr> &args,
         const std::string &name)
{
    p.arity(args, 3, name);
    if (!args[0].is_bv)
        p.fail("Bits base must be a bitvector");
    p.requireInt(args[1], "Bits high index");
    p.requireInt(args[2], "Bits low index");
    return p.bits(args[0].expr, args[2].expr,
                  p.sliceWidth(args[1].expr, args[2].expr));
}

/** Ones(w) / Zeros(w). */
TypedExpr
constant(PseudocodeParser &p, std::vector<TypedExpr> &args,
         const std::string &name)
{
    return p.fill(args, name, name == "Ones" ? -1 : 0);
}

constexpr Intrinsic kIntrinsics[] = {
    {"SExt", BVCastOp::SExt},
    {"ZExt", BVCastOp::ZExt},
    {"Trunc", BVCastOp::Trunc},
    {"SSat", BVCastOp::SatNarrowS},
    {"USat", BVCastOp::SatNarrowU},
    {"SMin", BVBinOp::MinS},
    {"SMax", BVBinOp::MaxS},
    {"UMin", BVBinOp::MinU},
    {"UMax", BVBinOp::MaxU},
    {"SAvg", BVBinOp::AvgS},
    {"UAvg", BVBinOp::AvgU},
    {"Abs", BVUnOp::AbsS},
    {"PopCount", BVUnOp::Popcount},
    {"UGT", unsignedCompare},
    {"UGE", unsignedCompare},
    {"Bits", bitSlice},
    {"Ones", constant},
    {"Zeros", constant},
};

} // namespace

const Dialect kArmDialect = {
    .isa = "arm",
    .define = "INSTRUCTION",
    .arrow = "=>",
    .latency = "LATENCY",
    .body_open = "",
    .body_close = "ENDINSTRUCTION",
    .assign = "=",
    .stmt_end = ";",
    .intrinsics = kIntrinsics,
    .type = bitsType,
    .stmt = statement,
    .postfix = nullptr,
    .atom = element,
};

} // namespace hydride
