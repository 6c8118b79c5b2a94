/**
 * @file
 * Unit tests for Hydride IR expression construction, evaluation,
 * simplification and rewriting.
 */
#include <gtest/gtest.h>

#include "hir/expr.h"
#include "hir/printer.h"
#include "support/error.h"
#include "support/rng.h"

namespace hydride {
namespace {

TEST(Expr, IntEvaluation)
{
    EvalEnv env;
    env.loop_i = 3;
    env.loop_j = 5;
    EXPECT_EQ(evalInt(intConst(7), env), 7);
    EXPECT_EQ(evalInt(loopVar(0), env), 3);
    EXPECT_EQ(evalInt(loopVar(1), env), 5);
    EXPECT_EQ(evalInt(addI(loopVar(0), intConst(10)), env), 13);
    EXPECT_EQ(evalInt(mulI(loopVar(1), intConst(4)), env), 20);
    EXPECT_EQ(evalInt(subI(intConst(2), intConst(9)), env), -7);
    EXPECT_EQ(evalInt(divI(intConst(17), intConst(5)), env), 3);
    EXPECT_EQ(evalInt(modI(intConst(17), intConst(5)), env), 2);
    EXPECT_EQ(evalInt(intBin(IntBinOp::Min, intConst(2), intConst(9)), env), 2);
    EXPECT_EQ(evalInt(intBin(IntBinOp::Max, intConst(2), intConst(9)), env), 9);
}

TEST(Expr, ParamEvaluation)
{
    std::vector<int64_t> params = {16, 512};
    EvalEnv env;
    env.param_values = &params;
    EXPECT_EQ(evalInt(param(0, "ew"), env), 16);
    EXPECT_EQ(evalInt(param(1, "vw"), env), 512);
    EXPECT_EQ(evalInt(divI(param(1, "vw"), param(0, "ew")), env), 32);
}

TEST(Expr, NamedVarEvaluation)
{
    EvalEnv env;
    env.named["k"] = 11;
    EXPECT_EQ(evalInt(namedVar("k"), env), 11);
}

TEST(Expr, BVArgAndExtract)
{
    std::vector<BitVector> args = {BitVector::fromUint(32, 0xAABBCCDD)};
    EvalEnv env;
    env.bv_args = &args;
    EXPECT_EQ(evalBV(argBV(0), env), args[0]);
    ExprPtr byte1 = extract(argBV(0), intConst(8), intConst(8));
    EXPECT_EQ(evalBV(byte1, env).toUint64(), 0xCCu);
}

TEST(Expr, BVConstUsesIntExprs)
{
    EvalEnv env;
    env.loop_j = 3;
    ExprPtr c = bvConst(intConst(8), modI(loopVar(1), intConst(2)));
    EXPECT_EQ(evalBV(c, env).toUint64(), 1u);
    ExprPtr negative = bvConst(intConst(8), intConst(-1));
    EXPECT_EQ(evalBV(negative, env), BitVector::allOnes(8));
}

TEST(Expr, BinaryOpsEvaluate)
{
    std::vector<BitVector> args = {BitVector::fromUint(8, 200),
                                   BitVector::fromUint(8, 100)};
    EvalEnv env;
    env.bv_args = &args;
    EXPECT_EQ(evalBV(bvBin(BVBinOp::Add, argBV(0), argBV(1)), env).toUint64(),
              44u);
    EXPECT_EQ(
        evalBV(bvBin(BVBinOp::AddSatU, argBV(0), argBV(1)), env).toUint64(),
        255u);
    EXPECT_EQ(evalBV(bvBin(BVBinOp::MaxU, argBV(0), argBV(1)), env).toUint64(),
              200u);
    EXPECT_EQ(evalBV(bvBin(BVBinOp::MinS, argBV(0), argBV(1)), env).toInt64(),
              -56);
}

TEST(Expr, ShiftByBVOperandClamps)
{
    std::vector<BitVector> args = {BitVector::fromUint(8, 0x81),
                                   BitVector::fromUint(8, 200)};
    EvalEnv env;
    env.bv_args = &args;
    // Shift amount 200 >= width: everything shifted out.
    EXPECT_TRUE(
        evalBV(bvBin(BVBinOp::Shl, argBV(0), argBV(1)), env).isZero());
    EXPECT_EQ(evalBV(bvBin(BVBinOp::AShr, argBV(0), argBV(1)), env),
              BitVector::allOnes(8));
}

TEST(Expr, CastsEvaluate)
{
    std::vector<BitVector> args = {BitVector::fromInt(8, -2)};
    EvalEnv env;
    env.bv_args = &args;
    EXPECT_EQ(evalBV(bvCast(BVCastOp::SExt, argBV(0), intConst(16)), env)
                  .toInt64(),
              -2);
    EXPECT_EQ(evalBV(bvCast(BVCastOp::ZExt, argBV(0), intConst(16)), env)
                  .toUint64(),
              0xFEu);
    EXPECT_EQ(evalBV(bvCast(BVCastOp::Trunc, argBV(0), intConst(4)), env)
                  .toUint64(),
              0xEu);
}

TEST(Expr, CmpAndSelect)
{
    std::vector<BitVector> args = {BitVector::fromInt(8, -1),
                                   BitVector::fromUint(8, 1)};
    EvalEnv env;
    env.bv_args = &args;
    ExprPtr is_less = bvCmp(BVCmpOp::Slt, argBV(0), argBV(1));
    EXPECT_EQ(evalBV(is_less, env).toUint64(), 1u);
    ExprPtr chosen = select(is_less, argBV(1), argBV(0));
    EXPECT_EQ(evalBV(chosen, env), args[1]);
    ExprPtr is_less_u = bvCmp(BVCmpOp::Ult, argBV(0), argBV(1));
    EXPECT_EQ(evalBV(select(is_less_u, argBV(1), argBV(0)), env), args[0]);
}

TEST(Expr, ConcatEvaluates)
{
    std::vector<BitVector> args = {BitVector::fromUint(8, 0xAB),
                                   BitVector::fromUint(8, 0xCD)};
    EvalEnv env;
    env.bv_args = &args;
    EXPECT_EQ(evalBV(concat(argBV(0), argBV(1)), env).toUint64(), 0xABCDu);
}

TEST(Expr, EvaluationErrorsThrowAssertionError)
{
    // Callers probe evaluation speculatively and catch AssertionError,
    // so an unfilled hole or an Int-typed node in a BV position must
    // throw, not abort the process.
    std::vector<BitVector> args = {BitVector::fromUint(8, 0x5A)};
    EvalEnv env;
    env.bv_args = &args;
    EXPECT_THROW(evalBV(hole({argBV(0)}), env), AssertionError);
    EXPECT_THROW(evalBV(intConst(3), env), AssertionError);
    EXPECT_THROW(evalBV(select(bvConst(intConst(1), intConst(1)), hole({}),
                               argBV(0)),
                        env),
                 AssertionError);
    // Select stays lazy: the untaken hole is never evaluated.
    EXPECT_EQ(evalBV(select(bvConst(intConst(1), intConst(0)), hole({}),
                            argBV(0)),
                     env),
              args[0]);
}

TEST(Expr, StructuralEqualityAndHash)
{
    ExprPtr a = bvBin(BVBinOp::Add, argBV(0), argBV(1));
    ExprPtr b = bvBin(BVBinOp::Add, argBV(0), argBV(1));
    ExprPtr c = bvBin(BVBinOp::Add, argBV(1), argBV(0));
    EXPECT_TRUE(Expr::equals(a, b));
    EXPECT_FALSE(Expr::equals(a, c));
    EXPECT_EQ(Expr::hashOf(a), Expr::hashOf(b));
    EXPECT_NE(Expr::hashOf(a), Expr::hashOf(c));
}

TEST(Expr, SimplifyFoldsConstants)
{
    ExprPtr folded = simplify(addI(intConst(2), mulI(intConst(3), intConst(4))));
    ASSERT_EQ(folded->kind, ExprKind::IntConst);
    EXPECT_EQ(folded->value, 14);
}

TEST(Expr, SimplifyIdentities)
{
    ExprPtr x = loopVar(0);
    EXPECT_TRUE(Expr::equals(simplify(addI(x, intConst(0))), x));
    EXPECT_TRUE(Expr::equals(simplify(mulI(x, intConst(1))), x));
    ExprPtr zero = simplify(mulI(x, intConst(0)));
    ASSERT_EQ(zero->kind, ExprKind::IntConst);
    EXPECT_EQ(zero->value, 0);
    EXPECT_TRUE(Expr::equals(simplify(subI(x, intConst(0))), x));
    EXPECT_TRUE(Expr::equals(simplify(divI(x, intConst(1))), x));
    ExprPtr mod1 = simplify(modI(x, intConst(1)));
    ASSERT_EQ(mod1->kind, ExprKind::IntConst);
    EXPECT_EQ(mod1->value, 0);
}

TEST(Expr, SimplifyDoesNotReorderOperands)
{
    // Structural parallelism across unrolled iterations depends on
    // simplify() never swapping commutative operands.
    ExprPtr e = bvBin(BVBinOp::Add, argBV(1), argBV(0));
    EXPECT_TRUE(Expr::equals(simplify(e), e));
}

TEST(Expr, RewriteSubstitutes)
{
    ExprPtr body = addI(namedVar("x"), namedVar("y"));
    ExprPtr rewritten = rewrite(body, [](const ExprPtr &node) -> ExprPtr {
        if (node->kind == ExprKind::NamedVar && node->name == "x")
            return intConst(9);
        return nullptr;
    });
    EvalEnv env;
    env.named["y"] = 1;
    EXPECT_EQ(evalInt(rewritten, env), 10);
}

TEST(Expr, RewritePreservesSharingWhenUnchanged)
{
    ExprPtr body = addI(intConst(1), intConst(2));
    ExprPtr rewritten = rewrite(body, [](const ExprPtr &) { return ExprPtr(); });
    EXPECT_EQ(body.get(), rewritten.get());
}

TEST(Expr, SizeAndCollect)
{
    ExprPtr e = bvBin(BVBinOp::Mul, argBV(0),
                      bvCast(BVCastOp::SExt, argBV(1), intConst(16)));
    // Nodes: mul, arg0, sext, arg1, and the Int width operand.
    EXPECT_EQ(Expr::sizeOf(e), 5);
    std::vector<ExprPtr> nodes;
    collectNodes(e, nodes);
    EXPECT_EQ(nodes.size(), 5u);
}

TEST(Expr, PrinterRendersReadably)
{
    ExprPtr e = bvBin(BVBinOp::Add, argBV(0),
                      extract(argBV(1), mulI(loopVar(0), intConst(16)),
                              intConst(16)));
    const std::string text = printExpr(e);
    EXPECT_NE(text.find("bvadd"), std::string::npos);
    EXPECT_NE(text.find("%arg0"), std::string::npos);
    EXPECT_NE(text.find("extract"), std::string::npos);
    EXPECT_NE(text.find("%i"), std::string::npos);
}

TEST(Expr, SourceLocationsShareOneCopyOfTheirUnit)
{
    const SourceLoc a(std::string("x86:_mm512_madd_epi16"), 3);
    const SourceLoc b(std::string("x86:_mm512_madd_epi16"), 4);
    EXPECT_EQ(&a.unit(), &b.unit());
    EXPECT_EQ(a.str(), "x86:_mm512_madd_epi16:3");
    EXPECT_EQ(SourceLoc().unit(), "");
    EXPECT_EQ(SourceLoc().str(), "");
}

class BVBinOpLaws : public ::testing::TestWithParam<BVBinOp>
{
};

TEST_P(BVBinOpLaws, CommutativeOpsCommute)
{
    const BVBinOp op = GetParam();
    Rng rng(777);
    for (int width : {8, 16, 33}) {
        for (int trial = 0; trial < 10; ++trial) {
            std::vector<BitVector> args = {BitVector::random(width, rng),
                                           BitVector::random(width, rng)};
            EvalEnv env;
            env.bv_args = &args;
            BitVector ab = evalBV(bvBin(op, argBV(0), argBV(1)), env);
            BitVector ba = evalBV(bvBin(op, argBV(1), argBV(0)), env);
            EXPECT_EQ(ab, ba) << bvBinOpName(op) << " width " << width;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Commutative, BVBinOpLaws,
    ::testing::Values(BVBinOp::Add, BVBinOp::Mul, BVBinOp::And, BVBinOp::Or,
                      BVBinOp::Xor, BVBinOp::AddSatS, BVBinOp::AddSatU,
                      BVBinOp::MinS, BVBinOp::MaxS, BVBinOp::MinU,
                      BVBinOp::MaxU, BVBinOp::AvgU, BVBinOp::AvgS));

} // namespace
} // namespace hydride
