/**
 * @file
 * Lane kernels against the reference interpreter.
 *
 * The fuzz sweep compiles every member of every similarity class, on
 * each ISA, at the member's parameters and at every lane scale the
 * synthesizer can use, with every immediate a synthesis grammar can
 * put in its pool (1..63). Each compiled kernel must reproduce
 * CanonicalSemantics::evaluate bit for bit on random and edge-value
 * inputs. Each triple that stays on the interpreter must have a
 * reason the fallback rule names, and every triple on which the
 * interpreter raises must stay on it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "autollvm/dict.h"
#include "hir/lane_kernel.h"
#include "support/error.h"
#include "support/rng.h"
#include "synthesis/grammar.h"

namespace hydride {
namespace {

const AutoLLVMDict &
dict()
{
    static const AutoLLVMDict d = AutoLLVMDict::build({"x86", "hvx", "arm"});
    return d;
}

/** Random bits, or per-byte edge patterns that land element values on
 *  0, -1, the signed minimum and maximum, and their neighbours. */
BitVector
fuzzValue(int width, Rng &rng)
{
    BitVector value = BitVector::random(width, rng);
    if (rng.nextBelow(2) == 0)
        return value;
    static const uint64_t kBytes[] = {0x00, 0xFF, 0x80, 0x7F, 0x01, 0xFE};
    for (int low = 0; low < width; low += 8) {
        const uint64_t byte = rng.nextBelow(4) == 0 ? rng.next() & 0xFF
                                                    : kBytes[rng.nextBelow(6)];
        const int bits = std::min(8, width - low);
        value.setSlice(low, BitVector::fromUint(bits, byte));
    }
    return value;
}

/** One kernel-vs-interpreter comparison result. */
struct Outcome
{
    bool compiled = false;
    bool interpreter_threw = false;
    long inputs = 0;
};

/** Widest operand or result of any node the kernel must hold in a
 *  register (everything but argument reads, concatenations, extracts
 *  and truncations), or -1 when some node cannot be evaluated. */
int
widestRegisterValue(const CanonicalSemantics &sem,
                    const std::vector<int64_t> &params,
                    const std::vector<int64_t> &imms, Rng &rng)
{
    try {
        std::vector<BitVector> args;
        for (size_t a = 0; a < sem.bv_args.size(); ++a)
            args.push_back(BitVector::random(
                sem.argWidth(static_cast<int>(a), params), rng));
        EvalEnv env;
        env.bv_args = &args;
        env.param_values = &params;
        for (size_t i = 0; i < sem.int_args.size(); ++i)
            env.named[sem.int_args[i]] = imms.at(i);
        const int64_t outer = evalInt(sem.outer_count, env);
        const int64_t inner = evalInt(sem.inner_count, env);
        int widest = static_cast<int>(evalInt(sem.elem_width, env));
        for (int64_t i = 0; i < outer; ++i) {
            for (int64_t j = 0; j < inner; ++j) {
                env.loop_i = i;
                env.loop_j = j;
                std::vector<ExprPtr> nodes;
                collectNodes(sem.templateFor(i, j), nodes);
                for (const ExprPtr &node : nodes) {
                    if (node->isInt() || node->kind == ExprKind::ArgBV ||
                        node->kind == ExprKind::Concat ||
                        node->kind == ExprKind::Extract ||
                        (node->kind == ExprKind::BVCast &&
                         static_cast<BVCastOp>(node->value) ==
                             BVCastOp::Trunc)) {
                        continue;
                    }
                    widest = std::max(widest, evalBV(node, env).width());
                    for (const ExprPtr &kid : node->kids)
                        if (!kid->isInt())
                            widest =
                                std::max(widest, evalBV(kid, env).width());
                }
            }
        }
        return widest;
    } catch (const AssertionError &) {
        return -1;
    }
}

Outcome
fuzzTriple(const CanonicalSemantics &sem, const std::vector<int64_t> &params,
           const std::vector<int64_t> &imms, int inputs, Rng &rng,
           const std::string &label)
{
    Outcome outcome;
    const std::unique_ptr<const LaneKernel> kernel =
        LaneKernel::compile(sem, params, imms);
    outcome.compiled = kernel != nullptr;
    std::vector<int> widths;
    try {
        for (size_t a = 0; a < sem.bv_args.size(); ++a)
            widths.push_back(sem.argWidth(static_cast<int>(a), params));
    } catch (const AssertionError &) {
        EXPECT_FALSE(outcome.compiled) << label;
        outcome.interpreter_threw = true;
        return outcome;
    }
    if (kernel) {
        EXPECT_EQ(kernel->argWidths(), widths) << label;
        EXPECT_EQ(kernel->outputWidth(), sem.outputWidth(params)) << label;
    }
    std::vector<BitVector> args(widths.size());
    std::vector<const BitVector *> ptrs(widths.size());
    for (int n = 0; n < inputs; ++n) {
        for (size_t a = 0; a < widths.size(); ++a) {
            args[a] = fuzzValue(widths[a], rng);
            ptrs[a] = &args[a];
        }
        BitVector expect(1);
        try {
            expect = sem.evaluate(args, params, imms);
        } catch (const AssertionError &) {
            // The interpreter raises: the kernel must not exist, so
            // the synthesizer still sees the raise.
            outcome.interpreter_threw = true;
            EXPECT_FALSE(outcome.compiled) << label << " compiled, but the "
                                           << "interpreter raises";
            return outcome;
        }
        ++outcome.inputs;
        if (kernel) {
            const BitVector got = kernel->evaluate(ptrs.data());
            if (got != expect) {
                ADD_FAILURE() << label << ": kernel " << got.toHex()
                              << " != interpreter " << expect.toHex();
                return outcome;
            }
        }
    }
    if (!kernel) {
        // Nothing raised, so the fallback must be the width rule (or
        // a select arm that cannot be evaluated).
        const int widest = widestRegisterValue(sem, params, imms, rng);
        EXPECT_TRUE(widest < 0 || widest > 64)
            << label << " fell back although its widest register value "
            << "is " << widest << " bits";
    }
    return outcome;
}

constexpr long kInputsPerMember = 10000;
constexpr size_t kMinInputsPerTriple = 16;

class LaneKernelFuzz : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LaneKernelFuzz, MatchesInterpreterOnEveryClassMember)
{
    const std::string isa = GetParam();
    Rng rng(0x1A4E + static_cast<uint64_t>(isa[0]));
    long inputs = 0;
    int triples = 0;
    int compiled = 0;
    std::set<std::string> fallback_members;
    std::set<std::string> members;
    // Members the interpreter raises on for some instantiation.
    int short_members = 0;
    for (int id = 0; id < dict().classCount(); ++id) {
        const EquivalenceClass &cls = dict().cls(id);
        for (const ClassMember &member : cls.members) {
            if (member.isa != isa)
                continue;
            members.insert(member.name);
            std::vector<std::vector<int64_t>> imm_sets = {{}};
            if (!cls.rep.int_args.empty()) {
                imm_sets.clear();
                for (int64_t imm = 1; imm < 64; ++imm)
                    imm_sets.push_back({imm});
            }
            std::vector<std::pair<int, std::vector<int64_t>>> scales;
            for (int scale = 1; scale <= 64; scale *= 2) {
                std::vector<int64_t> params;
                bool legal = false;
                try {
                    legal = scaleParams(cls, member.param_values, scale,
                                        params);
                } catch (const AssertionError &) {
                }
                if (legal)
                    scales.emplace_back(scale, std::move(params));
            }
            // Every member gets kInputsPerMember inputs, split evenly
            // over its (scale, immediate) instantiations.
            const size_t instantiations = scales.size() * imm_sets.size();
            const int n = static_cast<int>(std::max<size_t>(
                kMinInputsPerTriple,
                (kInputsPerMember + instantiations - 1) /
                    std::max<size_t>(1, instantiations)));
            long member_inputs = 0;
            for (const auto &[scale, params] : scales) {
                for (const auto &imms : imm_sets) {
                    const std::string label =
                        member.name + " scale " + std::to_string(scale) +
                        (imms.empty() ? ""
                                      : " imm " + std::to_string(imms[0]));
                    const Outcome outcome =
                        fuzzTriple(cls.rep, params, imms, n, rng, label);
                    ++triples;
                    member_inputs += outcome.inputs;
                    compiled += outcome.compiled ? 1 : 0;
                    if (!outcome.compiled && !outcome.interpreter_threw)
                        fallback_members.insert(member.name + " scale " +
                                                std::to_string(scale));
                    if (HasFailure())
                        return;
                }
            }
            inputs += member_inputs;
            if (member_inputs < kInputsPerMember)
                ++short_members;
        }
    }
    std::string fallbacks;
    for (const std::string &label : fallback_members)
        fallbacks += "\n  " + label;
    RecordProperty("fallbacks", static_cast<int>(fallback_members.size()));
    std::printf("%s: %zu members, %d instantiations, %d compiled, %ld "
                "inputs, %d members below %ld inputs (the interpreter "
                "raises); width fallbacks (%zu):%s\n",
                isa.c_str(), members.size(), triples, compiled, inputs,
                short_members, kInputsPerMember,
                fallback_members.size(), fallbacks.c_str());
    EXPECT_GE(inputs, kInputsPerMember * static_cast<long>(members.size()) *
                          9 / 10);
    EXPECT_GT(compiled, triples / 2);
}

INSTANTIATE_TEST_SUITE_P(AllIsas, LaneKernelFuzz,
                         ::testing::Values("x86", "hvx", "arm"));

// ---- The fallback rule on hand-built semantics -----------------------------

/** A Uniform-mode semantics with `lanes` elements of `width` bits. */
CanonicalSemantics
uniform(int lanes, int width, ExprPtr tmpl, std::vector<int> arg_widths)
{
    CanonicalSemantics sem;
    sem.name = "synthetic";
    for (int w : arg_widths)
        sem.bv_args.push_back({"a", intConst(w)});
    sem.outer_count = intConst(lanes);
    sem.inner_count = intConst(1);
    sem.elem_width = intConst(width);
    sem.templates = {std::move(tmpl)};
    return sem;
}

ExprPtr
lane(int arg, int width)
{
    return extract(argBV(arg), mulI(loopVar(0), intConst(width)),
                   intConst(width));
}

TEST(LaneKernel, CompilesAndMatchesAcrossWordBoundaries)
{
    // 24-bit lanes straddle 64-bit words in both the inputs and the
    // output.
    const CanonicalSemantics sem = uniform(
        8, 24, bvBin(BVBinOp::AddSatS, lane(0, 24), lane(1, 24)), {192, 192});
    const auto kernel = LaneKernel::compile(sem, {}, {});
    ASSERT_NE(kernel, nullptr);
    Rng rng(5);
    for (int n = 0; n < 2000; ++n) {
        const BitVector a = fuzzValue(192, rng);
        const BitVector b = fuzzValue(192, rng);
        const BitVector *args[] = {&a, &b};
        ASSERT_EQ(kernel->evaluate(args), sem.evaluate({a, b}, {}));
    }
}

/** Compile `sem` and compare it with the interpreter on edge-value
 *  inputs; false (with a failure recorded) on the first mismatch. */
bool
matchesInterpreter(const CanonicalSemantics &sem, const std::string &label,
                   Rng &rng)
{
    const auto kernel = LaneKernel::compile(sem, {}, {});
    if (!kernel) {
        ADD_FAILURE() << label << " did not compile";
        return false;
    }
    std::vector<BitVector> args;
    std::vector<const BitVector *> ptrs;
    for (int w : kernel->argWidths())
        args.emplace_back(w);
    for (const BitVector &arg : args)
        ptrs.push_back(&arg);
    for (int n = 0; n < 300; ++n) {
        for (BitVector &arg : args)
            arg = fuzzValue(arg.width(), rng);
        const BitVector expect = sem.evaluate(args, {});
        const BitVector got = kernel->evaluate(ptrs.data());
        if (got != expect) {
            ADD_FAILURE() << label << ": kernel " << got.toHex()
                          << " != interpreter " << expect.toHex();
            return false;
        }
    }
    return true;
}

TEST(LaneKernel, EveryOperatorMatchesTheInterpreterAtEveryWidth)
{
    // Class members exercise only some operators (saturating adds, for
    // one, reach the specs as casts); cover all of them directly.
    Rng rng(4);
    const int lanes = 3;
    for (int w : {1, 2, 7, 8, 16, 31, 32, 33, 63, 64}) {
        const std::string at = " at " + std::to_string(w);
        for (int op = 0; op <= static_cast<int>(BVBinOp::AvgS); ++op) {
            const auto bin = static_cast<BVBinOp>(op);
            ASSERT_TRUE(matchesInterpreter(
                uniform(lanes, w, bvBin(bin, lane(0, w), lane(1, w)),
                        {lanes * w, lanes * w}),
                bvBinOpName(bin) + at, rng));
        }
        for (int op = 0; op <= static_cast<int>(BVUnOp::Popcount); ++op) {
            const auto un = static_cast<BVUnOp>(op);
            ASSERT_TRUE(matchesInterpreter(
                uniform(lanes, w, bvUn(un, lane(0, w)), {lanes * w}),
                bvUnOpName(un) + at, rng));
        }
        for (int op = 0; op <= static_cast<int>(BVCmpOp::Sle); ++op) {
            const auto cmp = static_cast<BVCmpOp>(op);
            ASSERT_TRUE(matchesInterpreter(
                uniform(lanes, 1, bvCmp(cmp, lane(0, w), lane(1, w)),
                        {lanes * w, lanes * w}),
                bvCmpOpName(cmp) + at, rng));
        }
        for (int to : {1, w / 2 + 1, w, 64}) {
            if (to < 1 || to > 64)
                continue;
            for (int op = 0; op <= static_cast<int>(BVCastOp::SatNarrowU);
                 ++op) {
                const auto cast = static_cast<BVCastOp>(op);
                const bool widens =
                    cast == BVCastOp::SExt || cast == BVCastOp::ZExt;
                if (widens ? to < w : to > w)
                    continue;
                ASSERT_TRUE(matchesInterpreter(
                    uniform(lanes, to,
                            bvCast(cast, lane(0, w), intConst(to)),
                            {lanes * w}),
                    bvCastOpName(cast) + at + " to " + std::to_string(to),
                    rng));
            }
        }
        ASSERT_TRUE(matchesInterpreter(
            uniform(lanes, w,
                    select(bvCmp(BVCmpOp::Slt, lane(0, w), lane(1, w)),
                           lane(1, w), bvConst(intConst(w), intConst(-3))),
                    {lanes * w, lanes * w}),
            "select" + at, rng));
    }
}

TEST(LaneKernel, BatchMatchesSingleCalls)
{
    const CanonicalSemantics sem =
        uniform(4, 16, bvBin(BVBinOp::Mul, lane(0, 16), lane(1, 16)),
                {64, 64});
    const auto kernel = LaneKernel::compile(sem, {}, {});
    ASSERT_NE(kernel, nullptr);
    Rng rng(6);
    std::vector<BitVector> values;
    for (int n = 0; n < 10; ++n)
        values.push_back(BitVector::random(64, rng));
    std::vector<const BitVector *> args;
    for (const BitVector &value : values)
        args.push_back(&value);
    std::vector<BitVector> outs(5);
    kernel->evaluateBatch(args.data(), 5, outs.data());
    for (int c = 0; c < 5; ++c)
        EXPECT_EQ(outs[c], kernel->evaluate(&args[2 * c]));
}

TEST(LaneKernel, WideArgumentsAreReadInPlaceThroughConcat)
{
    // alignr-style: a lane of concat(a, b), read at an offset that
    // straddles the two registers.
    const ExprPtr both = concat(argBV(0), argBV(1));
    const CanonicalSemantics sem = uniform(
        4, 32,
        extract(both, addI(mulI(loopVar(0), intConst(32)), intConst(48)),
                intConst(32)),
        {128, 128});
    const auto kernel = LaneKernel::compile(sem, {}, {});
    ASSERT_NE(kernel, nullptr);
    Rng rng(7);
    for (int n = 0; n < 500; ++n) {
        const BitVector a = BitVector::random(128, rng);
        const BitVector b = BitVector::random(128, rng);
        const BitVector *args[] = {&a, &b};
        ASSERT_EQ(kernel->evaluate(args), sem.evaluate({a, b}, {}));
    }
}

TEST(LaneKernel, WideIntermediateFallsBack)
{
    // A 128-bit product cannot live in a 64-bit register.
    const ExprPtr wide = bvBin(
        BVBinOp::Mul, bvCast(BVCastOp::ZExt, lane(0, 64), intConst(128)),
        bvCast(BVCastOp::ZExt, lane(1, 64), intConst(128)));
    const CanonicalSemantics sem = uniform(
        2, 64, bvCast(BVCastOp::Trunc, bvBin(BVBinOp::LShr, wide,
                                             bvConst(intConst(128),
                                                     intConst(64))),
                      intConst(64)),
        {128, 128});
    EXPECT_EQ(LaneKernel::compile(sem, {}, {}), nullptr);
}

TEST(LaneKernel, WideElementFallsBack)
{
    const CanonicalSemantics sem = uniform(
        1, 128, bvBin(BVBinOp::Add, lane(0, 128), lane(1, 128)), {128, 128});
    EXPECT_EQ(LaneKernel::compile(sem, {}, {}), nullptr);
}

TEST(LaneKernel, OutOfRangeExtractFallsBack)
{
    // The last lane reads past the argument: the interpreter raises,
    // so the kernel must not exist.
    const CanonicalSemantics sem = uniform(
        4, 16,
        extract(argBV(0), addI(mulI(loopVar(0), intConst(16)), intConst(8)),
                intConst(16)),
        {64});
    EXPECT_EQ(LaneKernel::compile(sem, {}, {}), nullptr);
    EXPECT_THROW(sem.evaluate({BitVector(64)}, {}), AssertionError);
}

TEST(LaneKernel, SelectWithUnevaluableArmFallsBack)
{
    // The interpreter only evaluates the chosen arm; the kernel
    // evaluates both, so an arm that would raise keeps the
    // interpreter even though this select never chooses it.
    const ExprPtr never = bvCmp(BVCmpOp::Ne, lane(0, 16), lane(0, 16));
    const ExprPtr bad = extract(argBV(0), intConst(60), intConst(16));
    const CanonicalSemantics sem =
        uniform(4, 16, select(never, bad, lane(0, 16)), {64});
    EXPECT_EQ(LaneKernel::compile(sem, {}, {}), nullptr);
    Rng rng(8);
    const BitVector a = BitVector::random(64, rng);
    EXPECT_EQ(sem.evaluate({a}, {}), a);
}

TEST(LaneKernel, ImmediateCountMismatchFallsBack)
{
    CanonicalSemantics sem = uniform(
        4, 16, bvBin(BVBinOp::Shl, lane(0, 16),
                     bvConst(intConst(16), namedVar("imm"))),
        {64});
    sem.int_args = {"imm"};
    EXPECT_EQ(LaneKernel::compile(sem, {}, {}), nullptr);
    EXPECT_NE(LaneKernel::compile(sem, {}, {3}), nullptr);
}

} // namespace
} // namespace hydride
