/**
 * @file
 * Tests for the AutoLLVM dictionary, module execution/printing,
 * TableGen emission and the 1-1 target lowering (retargeting across
 * ISAs included).
 */
#include <gtest/gtest.h>

#include "autollvm/module.h"
#include "autollvm/tablegen.h"
#include "codegen/lowering.h"
#include "specs/spec_db.h"
#include "support/error.h"
#include "support/rng.h"

namespace hydride {
namespace {

/** A small multi-ISA dictionary shared by the tests. */
const AutoLLVMDict &
dict()
{
    static const AutoLLVMDict d = [] {
        std::vector<CanonicalSemantics> insts;
        auto grab = [&](const char *isa, const char *name) {
            for (const auto &sem : isaSemantics(isa).insts)
                if (sem.name == name)
                    insts.push_back(sem);
        };
        grab("x86", "_mm256_add_epi16");
        grab("x86", "_mm_add_epi8");
        grab("arm", "vaddq_s16");
        grab("hvx", "vaddh_64B");
        grab("x86", "_mm256_mullo_epi16");
        grab("arm", "vmulq_s16");
        grab("x86", "_mm256_madd_epi16");
        grab("x86", "_mm256_slli_epi16");
        return AutoLLVMDict(runSimilarityEngine(insts));
    }();
    return d;
}

AutoOpVariant
variantFor(const std::string &inst_name)
{
    const int class_id = dict().classOfInstruction(inst_name);
    EXPECT_GE(class_id, 0) << inst_name;
    const auto &members = dict().cls(class_id).members;
    for (size_t m = 0; m < members.size(); ++m)
        if (members[m].name == inst_name)
            return {class_id, static_cast<int>(m)};
    ADD_FAILURE() << inst_name << " not a member of its class";
    return {class_id, 0};
}

TEST(AutoLLVMDict, ClassesGroupAcrossIsas)
{
    // add family (x86 x2 + arm + hvx) in one class; mul in another.
    const int add_class = dict().classOfInstruction("_mm256_add_epi16");
    EXPECT_EQ(dict().classOfInstruction("vaddq_s16"), add_class);
    EXPECT_EQ(dict().classOfInstruction("vaddh_64B"), add_class);
    EXPECT_EQ(dict().classOfInstruction("_mm_add_epi8"), add_class);
    const int mul_class = dict().classOfInstruction("_mm256_mullo_epi16");
    EXPECT_EQ(dict().classOfInstruction("vmulq_s16"), mul_class);
    EXPECT_NE(add_class, mul_class);
}

TEST(AutoLLVMDict, IsaVariantIndexIsComplete)
{
    size_t total = 0;
    for (const auto &isa : builtinIsas())
        total += dict().isaVariants(isa).size();
    size_t members = 0;
    for (int c = 0; c < dict().classCount(); ++c)
        members += dict().cls(c).members.size();
    EXPECT_EQ(total, members);
}

TEST(AutoLLVMDict, RunExecutesVariantSemantics)
{
    AutoOpVariant add = variantFor("_mm256_add_epi16");
    Rng rng(51);
    BitVector a = BitVector::random(256, rng);
    BitVector b = BitVector::random(256, rng);
    BitVector out = dict().run(add, {a, b});
    for (int e = 0; e < 16; ++e)
        EXPECT_EQ(out.extract(e * 16, 16),
                  a.extract(e * 16, 16).add(b.extract(e * 16, 16)));
}

AutoModule
maddModule()
{
    // %0 = mullo(a, b); %1 = add(%0, c) -- on 256-bit x86 variants.
    AutoModule module;
    module.input_widths = {256, 256, 256};
    AutoInst mul;
    mul.op = variantFor("_mm256_mullo_epi16");
    mul.args = {ValueRef::input(0), ValueRef::input(1)};
    module.insts.push_back(mul);
    AutoInst add;
    add.op = variantFor("_mm256_add_epi16");
    add.args = {ValueRef::inst(0), ValueRef::input(2)};
    module.insts.push_back(add);
    return module;
}

TEST(AutoModule, EvaluatesDataflow)
{
    AutoModule module = maddModule();
    Rng rng(52);
    BitVector a = BitVector::random(256, rng);
    BitVector b = BitVector::random(256, rng);
    BitVector c = BitVector::random(256, rng);
    BitVector out = module.evaluate(dict(), {a, b, c});
    for (int e = 0; e < 16; ++e) {
        BitVector expect = a.extract(e * 16, 16)
                               .mul(b.extract(e * 16, 16))
                               .add(c.extract(e * 16, 16));
        EXPECT_EQ(out.extract(e * 16, 16), expect);
    }
}

TEST(AutoModule, CostSumsLatencies)
{
    AutoModule module = maddModule();
    // mullo latency 5 + add latency 1.
    EXPECT_EQ(module.cost(dict()), 6);
}

TEST(AutoModule, PrintsLlvmLikeText)
{
    const std::string text = maddModule().print(dict());
    EXPECT_NE(text.find("@autollvm.g"), std::string::npos);
    EXPECT_NE(text.find("<16 x i16>"), std::string::npos);
    EXPECT_NE(text.find("_mm256_mullo_epi16"), std::string::npos);
    EXPECT_NE(text.find("%arg2"), std::string::npos);
}

TEST(TableGen, EmitsOneIntrinsicPerClass)
{
    const std::string td = emitTableGen(dict());
    for (int c = 0; c < dict().classCount(); ++c) {
        const std::string def =
            "def int_autollvm_g" + std::to_string(c);
        EXPECT_NE(td.find(def), std::string::npos) << def;
    }
    EXPECT_NE(td.find("Pattern"), std::string::npos);
    EXPECT_NE(td.find("IntrNoMem"), std::string::npos);
}

TEST(Lowering, SameIsaIsIdentity)
{
    LoweringResult lowered = lowerToTarget(maddModule(), dict(), "x86");
    ASSERT_TRUE(lowered.ok) << lowered.error;
    ASSERT_EQ(lowered.program.insts.size(), 2u);
    EXPECT_EQ(lowered.program.insts[0].inst_name, "_mm256_mullo_epi16");
    EXPECT_EQ(lowered.program.insts[1].inst_name, "_mm256_add_epi16");
    EXPECT_EQ(lowered.program.cost(), 6);
}

TEST(Lowering, RetargetsAcrossIsasWhenParametersMatch)
{
    // The same AutoLLVM module lowers to ARM: vaddq_s16/vmulq_s16 are
    // the 128-bit members, so a 256-bit module must fail, while a
    // 128-bit ARM-parameterized module must succeed.
    AutoModule module;
    module.input_widths = {128, 128};
    AutoInst add;
    add.op = variantFor("vaddq_s16");
    add.args = {ValueRef::input(0), ValueRef::input(1)};
    module.insts.push_back(add);

    // From the ARM variant, lowering to x86 retargets to the 128-bit
    // x86 member... which exists only if parameters line up. Our
    // dictionary has _mm_add_epi8 (8-bit elems), not _mm_add_epi16,
    // so x86 lowering must fail while ARM lowering succeeds.
    LoweringResult to_arm = lowerToTarget(module, dict(), "arm");
    ASSERT_TRUE(to_arm.ok) << to_arm.error;
    LoweringResult to_x86 = lowerToTarget(module, dict(), "x86");
    EXPECT_FALSE(to_x86.ok);

    // And the 256-bit x86 add retargets to nothing on HVX (512-bit).
    LoweringResult to_hvx = lowerToTarget(maddModule(), dict(), "hvx");
    EXPECT_FALSE(to_hvx.ok);
}

TEST(Lowering, LoweredProgramMatchesAutoModuleSemantics)
{
    AutoModule module = maddModule();
    LoweringResult lowered = lowerToTarget(module, dict(), "x86");
    ASSERT_TRUE(lowered.ok);
    Rng rng(53);
    std::vector<BitVector> inputs = {BitVector::random(256, rng),
                                     BitVector::random(256, rng),
                                     BitVector::random(256, rng)};
    EXPECT_EQ(lowered.program.evaluate(dict(), inputs),
              module.evaluate(dict(), inputs));
}

TEST(Lowering, ImmediateOperandsFlowThrough)
{
    AutoModule module;
    module.input_widths = {256};
    AutoInst shift;
    shift.op = variantFor("_mm256_slli_epi16");
    shift.args = {ValueRef::input(0)};
    shift.int_args = {3};
    module.insts.push_back(shift);

    LoweringResult lowered = lowerToTarget(module, dict(), "x86");
    ASSERT_TRUE(lowered.ok) << lowered.error;
    Rng rng(54);
    BitVector a = BitVector::random(256, rng);
    BitVector out = lowered.program.evaluate(dict(), {a});
    EXPECT_EQ(out.extract(0, 16), a.extract(0, 16).shl(3));
    EXPECT_NE(lowered.program.print().find(", 3"), std::string::npos);
}

TEST(Lowering, OutOfRangeValueReferencesThrow)
{
    // Every value reference of a target program is range-checked: a
    // bad index throws AssertionError instead of reading out of bounds.
    LoweringResult lowered = lowerToTarget(maddModule(), dict(), "x86");
    ASSERT_TRUE(lowered.ok) << lowered.error;
    Rng rng(55);
    const std::vector<BitVector> inputs = {BitVector::random(256, rng),
                                           BitVector::random(256, rng),
                                           BitVector::random(256, rng)};
    ASSERT_NO_THROW(lowered.program.evaluate(dict(), inputs));

    for (const ValueRef &bad :
         {ValueRef::input(3), ValueRef::input(-1), ValueRef::constant(0),
          ValueRef::inst(1)}) {
        TargetProgram program = lowered.program;
        program.insts[0].args[0] = bad;
        EXPECT_THROW(program.evaluate(dict(), inputs), AssertionError)
            << "kind " << bad.kind << " index " << bad.index;
    }

    TargetProgram multi = lowered.program;
    multi.results = {ValueRef::inst(1), ValueRef::input(7)};
    EXPECT_THROW(multi.evaluate(dict(), inputs), AssertionError);
    TargetProgram result = lowered.program;
    result.result = 2;
    EXPECT_THROW(result.evaluate(dict(), inputs), AssertionError);
}

} // namespace
} // namespace hydride
