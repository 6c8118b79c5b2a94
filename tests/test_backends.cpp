/**
 * @file
 * Tests for the comparison backends (production-Halide-style,
 * LLVM-style, Rake-like, Hydride), the macro expander's functional
 * correctness, and the performance simulator.
 */
#include <gtest/gtest.h>

#include "backends/simulator.h"
#include "backends/targets.h"
#include "specs/spec_db.h"
#include "support/faults.h"
#include "support/rng.h"

namespace hydride {
namespace {

const AutoLLVMDict &
dict()
{
    static const AutoLLVMDict d = AutoLLVMDict::build({"x86", "hvx", "arm"});
    return d;
}

Kernel
kernelFor(const std::string &name, int vector_bits)
{
    Schedule schedule;
    schedule.vector_bits = vector_bits;
    return buildKernel(name, schedule);
}

TEST(Targets, ThreePaperTargets)
{
    ASSERT_EQ(evaluationTargets().size(), 3u);
    EXPECT_EQ(evaluationTargets()[0].isa, "x86");
    EXPECT_EQ(evaluationTargets()[1].isa, "hvx");
    EXPECT_EQ(evaluationTargets()[2].isa, "arm");
}

TEST(MacroExpander, EveryKernelExpandsAndValidatesOnEveryTarget)
{
    for (const auto &target : evaluationTargets()) {
        LlvmStyleBackend backend(dict(), target.isa, target.vector_bits);
        for (const auto &name : kernelNames()) {
            Kernel kernel = kernelFor(name, target.vector_bits);
            CompiledKernel compiled;
            ASSERT_TRUE(backend.compile(kernel, compiled))
                << target.isa << "/" << name;
            EXPECT_TRUE(validateCompiled(dict(), compiled, kernel))
                << target.isa << "/" << name;
        }
    }
}

TEST(HalideProdBackend, UsesMaddOnX86Matmul)
{
    HalideProdBackend backend(dict(), "x86", 512);
    Kernel kernel = kernelFor("matmul_b1", 512);
    CompiledKernel compiled;
    ASSERT_TRUE(backend.compile(kernel, compiled));
    ASSERT_EQ(compiled.programs.size(), 1u);
    ASSERT_EQ(compiled.programs[0].insts.size(), 2u);
    EXPECT_EQ(compiled.programs[0].insts[0].inst_name,
              "_mm512_madd_epi16");
    EXPECT_TRUE(validateCompiled(dict(), compiled, kernel));
}

TEST(HalideProdBackend, HvxMatmulMissesTheAccumulatingFusion)
{
    // §6.3 / Table 3 row 1: the production HVX backend reaches vdmpy
    // but not the accumulating fusion Hydride synthesizes, so it
    // emits a separate wide add.
    HalideProdBackend backend(dict(), "hvx", 1024);
    Kernel kernel = kernelFor("matmul_b1", 1024);
    CompiledKernel compiled;
    ASSERT_TRUE(backend.compile(kernel, compiled));
    ASSERT_EQ(compiled.programs[0].insts.size(), 2u);
    EXPECT_EQ(compiled.programs[0].insts[0].inst_name, "vdmpyh_128B");
    EXPECT_EQ(compiled.programs[0].insts[0].inst_name.find("_acc"),
              std::string::npos);
    EXPECT_TRUE(validateCompiled(dict(), compiled, kernel));
}

TEST(HalideProdBackend, SpecialCasesGaussian7x7OnHvx)
{
    HalideProdBackend backend(dict(), "hvx", 1024);
    Kernel kernel = kernelFor("gaussian7x7", 1024);
    CompiledKernel compiled;
    ASSERT_TRUE(backend.compile(kernel, compiled));
    EXPECT_TRUE(compiled.cost_model_only);
    // The fused vrmpy sequence is much cheaper than plain expansion.
    LlvmStyleBackend llvm(dict(), "hvx", 1024);
    CompiledKernel plain;
    ASSERT_TRUE(llvm.compile(kernel, plain));
    EXPECT_LT(compiled.staticCost(), plain.staticCost());
}

TEST(RakeBackend, FailsOutsideItsSupportedSet)
{
    RakeBackend backend(dict(), "hvx", 1024);
    CompiledKernel compiled;
    EXPECT_FALSE(backend.compile(kernelFor("gaussian3x3", 1024), compiled));
    EXPECT_TRUE(backend.compile(kernelFor("add", 1024), compiled));
    EXPECT_TRUE(validateCompiled(dict(), compiled,
                                 kernelFor("add", 1024)));

    RakeBackend arm_backend(dict(), "arm", 128);
    EXPECT_FALSE(arm_backend.compile(kernelFor("add", 128), compiled));
}

TEST(RakeBackend, AvoidsTheInstructionsRakeLacks)
{
    RakeBackend backend(dict(), "hvx", 1024);
    CompiledKernel compiled;
    ASSERT_TRUE(backend.compile(kernelFor("matmul_b1", 1024), compiled));
    for (const auto &program : compiled.programs) {
        for (const auto &inst : program.insts) {
            EXPECT_EQ(inst.inst_name.find("_acc"), std::string::npos);
            EXPECT_EQ(inst.inst_name.find("vrmpy"), std::string::npos);
        }
    }
    EXPECT_TRUE(
        validateCompiled(dict(), compiled, kernelFor("matmul_b1", 1024)));
}

TEST(HydrideBackend, BeatsLlvmStyleOnMatmul)
{
    HydrideBackend hydride(dict(), "x86", 512);
    LlvmStyleBackend llvm(dict(), "x86", 512);
    Kernel kernel = kernelFor("matmul_b1", 512);
    CompiledKernel h;
    CompiledKernel l;
    ASSERT_TRUE(hydride.compile(kernel, h));
    ASSERT_TRUE(llvm.compile(kernel, l));
    EXPECT_TRUE(validateCompiled(dict(), h, kernel));
    EXPECT_LT(h.staticCost(), l.staticCost());
    EXPECT_LT(simulateCycles(h, kernel), simulateCycles(l, kernel));
}

TEST(HydrideBackend, SplitWindowsStillValidate)
{
    SynthesisOptions options;
    options.window_depth = 4;
    HydrideBackend hydride(dict(), "hvx", 1024, options);
    Kernel kernel = kernelFor("gaussian5x5", 1024);
    CompiledKernel compiled;
    ASSERT_TRUE(hydride.compile(kernel, compiled));
    EXPECT_GE(compiled.programs.size(), kernel.windows.size());
    EXPECT_TRUE(validateCompiled(dict(), compiled, kernel));
}

TEST(HydrideBackend, ScalarizedWindowFailsTheCompileInsteadOfThrowing)
{
    // With lowering and macro expansion both failing, every window
    // ends on the Scalarized rung, which has no target program.
    ASSERT_TRUE(faults::configure("lowering.fail,macro.fail"));
    HydrideBackend hydride(dict(), "x86", 512);
    CompiledKernel compiled;
    bool ok = true;
    EXPECT_NO_THROW(ok = hydride.compile(kernelFor("add", 512), compiled));
    faults::reset();
    EXPECT_FALSE(ok);
}

TEST(Simulator, CyclesScaleWithIterationsAndCost)
{
    LlvmStyleBackend backend(dict(), "x86", 512);
    Kernel small = kernelFor("add", 512);
    CompiledKernel compiled;
    ASSERT_TRUE(backend.compile(small, compiled));
    const double cycles = simulateCycles(compiled, small);
    EXPECT_GT(cycles, 0.0);
    Kernel tiled = small;
    tiled.iterations *= 2;
    EXPECT_NEAR(simulateCycles(compiled, tiled), 2 * cycles, 1e-6);

    SimConfig pricier;
    pricier.load_cost = 10.0;
    EXPECT_GT(simulateCycles(compiled, small, pricier), cycles);
}

TEST(Simulator, ValidationCatchesWrongPrograms)
{
    LlvmStyleBackend backend(dict(), "x86", 512);
    Kernel kernel = kernelFor("add", 512);
    CompiledKernel compiled;
    ASSERT_TRUE(backend.compile(kernel, compiled));
    ASSERT_TRUE(validateCompiled(dict(), compiled, kernel));
    // Corrupt the program: swap in a different window.
    CompiledKernel broken = compiled;
    broken.windows[0] = kernelFor("max_pool", 512).windows[0];
    EXPECT_FALSE(validateCompiled(dict(), broken, kernel));
}

} // namespace
} // namespace hydride
