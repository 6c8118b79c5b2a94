/**
 * @file
 * End-to-end integration tests: the complete pipeline from vendor
 * pseudocode to validated target programs, exercised the way the
 * benchmark harnesses use it, plus cross-module properties that no
 * unit test covers (parse -> canonicalize -> extract -> class ->
 * dictionary -> synthesis -> lowering -> execution round trips).
 */
#include <gtest/gtest.h>

#include <set>

#include "autollvm/tablegen.h"
#include "backends/simulator.h"
#include "backends/targets.h"
#include "driver/resilience.h"
#include "hir/printer.h"
#include "similarity/extraction.h"
#include "specs/spec_db.h"
#include "support/rng.h"

namespace hydride {
namespace {

const AutoLLVMDict &
dict()
{
    static const AutoLLVMDict d = AutoLLVMDict::build({"x86", "hvx", "arm"});
    return d;
}

TEST(Integration, IsaSizesAreInThePaperRegime)
{
    EXPECT_GT(isaSemantics("x86").insts.size(), 1000u);
    EXPECT_GT(isaSemantics("hvx").insts.size(), 200u);
    EXPECT_GT(isaSemantics("arm").insts.size(), 700u);
}

TEST(Integration, CombinedDictionaryCompressesLikeTable1)
{
    const size_t total = isaSemantics("x86").insts.size() +
                         isaSemantics("hvx").insts.size() +
                         isaSemantics("arm").insts.size();
    const size_t classes = static_cast<size_t>(dict().classCount());
    // The paper's combined ratio is 11.2%; ours must be in the same
    // order (well under 20%).
    EXPECT_LT(classes * 5, total);
    // And combining must share classes across ISAs: strictly fewer
    // classes than the per-ISA sums.
    const size_t separate =
        runSimilarityEngine(isaSemantics("x86").insts).size() +
        runSimilarityEngine(isaSemantics("hvx").insts).size() +
        runSimilarityEngine(isaSemantics("arm").insts).size();
    EXPECT_LT(classes, separate);
}

TEST(Integration, EveryMemberOfEveryClassVerifies)
{
    // The whole-corpus analogue of the similarity engine's pass 3:
    // instantiate each class representative with each member's
    // parameters and compare against the member's concrete semantics.
    Rng rng(0xE2E);
    int checked = 0;
    for (int c = 0; c < dict().classCount(); ++c) {
        const EquivalenceClass &cls = dict().cls(c);
        // Sample a few members per class to keep runtime bounded.
        for (size_t m = 0; m < cls.members.size();
             m += std::max<size_t>(1, cls.members.size() / 3)) {
            const ClassMember &member = cls.members[m];
            std::vector<BitVector> args;
            for (size_t a = 0; a < member.concrete.bv_args.size(); ++a)
                args.push_back(BitVector::random(
                    member.concrete.argWidth(static_cast<int>(a), {}),
                    rng));
            std::vector<BitVector> rep_args;
            for (size_t k = 0; k < member.arg_perm.size(); ++k)
                rep_args.push_back(args[member.arg_perm[k]]);
            std::vector<int64_t> imms(member.concrete.int_args.size(), 1);
            EXPECT_EQ(cls.rep.evaluate(rep_args, member.param_values, imms),
                      member.concrete.evaluate(args, {}, imms))
                << member.name;
            ++checked;
        }
    }
    EXPECT_GT(checked, 500);
}

TEST(Integration, TableGenCoversTheWholeDictionary)
{
    const std::string td = emitTableGen(dict());
    // Every member instruction appears in a lowering pattern.
    std::set<std::string> sampled = {"_mm512_dpwssd_epi32",
                                     "vdmpyh_acc_128B", "vqaddq_s16",
                                     "_mm256_unpacklo_epi16"};
    for (const auto &name : sampled)
        EXPECT_NE(td.find(name), std::string::npos) << name;
}

TEST(Integration, ExtractionRoundTripsOnRandomInstructions)
{
    // Property: extraction never changes behaviour — for a sample of
    // instructions across all ISAs, the symbolic semantics evaluated
    // at the recorded parameter values equals the concrete semantics.
    Rng rng(0x0DD);
    for (const auto &isa : builtinIsas()) {
        const auto &insts = isaSemantics(isa).insts;
        for (size_t i = 0; i < insts.size(); i += 37) {
            const CanonicalSemantics &concrete = insts[i];
            CanonicalSemantics sym = extractConstants(concrete);
            std::vector<BitVector> args;
            for (size_t a = 0; a < concrete.bv_args.size(); ++a)
                args.push_back(BitVector::random(
                    concrete.argWidth(static_cast<int>(a), {}), rng));
            std::vector<int64_t> imms(concrete.int_args.size(), 1);
            EXPECT_EQ(sym.evaluate(args, sym.defaultParamValues(), imms),
                      concrete.evaluate(args, {}, imms))
                << isa << ":" << concrete.name;
        }
    }
}

TEST(Integration, PrinterHandlesEveryCanonicalInstruction)
{
    // Smoke property: printing never crashes and always mentions the
    // instruction name and the loop nest.
    for (const auto &isa : builtinIsas()) {
        const auto &insts = isaSemantics(isa).insts;
        for (size_t i = 0; i < insts.size(); i += 53) {
            const std::string text = printSemantics(insts[i]);
            EXPECT_NE(text.find(insts[i].name), std::string::npos);
            EXPECT_NE(text.find("for %i"), std::string::npos);
        }
    }
}

TEST(Integration, HydrideCompilesAndValidatesEveryKernelEverywhere)
{
    for (const auto &target : evaluationTargets()) {
        SynthesisCache cache;
        HydrideBackend hydride(dict(), target.isa, target.vector_bits, {},
                               &cache);
        for (const auto &name : kernelNames()) {
            Schedule schedule;
            schedule.vector_bits = target.vector_bits;
            Kernel kernel = buildKernel(name, schedule);
            CompiledKernel compiled;
            ASSERT_TRUE(hydride.compile(kernel, compiled))
                << target.isa << "/" << name;
            EXPECT_TRUE(validateCompiled(dict(), compiled, kernel))
                << target.isa << "/" << name;
            EXPECT_GT(simulateCycles(compiled, kernel, target.sim), 0.0);
        }
    }
}

TEST(Integration, SynthesisBeatsOrMatchesExpansionOnEveryWindow)
{
    // Hydride must never produce worse code than its own fallback.
    for (const auto &target : evaluationTargets()) {
        HydrideBackend hydride(dict(), target.isa, target.vector_bits);
        LlvmStyleBackend llvm(dict(), target.isa, target.vector_bits);
        for (const auto &name :
             {"matmul_b1", "conv_nn", "add", "average_pool"}) {
            Schedule schedule;
            schedule.vector_bits = target.vector_bits;
            Kernel kernel = buildKernel(name, schedule);
            CompiledKernel ch;
            CompiledKernel cl;
            ASSERT_TRUE(hydride.compile(kernel, ch));
            if (!llvm.compile(kernel, cl))
                continue; // Baseline may fail (paper-faithful).
            EXPECT_LE(ch.staticCost(), cl.staticCost())
                << target.isa << "/" << name;
        }
    }
}

TEST(Integration, RescheduledKernelsHitTheCache)
{
    SynthesisCache cache;
    ResilientCompiler compiler(dict(), "x86", 512, {}, &cache);
    Schedule schedule;
    schedule.vector_bits = 512;
    compiler.compile(buildKernel("conv_nn", schedule));
    const int misses = cache.misses();
    Schedule rescheduled = schedule;
    rescheduled.unroll = 4;
    rescheduled.tile = 32;
    ResilientCompilation warm =
        compiler.compile(buildKernel("conv_nn", rescheduled));
    EXPECT_EQ(cache.misses(), misses); // No new synthesis needed.
    for (const auto &window : warm.windows) {
        EXPECT_TRUE(window.cache_outcome == "hit" ||
                    window.cache_outcome == "negative")
            << window.cache_outcome;
    }
}

} // namespace
} // namespace hydride
