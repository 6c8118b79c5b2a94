/**
 * @file
 * Tests for the code synthesizer: grammar pruning (BVS/SBOS/swizzle
 * inclusion), lane scaling, CEGIS end-to-end synthesis of the
 * paper's flagship dot-product windows, the memoization cache, and
 * the compile driver with window splitting.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "driver/resilience.h"
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

HExprPtr
matmulWindow(int vector_bits)
{
    Schedule schedule;
    schedule.vector_bits = vector_bits;
    return buildKernel("matmul_b1", schedule).windows[0];
}

TEST(Grammar, BvsPrunesUnrelatedClasses)
{
    HExprPtr window = matmulWindow(512);
    GrammarOptions with;
    GrammarOptions without;
    without.bvs = false;
    without.sbos = false;
    Grammar pruned = buildGrammar(dict(), "x86", window, 1, with);
    Grammar full = buildGrammar(dict(), "x86", window, 1, without);
    EXPECT_GT(pruned.ops.size(), 0u);
    EXPECT_LT(pruned.ops.size(), full.ops.size() / 2);
}

TEST(Grammar, SbosCapsPerClassVariants)
{
    HExprPtr window = matmulWindow(512);
    GrammarOptions k2;
    k2.k = 1;
    GrammarOptions k8;
    k8.k = 8;
    Grammar small = buildGrammar(dict(), "x86", window, 1, k2);
    Grammar large = buildGrammar(dict(), "x86", window, 1, k8);
    EXPECT_LE(small.ops.size(), large.ops.size());
}

TEST(Grammar, SwizzlesAreAlwaysIncluded)
{
    HExprPtr window = matmulWindow(512);
    GrammarOptions options;
    Grammar grammar = buildGrammar(dict(), "x86", window, 1, options);
    bool has_swizzle = false;
    for (const auto &op : grammar.ops)
        has_swizzle |= isSwizzleClass(dict().cls(op.variant.class_id));
    EXPECT_TRUE(has_swizzle);
}

TEST(Grammar, MaxOpsCapsGlobally)
{
    HExprPtr window = matmulWindow(512);
    GrammarOptions options;
    options.bvs = false;
    options.sbos = false;
    options.max_ops = 50;
    Grammar grammar = buildGrammar(dict(), "x86", window, 1, options);
    EXPECT_EQ(grammar.ops.size(), 50u);
}

TEST(Grammar, ImmPoolComesFromTheWindow)
{
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel gauss = buildKernel("gaussian3x3", schedule);
    Grammar grammar =
        buildGrammar(dict(), "x86", gauss.windows[1], 1, {});
    // The column window shifts right by 4.
    EXPECT_NE(std::find(grammar.imm_pool.begin(), grammar.imm_pool.end(),
                        4),
              grammar.imm_pool.end());
}

TEST(ScaleWindow, DividesEveryLaneCount)
{
    HExprPtr window = matmulWindow(512);
    HExprPtr scaled = scaleWindow(window, 4);
    ASSERT_TRUE(scaled);
    EXPECT_EQ(scaled->lanes, window->lanes / 4);
    // Semantics at the scaled width track the original structure.
    Rng rng(91);
    std::vector<BitVector> inputs = {BitVector::random(128, rng),
                                     BitVector::random(128, rng),
                                     BitVector::random(128, rng)};
    BitVector out = evalHalide(scaled, inputs);
    EXPECT_EQ(out.width(), 128);
}

/** A gaussian kernel's column window as the compile driver splits it;
 *  its last piece is satnarrow_u8(lshr(concat(x, y), k)). */
HExprPtr
columnWindow(const char *kernel, int vector_bits)
{
    Schedule schedule;
    schedule.vector_bits = vector_bits;
    const HExprPtr window = buildKernel(kernel, schedule).windows.at(1);
    return splitWindow(window, SynthesisOptions{}.window_depth,
                       halideInputCount(window), vector_bits)
        .back();
}

TEST(ScaleWindow, RefusesCrossRegisterLaneSelection)
{
    // Its solutions take the odd or even lanes of two registers, which
    // a scaled grammar cannot express: the window stays at scale 1.
    const HExprPtr window = columnWindow("gaussian3x3", 1024);
    ASSERT_EQ(window->kids.at(0)->kids.at(0)->op, HOp::Concat);
    EXPECT_EQ(scaleWindow(window, 1), window);
    EXPECT_EQ(scaleWindow(window, 2), nullptr);
}

TEST(ScaleParams, ScalesCountAndRegWidthOnly)
{
    const int class_id = dict().classOfInstruction("_mm512_add_epi16");
    const EquivalenceClass &cls = dict().cls(class_id);
    for (size_t m = 0; m < cls.members.size(); ++m) {
        if (cls.members[m].name != "_mm512_add_epi16")
            continue;
        std::vector<int64_t> scaled;
        ASSERT_TRUE(scaleParams(cls, cls.members[m].param_values, 4,
                                scaled));
        EXPECT_EQ(cls.rep.outputWidth(scaled), 128);
        // Element width is untouched.
        EvalEnv env;
        env.param_values = &scaled;
        EXPECT_EQ(evalInt(cls.rep.elem_width, env), 16);
    }
}

TEST(Cegis, SynthesizesDpwssdForX86Matmul)
{
    SynthesisResult result =
        synthesizeWindow(dict(), "x86", matmulWindow(512));
    ASSERT_TRUE(result.ok) << result.note;
    ASSERT_EQ(result.module.insts.size(), 1u);
    EXPECT_EQ(result.module.insts[0].op.member(dict()).name,
              "_mm512_dpwssd_epi32");
    EXPECT_EQ(result.cost, 5);
    EXPECT_GT(result.scale, 1);
}

TEST(Cegis, SynthesizesVdmpyAccForHvxMatmul)
{
    SynthesisResult result =
        synthesizeWindow(dict(), "hvx", matmulWindow(1024));
    ASSERT_TRUE(result.ok) << result.note;
    ASSERT_EQ(result.module.insts.size(), 1u);
    EXPECT_EQ(result.module.insts[0].op.member(dict()).name,
              "vdmpyh_acc_128B");
}

TEST(Cegis, SynthesizedModuleIsCorrectAtFullWidth)
{
    HExprPtr window = matmulWindow(512);
    SynthesisResult result = synthesizeWindow(dict(), "x86", window);
    ASSERT_TRUE(result.ok);
    Rng rng(92);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<BitVector> inputs;
        for (int w : result.module.input_widths)
            inputs.push_back(BitVector::random(w, rng));
        EXPECT_EQ(result.module.evaluate(dict(), inputs),
                  evalHalide(window, inputs));
    }
}

TEST(Cegis, SingleInstructionWindowsSynthesizeDirectly)
{
    // Saturating u8 add: one instruction on every target.
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel add = buildKernel("add", schedule);
    SynthesisResult result =
        synthesizeWindow(dict(), "x86", add.windows[0]);
    ASSERT_TRUE(result.ok) << result.note;
    EXPECT_EQ(result.cost, 1);
    EXPECT_EQ(result.module.insts.size(), 1u);
}

TEST(Cegis, LaneScalingReportsScaleFactor)
{
    SynthesisResult result =
        synthesizeWindow(dict(), "x86", matmulWindow(512));
    ASSERT_TRUE(result.ok);
    EXPECT_GE(result.scale, 2);

    SynthesisOptions no_scaling;
    no_scaling.scaling = false;
    SynthesisResult unscaled =
        synthesizeWindow(dict(), "x86", matmulWindow(512), no_scaling);
    ASSERT_TRUE(unscaled.ok);
    EXPECT_EQ(unscaled.scale, 1);
    EXPECT_EQ(unscaled.cost, result.cost);
}

TEST(Cegis, LaneSelectingWindowsSynthesizeInOneSearch)
{
    // The gaussian column windows of Fig. 6 that only an unscaled
    // search solves: each is searched once, at scale 1, and lowers to
    // the program the Fig. 6 journal records for it.
    struct Case
    {
        const char *isa;
        int vector_bits;
        const char *kernel;
        int cost;
        std::vector<std::string> insts;
    };
    const Case cases[] = {
        {"hvx", 1024, "gaussian7x7", 1, {"vpackob_128B"}},
        {"arm", 128, "gaussian7x7", 1, {"vuzp2q_s8"}},
        {"hvx", 1024, "gaussian3x3", 3,
         {"vlsrh_imm_128B", "vlsrh_imm_128B", "vpackubb_sat_128B"}},
        {"hvx", 1024, "gaussian5x5", 3,
         {"vlsrh_imm_128B", "vlsrh_imm_128B", "vpackubb_sat_128B"}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.isa) + " " + c.kernel);
        const SynthesisResult result = synthesizeWindow(
            dict(), c.isa, columnWindow(c.kernel, c.vector_bits));
        ASSERT_TRUE(result.ok) << result.note;
        EXPECT_EQ(result.scale, 1);
        EXPECT_EQ(result.note, "");
        EXPECT_EQ(result.cost, c.cost);
        const LoweringResult lowered =
            lowerToTarget(result.module, dict(), c.isa);
        ASSERT_TRUE(lowered.ok) << lowered.error;
        std::vector<std::string> insts;
        for (const auto &inst : lowered.program.insts)
            insts.push_back(inst.inst_name);
        EXPECT_EQ(insts, c.insts);
    }
}

TEST(Cegis, FourOperandCandidatesEnumerateSafely)
{
    // sobel3x3's final 8-bit window at 256 bits: it concatenates
    // registers, so it is searched at scale 1, and its x86 grammar
    // holds masked saturating adds (`_mm256_mask_adds_epi8`: src, mask,
    // a, b), which depth 2 combines with mask-width values. The search
    // must finish exhausted, not crash or abort, well inside a
    // deadline it never reaches.
    Schedule schedule;
    schedule.vector_bits = 256;
    const HExprPtr window = buildKernel("sobel3x3", schedule).windows[2];
    const Grammar grammar =
        buildGrammar(dict(), "x86", window, 1, GrammarOptions{});
    int widest = 0;
    for (const auto &op : grammar.ops)
        widest = std::max(widest, static_cast<int>(op.arg_widths.size()));
    ASSERT_EQ(widest, kMaxOpOperands);

    SynthesisOptions options;
    options.max_insts = 2;
    options.max_combos = 200;
    SynthesisResult result =
        synthesizeWindow(dict(), "x86", window, options);
    EXPECT_EQ(result.scale, 1);
    EXPECT_EQ(result.note.rfind("search exhausted", 0), 0u) << result.note;
    EXPECT_EQ(result.note.find("timeout"), std::string::npos) << result.note;
}

TEST(Cegis, StaticPruningPreservesResultAndRejectsCandidates)
{
    // Default options: the abstract-interpretation tier discards
    // candidates whose output range cannot contain the spec outputs,
    // before any concrete evaluation.
    SynthesisResult pruned =
        synthesizeWindow(dict(), "x86", matmulWindow(512));
    ASSERT_TRUE(pruned.ok) << pruned.note;
    EXPECT_GT(pruned.candidates_rejected_static, 0);

    // Pruning only removes candidates that can never match, so the
    // search must land on the same winner at the same cost without it.
    SynthesisOptions no_prune;
    no_prune.static_prune = false;
    SynthesisResult unpruned =
        synthesizeWindow(dict(), "x86", matmulWindow(512), no_prune);
    ASSERT_TRUE(unpruned.ok) << unpruned.note;
    EXPECT_EQ(unpruned.candidates_rejected_static, 0);
    ASSERT_EQ(unpruned.module.insts.size(), pruned.module.insts.size());
    EXPECT_EQ(pruned.module.insts[0].op.member(dict()).name,
              unpruned.module.insts[0].op.member(dict()).name);
    EXPECT_EQ(pruned.cost, unpruned.cost);
}

TEST(Cegis, SymbolicCounterexampleRejectsWrongCandidate)
{
    // x +sat 1 on unsigned bytes differs from a wrapping x + 1 only in
    // lanes holding 255, so random vectors can miss the difference:
    // with the search's fixed seed one wrong candidate passes the
    // random tier, and only the symbolic check stands between it and
    // acceptance. Its refutation model must be fed back as a
    // counterexample until the search lands on a genuinely equivalent
    // program.
    const HExprPtr window =
        hBin(HOp::SatAddU, hInput(0, 8, 16), hConst(1, 8, 16));
    SynthesisOptions options;
    options.scaling = false;
    options.symbolic_verify = true;
    SynthesisResult result = synthesizeWindow(dict(), "arm", window, options);
    ASSERT_TRUE(result.ok) << result.note;
    EXPECT_EQ(result.symbolic_refutations, 1);
    EXPECT_EQ(result.symbolic_unknowns, 0);
    EXPECT_GE(result.cegis_iterations, 2);
    EXPECT_EQ(result.symbolic_verdict, "proved");
    // The survivor really is correct at full width.
    Rng rng(94);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<BitVector> inputs;
        for (int w : result.module.input_widths)
            inputs.push_back(BitVector::random(w, rng));
        EXPECT_EQ(result.module.evaluate(dict(), inputs),
                  evalHalide(window, inputs));
    }
}

TEST(Cegis, BareLeafNeverWins)
{
    // max(x, 1) and min(x, 0xFFFE) agree with x itself on almost every
    // random input, so the bare input leaf matches the counterexamples.
    // It is not a program (it has no instruction), so it must not win:
    // each window solves with one real instruction.
    const HExprPtr x = hInput(0, 16, 32);
    for (const HExprPtr &window :
         {hBin(HOp::MaxU, x, hConst(1, 16, 32)),
          hBin(HOp::MinU, x, hConst(0xFFFE, 16, 32))}) {
        SynthesisResult result = synthesizeWindow(dict(), "x86", window);
        ASSERT_TRUE(result.ok) << result.note;
        EXPECT_EQ(result.module.insts.size(), 1u);
        Rng rng(95);
        for (int trial = 0; trial < 10; ++trial) {
            std::vector<BitVector> inputs = {BitVector::random(512, rng)};
            EXPECT_EQ(result.module.evaluate(dict(), inputs),
                      evalHalide(window, inputs));
        }
    }
}

TEST(Cegis, SymbolicVerifyProvesTheFullWidthWinner)
{
    // Random verification on, symbolic verification as the final
    // gate: the saturating-add winner must carry a full-width
    // "proved" verdict with no budget-exhausted queries.
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel add = buildKernel("add", schedule);
    SynthesisOptions options;
    options.scaling = false;
    options.symbolic_verify = true;
    SynthesisResult result =
        synthesizeWindow(dict(), "x86", add.windows[0], options);
    ASSERT_TRUE(result.ok) << result.note;
    EXPECT_EQ(result.module.insts[0].op.member(dict()).name,
              "_mm512_adds_epu8");
    EXPECT_EQ(result.symbolic_verdict, "proved") << result.note;
    EXPECT_EQ(result.symbolic_unknowns, 0);
}

TEST(Cegis, ScaledInLoopProofHasNoUnknowns)
{
    // Lane scaling on: the in-loop proof checks each winner at the
    // search's scaled width, so it must evaluate the candidate under
    // the grammar's scaled parameters, as the search does. With the
    // members' full-width parameters every such query used to fail
    // symbolic evaluation and count as unknown.
    const std::pair<const char *, size_t> windows[] = {
        {"add", 0},       {"mul", 0},         {"average_pool", 0},
        {"dilate3x3", 0}, {"dilate3x3", 1},   {"matmul_bias", 0},
        {"matmul_bias", 1},
    };
    Schedule schedule;
    schedule.vector_bits = 512;
    SynthesisOptions options;
    options.symbolic_verify = true;
    for (const auto &[kernel, index] : windows) {
        SCOPED_TRACE(std::string(kernel) + " window " +
                     std::to_string(index));
        const HExprPtr window =
            buildKernel(kernel, schedule).windows.at(index);
        const SynthesisResult result =
            synthesizeWindow(dict(), "x86", window, options);
        ASSERT_TRUE(result.ok) << result.note;
        EXPECT_GT(result.scale, 1);
        EXPECT_EQ(result.symbolic_verdict, "proved");
        EXPECT_EQ(result.symbolic_unknowns, 0);
    }
}

TEST(Cegis, FailedWarmSeedsStayCountedWhenTheSearchRuns)
{
    // A seed solving a different function of the same inputs passes
    // the width check, fails the vectors, and the window falls through
    // to the search. Its result must still count the seed.
    Schedule schedule;
    schedule.vector_bits = 512;
    const HExprPtr add = buildKernel("add", schedule).windows[0];
    const HExprPtr max = hBin(HOp::MaxU, add->kids[0], add->kids[1]);
    const SynthesisResult neighbor = synthesizeWindow(dict(), "x86", max);
    ASSERT_TRUE(neighbor.ok) << neighbor.note;

    SynthesisOptions options;
    options.warm_seeds = {neighbor.module};
    const SynthesisResult result =
        synthesizeWindow(dict(), "x86", add, options);
    ASSERT_TRUE(result.ok) << result.note;
    EXPECT_FALSE(result.warm_started);
    EXPECT_EQ(result.warm_seeds_tried, 1);
}

/** One window with the search's work counters and outcome pinned. */
struct PinnedSearch
{
    const char *isa;
    const char *kernel;
    int vector_bits;
    size_t window;
    int max_insts;
    int max_combos;
    // Expected outcome.
    int iterations;
    int counterexamples;
    long rejected;
    long rejected_static;
    const char *note;
    std::vector<std::string> insts;
};

TEST(Cegis, SearchWorkCountersArePinned)
{
    // The exact counters of four fixed searches. Any change to
    // enumeration order, dedup, bank admission or the match check
    // moves at least one of them, so a change meant to make the search
    // cheaper, not different, must leave them alone. The deadline is
    // far away: these searches end on their own.
    const PinnedSearch pinned[] = {
        // A counterexample round: the first winner fails verification.
        // Its winner shares its first-counterexample value with a bank
        // entry, so deduplicating before the match check loses it.
        {"arm", "max_pool", 128, 0, 3, 4000, 2, 1, 190253, 0, "",
         {"vmaxq_u8", "vmaxq_u8", "vmaxq_u8"}},
        // A scaled search that exhausts.
        {"x86", "gaussian3x3", 512, 0, 3, 4000, 1, 0, 246119, 0,
         "search exhausted", {}},
        // Static pruning rejects solution-width families.
        {"x86", "mul", 512, 0, 3, 4000, 1, 0, 171988, 285, "",
         {"_mm512_mulhi_epi16", "_mm512_slli_epi16"}},
        // Four-operand x86 mask ops, counterexamples, exhaustion, at
        // scale 1 (the window concatenates registers).
        {"x86", "sobel3x3", 256, 2, 2, 200, 3, 2, 18367, 244,
         "search exhausted", {}},
    };
    for (const PinnedSearch &p : pinned) {
        SCOPED_TRACE(std::string(p.isa) + " " + p.kernel);
        Schedule schedule;
        schedule.vector_bits = p.vector_bits;
        const HExprPtr window =
            buildKernel(p.kernel, schedule).windows.at(p.window);
        SynthesisOptions options;
        options.max_insts = p.max_insts;
        options.max_combos = p.max_combos;
        const SynthesisResult result =
            synthesizeWindow(dict(), p.isa, window, options);
        EXPECT_EQ(result.cegis_iterations, p.iterations);
        EXPECT_EQ(result.counterexamples, p.counterexamples);
        EXPECT_EQ(result.candidates_rejected, p.rejected);
        EXPECT_EQ(result.candidates_rejected_static, p.rejected_static);
        EXPECT_EQ(result.note, p.note);
        std::vector<std::string> insts;
        for (const auto &inst : result.module.insts)
            insts.push_back(inst.op.member(dict()).name);
        EXPECT_EQ(insts, p.insts);
        EXPECT_EQ(result.ok, !p.insts.empty());
    }
}

TEST(Cegis, CounterexampleRechecksStaticallyFeasibleOps)
{
    // A counterexample can make a statically feasible (op, immediate)
    // dead, never the reverse, so each one must recheck the feasible
    // verdicts. On this search, keeping them instead reads 0 static
    // rejections; every other counter stays the same.
    Schedule schedule;
    schedule.vector_bits = 256;
    const HExprPtr window = buildKernel("softmax", schedule).windows.at(0);
    SynthesisOptions options;
    options.max_insts = 2;
    options.max_combos = 200;
    const SynthesisResult result =
        synthesizeWindow(dict(), "x86", window, options);
    EXPECT_EQ(result.cegis_iterations, 2);
    EXPECT_EQ(result.counterexamples, 1);
    EXPECT_EQ(result.candidates_rejected, 1830);
    EXPECT_EQ(result.candidates_rejected_static, 200);
    EXPECT_EQ(result.note, "search exhausted");
}

int
windowsOnRung(const ResilientCompilation &compiled, Rung rung)
{
    int count = 0;
    for (const auto &window : compiled.windows)
        count += window.rung == rung ? 1 : 0;
    return count;
}

TEST(Cache, HitsOnStructurallyIdenticalWindows)
{
    SynthesisCache cache;
    ResilientCompiler compiler(dict(), "x86", 512, {}, &cache);
    Schedule schedule;
    schedule.vector_bits = 512;
    // matmul_b4 contains four structurally identical windows.
    Kernel kernel = buildKernel("matmul_b4", schedule);
    ResilientCompilation compiled = compiler.compile(kernel);
    EXPECT_EQ(windowsOnRung(compiled, Rung::Cached), 3);
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.hits(), 3);
}

TEST(Cache, SharedAcrossKernels)
{
    SynthesisCache cache;
    ResilientCompiler compiler(dict(), "x86", 512, {}, &cache);
    Schedule schedule;
    schedule.vector_bits = 512;
    compiler.compile(buildKernel("matmul_b1", schedule));
    const int misses_before = cache.misses();
    // matmul_bias shares matmul_b1's dot-product window.
    ResilientCompilation second =
        compiler.compile(buildKernel("matmul_bias", schedule));
    EXPECT_GT(windowsOnRung(second, Rung::Cached), 0);
    EXPECT_GE(cache.misses(), misses_before);
}

TEST(Cache, ClearPreservesLifetimeStatistics)
{
    SynthesisCache cache;
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel kernel = buildKernel("matmul_b1", schedule);
    const HExprPtr &window = kernel.windows[0];

    EXPECT_EQ(cache.lookup(window, "x86"), nullptr); // Miss.
    SynthesisResult result = synthesizeWindow(dict(), "x86", window);
    cache.insert(window, "x86", result);
    EXPECT_NE(cache.lookup(window, "x86"), nullptr); // Hit.
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 1);

    // clear() restarts the per-epoch counters but folds them into the
    // lifetime totals instead of discarding them.
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0);
    EXPECT_EQ(cache.misses(), 0);
    EXPECT_EQ(cache.lifetimeHits(), 1);
    EXPECT_EQ(cache.lifetimeMisses(), 1);

    EXPECT_EQ(cache.lookup(window, "x86"), nullptr); // Miss again.
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.lifetimeMisses(), 2);
    EXPECT_EQ(cache.lifetimeHits(), 1);
}

TEST(Compiler, FallsBackWhenSynthesisFails)
{
    // ARM has no 2-way dot product: the compiler must still produce a
    // correct program through macro expansion.
    ResilientCompiler compiler(dict(), "arm", 128);
    ResilientWindow compiled = compiler.compileWindow(matmulWindow(128));
    EXPECT_EQ(compiled.rung, Rung::MacroExpanded);
    EXPECT_FALSE(compiled.program.insts.empty());
}

TEST(Compiler, SplitsDeepWindows)
{
    ResilienceOptions options;
    options.synthesis.window_depth = 4;
    ResilientCompiler compiler(dict(), "hvx", 1024, options);
    Schedule schedule;
    schedule.vector_bits = 1024;
    Kernel gauss = buildKernel("gaussian3x3", schedule);
    ResilientCompilation compiled = compiler.compile(gauss);
    EXPECT_GT(compiled.windows.size(), gauss.windows.size());
    EXPECT_EQ(compiled.pieces.size(), compiled.windows.size());
}

TEST(SplitWindow, PiecesComposeToTheOriginal)
{
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel gauss = buildKernel("gaussian5x5", schedule);
    const HExprPtr &window = gauss.windows[1];
    const int base = halideInputCount(window);
    std::vector<HExprPtr> pieces = splitWindow(window, 3, base);
    ASSERT_GT(pieces.size(), 1u);

    Rng rng(93);
    // Original inputs.
    std::vector<BitVector> pool(base, BitVector(1));
    std::vector<const HExpr *> stack = {window.get()};
    std::vector<int> widths(base, 16);
    while (!stack.empty()) {
        const HExpr *node = stack.back();
        stack.pop_back();
        if (node->op == HOp::Input)
            widths[node->imm] = node->totalWidth();
        for (const auto &kid : node->kids)
            stack.push_back(kid.get());
    }
    for (int i = 0; i < base; ++i)
        pool[i] = BitVector::random(widths[i], rng);
    // Evaluate pieces in order, feeding outputs forward.
    for (size_t piece = 0; piece + 1 < pieces.size(); ++piece)
        pool.push_back(evalHalide(pieces[piece], pool));
    EXPECT_EQ(evalHalide(pieces.back(), pool),
              evalHalide(window, std::vector<BitVector>(
                                     pool.begin(), pool.begin() + base)));
}

} // namespace
} // namespace hydride
