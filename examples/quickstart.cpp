/**
 * @file
 * Quickstart: the whole Hydride pipeline on a handful of
 * instructions.
 *
 * This walks the paper's workflow end to end on a small scale:
 *  1. take vendor pseudocode for a few instructions from three ISAs,
 *  2. parse and canonicalize them into Hydride IR,
 *  3. run the similarity checking engine to form equivalence classes,
 *  4. build the AutoLLVM dictionary and emit its TableGen,
 *  5. synthesize target code for a tiny Halide expression and lower
 *     it 1-1 to target instructions.
 */
#include <iostream>

#include "autollvm/tablegen.h"
#include "codegen/lowering.h"
#include "hir/canonicalize.h"
#include "hir/printer.h"
#include "specs/spec_db.h"
#include "synthesis/cegis.h"

using namespace hydride;

int
main()
{
    std::cout << "== 1. Vendor pseudocode (three dialects) ==\n\n";
    std::vector<CanonicalSemantics> insts;
    for (const auto &[isa, name] :
         std::vector<std::pair<std::string, std::string>>{
             {"x86", "_mm256_adds_epi16"},
             {"x86", "_mm512_adds_epi8"},
             {"hvx", "vaddh_sat_128B"},
             {"arm", "vqaddq_s16"},
             {"x86", "_mm256_mullo_epi16"},
             {"arm", "vmulq_s16"}}) {
        for (const auto &inst : isaManual(isa).insts) {
            if (inst.name != name)
                continue;
            std::cout << inst.pseudocode << "\n";
            SpecFunction fn = parseInst(isa, inst);
            CanonicalizeResult canon = canonicalize(fn);
            insts.push_back(canon.sem);
        }
    }

    std::cout << "== 2. Canonicalized Hydride IR (two-level loop nest) "
                 "==\n\n";
    std::cout << printSemantics(insts[0]) << "\n";

    std::cout << "== 3. Equivalence classes ==\n\n";
    SimilarityStats stats;
    auto classes = runSimilarityEngine(insts, {}, &stats);
    std::cout << insts.size() << " instructions -> " << classes.size()
              << " classes (" << stats.structural_merges
              << " structural merges)\n\n";
    for (const auto &cls : classes) {
        std::cout << "class with " << cls.members.size() << " members:";
        for (const auto &member : cls.members)
            std::cout << " " << member.name << "[" << member.isa << "]";
        std::cout << "\n";
    }

    std::cout << "\n== 4. AutoLLVM dictionary + TableGen ==\n\n";
    AutoLLVMDict dict(std::move(classes));
    std::cout << emitTableGen(dict);

    std::cout << "== 5. Synthesis + 1-1 lowering ==\n\n";
    for (const auto &[isa, lanes] :
         std::vector<std::pair<const char *, int>>{{"x86", 16},
                                                   {"arm", 8}}) {
        // Halide expression: saturating add of two i16 vectors, at
        // the target's vectorization width.
        HExprPtr window =
            hBin(HOp::SatAddS, hInput(0, 16, lanes), hInput(1, 16, lanes));
        std::cout << isa << " Halide IR: " << printHalide(window) << "\n";
        SynthesisResult synth = synthesizeWindow(dict, isa, window);
        if (!synth.ok) {
            std::cout << isa << ": synthesis failed (" << synth.note
                      << ")\n";
            continue;
        }
        std::cout << isa << " AutoLLVM IR (cost " << synth.cost << "):\n"
                  << synth.module.print(dict);
        LoweringResult lowered = lowerToTarget(synth.module, dict, isa);
        std::cout << isa << " lowered:\n" << lowered.program.print()
                  << "\n";
    }
    return 0;
}
