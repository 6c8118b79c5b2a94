/**
 * @file
 * Example: retargeting Hydride to a brand-new ISA (the paper's §6.1
 * case study, where ARM support was added in three months by one
 * newcomer — here it takes a page of vendor pseudocode).
 *
 * We invent "VDSP", a fictional DSP vector ISA whose vendor publishes
 * an Intel-style manual (so the x86 dialect parser ingests it). The
 * pipeline then runs unmodified: parse -> canonicalize -> similarity
 * against the existing ISAs -> extended AutoLLVM dictionary ->
 * synthesis retargets a Halide kernel to VDSP, including its
 * exotic accumulating dot-product instruction.
 */
#include <iostream>

#include "codegen/lowering.h"
#include "halide/kernels.h"
#include "hir/canonicalize.h"
#include "specs/spec_db.h"
#include "support/strings.h"
#include "synthesis/cegis.h"

using namespace hydride;

namespace {

/** The fictional vendor's manual: 384-bit vectors, a handful of
 *  instructions, one fused dot-product-accumulate. */
IsaSpec
vdspManual()
{
    IsaSpec spec;
    spec.isa = "vdsp";
    auto inst = [&](const std::string &name, const std::string &text) {
        spec.insts.push_back({name, text});
    };
    // Element-wise i16 ops on 384-bit registers (24 lanes).
    for (const auto &[stem, expr] :
         std::vector<std::pair<std::string, std::string>>{
             {"vdsp_add_h", "a[i+15:i] + b[i+15:i]"},
             {"vdsp_sub_h", "a[i+15:i] - b[i+15:i]"},
             {"vdsp_mul_h", "a[i+15:i] * b[i+15:i]"},
             {"vdsp_max_h", "MAX(a[i+15:i], b[i+15:i])"},
             {"vdsp_adds_h",
              "Saturate(SignExtend(a[i+15:i], 17) + "
              "SignExtend(b[i+15:i], 17), 16)"}}) {
        std::string text = format(
            "DEFINE %s(a: bit[384], b: bit[384]) -> bit[384] LAT 1\n"
            "FOR j := 0 to 23\ni := j*16\ndst[i+15:i] := %s\nENDFOR\n"
            "ENDDEF\n",
            stem.c_str(), expr.c_str());
        inst(stem, text);
    }
    // The fused dot-product accumulate (like dpwssd / vdmpy).
    inst("vdsp_dotacc_w",
         "DEFINE vdsp_dotacc_w(acc: bit[384], a: bit[384], b: bit[384]) "
         "-> bit[384] LAT 3\n"
         "FOR j := 0 to 11\ni := j*32\n"
         "dst[i+31:i] := acc[i+31:i] + SignExtend(a[i+15:i], 32) * "
         "SignExtend(b[i+15:i], 32) + SignExtend(a[i+31:i+16], 32) * "
         "SignExtend(b[i+31:i+16], 32)\nENDFOR\nENDDEF\n");
    return spec;
}

} // namespace

int
main()
{
    std::cout << "== Step 1: the new vendor's manual ==\n\n";
    IsaSpec manual = vdspManual();
    std::cout << manual.insts.back().pseudocode << "\n";

    std::cout << "== Step 2: parse + canonicalize (unchanged pipeline) "
                 "==\n\n";
    std::vector<CanonicalSemantics> vdsp_sema;
    for (const auto &inst : manual.insts) {
        InstDef def = inst;
        SpecFunction fn = parseWithDialect("x86", def);
        fn.isa = "vdsp";
        CanonicalizeResult canon = canonicalize(fn);
        if (!canon.ok) {
            std::cout << inst.name << ": " << canon.error << "\n";
            return 1;
        }
        vdsp_sema.push_back(canon.sem);
    }
    std::cout << manual.insts.size()
              << " VDSP instructions canonicalized.\n\n";

    std::cout << "== Step 3: similarity against x86 + HVX + ARM ==\n\n";
    std::vector<CanonicalSemantics> all =
        combinedSemantics({"x86", "hvx", "arm"});
    const size_t before =
        runSimilarityEngine(all).size();
    all.insert(all.end(), vdsp_sema.begin(), vdsp_sema.end());
    auto classes = runSimilarityEngine(all);
    std::cout << "classes before VDSP: " << before
              << ", after adding " << vdsp_sema.size()
              << " VDSP instructions: " << classes.size() << "\n";
    for (const auto &cls : classes) {
        const ClassMember *vdsp_member = nullptr;
        for (const auto &member : cls.members)
            if (member.isa == "vdsp")
                vdsp_member = &member;
        if (!vdsp_member || cls.members.size() < 2)
            continue;
        std::cout << "  " << vdsp_member->name << " joined a class of "
                  << cls.members.size() << " (e.g.";
        int shown = 0;
        for (const auto &member : cls.members) {
            if (member.isa != "vdsp" && shown < 3) {
                std::cout << " " << member.name << "[" << member.isa
                          << "]";
                ++shown;
            }
        }
        std::cout << ")\n";
    }

    std::cout << "\n== Step 4: synthesize a Halide kernel for VDSP ==\n\n";
    AutoLLVMDict dict(std::move(classes));
    Schedule schedule;
    schedule.vector_bits = 384;
    Kernel kernel = buildKernel("matmul_b1", schedule);
    SynthesisResult synth =
        synthesizeWindow(dict, "vdsp", kernel.windows[0]);
    if (!synth.ok) {
        std::cout << "synthesis failed: " << synth.note << "\n";
        return 1;
    }
    std::cout << "AutoLLVM IR (cost " << synth.cost << "):\n"
              << synth.module.print(dict) << "\n";
    LoweringResult lowered = lowerToTarget(synth.module, dict, "vdsp");
    std::cout << "VDSP code:\n" << lowered.program.print();
    std::cout << "\nA new ISA became a working Hydride target with one "
                 "page of pseudocode and zero compiler changes.\n";
    return 0;
}
