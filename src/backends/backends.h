/**
 * @file
 * The four compilers compared in the paper's evaluation (Fig. 6):
 *
 *  - HydrideBackend: the synthesis-based compiler, i.e. the
 *    resilient driver (driver/resilience.h) on the paper's policy.
 *  - HalideProdBackend: a stand-in for the production Halide
 *    target-specific back ends — hand-written pattern-matching rules
 *    that map known window shapes to efficient target sequences
 *    (dot products, fused narrowing shifts), with plain macro
 *    expansion underneath. Its rules reference concrete instruction
 *    names per target, exactly the kind of hand-maintained,
 *    target-specific code Hydride exists to eliminate.
 *  - LlvmStyleBackend: Halide's LLVM back end stand-in — pure macro
 *    expansion: simple SIMD selection with no complex non-SIMD
 *    instruction usage.
 *  - RakeBackend: the Rake comparison — restricted to the HVX
 *    instruction subset Rake supports (no accumulating/saturating
 *    dot-product variants, no vdeal/vshuffvdd, no averaging ops) and
 *    to the benchmarks it can compile (the paper reports Rake fails
 *    on 28 of 33 and on every ARM benchmark).
 */
#ifndef HYDRIDE_BACKENDS_BACKENDS_H
#define HYDRIDE_BACKENDS_BACKENDS_H

#include <memory>
#include <string>
#include <vector>

#include "driver/resilience.h"

namespace hydride {

/** A kernel compiled by one of the comparison backends. */
struct CompiledKernel
{
    std::string backend;
    std::string kernel;
    std::string isa;
    std::vector<TargetProgram> programs;
    /** Effective windows, one per program (Hydride may split deep
     *  windows into pieces; baselines keep the kernel's windows). */
    std::vector<HExprPtr> windows;
    /** Original-window group per program; pieces of one group feed
     *  later pieces through their cut-point input ids. */
    std::vector<int> groups;
    double compile_seconds = 0.0;
    /**
     * True when a kernel-level special case replaced a window with a
     * cost-representative sequence that is not functionally checked
     * (the production backend's cross-window fusions; see DESIGN.md).
     */
    bool cost_model_only = false;

    int staticCost() const;
};

/** Common compiler interface for the Figure 6 comparison. */
class Backend
{
  public:
    virtual ~Backend() = default;
    virtual std::string name() const = 0;
    /** Compile; false when this compiler cannot handle the kernel
     *  (Rake's failures, baseline back-end failures). */
    virtual bool compile(const Kernel &kernel, CompiledKernel &out) = 0;
};

/** Halide-LLVM-style baseline: plain macro expansion. */
class LlvmStyleBackend : public Backend
{
  public:
    LlvmStyleBackend(const AutoLLVMDict &dict, std::string isa,
                     int vector_bits);
    std::string name() const override { return "halide-llvm"; }
    bool compile(const Kernel &kernel, CompiledKernel &out) override;

  private:
    MacroExpander expander_;
    std::string isa_;
};

/** Production-Halide-style backend: patterns + expansion. */
class HalideProdBackend : public Backend
{
  public:
    HalideProdBackend(const AutoLLVMDict &dict, std::string isa,
                      int vector_bits);
    std::string name() const override { return "halide-prod"; }
    bool compile(const Kernel &kernel, CompiledKernel &out) override;

  private:
    bool matchDot2Acc(const HExprPtr &window, TargetProgram &program);
    bool matchNarrowingShift(const HExprPtr &window,
                             TargetProgram &program);
    bool specialCaseKernel(const Kernel &kernel, CompiledKernel &out);
    bool variantFor(const std::string &inst_name, AutoOpVariant &variant,
                    int &latency) const;

    const AutoLLVMDict &dict_;
    MacroExpander expander_;
    std::string isa_;
    int vector_bits_;
};

/** Rake stand-in: restricted instruction set, few benchmarks. */
class RakeBackend : public Backend
{
  public:
    RakeBackend(const AutoLLVMDict &dict, std::string isa,
                int vector_bits);
    std::string name() const override { return "rake"; }
    bool compile(const Kernel &kernel, CompiledKernel &out) override;

  private:
    MacroExpander expander_;
    std::string isa_;
};

/**
 * Hydride wrapped in the common interface: the resilient driver
 * without the escalated retry, so a window gets exactly one CEGIS
 * search under `options` (the paper's path). compile() returns false
 * when a window ends Scalarized or Failed, since neither has a target
 * program to put in a CompiledKernel.
 */
class HydrideBackend : public Backend
{
  public:
    HydrideBackend(const AutoLLVMDict &dict, std::string isa,
                   int vector_bits, SynthesisOptions options = {},
                   SynthesisCache *cache = nullptr);
    std::string name() const override { return "hydride"; }
    bool compile(const Kernel &kernel, CompiledKernel &out) override;

  private:
    ResilientCompiler compiler_;
    std::string isa_;
};

} // namespace hydride

#endif // HYDRIDE_BACKENDS_BACKENDS_H
