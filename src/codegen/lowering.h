/**
 * @file
 * The auto-generated target-specific code generator (paper §3.5):
 * 1-1 lowering from AutoLLVM IR to target instructions.
 *
 * Because every AutoLLVM instruction records the concrete parameter
 * values of each member target instruction, lowering is a lookup: an
 * AutoLLVM call with parameter assignment P lowers to the class
 * member of the requested ISA whose parameters equal P (retargeting
 * across ISAs when the class spans several). No pattern matching
 * beyond this one-to-one mapping is needed — that is the point of
 * the AutoLLVM design.
 */
#ifndef HYDRIDE_CODEGEN_LOWERING_H
#define HYDRIDE_CODEGEN_LOWERING_H

#include <string>
#include <vector>

#include "autollvm/module.h"

namespace hydride {

/** One lowered target instruction. */
struct TargetInst
{
    std::string inst_name;
    std::string isa;
    int latency = 1;
    AutoOpVariant op;            ///< Executable semantics handle.
    std::vector<ValueRef> args;  ///< In representative argument order.
    std::vector<int64_t> int_args;
};

/** A straight-line target-instruction program. */
struct TargetProgram
{
    std::string isa;
    std::vector<int> input_widths;
    /** Hoisted constant vectors referenced via ValueRef::Const. */
    std::vector<BitVector> constants;
    std::vector<TargetInst> insts;
    int result = -1;
    /** Multi-register results (low part first); when set, evaluate()
     *  returns their concatenation and `result` is ignored. */
    std::vector<ValueRef> results;

    /** Static cost: sum of instruction latencies. */
    int cost() const;

    /** Execute on concrete inputs in the representative view
     *  (codegen/eval.h); every value reference is range-checked. */
    BitVector evaluate(const AutoLLVMDict &dict,
                       const std::vector<BitVector> &inputs) const;

    /** Assembly-like rendering. */
    std::string print() const;
};

/** Outcome of lowering an AutoLLVM module to one target. */
struct LoweringResult
{
    bool ok = false;
    TargetProgram program;
    std::string error;
};

/**
 * Lower `module` to `isa`. Instructions whose class has no member on
 * the target with matching parameters make lowering fail (the caller
 * — Hydride's synthesizer — only emits target-legal variants).
 */
LoweringResult lowerToTarget(const AutoModule &module,
                             const AutoLLVMDict &dict,
                             const std::string &isa);

} // namespace hydride

#endif // HYDRIDE_CODEGEN_LOWERING_H
