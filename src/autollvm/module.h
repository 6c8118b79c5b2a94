/**
 * @file
 * AutoLLVM IR programs: straight-line SSA sequences of calls to
 * AutoLLVM intrinsics, the output of Hydride's code synthesizer and
 * the input to the auto-generated instruction selectors. The example
 * in the paper's §3.4 is a three-instruction AutoModule.
 */
#ifndef HYDRIDE_AUTOLLVM_MODULE_H
#define HYDRIDE_AUTOLLVM_MODULE_H

#include <string>
#include <vector>

#include "autollvm/dict.h"

namespace hydride {

/** A reference to a value: a module input, a prior instruction, or a
 *  loop-hoisted constant vector (constants cost nothing at runtime,
 *  reflecting materialization outside the vector loop). */
struct ValueRef
{
    enum Kind { Input, Inst, Const } kind = Input;
    int index = 0;

    static ValueRef input(int index) { return {Input, index}; }
    static ValueRef inst(int index) { return {Inst, index}; }
    static ValueRef constant(int index) { return {Const, index}; }
    bool operator==(const ValueRef &other) const
    {
        return kind == other.kind && index == other.index;
    }
};

/** One AutoLLVM intrinsic call. */
struct AutoInst
{
    AutoOpVariant op;
    std::vector<ValueRef> args;
    std::vector<int64_t> int_args;
};

/** A straight-line AutoLLVM IR program. */
struct AutoModule
{
    /** Bit widths of the module inputs. */
    std::vector<int> input_widths;
    /** Hoisted constant vectors referenced via ValueRef::Const. */
    std::vector<BitVector> constants;
    std::vector<AutoInst> insts;
    /** Index of the instruction producing the result (last if -1). */
    int result = -1;

    /** Execute the program on concrete inputs: evalModuleDom
     *  (autollvm/eval.h) over BitVectorDomain, member parameters. */
    BitVector evaluate(const AutoLLVMDict &dict,
                       const std::vector<BitVector> &inputs) const;

    /** Sum of member latencies (the synthesis cost model, §4.1). */
    int cost(const AutoLLVMDict &dict) const;

    /** Render as LLVM-IR-like text with `@autollvm.*` intrinsics. */
    std::string print(const AutoLLVMDict &dict) const;
};

} // namespace hydride

#endif // HYDRIDE_AUTOLLVM_MODULE_H
