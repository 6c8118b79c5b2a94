/**
 * @file
 * The evaluator of lowered target programs, templated on the value
 * domain (hir/eval.h). `evalProgramDom` gathers arguments with checked
 * indices and assembles multi-register results low part first; its
 * caller says what one instruction runs. `TargetProgram::evaluate`
 * runs the *representative view* (the class representative under the
 * member's parameters, AutoLLVMDict::run); `evalTargetHWDom` runs the
 * *hardware view* (the member's own vendor semantics, runMemberHWDom).
 */
#ifndef HYDRIDE_CODEGEN_EVAL_H
#define HYDRIDE_CODEGEN_EVAL_H

#include <vector>

#include "autollvm/eval.h"
#include "codegen/lowering.h"

namespace hydride {

/** Run `p` on `inputs`; `run_inst(inst, args)` executes one
 *  instruction on its gathered arguments. */
template <typename Domain, typename RunInst>
typename Domain::Value
evalProgramDom(Domain &dom, const TargetProgram &p,
               const std::vector<typename Domain::Value> &inputs,
               const RunInst &run_inst)
{
    std::vector<typename Domain::Value> values;
    values.reserve(p.insts.size());
    for (const TargetInst &inst : p.insts)
        values.push_back(run_inst(
            inst, gatherArgs(dom, inst.args, inputs, p.constants, values)));
    if (p.results.empty())
        return resultValue(values, p.result);
    const auto parts =
        gatherArgs(dom, p.results, inputs, p.constants, values);
    typename Domain::Value out = parts[0];
    for (size_t r = 1; r < parts.size(); ++r)
        out = dom.concat(parts[r], out);
    return out;
}

/** Hardware view of one instruction: the member's own semantics, the
 *  argument permutation undone. `args` arrive in representative order
 *  (as TargetInst stores them). */
template <typename Domain>
typename Domain::Value
runMemberHWDom(Domain &dom, const AutoLLVMDict &dict,
               const AutoOpVariant &variant,
               const std::vector<typename Domain::Value> &args,
               const std::vector<int64_t> &int_args)
{
    const ClassMember &member = variant.member(dict);
    HYD_ASSERT(member.arg_perm.empty() ||
                   member.arg_perm.size() == args.size(),
               "argument permutation arity mismatch for " + member.name);
    HYD_ASSERT(member.concrete.bv_args.size() == args.size(),
               "member semantics arity mismatch for " + member.name);
    std::vector<typename Domain::Value> member_args(args.size());
    // rep arg k reads the member's original arg arg_perm[k], so the
    // member's original arg arg_perm[k] receives rep arg k (empty
    // permutation = identity).
    for (size_t k = 0; k < args.size(); ++k)
        member_args[member.arg_perm.empty() ? k : member.arg_perm[k]] =
            args[k];
    return evalSemanticsDom(dom, member.concrete, member_args, {}, int_args);
}

/** Run `p` in the hardware view. */
template <typename Domain>
typename Domain::Value
evalTargetHWDom(Domain &dom, const AutoLLVMDict &dict,
                const TargetProgram &p,
                const std::vector<typename Domain::Value> &inputs)
{
    return evalProgramDom(
        dom, p, inputs,
        [&](const TargetInst &inst,
            const std::vector<typename Domain::Value> &args) {
            return runMemberHWDom(dom, dict, inst.op, args, inst.int_args);
        });
}

} // namespace hydride

#endif // HYDRIDE_CODEGEN_EVAL_H
