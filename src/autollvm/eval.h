/**
 * @file
 * The one evaluator of AutoLLVM modules, templated on the value domain
 * (hir/eval.h). Each instruction runs its class representative under
 * the member's parameter values (the *representative view*, what
 * `AutoLLVMDict::run` does). `AutoModule::evaluate` is the
 * BitVectorDomain instantiation.
 */
#ifndef HYDRIDE_AUTOLLVM_EVAL_H
#define HYDRIDE_AUTOLLVM_EVAL_H

#include <vector>

#include "autollvm/module.h"
#include "hir/eval.h"
#include "support/error.h"

namespace hydride {

/**
 * Parameter values per module instruction, standing in for each
 * instruction's member values. CEGIS evaluates a lane-scaled candidate
 * under its grammar ops' scaled parameters, which no member carries.
 */
using InstParams = std::vector<std::vector<int64_t>>;

/** The values `refs` name: module inputs, hoisted constants (lifted
 *  into `dom`) or earlier instructions' results. Every index is
 *  range-checked. */
template <typename Domain>
std::vector<typename Domain::Value>
gatherArgs(Domain &dom, const std::vector<ValueRef> &refs,
           const std::vector<typename Domain::Value> &inputs,
           const std::vector<BitVector> &constants,
           const std::vector<typename Domain::Value> &values)
{
    std::vector<typename Domain::Value> args;
    args.reserve(refs.size());
    for (const ValueRef &ref : refs) {
        const size_t index = static_cast<size_t>(ref.index);
        if (ref.kind == ValueRef::Input) {
            HYD_ASSERT(index < inputs.size(), "input reference out of range");
            args.push_back(inputs[index]);
        } else if (ref.kind == ValueRef::Const) {
            HYD_ASSERT(index < constants.size(),
                       "constant reference out of range");
            args.push_back(dom.constant(constants[index]));
        } else {
            HYD_ASSERT(index < values.size(), "forward instruction reference");
            args.push_back(values[index]);
        }
    }
    return args;
}

/** The result of a straight-line program: `values[result]`, or the
 *  last value when `result` is negative. */
template <typename Value>
const Value &
resultValue(const std::vector<Value> &values, int result)
{
    HYD_ASSERT(!values.empty(), "program has no instructions");
    const size_t out =
        result < 0 ? values.size() - 1 : static_cast<size_t>(result);
    HYD_ASSERT(out < values.size(), "result reference out of range");
    return values[out];
}

/** Representative view of one dictionary variant, under `params` when
 *  given instead of the member's values. */
template <typename Domain>
typename Domain::Value
runVariantDom(Domain &dom, const AutoLLVMDict &dict,
              const AutoOpVariant &variant,
              const std::vector<typename Domain::Value> &args,
              const std::vector<int64_t> &int_args,
              const std::vector<int64_t> *params)
{
    return evalSemanticsDom(dom, dict.cls(variant.class_id).rep, args,
                            params ? *params : variant.member(dict).param_values,
                            int_args);
}

/** Run module `m` on `inputs`. Empty `inst_params` = every
 *  instruction under its member's values. */
template <typename Domain>
typename Domain::Value
evalModuleDom(Domain &dom, const AutoLLVMDict &dict, const AutoModule &m,
              const InstParams &inst_params,
              const std::vector<typename Domain::Value> &inputs)
{
    HYD_ASSERT(inputs.size() == m.input_widths.size(),
               "module input arity mismatch");
    HYD_ASSERT(inst_params.empty() || inst_params.size() == m.insts.size(),
               "instruction parameter count mismatch");
    std::vector<typename Domain::Value> values;
    values.reserve(m.insts.size());
    for (size_t i = 0; i < m.insts.size(); ++i) {
        const AutoInst &inst = m.insts[i];
        const auto args =
            gatherArgs(dom, inst.args, inputs, m.constants, values);
        values.push_back(runVariantDom(
            dom, dict, inst.op, args, inst.int_args,
            inst_params.empty() ? nullptr : &inst_params[i]));
    }
    return resultValue(values, m.result);
}

} // namespace hydride

#endif // HYDRIDE_AUTOLLVM_EVAL_H
