#include "analysis/symbolic/ir_equiv.h"

#include "codegen/eval.h"
#include "halide/eval.h"
#include "observability/phases.h"

#include <utility>

namespace hydride {
namespace sym {

namespace {

BVFun
moduleFun(const AutoLLVMDict &dict, const AutoModule &module,
          InstParams params)
{
    return domainFun(module.input_widths,
                     [&dict, &module, params = std::move(params)](
                         auto &dom, const auto &inputs) {
                         return evalModuleDom(dom, dict, module, params,
                                              inputs);
                     });
}

BVFun
targetHWFun(const AutoLLVMDict &dict, const TargetProgram &program)
{
    return domainFun(program.input_widths,
                     [&dict, &program](auto &dom, const auto &inputs) {
                         return evalTargetHWDom(dom, dict, program, inputs);
                     });
}

BVFun
windowFun(const HExprPtr &window, const std::vector<int> &input_widths)
{
    return domainFun(input_widths, [window](auto &dom, const auto &inputs) {
        return evalHalideDom(dom, window, inputs);
    });
}

} // namespace

EqResult
checkModuleEquiv(const AutoLLVMDict &dict, const AutoModule &module,
                 const HExprPtr &window, const EqBudget &budget,
                 const InstParams &inst_params)
{
    phases::Scope span(phases::Phase::Symbolic);
    EqResult result = checkEquiv(moduleFun(dict, module, inst_params),
                                 windowFun(window, module.input_widths),
                                 budget);
    span.setAttr("verdict", verdictName(result.verdict));
    span.setAttr("method", result.method);
    return result;
}

EqResult
checkProgramEquiv(const AutoLLVMDict &dict, const TargetProgram &program,
                  const HExprPtr &window, const EqBudget &budget)
{
    return checkEquiv(targetHWFun(dict, program),
                      windowFun(window, program.input_widths), budget);
}

EqResult
checkLoweringEquiv(const AutoLLVMDict &dict, const AutoModule &module,
                   const TargetProgram &program, const EqBudget &budget)
{
    return checkEquiv(moduleFun(dict, module, {}),
                      targetHWFun(dict, program), budget);
}

} // namespace sym
} // namespace hydride
