#include "analysis/symbolic/ir_equiv.h"

#include "observability/phases.h"
#include "support/error.h"

#include <type_traits>

namespace hydride {
namespace sym {

namespace {

// ---- Generic evaluators (shared by the concrete and symbolic domains) --

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
        if (ref.kind == ValueRef::Input) {
            HYD_ASSERT(ref.index < static_cast<int>(inputs.size()),
                       "input reference out of range");
            args.push_back(inputs[ref.index]);
        } else if (ref.kind == ValueRef::Const) {
            HYD_ASSERT(ref.index < static_cast<int>(constants.size()),
                       "constant reference out of range");
            args.push_back(dom.constant(constants[ref.index]));
        } else {
            HYD_ASSERT(ref.index < static_cast<int>(values.size()),
                       "forward instruction reference");
            args.push_back(values[ref.index]);
        }
    }
    return args;
}

/** Concrete values for the evaluators below: BitVectors, run by the
 *  semantics' own interpreter. */
struct ConcreteDomain
{
    using Value = BitVector;
    BitVector constant(const BitVector &v) const { return v; }
    BitVector
    concat(const BitVector &hi, const BitVector &lo) const
    {
        return BitVector::concat(hi, lo);
    }
};

/** Representative view of one dictionary variant (AutoLLVMDict::run),
 *  under `params` when given instead of the member's values. */
template <typename Domain>
typename Domain::Value
runVariantDom(Domain &dom, const AutoLLVMDict &dict,
              const AutoOpVariant &variant,
              const std::vector<typename Domain::Value> &args,
              const std::vector<int64_t> &int_args,
              const std::vector<int64_t> *params)
{
    const CanonicalSemantics &rep = dict.cls(variant.class_id).rep;
    const std::vector<int64_t> &values =
        params ? *params : variant.member(dict).param_values;
    if constexpr (std::is_same_v<Domain, ConcreteDomain>)
        return rep.evaluate(args, values, int_args);
    else
        return evalSemanticsDom(dom, rep, args, values, int_args);
}

/** Hardware view: member's own semantics, argument permutation undone.
 *  `args` arrive in representative order (as TargetInst stores them). */
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
    if constexpr (std::is_same_v<Domain, ConcreteDomain>)
        return member.concrete.evaluate(member_args, {}, int_args);
    else
        return evalSemanticsDom(dom, member.concrete, member_args, {},
                                int_args);
}

template <typename Domain>
typename Domain::Value
evalModuleDom(Domain &dom, const AutoLLVMDict &dict, const AutoModule &m,
              const InstParams &inst_params,
              const std::vector<typename Domain::Value> &inputs)
{
    HYD_ASSERT(inputs.size() == m.input_widths.size(),
               "module input arity mismatch");
    HYD_ASSERT(!m.insts.empty(), "empty AutoLLVM module");
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
    const int out = m.result < 0 ? static_cast<int>(m.insts.size()) - 1
                                 : m.result;
    return values[out];
}

template <typename Domain>
typename Domain::Value
evalTargetHWDom(Domain &dom, const AutoLLVMDict &dict,
                const TargetProgram &p,
                const std::vector<typename Domain::Value> &inputs)
{
    std::vector<typename Domain::Value> values;
    values.reserve(p.insts.size());
    for (const TargetInst &inst : p.insts) {
        const auto args =
            gatherArgs(dom, inst.args, inputs, p.constants, values);
        values.push_back(
            runMemberHWDom(dom, dict, inst.op, args, inst.int_args));
    }
    if (!p.results.empty()) {
        auto value_of = [&](const ValueRef &ref) {
            if (ref.kind == ValueRef::Input)
                return inputs[ref.index];
            if (ref.kind == ValueRef::Const)
                return dom.constant(p.constants[ref.index]);
            return values[ref.index];
        };
        // Low part first, matching TargetProgram::evaluate.
        typename Domain::Value out = value_of(p.results[0]);
        for (size_t r = 1; r < p.results.size(); ++r)
            out = dom.concat(value_of(p.results[r]), out);
        return out;
    }
    HYD_ASSERT(!values.empty(), "empty target program");
    const int out = p.result < 0 ? static_cast<int>(p.insts.size()) - 1
                                 : p.result;
    return values[out];
}

/** Symbolic twin of evalHalide: same per-lane loops, same operators. */
template <typename Domain>
typename Domain::Value
evalHalideDom(Domain &dom, const HExprPtr &expr,
              const std::vector<typename Domain::Value> &inputs)
{
    using Value = typename Domain::Value;
    const int ew = expr->elem_width;
    const int lanes = expr->lanes;
    auto eval_kid = [&](int k) {
        return evalHalideDom(dom, expr->kids[k], inputs);
    };

    switch (expr->op) {
      case HOp::Input: {
        HYD_ASSERT(expr->imm < static_cast<int64_t>(inputs.size()),
                   "halide input index out of range");
        const Value &value = inputs[expr->imm];
        HYD_ASSERT(dom.widthOf(value) == expr->totalWidth(),
                   "halide input width mismatch");
        return value;
      }
      case HOp::ConstSplat: {
        BitVector out(expr->totalWidth());
        const BitVector elem = BitVector::fromInt(ew, expr->imm);
        for (int lane = 0; lane < lanes; ++lane)
            out.setSlice(lane * ew, elem);
        return dom.constant(out);
      }
      case HOp::Cast: {
        const Value a = eval_kid(0);
        const int from = expr->kids[0]->elem_width;
        Value out = dom.makeZero(expr->totalWidth());
        for (int lane = 0; lane < lanes; ++lane) {
            Value elem = dom.extract(a, lane * from, from);
            if (ew > from)
                elem = dom.cast(expr->sign ? BVCastOp::SExt : BVCastOp::ZExt,
                                elem, ew);
            else if (ew < from)
                elem = dom.cast(BVCastOp::Trunc, elem, ew);
            dom.setSlice(out, lane * ew, elem);
        }
        return out;
      }
      case HOp::SatNarrowS:
      case HOp::SatNarrowU: {
        const Value a = eval_kid(0);
        const int from = expr->kids[0]->elem_width;
        Value out = dom.makeZero(expr->totalWidth());
        for (int lane = 0; lane < lanes; ++lane) {
            Value elem = dom.extract(a, lane * from, from);
            elem = dom.cast(expr->op == HOp::SatNarrowS
                                ? BVCastOp::SatNarrowS
                                : BVCastOp::SatNarrowU,
                            elem, ew);
            dom.setSlice(out, lane * ew, elem);
        }
        return out;
      }
      case HOp::ReduceAdd: {
        const Value a = eval_kid(0);
        const int stride = static_cast<int>(expr->imm);
        Value out = dom.makeZero(expr->totalWidth());
        for (int lane = 0; lane < lanes; ++lane) {
            Value sum = dom.constant(BitVector(ew));
            for (int j = 0; j < stride; ++j)
                sum = dom.binOp(BVBinOp::Add, sum,
                                dom.extract(a, (lane * stride + j) * ew, ew));
            dom.setSlice(out, lane * ew, sum);
        }
        return out;
      }
      case HOp::Concat:
        return dom.concat(eval_kid(1), eval_kid(0));
      case HOp::Slice: {
        const Value a = eval_kid(0);
        return dom.extract(a, static_cast<int>(expr->imm) * ew, lanes * ew);
      }
      case HOp::ShlC:
      case HOp::AShrC:
      case HOp::LShrC: {
        const Value a = eval_kid(0);
        const int amount = static_cast<int>(expr->imm);
        const BVBinOp op = expr->op == HOp::ShlC    ? BVBinOp::Shl
                           : expr->op == HOp::AShrC ? BVBinOp::AShr
                                                    : BVBinOp::LShr;
        Value out = dom.makeZero(expr->totalWidth());
        for (int lane = 0; lane < lanes; ++lane) {
            dom.setSlice(out, lane * ew,
                         dom.shiftConst(op, dom.extract(a, lane * ew, ew),
                                        amount));
        }
        return out;
      }
      case HOp::AbsS: {
        const Value a = eval_kid(0);
        Value out = dom.makeZero(expr->totalWidth());
        for (int lane = 0; lane < lanes; ++lane) {
            dom.setSlice(out, lane * ew,
                         dom.unOp(BVUnOp::AbsS,
                                  dom.extract(a, lane * ew, ew)));
        }
        return out;
      }
      default: {
        // Lane-wise binary operators.
        const Value a = eval_kid(0);
        const Value b = eval_kid(1);
        Value out = dom.makeZero(expr->totalWidth());
        for (int lane = 0; lane < lanes; ++lane) {
            const Value x = dom.extract(a, lane * ew, ew);
            const Value y = dom.extract(b, lane * ew, ew);
            Value elem;
            switch (expr->op) {
              case HOp::Add: elem = dom.binOp(BVBinOp::Add, x, y); break;
              case HOp::Sub: elem = dom.binOp(BVBinOp::Sub, x, y); break;
              case HOp::Mul: elem = dom.binOp(BVBinOp::Mul, x, y); break;
              case HOp::MinS: elem = dom.binOp(BVBinOp::MinS, x, y); break;
              case HOp::MaxS: elem = dom.binOp(BVBinOp::MaxS, x, y); break;
              case HOp::MinU: elem = dom.binOp(BVBinOp::MinU, x, y); break;
              case HOp::MaxU: elem = dom.binOp(BVBinOp::MaxU, x, y); break;
              case HOp::SatAddS:
                elem = dom.binOp(BVBinOp::AddSatS, x, y);
                break;
              case HOp::SatAddU:
                elem = dom.binOp(BVBinOp::AddSatU, x, y);
                break;
              case HOp::SatSubS:
                elem = dom.binOp(BVBinOp::SubSatS, x, y);
                break;
              case HOp::SatSubU:
                elem = dom.binOp(BVBinOp::SubSatU, x, y);
                break;
              case HOp::AvgU: elem = dom.binOp(BVBinOp::AvgU, x, y); break;
              case HOp::MulHiS:
                elem = dom.extract(
                    dom.binOp(BVBinOp::Mul,
                              dom.cast(BVCastOp::SExt, x, 2 * ew),
                              dom.cast(BVCastOp::SExt, y, 2 * ew)),
                    ew, ew);
                break;
              default:
                HYD_ASSERT(false, "unhandled Halide operator in symbolic "
                                  "evaluation");
            }
            dom.setSlice(out, lane * ew, elem);
        }
        return out;
      }
    }
}

// ---- BVFun wiring -------------------------------------------------------

BVFun
moduleFun(const AutoLLVMDict &dict, const AutoModule &module,
          InstParams params)
{
    BVFun fun;
    fun.arg_widths = module.input_widths;
    fun.concrete = [&dict, &module,
                    params](const std::vector<BitVector> &inputs) {
        ConcreteDomain dom;
        return evalModuleDom(dom, dict, module, params, inputs);
    };
    fun.symbolic = [&dict, &module, params](
                       AigDomain &dom, const std::vector<SymVec> &inputs) {
        return evalModuleDom(dom, dict, module, params, inputs);
    };
    fun.knownbits = [&dict, &module,
                     params](KnownBitsDomain &dom,
                             const std::vector<KnownBits> &inputs) {
        return evalModuleDom(dom, dict, module, params, inputs);
    };
    fun.intervals = [&dict, &module,
                     params](dataflow::IntervalDomain &dom,
                             const std::vector<dataflow::Interval> &inputs) {
        return evalModuleDom(dom, dict, module, params, inputs);
    };
    return fun;
}

BVFun
targetHWFun(const AutoLLVMDict &dict, const TargetProgram &program)
{
    BVFun fun;
    fun.arg_widths = program.input_widths;
    fun.concrete = [&dict, &program](const std::vector<BitVector> &inputs) {
        ConcreteDomain dom;
        return evalTargetHWDom(dom, dict, program, inputs);
    };
    fun.symbolic = [&dict, &program](AigDomain &dom,
                                     const std::vector<SymVec> &inputs) {
        return evalTargetHWDom(dom, dict, program, inputs);
    };
    fun.knownbits = [&dict, &program](KnownBitsDomain &dom,
                                      const std::vector<KnownBits> &inputs) {
        return evalTargetHWDom(dom, dict, program, inputs);
    };
    fun.intervals = [&dict,
                     &program](dataflow::IntervalDomain &dom,
                               const std::vector<dataflow::Interval> &inputs) {
        return evalTargetHWDom(dom, dict, program, inputs);
    };
    return fun;
}

BVFun
windowFun(const HExprPtr &window, const std::vector<int> &input_widths)
{
    BVFun fun;
    fun.arg_widths = input_widths;
    fun.concrete = [window](const std::vector<BitVector> &inputs) {
        return evalHalide(window, inputs);
    };
    fun.symbolic = [window](AigDomain &dom,
                            const std::vector<SymVec> &inputs) {
        return evalHalideDom(dom, window, inputs);
    };
    fun.knownbits = [window](KnownBitsDomain &dom,
                             const std::vector<KnownBits> &inputs) {
        return evalHalideDom(dom, window, inputs);
    };
    fun.intervals = [window](dataflow::IntervalDomain &dom,
                             const std::vector<dataflow::Interval> &inputs) {
        return evalHalideDom(dom, window, inputs);
    };
    return fun;
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
