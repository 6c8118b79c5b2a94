#include "autollvm/module.h"

#include "autollvm/eval.h"
#include "support/error.h"
#include "support/strings.h"

#include <sstream>

namespace hydride {

BitVector
AutoModule::evaluate(const AutoLLVMDict &dict,
                     const std::vector<BitVector> &inputs) const
{
    BitVectorDomain dom;
    return evalModuleDom(dom, dict, *this, {}, inputs);
}

int
AutoModule::cost(const AutoLLVMDict &dict) const
{
    int total = 0;
    for (const auto &inst : insts)
        total += inst.op.member(dict).latency;
    return total;
}

namespace {

/** `<N x iW>` vector-type string for a value of the given shape. */
std::string
vecType(int total_width, int elem_width)
{
    if (elem_width <= 0 || total_width % elem_width != 0 ||
        total_width == elem_width) {
        return format("i%d", total_width);
    }
    return format("<%d x i%d>", total_width / elem_width, elem_width);
}

} // namespace

std::string
AutoModule::print(const AutoLLVMDict &dict) const
{
    std::ostringstream os;
    for (size_t v = 0; v < insts.size(); ++v) {
        const AutoInst &inst = insts[v];
        const EquivalenceClass &cls = dict.cls(inst.op.class_id);
        const ClassMember &member = inst.op.member(dict);
        const int out_w = cls.rep.outputWidth(member.param_values);

        // Infer the printed element width from the representative.
        EvalEnv env;
        env.param_values = &member.param_values;
        const int elem_w = static_cast<int>(evalInt(cls.rep.elem_width, env));

        os << "%" << v << " = call " << vecType(out_w, elem_w) << " @"
           << dict.className(inst.op.class_id) << "(";
        for (size_t a = 0; a < inst.args.size(); ++a) {
            if (a)
                os << ", ";
            const int arg_w =
                cls.rep.argWidth(static_cast<int>(a), member.param_values);
            os << vecType(arg_w, elem_w) << " ";
            if (inst.args[a].kind == ValueRef::Input)
                os << "%arg" << inst.args[a].index;
            else if (inst.args[a].kind == ValueRef::Const)
                os << "%const" << inst.args[a].index;
            else
                os << "%" << inst.args[a].index;
        }
        for (size_t p = 0; p < member.param_values.size(); ++p)
            os << ", i32 " << member.param_values[p]
               << " /* " << cls.rep.params[p].name << " */";
        for (int64_t imm : inst.int_args)
            os << ", i32 " << imm << " /* imm */";
        os << ")   ; " << member.name << " [" << member.isa << "]\n";
    }
    return os.str();
}

} // namespace hydride
