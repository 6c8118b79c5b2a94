#include "codegen/lowering.h"

#include "codegen/eval.h"
#include "observability/journal/journal.h"
#include "observability/trace.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/strings.h"

#include <sstream>

namespace hydride {

int
TargetProgram::cost() const
{
    int total = 0;
    for (const auto &inst : insts)
        total += inst.latency;
    return total;
}

BitVector
TargetProgram::evaluate(const AutoLLVMDict &dict,
                        const std::vector<BitVector> &inputs) const
{
    BitVectorDomain dom;
    return evalProgramDom(
        dom, *this, inputs,
        [&](const TargetInst &inst, const std::vector<BitVector> &args) {
            return dict.run(inst.op, args, inst.int_args);
        });
}

std::string
TargetProgram::print() const
{
    std::ostringstream os;
    for (size_t v = 0; v < insts.size(); ++v) {
        const TargetInst &inst = insts[v];
        os << "%" << v << " = " << inst.inst_name << "(";
        for (size_t a = 0; a < inst.args.size(); ++a) {
            if (a)
                os << ", ";
            if (inst.args[a].kind == ValueRef::Input)
                os << "%arg" << inst.args[a].index;
            else if (inst.args[a].kind == ValueRef::Const)
                os << "%const" << inst.args[a].index;
            else
                os << "%" << inst.args[a].index;
        }
        for (int64_t imm : inst.int_args)
            os << ", " << imm;
        os << ")  ; lat " << inst.latency << "\n";
    }
    return os.str();
}

namespace {

/** Lowering failures are rare and decision-relevant (they push the
 *  driver down a rung), so each one lands in the journal. */
void
noteLoweringFailure(const std::string &isa, const std::string &error)
{
    if (!journal::enabled())
        return;
    auto fields = bjson::Value::makeObject();
    fields->set("isa", bjson::Value::makeString(isa));
    fields->set("error", bjson::Value::makeString(error));
    journal::emitEvent("lowering", fields);
}

} // namespace

LoweringResult
lowerToTarget(const AutoModule &module, const AutoLLVMDict &dict,
              const std::string &isa)
{
    trace::TraceSpan span("codegen.lowering.lower");
    LoweringResult result;
    result.program.isa = isa;
    result.program.input_widths = module.input_widths;
    result.program.constants = module.constants;
    result.program.result = module.result;

    // Chaos seam: lowering failure is an ordinary outcome (the driver
    // falls back to macro expansion); injecting it exercises that rung.
    if (faults::shouldFail("lowering.fail")) {
        result.error = "injected lowering failure";
        noteLoweringFailure(isa, result.error);
        return result;
    }

    for (const auto &inst : module.insts) {
        const EquivalenceClass &cls = dict.cls(inst.op.class_id);
        const ClassMember &chosen = inst.op.member(dict);

        // Retarget: find the member of this class on `isa` with the
        // same parameter assignment (possibly `chosen` itself).
        const ClassMember *target = nullptr;
        AutoOpVariant variant = inst.op;
        for (size_t m = 0; m < cls.members.size(); ++m) {
            const ClassMember &cand = cls.members[m];
            if (cand.isa == isa &&
                cand.param_values == chosen.param_values) {
                target = &cand;
                variant.member_index = static_cast<int>(m);
                break;
            }
        }
        if (!target) {
            result.error = format(
                "class %s has no %s member with the required parameters",
                dict.className(inst.op.class_id).c_str(), isa.c_str());
            noteLoweringFailure(isa, result.error);
            return result;
        }

        TargetInst lowered;
        lowered.inst_name = target->name;
        lowered.isa = isa;
        lowered.latency = target->latency;
        lowered.op = variant;
        lowered.args = inst.args;
        lowered.int_args = inst.int_args;
        result.program.insts.push_back(std::move(lowered));
    }
    result.ok = true;
    return result;
}

} // namespace hydride
