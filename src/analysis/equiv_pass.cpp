#include "analysis/equiv_pass.h"

#include "analysis/symbolic/ir_equiv.h"
#include "codegen/macro_expand.h"
#include "halide/hexpr.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "synthesis/cegis.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <tuple>

namespace hydride {
namespace analysis {

namespace {

/** Shared state of one equiv-pass run. */
struct EqContext
{
    const VerifyInput &input;
    const VerifierOptions &options;
    DiagnosticReport &report;
    EquivStats &stats;
};

bool
runsRule(const EquivOptions &options, const std::string &rule)
{
    if (options.rules.empty())
        return true;
    return std::find(options.rules.begin(), options.rules.end(), rule) !=
           options.rules.end();
}

bool
matchesFilter(const EquivOptions &options, const std::string &name)
{
    return options.instruction_filter.empty() ||
           name.find(options.instruction_filter) != std::string::npos;
}

/** "x0=0x00ff, x1=0x0001" — the refutation model, capped. */
std::string
modelText(const std::vector<BitVector> &model)
{
    std::string text;
    const size_t shown = std::min<size_t>(model.size(), 4);
    for (size_t i = 0; i < shown; ++i) {
        if (i)
            text += ", ";
        text += "x" + std::to_string(i) + "=0x" + model[i].toHex();
    }
    if (shown < model.size())
        text += ", ... (" + std::to_string(model.size()) + " inputs)";
    return text;
}

/** Record one query outcome: tallies, metrics, and a diagnostic for
 *  refuted (error) or unknown (warning) verdicts. */
void
recordQuery(EqContext &ctx, const std::string &rule, const std::string &isa,
            const std::string &subject, const sym::EqResult &result,
            const std::string &what)
{
    static metrics::Histogram &seconds_hist =
        metrics::histogram("analysis.equiv.solver_seconds");
    seconds_hist.observe(result.seconds);
    std::string metric = "analysis.equiv." + rule;
    std::transform(metric.begin(), metric.end(), metric.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    ctx.stats.seconds += result.seconds;

    Diagnostic diag;
    diag.rule = rule;
    diag.pass = "equiv";
    diag.isa = isa;
    diag.instruction = subject;
    switch (result.verdict) {
      case sym::Verdict::Proved:
        ++ctx.stats.proved[rule];
        metrics::counter(metric + ".proved").add();
        return;
      case sym::Verdict::Refuted:
        ++ctx.stats.refuted[rule];
        metrics::counter(metric + ".refuted").add();
        diag.severity = Severity::Error;
        diag.message = what + " (refuted via " + result.method +
                       " tier; countermodel " + modelText(result.model) +
                       ")";
        break;
      case sym::Verdict::Unknown:
        ++ctx.stats.unknown[rule];
        metrics::counter(metric + ".unknown").add();
        ctx.stats.unknowns.push_back(
            {rule, isa, subject, result.reason, result.seconds});
        diag.severity = Severity::Warning;
        diag.message = what + ": verdict unknown (" + result.reason +
                       ") — not counted as a pass";
        break;
    }
    ctx.report.add(std::move(diag));
}

/** Member-side guards shared by EQ01/EQ02: skip members whose shape
 *  defects the crosstable pass already reports (XT08/XT09) — probing
 *  them would only crash the width evaluation. */
bool
memberShapeOk(const EquivalenceClass &cls, const ClassMember &member)
{
    if (member.param_values.size() != cls.rep.params.size())
        return false;
    if (member.arg_perm.empty())
        return true;
    const size_t rep_args = cls.rep.bv_args.size();
    if (member.arg_perm.size() != rep_args)
        return false;
    std::vector<bool> hit(rep_args, false);
    for (int p : member.arg_perm) {
        if (p < 0 || p >= static_cast<int>(rep_args) || hit[p])
            return false;
        hit[p] = true;
    }
    return true;
}

/** EQ01: member semantics vs. parameterized representative. */
void
runEq01(EqContext &ctx)
{
    const AutoLLVMDict &dict = *ctx.input.dict;
    for (int c = 0; c < dict.classCount(); ++c) {
        const EquivalenceClass &cls = dict.cls(c);
        for (const ClassMember &member : cls.members) {
            if (!matchesFilter(ctx.options.equiv, member.name))
                continue;
            if (!memberShapeOk(cls, member))
                continue;
            sym::SemanticsSide member_side;
            member_side.sem = &member.concrete;
            member_side.int_arg_values.assign(
                member.concrete.int_args.size(), 1);
            sym::SemanticsSide rep_side;
            rep_side.sem = &cls.rep;
            rep_side.param_values = member.param_values;
            rep_side.arg_map = member.arg_perm;
            rep_side.int_arg_values.assign(cls.rep.int_args.size(), 1);
            const sym::EqResult result = sym::checkSemanticsEquiv(
                member_side, rep_side, ctx.options.equiv.budget);
            recordQuery(ctx, "EQ01", member.isa, member.name, result,
                        "member semantics disagree with " +
                            dict.className(c) +
                            " instantiated with the recorded parameters");
        }
    }
}

/** EQ02: one-op AutoLLVM module (representative view) vs. its lowered
 *  target instruction (hardware view). */
void
runEq02(EqContext &ctx)
{
    const AutoLLVMDict &dict = *ctx.input.dict;
    // Lowering selects by (class, ISA, parameters); querying the same
    // key repeatedly for type-only alias members would re-prove the
    // same program.
    std::set<std::tuple<int, std::string, std::vector<int64_t>>> done;
    for (int c = 0; c < dict.classCount(); ++c) {
        const EquivalenceClass &cls = dict.cls(c);
        for (size_t m = 0; m < cls.members.size(); ++m) {
            const ClassMember &member = cls.members[m];
            if (!matchesFilter(ctx.options.equiv, member.name))
                continue;
            if (!memberShapeOk(cls, member))
                continue;
            if (!done.insert({c, member.isa, member.param_values}).second)
                continue;
            AutoModule module;
            AutoInst call;
            call.op = {c, static_cast<int>(m)};
            for (size_t a = 0; a < cls.rep.bv_args.size(); ++a) {
                module.input_widths.push_back(cls.rep.argWidth(
                    static_cast<int>(a), member.param_values));
                call.args.push_back(ValueRef::input(static_cast<int>(a)));
            }
            call.int_args.assign(cls.rep.int_args.size(), 0);
            module.insts.push_back(std::move(call));
            module.result = 0;
            const LoweringResult lowered =
                lowerToTarget(module, dict, member.isa);
            if (!lowered.ok)
                continue; // XT04's finding, not ours.
            const sym::EqResult result = sym::checkLoweringEquiv(
                dict, module, lowered.program, ctx.options.equiv.budget);
            recordQuery(ctx, "EQ02", member.isa, member.name, result,
                        dict.className(c) +
                            " does not round-trip through its lowering "
                            "to " +
                            member.isa);
        }
    }
}

/** EQ03: macro-expanded programs vs. the Halide ops they implement.
 *  Windows are two machine registers wide so the multi-register
 *  result splice is exercised (a one-register window would make any
 *  splice permutation the identity). */
void
runEq03(EqContext &ctx)
{
    const AutoLLVMDict &dict = *ctx.input.dict;
    for (const IsaSemantics *sema : ctx.input.isas) {
        auto bits_it = ctx.options.vector_bits.find(sema->isa);
        if (bits_it == ctx.options.vector_bits.end())
            continue;
        const int vector_bits = bits_it->second;
        ExpanderOptions eopts;
        eopts.splice_skew = ctx.options.equiv.expander_splice_skew;
        MacroExpander expander(dict, sema->isa, vector_bits, eopts);
        // Register-sized lane arithmetic plus a widening cast: the
        // cast's output spans two registers, which is what exercises
        // the multi-register result splice.
        struct Window
        {
            const char *name;
            HExprPtr expr;
        };
        const Window windows[] = {
            {"add.16", hBin(HOp::Add, hInput(0, 16, vector_bits / 16),
                            hInput(1, 16, vector_bits / 16))},
            {"sub.8", hBin(HOp::Sub, hInput(0, 8, vector_bits / 8),
                           hInput(1, 8, vector_bits / 8))},
            {"sat_add_s.16",
             hBin(HOp::SatAddS, hInput(0, 16, vector_bits / 16),
                  hInput(1, 16, vector_bits / 16))},
            {"widen_s.8to16",
             hCast(hInput(0, 8, vector_bits / 8), 16, true)},
        };
        for (const Window &w : windows) {
            ExpandResult expanded = expander.expand(w.expr);
            if (!expanded.ok)
                continue; // Coverage holes are XT06's finding.
            const sym::EqResult result = sym::checkProgramEquiv(
                dict, expanded.program, w.expr, ctx.options.equiv.budget);
            recordQuery(ctx, "EQ03", sema->isa,
                        std::string("macro-expansion of ") + w.name, result,
                        "macro-expanded program disagrees with the " +
                            std::string(w.name) + " window it replaces");
        }
    }
}

/** EQ04: synthesize one small window per ISA and re-validate the
 *  result symbolically (the full-input check the CEGIS random-vector
 *  verification only samples). */
void
runEq04(EqContext &ctx)
{
    const AutoLLVMDict &dict = *ctx.input.dict;
    for (const IsaSemantics *sema : ctx.input.isas) {
        auto bits_it = ctx.options.vector_bits.find(sema->isa);
        if (bits_it == ctx.options.vector_bits.end())
            continue;
        const int ew = 16;
        const int lanes = bits_it->second / ew;
        const HExprPtr window =
            hBin(HOp::Add, hInput(0, ew, lanes), hInput(1, ew, lanes));
        SynthesisOptions sopts;
        sopts.symbolic_verify = true;
        sopts.symbolic_budget = ctx.options.equiv.budget;
        const SynthesisResult synth =
            synthesizeWindow(dict, sema->isa, window, sopts);
        if (!synth.ok)
            continue; // Synthesis coverage is the benchmarks' story.
        const sym::EqResult result = sym::checkModuleEquiv(
            dict, synth.module, window, ctx.options.equiv.budget);
        recordQuery(ctx, "EQ04", sema->isa, "synthesized add.16 window",
                    result,
                    "synthesized module disagrees with its "
                    "specification window");
    }
}

} // namespace

void
runEquivPass(const VerifyInput &input, const VerifierOptions &options,
             DiagnosticReport &report)
{
    trace::TraceSpan span("analysis.pass.equiv");
    EquivStats local;
    EquivStats &stats = options.equiv.stats ? *options.equiv.stats : local;
    EqContext ctx{input, options, report, stats};

    if (runsRule(options.equiv, "EQ01"))
        runEq01(ctx);
    if (runsRule(options.equiv, "EQ02"))
        runEq02(ctx);
    if (runsRule(options.equiv, "EQ03"))
        runEq03(ctx);
    if (runsRule(options.equiv, "EQ04"))
        runEq04(ctx);

    span.setAttr("proved", static_cast<int64_t>(stats.totalProved()));
    span.setAttr("refuted", static_cast<int64_t>(stats.totalRefuted()));
    span.setAttr("unknown", static_cast<int64_t>(stats.totalUnknown()));
    metrics::counter("analysis.equiv.proved")
        .add(static_cast<uint64_t>(stats.totalProved()));
    metrics::counter("analysis.equiv.refuted")
        .add(static_cast<uint64_t>(stats.totalRefuted()));
    metrics::counter("analysis.equiv.unknown")
        .add(static_cast<uint64_t>(stats.totalUnknown()));
}

} // namespace analysis
} // namespace hydride
