#include "analysis/driver.h"

#include "analysis/mutate.h"
#include "analysis/verifier.h"
#include "autollvm/dict.h"
#include "observability/bench/json.h"
#include "observability/metrics.h"
#include "support/strings.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>

namespace hydride {
namespace analysis {

namespace {

const char kUsage[] =
    "usage: hydride-verify [options]\n"
    "\n"
    "Run the Hydride static verifier over the derived spec database\n"
    "and the AutoLLVM dictionary.\n"
    "\n"
    "options:\n"
    "  --isas A,B,...      ISAs to verify (default: all built-in)\n"
    "  --passes P,Q,...    pass subset (see --list-passes; default: all)\n"
    "  --no-dict           skip dictionary construction + crosstable pass\n"
    "  --json              render diagnostics as JSON\n"
    "  --werror            treat warnings as errors\n"
    "  --pedantic          enable DC05 input-coverage notes\n"
    "  --waive RULE[:SUB]  waive a rule, optionally only for instructions\n"
    "                      whose name contains SUB (repeatable)\n"
    "  --max-print N       print at most N diagnostics (0 = all)\n"
    "  --mutate KIND       seed one defect before verifying; implies\n"
    "                      --werror (see --list-mutations)\n"
    "  --self-test         seed every defect in turn and assert the\n"
    "                      expected rule fires (semantic defects must\n"
    "                      be caught by EQ rules alone)\n"
    "  --eq-budget N       equiv-pass budget: N AIG nodes and N/8 SAT\n"
    "                      conflicts per query\n"
    "  --metrics           dump the metrics registry after the run\n"
    "  --list-passes       list verifier passes and exit\n"
    "  --list-mutations    list mutation kinds and exit\n"
    "  -h, --help          show this help\n";

struct CliOptions
{
    std::vector<std::string> isas;
    VerifierOptions verify;
    std::vector<Waiver> waivers;
    std::string mutate_kind;
    size_t max_print = 0;
    bool no_dict = false;
    bool json = false;
    bool werror = false;
    bool self_test = false;
    bool dump_metrics = false;
};

bool
parseWaiver(const std::string &text, Waiver &out)
{
    const size_t colon = text.find(':');
    out.rule = text.substr(0, colon);
    out.instruction_substr =
        colon == std::string::npos ? "" : text.substr(colon + 1);
    return !out.rule.empty();
}

/** Load the (cached) semantics for the selected ISAs. */
std::vector<const IsaSemantics *>
loadIsas(const std::vector<std::string> &isas)
{
    std::vector<const IsaSemantics *> out;
    out.reserve(isas.size());
    for (const std::string &isa : isas)
        out.push_back(&isaSemantics(isa));
    return out;
}

int
exitStatus(const DiagnosticReport &report, bool werror)
{
    if (report.hasErrors())
        return 1;
    if (werror && report.warnings() > 0)
        return 1;
    return 0;
}

std::string
secondsText(double seconds)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", seconds);
    return buffer;
}

/** Unknown-verdict queries ordered by solver time spent, worst first. */
std::vector<const EquivUnknown *>
worstUnknowns(const EquivStats &stats, size_t limit)
{
    std::vector<const EquivUnknown *> worst;
    worst.reserve(stats.unknowns.size());
    for (const EquivUnknown &u : stats.unknowns)
        worst.push_back(&u);
    std::sort(worst.begin(), worst.end(),
              [](const EquivUnknown *a, const EquivUnknown *b) {
                  return a->seconds > b->seconds;
              });
    if (worst.size() > limit)
        worst.resize(limit);
    return worst;
}

const std::vector<std::string> &
equivRuleIds()
{
    static const std::vector<std::string> rules = {"EQ01", "EQ02", "EQ03",
                                                   "EQ04"};
    return rules;
}

/** Per-rule verdict tallies + budget honesty, for the text report. */
std::string
equivSummaryText(const EquivStats &stats)
{
    std::ostringstream os;
    for (const std::string &rule : equivRuleIds()) {
        const auto count = [&](const std::map<std::string, int> &m) {
            auto it = m.find(rule);
            return it == m.end() ? 0 : it->second;
        };
        if (!count(stats.proved) && !count(stats.refuted) &&
            !count(stats.unknown))
            continue;
        os << "equiv: " << rule << " proved=" << count(stats.proved)
           << " refuted=" << count(stats.refuted)
           << " unknown=" << count(stats.unknown) << "\n";
    }
    os << "equiv: " << secondsText(stats.seconds) << "s solver time\n";
    if (!stats.unknowns.empty()) {
        os << "equiv: " << stats.unknowns.size()
           << " unknown-verdict quer"
           << (stats.unknowns.size() == 1 ? "y" : "ies")
           << " NOT counted as passes; worst offenders:\n";
        for (const EquivUnknown *u : worstUnknowns(stats, 3)) {
            os << "equiv:   " << u->rule << " " << u->isa << ":"
               << u->subject << " — " << u->reason << " ("
               << secondsText(u->seconds) << "s)\n";
        }
    }
    return os.str();
}

std::string
equivSummaryJson(const EquivStats &stats)
{
    std::ostringstream os;
    auto tally = [&](const char *key, const std::map<std::string, int> &m) {
        os << "\"" << key << "\":{";
        bool first = true;
        for (const std::string &rule : equivRuleIds()) {
            auto it = m.find(rule);
            if (it == m.end())
                continue;
            if (!first)
                os << ",";
            first = false;
            os << "\"" << rule << "\":" << it->second;
        }
        os << "}";
    };
    os << "{";
    tally("proved", stats.proved);
    os << ",";
    tally("refuted", stats.refuted);
    os << ",";
    tally("unknown", stats.unknown);
    os << ",\"solver_seconds\":" << secondsText(stats.seconds)
       << ",\"unknown_queries\":[";
    for (size_t i = 0; i < stats.unknowns.size(); ++i) {
        const EquivUnknown &u = stats.unknowns[i];
        if (i)
            os << ",";
        os << "{\"rule\":\"" << bjson::escape(u.rule) << "\",\"isa\":\""
           << bjson::escape(u.isa) << "\",\"subject\":\""
           << bjson::escape(u.subject) << "\",\"reason\":\""
           << bjson::escape(u.reason) << "\",\"seconds\":"
           << secondsText(u.seconds) << "}";
    }
    os << "]}";
    return os.str();
}

/** Run the verifier with one seeded defect. Returns the report and
 *  (via out-params) what was mutated. */
DiagnosticReport
runMutated(const CliOptions &options, const MutationInfo &mutation,
           std::string &victim)
{
    DiagnosticReport report;
    report.setWaivers(options.waivers);
    VerifierOptions vopts = options.verify;

    if (mutation.on_expander) {
        // No table data changes: flip the expander's splice-skew knob
        // and let the EQ03 queries compare the skewed programs.
        const AutoLLVMDict dict = AutoLLVMDict::build(options.isas);
        VerifyInput input{loadIsas(options.isas), &dict};
        vopts.pass_ids = {"crosstable", "equiv"};
        vopts.equiv.rules = {mutation.expected_rule};
        vopts.equiv.expander_splice_skew = 1;
        victim = "<macro-expansion splice>";
        runVerifier(input, vopts, report);
    } else if (mutation.on_dict) {
        // Mutate the dictionary: rebuild it from mutated classes and
        // run the crosstable pass (the spec DB is untouched). Semantic
        // defects additionally run their EQ rule, restricted to the
        // victim so self-testing stays fast.
        std::vector<EquivalenceClass> classes =
            runSimilarityEngine(combinedSemantics(options.isas));
        victim = mutateClasses(classes, mutation.kind);
        const AutoLLVMDict dict(std::move(classes));
        VerifyInput input{loadIsas(options.isas), &dict};
        vopts.pass_ids = {"crosstable"};
        if (mutation.semantic()) {
            vopts.pass_ids.push_back("equiv");
            vopts.equiv.rules = {mutation.expected_rule};
            vopts.equiv.instruction_filter = victim;
        }
        runVerifier(input, vopts, report);
    } else {
        // Mutate one instruction's semantics: run the per-instruction
        // passes over mutated copies (no dictionary needed).
        std::vector<IsaSemantics> mutated;
        mutated.reserve(options.isas.size());
        for (const std::string &isa : options.isas)
            mutated.push_back(isaSemantics(isa));
        for (IsaSemantics &sema : mutated) {
            victim = mutateSemantics(sema, mutation.kind);
            if (!victim.empty())
                break;
        }
        VerifyInput input;
        for (const IsaSemantics &sema : mutated)
            input.isas.push_back(&sema);
        vopts.pass_ids = {"wellformed", "ub", "deadcode", "range"};
        runVerifier(input, vopts, report);
    }
    return report;
}

int
runSelfTest(const CliOptions &options, std::ostream &out, std::ostream &err)
{
    int failures = 0;
    for (const MutationInfo &mutation : allMutations()) {
        std::string victim;
        const DiagnosticReport report =
            runMutated(options, mutation, victim);
        if (victim.empty()) {
            err << "self-test: " << mutation.kind
                << ": no eligible victim instruction\n";
            ++failures;
            continue;
        }
        const bool caught = std::any_of(
            report.diags().begin(), report.diags().end(),
            [&](const Diagnostic &d) { return d.rule ==
                                              mutation.expected_rule; });
        // A semantic defect must be invisible to the structural rules:
        // only the symbolic EQ family may error on it.
        const bool structurally_clean =
            !mutation.semantic() ||
            std::none_of(report.diags().begin(), report.diags().end(),
                         [](const Diagnostic &d) {
                             return d.severity == Severity::Error &&
                                    d.rule.rfind("EQ", 0) != 0;
                         });
        out << "self-test: " << mutation.kind << " -> "
            << mutation.expected_rule << " on " << victim << ": "
            << (caught ? (structurally_clean ? "caught"
                                             : "caught, but NOT EQ-only")
                       : "MISSED")
            << "\n";
        if (!caught || !structurally_clean) {
            err << report.renderText(options.max_print);
            ++failures;
        }
    }
    if (failures) {
        err << "self-test: " << failures << " mutation(s) NOT caught\n";
        return 1;
    }
    out << "self-test: all " << allMutations().size()
        << " seeded defects caught\n";
    return 0;
}

} // namespace

int
runVerifierCli(const std::vector<std::string> &args, std::ostream &out,
               std::ostream &err)
{
    CliOptions options;

    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](std::string &into) {
            if (i + 1 >= args.size()) {
                err << "hydride-verify: " << arg << " needs a value\n";
                return false;
            }
            into = args[++i];
            return true;
        };
        std::string v;
        if (arg == "-h" || arg == "--help") {
            out << kUsage;
            return 0;
        } else if (arg == "--list-passes") {
            for (const PassInfo &pass : verifierPasses())
                out << pass.id << "  [" << pass.rules << "]  " << pass.title
                    << (pass.needs_dict ? "  (needs dictionary)" : "")
                    << "\n";
            return 0;
        } else if (arg == "--list-mutations") {
            for (const MutationInfo &m : allMutations())
                out << m.kind << "  -> " << m.expected_rule << "  "
                    << m.description << "\n";
            return 0;
        } else if (arg == "--isas") {
            if (!value(v))
                return 2;
            options.isas = split(v, ',');
        } else if (arg == "--passes") {
            if (!value(v))
                return 2;
            options.verify.pass_ids = split(v, ',');
            for (const std::string &id : options.verify.pass_ids) {
                const auto &passes = verifierPasses();
                if (std::none_of(passes.begin(), passes.end(),
                                 [&](const PassInfo &p) {
                                     return p.id == id;
                                 })) {
                    err << "hydride-verify: unknown pass '" << id
                        << "' (see --list-passes)\n";
                    return 2;
                }
            }
        } else if (arg == "--waive") {
            if (!value(v))
                return 2;
            Waiver waiver;
            if (!parseWaiver(v, waiver)) {
                err << "hydride-verify: bad waiver '" << v
                    << "' (want RULE or RULE:SUBSTR)\n";
                return 2;
            }
            options.waivers.push_back(std::move(waiver));
        } else if (arg == "--max-print") {
            if (!value(v))
                return 2;
            options.max_print = static_cast<size_t>(std::stoul(v));
        } else if (arg == "--eq-budget") {
            if (!value(v))
                return 2;
            const unsigned long budget = std::stoul(v);
            if (budget < 64) {
                err << "hydride-verify: --eq-budget must be >= 64\n";
                return 2;
            }
            options.verify.equiv.budget.max_nodes = budget;
            options.verify.equiv.budget.max_conflicts =
                static_cast<long>(budget / 8);
        } else if (arg == "--mutate") {
            if (!value(v))
                return 2;
            if (!findMutation(v)) {
                err << "hydride-verify: unknown mutation '" << v
                    << "' (see --list-mutations)\n";
                return 2;
            }
            options.mutate_kind = v;
            options.werror = true;
        } else if (arg == "--no-dict") {
            options.no_dict = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg == "--werror") {
            options.werror = true;
        } else if (arg == "--pedantic") {
            options.verify.inst.pedantic = true;
        } else if (arg == "--self-test") {
            options.self_test = true;
        } else if (arg == "--metrics") {
            options.dump_metrics = true;
        } else {
            err << "hydride-verify: unknown option '" << arg << "'\n"
                << kUsage;
            return 2;
        }
    }

    if (options.isas.empty())
        options.isas = builtinIsas();
    for (const std::string &isa : options.isas) {
        const auto &known = builtinIsas();
        if (std::find(known.begin(), known.end(), isa) == known.end()) {
            err << "hydride-verify: unknown ISA '" << isa << "' (known: "
                << join(known, ", ") << ")\n";
            return 2;
        }
    }
    if (options.dump_metrics)
        metrics::setEnabled(true);

    EquivStats equiv_stats;
    options.verify.equiv.stats = &equiv_stats;

    if (options.self_test) {
        const int status = runSelfTest(options, out, err);
        if (options.dump_metrics)
            out << metrics::exportJson() << "\n";
        return status;
    }

    DiagnosticReport report;
    report.setWaivers(options.waivers);

    if (!options.mutate_kind.empty()) {
        const MutationInfo *mutation = findMutation(options.mutate_kind);
        std::string victim;
        report = runMutated(options, *mutation, victim);
        if (victim.empty()) {
            err << "hydride-verify: mutation '" << options.mutate_kind
                << "' found no eligible victim\n";
            return 2;
        }
        err << "hydride-verify: seeded '" << options.mutate_kind
            << "' into " << victim << " (expect "
            << mutation->expected_rule << ")\n";
    } else {
        // Both the crosstable pass and the symbolic equivalence pass
        // consume the dictionary.
        const bool want_dict = !options.no_dict &&
                               (options.verify.runsPass("crosstable") ||
                                options.verify.runsPass("equiv"));
        VerifyInput input;
        input.isas = loadIsas(options.isas);
        std::optional<AutoLLVMDict> dict;
        if (want_dict) {
            dict.emplace(AutoLLVMDict::build(options.isas));
            input.dict = &*dict;
        }
        runVerifier(input, options.verify, report);
    }

    report.sortBySeverity();
    const bool equiv_ran = equiv_stats.totalProved() +
                               equiv_stats.totalRefuted() +
                               equiv_stats.totalUnknown() >
                           0;
    if (options.json) {
        if (equiv_ran)
            report.setExtra("equiv", equivSummaryJson(equiv_stats));
        out << report.renderJson() << "\n";
    } else {
        out << report.renderText(options.max_print);
        if (equiv_ran)
            out << equivSummaryText(equiv_stats);
    }
    if (options.dump_metrics)
        out << metrics::exportJson() << "\n";
    return exitStatus(report, options.werror);
}

} // namespace analysis
} // namespace hydride
