#include "analysis/symbolic/equiv.h"

#include "analysis/symbolic/sat.h"
#include "observability/metrics.h"
#include "observability/phases.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/rng.h"

#include <algorithm>
#include <chrono>
#include <type_traits>

namespace hydride {
namespace sym {

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Proved: return "proved";
      case Verdict::Refuted: return "refuted";
      case Verdict::Unknown: return "unknown";
    }
    return "?";
}

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

std::vector<BitVector>
zeroArgs(const std::vector<int> &widths)
{
    std::vector<BitVector> args;
    args.reserve(widths.size());
    for (int w : widths)
        args.emplace_back(w);
    return args;
}

/** Concretely confirm that the two sides disagree on `model`. */
bool
validateModel(const BVFun &a, const BVFun &b,
              const std::vector<BitVector> &model)
{
    try {
        return a.concrete(model) != b.concrete(model);
    } catch (const AssertionError &) {
        return false;
    }
}

/** Quick-kill testing: most inequivalent pairs disagree on random
 *  inputs, and a random witness is as good as a solver model (both
 *  are validated the same way). Fills `model` and returns true on a
 *  disagreement; equivalent pairs fall through to the symbolic tiers. */
bool
sampleRefutes(const BVFun &a, const BVFun &b, std::vector<BitVector> &model)
{
    Rng rng(0x5A3C0FFEull);
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<BitVector> args;
        args.reserve(a.arg_widths.size());
        for (int w : a.arg_widths)
            args.push_back(BitVector::random(std::max(w, 1), rng));
        try {
            if (a.concrete(args) != b.concrete(args)) {
                model = std::move(args);
                return true;
            }
        } catch (const AssertionError &) {
            return false; // Evaluation errors are the tiers' business.
        }
    }
    return false;
}

} // namespace

EqResult
checkEquiv(const BVFun &a, const BVFun &b, const EqBudget &budget)
{
    const auto start = std::chrono::steady_clock::now();
    EqResult result;

    if (a.arg_widths != b.arg_widths) {
        result.reason = "argument signature mismatch";
        result.seconds = secondsSince(start);
        return result;
    }

    // Chaos seam: a budget-exhausted verdict — `unknown` is already a
    // first-class outcome of every tier, so injecting it here proves
    // callers (EQ rules, CEGIS, the resilient driver) treat it as
    // "no answer", never as a pass.
    if (faults::shouldFail("symbolic.budget")) {
        result.reason = "injected budget exhaustion";
        result.seconds = secondsSince(start);
        return result;
    }

    // Tier 0: concrete random sampling. Cheap, and it spares the SAT
    // core the easy refutations so its conflict budget is reserved
    // for what actually needs a proof.
    if (a.concrete && b.concrete) {
        std::vector<BitVector> model;
        if (sampleRefutes(a, b, model)) {
            result.verdict = Verdict::Refuted;
            result.method = "concrete";
            result.model = std::move(model);
            result.seconds = secondsSince(start);
            return result;
        }
    }

    // Tier 1: known-bits abstract interpretation with unknown args.
    if (a.knownbits && b.knownbits) {
        try {
            KnownBitsDomain dom;
            std::vector<KnownBits> args;
            args.reserve(a.arg_widths.size());
            for (int w : a.arg_widths)
                args.push_back(KnownBits::top(w));
            const KnownBits ka = a.knownbits(dom, args);
            const KnownBits kb = b.knownbits(dom, args);
            if (ka.width() == kb.width()) {
                if (ka.fullyKnown() && kb.fullyKnown()) {
                    result.method = "knownbits";
                    if (ka.concreteValue() == kb.concreteValue()) {
                        result.verdict = Verdict::Proved;
                        result.seconds = secondsSince(start);
                        return result;
                    }
                }
                // A disagreement on a commonly-known bit holds for
                // *every* input; validate the all-zeros assignment.
                const BitVector common = ka.known.bvand(kb.known);
                if (ka.value.bvand(common) != kb.value.bvand(common)) {
                    const std::vector<BitVector> model =
                        zeroArgs(a.arg_widths);
                    if (validateModel(a, b, model)) {
                        result.verdict = Verdict::Refuted;
                        result.method = "knownbits";
                        result.model = model;
                        result.seconds = secondsSince(start);
                        return result;
                    }
                }
            }
        } catch (const AssertionError &) {
            // Fall through to the exact tiers.
        }
    }

    // Tier 1b: interval abstract interpretation with unknown args.
    // Value ranges see facts bitwise tracking cannot (division,
    // remainder, saturation, decided comparisons); both tiers cost a
    // single abstract walk, so running both before any circuit
    // construction is still essentially free.
    if (a.intervals && b.intervals) {
        try {
            dataflow::IntervalDomain dom;
            std::vector<dataflow::Interval> args;
            args.reserve(a.arg_widths.size());
            for (int w : a.arg_widths)
                args.push_back(dataflow::Interval::top(w));
            const dataflow::Interval ia = a.intervals(dom, args);
            const dataflow::Interval ib = b.intervals(dom, args);
            if (ia.width() == ib.width()) {
                if (ia.isSingleton() && ib.isSingleton() && ia.lo == ib.lo) {
                    metrics::counter("symbolic.equiv.interval_proved").add();
                    result.verdict = Verdict::Proved;
                    result.method = "interval";
                    result.seconds = secondsSince(start);
                    return result;
                }
                // Disjoint ranges hold for *every* input; validate the
                // all-zeros assignment concretely before reporting.
                if ((ia.hi.ult(ib.lo) || ib.hi.ult(ia.lo)) && a.concrete &&
                    b.concrete) {
                    const std::vector<BitVector> model =
                        zeroArgs(a.arg_widths);
                    if (validateModel(a, b, model)) {
                        metrics::counter("symbolic.equiv.interval_refuted")
                            .add();
                        result.verdict = Verdict::Refuted;
                        result.method = "interval";
                        result.model = model;
                        result.seconds = secondsSince(start);
                        return result;
                    }
                }
            }
        } catch (const AssertionError &) {
            // Fall through to the exact tiers.
        }
    }

    // Tier 2: bit-blast both sides into one hashed AIG and build the
    // inequality miter.
    Aig aig(budget.max_nodes);
    // Nodes built is a deterministic function of the query, so a
    // builder change must leave this sum exactly where it was.
    auto noteNodes = [&] {
        result.aig_nodes = aig.numNodes();
        metrics::counter("symbolic.equiv.aig_nodes").add(aig.numNodes());
    };
    AigDomain dom(aig);
    std::vector<SymVec> args;
    args.reserve(a.arg_widths.size());
    for (int w : a.arg_widths)
        args.push_back(svInputs(aig, w));

    SymVec out_a, out_b;
    try {
        out_a = a.symbolic(dom, args);
        out_b = b.symbolic(dom, args);
    } catch (const AssertionError &err) {
        result.reason = std::string("symbolic evaluation failed: ") +
                        err.what();
        noteNodes();
        result.seconds = secondsSince(start);
        return result;
    }

    if (out_a.width() != out_b.width()) {
        // Different output widths: definitely inequivalent; any input
        // witnesses it. Validate zeros concretely.
        const std::vector<BitVector> model = zeroArgs(a.arg_widths);
        if (validateModel(a, b, model)) {
            result.verdict = Verdict::Refuted;
            result.method = "structural";
            result.model = model;
        } else {
            result.reason = "output width mismatch";
        }
        noteNodes();
        result.seconds = secondsSince(start);
        return result;
    }

    Lit miter = kFalseLit;
    for (int i = 0; i < out_a.width(); ++i)
        miter = aig.mkOr(miter, aig.mkXor(out_a.bits[i], out_b.bits[i]));
    noteNodes();

    if (aig.overflowed()) {
        result.reason = "node budget (" + std::to_string(aig.nodeBudget()) +
                        " nodes)";
        result.seconds = secondsSince(start);
        return result;
    }
    if (miter == kFalseLit) {
        // Identical circuits after hashing: equal on every input.
        metrics::counter("symbolic.equiv.structural_proved").add();
        result.verdict = Verdict::Proved;
        result.method = "structural";
        result.seconds = secondsSince(start);
        return result;
    }
    if (miter == kTrueLit) {
        const std::vector<BitVector> model = zeroArgs(a.arg_widths);
        if (validateModel(a, b, model)) {
            result.verdict = Verdict::Refuted;
            result.method = "structural";
            result.model = model;
            result.seconds = secondsSince(start);
            return result;
        }
    }

    // Tier 3: Tseitin + DPLL on the miter cone.
    SatSolver solver;
    SatResult sat;
    {
        phases::Scope sat_span(phases::Phase::Sat);
        cnfFromAig(aig, miter, solver);
        sat = solver.solve(budget.max_conflicts);
        sat_span.setAttr("conflicts", sat.conflicts);
    }
    result.conflicts = sat.conflicts;
    result.method = "sat";

    if (sat.status == SatStatus::Unsat) {
        result.verdict = Verdict::Proved;
        result.seconds = secondsSince(start);
        return result;
    }
    if (sat.status == SatStatus::Budget) {
        result.method.clear();
        result.reason = "conflict budget (" +
                        std::to_string(budget.max_conflicts) + " conflicts)";
        result.seconds = secondsSince(start);
        return result;
    }

    // SAT: decode the input assignment (solver vars == AIG vars, input
    // literals are always plain) and re-validate it concretely.
    std::vector<BitVector> model;
    model.reserve(args.size());
    for (const SymVec &arg : args) {
        BitVector value(arg.width());
        for (int i = 0; i < arg.width(); ++i) {
            const uint32_t var = litVar(arg.bits[i]);
            const bool bit =
                var < sat.model.size() ? sat.model[var] != 0 : false;
            value.setBit(i, bit);
        }
        model.push_back(std::move(value));
    }
    if (validateModel(a, b, model)) {
        result.verdict = Verdict::Refuted;
        result.model = std::move(model);
    } else {
        result.method.clear();
        result.reason = "refutation model failed concrete validation";
    }
    result.seconds = secondsSince(start);
    return result;
}

namespace {

/** Wire a SemanticsSide into the BVFun callbacks. */
BVFun
semanticsFun(const SemanticsSide &side, const std::vector<int> &input_widths)
{
    const CanonicalSemantics *sem = side.sem;
    std::vector<int> arg_map = side.arg_map;
    if (arg_map.empty()) {
        arg_map.resize(sem->bv_args.size());
        for (size_t k = 0; k < arg_map.size(); ++k)
            arg_map[k] = static_cast<int>(k);
    }
    HYD_ASSERT(arg_map.size() == sem->bv_args.size(),
               "semantics arg_map size mismatch for " + sem->name);

    return domainFun(
        input_widths,
        [sem, params = side.param_values, int_args = side.int_arg_values,
         arg_map](auto &dom, const auto &inputs) {
            std::decay_t<decltype(inputs)> args(arg_map.size());
            for (size_t k = 0; k < arg_map.size(); ++k)
                args[k] = inputs[arg_map[k]];
            return evalSemanticsDom(dom, *sem, args, params, int_args);
        });
}

} // namespace

EqResult
checkSemanticsEquiv(const SemanticsSide &a, const SemanticsSide &b,
                    const EqBudget &budget)
{
    const auto start = std::chrono::steady_clock::now();
    EqResult bad;
    try {
        // Derive the query input signature from whichever side reads
        // each input; both sides must agree on every shared width.
        std::vector<int> input_widths;
        for (const SemanticsSide *side : {&a, &b}) {
            std::vector<int> arg_map = side->arg_map;
            if (arg_map.empty()) {
                arg_map.resize(side->sem->bv_args.size());
                for (size_t k = 0; k < arg_map.size(); ++k)
                    arg_map[k] = static_cast<int>(k);
            }
            for (size_t k = 0; k < arg_map.size(); ++k) {
                const int input = arg_map[k];
                const int width = side->sem->argWidth(
                    static_cast<int>(k), side->param_values);
                if (input >= static_cast<int>(input_widths.size()))
                    input_widths.resize(input + 1, 0);
                if (input_widths[input] == 0) {
                    input_widths[input] = width;
                } else {
                    HYD_ASSERT(input_widths[input] == width,
                               "sides disagree on query input width");
                }
            }
        }
        for (size_t i = 0; i < input_widths.size(); ++i)
            HYD_ASSERT(input_widths[i] > 0,
                       "query input " + std::to_string(i) +
                           " is read by neither side");

        return checkEquiv(semanticsFun(a, input_widths),
                          semanticsFun(b, input_widths), budget);
    } catch (const AssertionError &err) {
        bad.reason = std::string("query construction failed: ") + err.what();
        bad.seconds = secondsSince(start);
        return bad;
    }
}

} // namespace sym
} // namespace hydride
