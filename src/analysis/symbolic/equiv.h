/**
 * @file
 * The symbolic equivalence checker: tiered `proved / refuted(model) /
 * unknown(budget)` queries over bitvector functions.
 *
 * A query compares two functions of the same concrete signature. The
 * tiers, in order (docs/symbolic_engine.md):
 *
 *  0. *Concrete sampling*: a handful of random inputs. Most
 *     inequivalent pairs die here, and a random witness is exactly as
 *     trustworthy as a solver model — both are validated by running
 *     the concrete reference.
 *  1. *Known-bits*: both sides are abstractly interpreted with fully
 *     unknown arguments. If every output bit is known and the values
 *     agree, the query is proved with no circuit construction at all.
 *     If the sides disagree on a bit both *know*, any input refutes —
 *     the all-zeros assignment is validated concretely and reported.
 *  1b. *Intervals*: the same abstract pass over the value-range
 *     domain (analysis/dataflow). Both outputs collapsing to the same
 *     singleton proves; provably-disjoint ranges mean the sides
 *     differ on every input, so the all-zeros assignment is validated
 *     concretely and reported. Catches range facts (division,
 *     remainder, saturation, comparisons) that bitwise tracking
 *     cannot see.
 *  2. *Structural (AIG)*: both sides are bit-blasted into one
 *     structurally-hashed AIG and a miter (OR of per-bit XORs) is
 *     built. Equivalent compositions usually collapse to constant
 *     false here, proving the query with zero SAT work.
 *  3. *SAT*: the miter cone is Tseitin-encoded and handed to the DPLL
 *     core. UNSAT proves; SAT yields a candidate model that is
 *     *always re-validated concretely* before being reported as a
 *     refutation.
 *
 * Budgets are explicit: AIG node overflow and SAT conflict exhaustion
 * both produce `unknown` with the budget named in `reason` — never a
 * silent pass. Evaluation errors (width mismatches, unfilled holes)
 * are caught and also surface as `unknown`.
 */
#ifndef HYDRIDE_ANALYSIS_SYMBOLIC_EQUIV_H
#define HYDRIDE_ANALYSIS_SYMBOLIC_EQUIV_H

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow/interval.h"
#include "analysis/symbolic/sym_eval.h"

namespace hydride {
namespace sym {

enum class Verdict { Proved, Refuted, Unknown };

const char *verdictName(Verdict verdict);

/** Per-query resource limits. */
struct EqBudget
{
    /** Max AIG nodes before the bit-blasting tier gives up. */
    size_t max_nodes = size_t(1) << 21;
    /** Max DPLL conflicts before the SAT tier gives up. */
    long max_conflicts = 50000;
};

struct EqResult
{
    Verdict verdict = Verdict::Unknown;
    /** Tier that decided: "knownbits", "interval", "structural",
     *  "sat" (or "concrete" for the sampling tier). */
    std::string method;
    /** For unknown verdicts: which budget or failure was hit. */
    std::string reason;
    /** Refutation model (one value per query input), concretely
     *  validated: the two sides really disagree on these inputs. */
    std::vector<BitVector> model;
    size_t aig_nodes = 0;
    long conflicts = 0;
    double seconds = 0.0;
};

/**
 * One side of a query: a bitvector function given four ways — the
 * concrete reference (used for model validation), the bit-blasting
 * evaluation, and the known-bits and interval abstract evaluations.
 * All must implement the *same* function; `domainFun` makes that
 * structural by instantiating one domain-templated evaluator four
 * times. `knownbits` and `intervals` are optional: a null callback
 * skips that abstract tier.
 */
struct BVFun
{
    std::vector<int> arg_widths;
    std::function<BitVector(const std::vector<BitVector> &)> concrete;
    std::function<SymVec(AigDomain &, const std::vector<SymVec> &)> symbolic;
    std::function<KnownBits(KnownBitsDomain &,
                            const std::vector<KnownBits> &)> knownbits;
    std::function<dataflow::Interval(dataflow::IntervalDomain &,
                                     const std::vector<dataflow::Interval> &)>
        intervals;
};

/**
 * The BVFun whose callbacks all run `eval(dom, inputs)`, a generic
 * lambda over the domain: on BitVectorDomain (hir/eval.h), AigDomain,
 * KnownBitsDomain and IntervalDomain.
 */
template <typename Eval>
BVFun
domainFun(std::vector<int> arg_widths, const Eval &eval)
{
    BVFun fun;
    fun.arg_widths = std::move(arg_widths);
    fun.concrete = [eval](const std::vector<BitVector> &inputs) {
        BitVectorDomain dom;
        return eval(dom, inputs);
    };
    fun.symbolic = eval;
    fun.knownbits = eval;
    fun.intervals = eval;
    return fun;
}

/** Decide whether `a` and `b` agree on every input. */
EqResult checkEquiv(const BVFun &a, const BVFun &b, const EqBudget &budget);

/**
 * One side of a canonical-semantics query. `arg_map[k]` names the
 * query input wired to this side's bitvector argument `k` (empty =
 * identity), matching the argument-permutation convention of
 * similarity-class members (`rep_args[k] = args[member.arg_perm[k]]`).
 */
struct SemanticsSide
{
    const CanonicalSemantics *sem = nullptr;
    std::vector<int64_t> param_values;
    std::vector<int> arg_map;
    std::vector<int64_t> int_arg_values;
};

/**
 * Equivalence of two instruction semantics over all bitvector inputs
 * (integer immediates held fixed at the given values). This is the
 * EQ01 workhorse: member vs. parameterized class representative.
 */
EqResult checkSemanticsEquiv(const SemanticsSide &a, const SemanticsSide &b,
                             const EqBudget &budget);

} // namespace sym
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_SYMBOLIC_EQUIV_H
