/**
 * @file
 * Total abstract evaluation of template expressions.
 *
 * The IR evaluators (evalBVDom, hir/eval.h) assert on malformed
 * input because they run after verification.  The verifier needs the
 * opposite: a walker that never throws, degrades to "no information"
 * (std::nullopt) on anything it cannot analyze, and reports every
 * node's abstract value to a visitor so UB/RA rules can attach
 * diagnostics.  absEval is that walker: it runs the ProductDomain
 * (interval x known-bits) over one BV-typed hir::Expr with loop
 * variables ranging over whole lane intervals (int_range.h), which
 * is how one evaluation covers the *full* lane space that the old
 * per-lane enumeration sampled under a cap.  It stays a walker of its
 * own: ranged Int positions, lane-varying extracts, visitors and
 * totality would make evalBVDom branch on its caller.
 */
#ifndef HYDRIDE_ANALYSIS_DATAFLOW_ABS_EVAL_H
#define HYDRIDE_ANALYSIS_DATAFLOW_ABS_EVAL_H

#include <functional>
#include <optional>
#include <vector>

#include "analysis/dataflow/int_range.h"
#include "analysis/dataflow/product.h"

namespace hydride {
namespace dataflow {

/** Environment: ranged integer state + abstract BV arguments
 *  (nullopt marks an argument with no usable width). */
struct AbsEnv
{
    RangeEnv ints;
    const std::vector<std::optional<AbsValue>> *args = nullptr;
};

/** Per-node hooks; either may be empty. */
struct AbsVisitors
{
    /** Called for every BV-typed node after its value is computed,
     *  with the abstract operand values (nullopt = unanalyzable or,
     *  for a pruned select branch, dead). */
    std::function<void(const ExprPtr &node,
                       const std::optional<AbsValue> &result,
                       const std::vector<std::optional<AbsValue>> &operands)>
        bv;
    /** Called for every Int-typed position the walker ranges
     *  (widths, extract indices, constants). */
    std::function<void(const ExprPtr &node, const IntRange &range)> ints;
};

/** Abstractly evaluate a BV-typed expression; total, never throws. */
std::optional<AbsValue> absEval(const ExprPtr &expr, const AbsEnv &env,
                                const AbsVisitors &vis);

} // namespace dataflow
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_DATAFLOW_ABS_EVAL_H
