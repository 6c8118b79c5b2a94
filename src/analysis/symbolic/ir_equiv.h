/**
 * @file
 * IR-level equivalence queries: AutoLLVM modules, lowered target
 * programs, and Halide-level windows, all reduced to the core
 * checkEquiv tiers (equiv.h).
 *
 * Two evaluation views matter here (codegen/eval.h): the
 * *representative view* runs the class representative under the
 * member's parameters, and the *hardware view* runs the member's own
 * vendor semantics in its original argument order.
 *
 * EQ02 compares the two views across a lowering (checkLoweringEquiv):
 * a similarity-class merge or permutation bug makes the views
 * diverge even though both "pass through" the same dictionary entry.
 * EQ03 compares a macro-expanded target program against the Halide op
 * it replaces (checkProgramEquiv, hardware view). EQ04 re-validates a
 * synthesized module against its specification window
 * (checkModuleEquiv, representative view — the same semantics CEGIS
 * optimized against, now for *all* inputs instead of samples).
 */
#ifndef HYDRIDE_ANALYSIS_SYMBOLIC_IR_EQUIV_H
#define HYDRIDE_ANALYSIS_SYMBOLIC_IR_EQUIV_H

#include "analysis/symbolic/equiv.h"
#include "autollvm/eval.h"
#include "codegen/lowering.h"
#include "halide/hexpr.h"

namespace hydride {
namespace sym {

/** EQ04 / CEGIS: synthesized module vs. its specification window.
 *  Empty `inst_params` = the representative view with member values. */
EqResult checkModuleEquiv(const AutoLLVMDict &dict, const AutoModule &module,
                          const HExprPtr &window, const EqBudget &budget,
                          const InstParams &inst_params = {});

/** EQ03: macro-expanded target program (hardware view) vs. the Halide
 *  op it implements. */
EqResult checkProgramEquiv(const AutoLLVMDict &dict,
                           const TargetProgram &program,
                           const HExprPtr &window, const EqBudget &budget);

/** EQ02: AutoLLVM module (representative view) vs. its lowered target
 *  program (hardware view) — the lowering round-trip as identity. */
EqResult checkLoweringEquiv(const AutoLLVMDict &dict,
                            const AutoModule &module,
                            const TargetProgram &program,
                            const EqBudget &budget);

} // namespace sym
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_SYMBOLIC_IR_EQUIV_H
