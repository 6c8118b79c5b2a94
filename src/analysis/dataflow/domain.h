/**
 * @file
 * The AbstractDomain interface of the dataflow framework.
 *
 * Hydride's abstract interpreters are the one evaluator per IR,
 * templated on a pluggable Domain: evalBVDom walks one hir::Expr and
 * evalSemanticsDom runs a whole canonical-semantics loop nest
 * (hir/eval.h); evalHalideDom, evalModuleDom and evalTargetHWDom
 * walk Halide windows, AutoLLVM modules and target programs.  A plain
 * evaluation Domain (BitVectorDomain, AigDomain) only needs the
 * operations those walkers call (listed in hir/eval.h); an
 * *abstract* domain — one whose Values denote sets of concrete
 * bitvectors — additionally provides the lattice surface below so
 * clients can start from no information, merge control-flow paths,
 * and test candidate outputs for membership:
 *
 *   Value top(int width)                     — the set of all w-bit values
 *   Value join(const Value&, const Value&)   — an upper bound of two sets
 *   bool  contains(const Value&, const BitVector&)
 *                                            — membership test
 *
 * The soundness contract every abstract domain must obey (and that
 * tests/test_dataflow.cpp fuzzes): if each operand Value contains the
 * corresponding concrete operand, the result Value contains the
 * concrete result of the same operation.  Clients may only use the
 * *absence* of containment to rule things out; nothing may be
 * concluded from containment itself.
 *
 * Implementations:
 *   - IntervalDomain  (interval.h)  — unsigned value ranges
 *   - KnownBitsDomain (sym_eval.h)  — per-bit known/unknown facts
 *   - ProductDomain   (product.h)   — reduced product of the two
 *
 * To add a domain: implement the Domain operations of hir/eval.h
 * plus the three lattice operations, then extend the differential
 * fuzz test so the soundness contract is machine-checked.
 * docs/static_analysis.md has a worked guide.
 */
#ifndef HYDRIDE_ANALYSIS_DATAFLOW_DOMAIN_H
#define HYDRIDE_ANALYSIS_DATAFLOW_DOMAIN_H

#include <type_traits>

#include "hir/bitvector.h"
#include "hir/expr.h"

namespace hydride {
namespace dataflow {

/** Compile-time check that D is a usable abstract domain. */
template <typename D>
concept AbstractDomain = requires(const D d, typename D::Value v,
                                  const BitVector &c) {
    { d.top(8) } -> std::same_as<typename D::Value>;
    { d.join(v, v) } -> std::same_as<typename D::Value>;
    { d.contains(v, c) } -> std::same_as<bool>;
    { d.constant(c) } -> std::same_as<typename D::Value>;
    { d.widthOf(v) } -> std::same_as<int>;
    { d.knownBool(v) } -> std::same_as<int>;
};

} // namespace dataflow
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_DATAFLOW_DOMAIN_H
