/**
 * @file
 * Instruction semantics in Hydride IR.
 *
 * Two representations exist, mirroring the paper's pipeline (§3.2-3.3):
 *
 *  1. `SpecFunction` — the *pre-canonical* statement form produced by
 *     the vendor pseudocode parsers: a list of FOR loops, bit-slice
 *     assignments into `dst`, and integer lets, mirroring how vendor
 *     manuals write pseudocode.
 *
 *  2. `CanonicalSemantics` — the canonical two-level loop-nest form
 *     produced by canonicalization (inlining, constant propagation,
 *     loop rerolling, artificial inner-loop insertion): the output
 *     vector is produced element-wise, outer loop over lanes, inner
 *     loop over elements in a lane. Every downstream component
 *     (similarity checking, AutoLLVM interpreter, synthesis) consumes
 *     this form only.
 *
 * Canonical element decomposition: output element index
 * `n = i * inner_count + j` with `i` the outer (lane) iterator and `j`
 * the inner iterator. The element value comes from one of `T`
 * structural templates; which template applies is selected by `j`
 * (mode ByInner, e.g. interleaves), by `i` (mode ByOuter, e.g.
 * concatenate-halves), or is the single template (mode Uniform, all
 * SIMD and strided-reduction instructions). Templates reference
 * `loopVar(0)` = i and `loopVar(1)` = j.
 */
#ifndef HYDRIDE_HIR_SEMANTICS_H
#define HYDRIDE_HIR_SEMANTICS_H

#include <string>
#include <vector>

#include "hir/expr.h"

namespace hydride {

/** A bitvector argument: display name plus width (Int expr over params). */
struct BVArgInfo
{
    std::string name;
    ExprPtr width;
};

/**
 * The structural role a numerical parameter plays, recorded by the
 * similarity engine's constant extraction. Roles keep semantically
 * different quantities apart even when their concrete values collide
 * (the paper's bitwidth-analysis concern, §3.3), and tell the
 * synthesizer which parameters scale with the number of lanes (§4.2):
 * Count and RegWidth scale, ElemWidth/Index/Value do not.
 */
enum class ParamRole {
    Count,     ///< Loop trip count (lanes, elements per lane).
    RegWidth,  ///< Bitvector argument width.
    ElemWidth, ///< Element width (output or extract/cast widths).
    Index,     ///< Bit-index arithmetic inside extract lows.
    Value,     ///< Literal constant operand (bvConst values, etc.).
};

/** An extracted numerical parameter with its original concrete value. */
struct ParamInfo
{
    std::string name;
    int64_t default_value;
    ParamRole role = ParamRole::Value;
};

/** How the structural template for an element is selected. */
enum class TemplateMode {
    Uniform, ///< One template; inner_count == 1; element index is `i`.
    ByInner, ///< templates.size() templates selected by `j`.
    ByOuter, ///< templates.size() templates selected by `i`.
};

/**
 * Canonicalized, optionally parameterized instruction semantics.
 *
 * Before constant extraction `params` is empty and every numerical
 * quantity is an IntConst; after extraction (similarity engine) the
 * IntConsts are Param nodes and `params` records their original
 * concrete values, giving the symbolic semantics Sigma(I, alpha).
 */
struct CanonicalSemantics
{
    std::string name;
    std::string isa;

    std::vector<BVArgInfo> bv_args;
    /** Integer immediate arguments (shift amounts, align offsets),
     *  referenced from templates as NamedVar leaves. */
    std::vector<std::string> int_args;
    std::vector<ParamInfo> params;
    /** Issue-to-result latency in cycles (from the vendor spec); used
     *  by the synthesis cost model and the performance simulator. */
    int latency = 1;

    TemplateMode mode = TemplateMode::Uniform;
    ExprPtr outer_count;        ///< Int expr: lanes (trip count of outer loop).
    ExprPtr inner_count;        ///< Int expr: elements per lane.
    ExprPtr elem_width;         ///< Int expr: bits per output element.
    std::vector<ExprPtr> templates;

    /** Default parameter values, in order. */
    std::vector<int64_t> defaultParamValues() const;

    /** Output width in bits under the given parameter values. */
    int outputWidth(const std::vector<int64_t> &param_values) const;

    /** Width in bits of bitvector argument `index`. */
    int argWidth(int index, const std::vector<int64_t> &param_values) const;

    /** The structural template selecting output element (i, j)
     *  under `mode` (the loop nest of evalSemanticsDom, hir/eval.h). */
    const ExprPtr &templateFor(int64_t i, int64_t j) const;

    /**
     * Execute the canonical semantics on concrete values:
     * evalSemanticsDom over BitVectorDomain (hir/eval.h).
     * `int_arg_values` supplies the integer immediates, in `int_args`
     * order.
     */
    BitVector evaluate(const std::vector<BitVector> &args,
                       const std::vector<int64_t> &param_values,
                       const std::vector<int64_t> &int_arg_values = {}) const;

    /** Structural equality of the parameterized shape (ignores names,
     *  ISA, and parameter default values; compares structure only). */
    static bool sameShape(const CanonicalSemantics &a,
                          const CanonicalSemantics &b);

    /** Hash consistent with sameShape(). */
    uint64_t shapeHash() const;

    /** Multiset of bitvector operators appearing in the templates
     *  (used by synthesis grammar pruning, §4.3). */
    std::vector<BVBinOp> bvBinOps() const;
};

// ---- Pre-canonical statement IR -------------------------------------------

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

/** Statement kinds emitted by the pseudocode parsers. */
enum class StmtKind {
    For,         ///< FOR var := lo to hi (inclusive) { body }.
    SliceAssign, ///< dst[low + width - 1 : low] := value.
    LetInt,      ///< var := integer expression.
};

/** One pseudocode statement. */
struct Stmt
{
    StmtKind kind;
    std::string var;          ///< For / LetInt variable name.
    ExprPtr lo;               ///< For lower bound; LetInt bound value.
    ExprPtr hi;               ///< For upper bound (inclusive).
    std::vector<StmtPtr> body;
    ExprPtr low;              ///< SliceAssign low bit index.
    ExprPtr width;            ///< SliceAssign width in bits.
    ExprPtr value;            ///< SliceAssign value (BV-typed).
};

StmtPtr stmtFor(std::string var, ExprPtr lo, ExprPtr hi,
                std::vector<StmtPtr> body);
StmtPtr stmtSliceAssign(ExprPtr low, ExprPtr width, ExprPtr value);
StmtPtr stmtLetInt(std::string var, ExprPtr value);

/**
 * A parsed vendor pseudocode function, before canonicalization.
 * Argument widths and the output width are concrete here.
 */
struct SpecFunction
{
    std::string name;
    std::string isa;
    std::vector<BVArgInfo> bv_args;
    /** Integer immediate arguments, referenced as NamedVar. */
    std::vector<std::string> int_args;
    int out_width = 0;
    /** Issue-to-result latency in cycles (from the vendor spec). */
    int latency = 1;
    std::vector<StmtPtr> body;

    /** Directly interpret the statement form (reference executor used
     *  by fuzzing and canonicalizer validation). */
    BitVector evaluate(const std::vector<BitVector> &args,
                       const std::vector<int64_t> &int_arg_values = {}) const;
};

} // namespace hydride

#endif // HYDRIDE_HIR_SEMANTICS_H
