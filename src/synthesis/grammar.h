/**
 * @file
 * Pruned grammar generation for the code synthesizer (paper §4.3).
 *
 * The grammar for one synthesis query is the set of AutoLLVM
 * instruction *variants* (class + concrete parameter assignment, i.e.
 * individual target instructions) the enumerative CEGIS search may
 * use. Three pruning heuristics shape it, each independently
 * toggleable for the Table 5 sensitivity study:
 *
 *  - BVS (bitvector-based screening, §4.3 a+b): drop whole classes
 *    whose bitvector operations cannot appear in the input expression
 *    and whose widths the expression never uses; drop variants whose
 *    element size is below the expression's minimum (information
 *    loss).
 *  - SBOS (score-based operation selection, §4.3 c): rank the
 *    surviving variants of each class by similarity to the input
 *    expression and keep the top k.
 *  - Swizzle inclusion (§4.4): pure data-movement classes
 *    (interleave, deinterleave, concatenate-halves, rotate) are
 *    always included, independent of k.
 *
 * All widths in the grammar are *scaled* by the lane-scaling factor
 * (§4.2): parameters with Count or RegWidth roles are divided by the
 * scale while element widths stay fixed.
 */
#ifndef HYDRIDE_SYNTHESIS_GRAMMAR_H
#define HYDRIDE_SYNTHESIS_GRAMMAR_H

#include <vector>

#include "autollvm/dict.h"
#include "halide/hexpr.h"

namespace hydride {

/**
 * Most vector operands a grammar op may take: the CEGIS value bank
 * stores each candidate's operands inline in an array of this size.
 * buildGrammar skips (and counts in `synthesis.grammar.skipped_ops`)
 * any op with more. The widest AutoLLVM classes today, the x86
 * `_mm*_mask_*` family, take 4.
 */
constexpr int kMaxOpOperands = 4;

/** One usable instruction in a synthesis grammar. */
struct GrammarOp
{
    AutoOpVariant variant;
    /** Parameter values divided down by the lane scale. */
    std::vector<int64_t> scaled_params;
    std::vector<int> arg_widths; ///< Scaled input widths.
    int out_width = 0;           ///< Scaled output width.
    int elem_width = 0;          ///< Output element width (unscaled).
    int latency = 1;
    int n_imms = 0;
    double score = 0.0;
};

/** Grammar-generation knobs (Table 5 rows). */
struct GrammarOptions
{
    bool bvs = true;
    bool sbos = true;
    int k = 4;
    /** If nonzero, globally cap to the best-scoring N variants
     *  (the "Top 50 instructions" ablation row). */
    int max_ops = 0;
};

/** The generated grammar. */
struct Grammar
{
    std::vector<GrammarOp> ops;
    /** Immediate candidates harvested from the input expression. */
    std::vector<int64_t> imm_pool;
};

/** Build the pruned grammar for `window` on `isa` at `scale`. */
Grammar buildGrammar(const AutoLLVMDict &dict, const std::string &isa,
                     const HExprPtr &window, int scale,
                     const GrammarOptions &options);

/** True if an equivalence class is pure data movement (swizzle). */
bool isSwizzleClass(const EquivalenceClass &cls);

/** Scale a member's parameters down by `scale`; false if illegal. */
bool scaleParams(const EquivalenceClass &cls,
                 const std::vector<int64_t> &params, int scale,
                 std::vector<int64_t> &scaled);

} // namespace hydride

#endif // HYDRIDE_SYNTHESIS_GRAMMAR_H
