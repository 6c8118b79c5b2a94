/**
 * @file
 * The Halide-IR-level vector expression language (paper §4).
 *
 * Hydride's front end consumes Halide IR *after* all scheduling
 * optimizations — vectorization, tiling, unrolling — have been
 * applied, i.e. fixed-width integer vector expressions over loaded
 * inputs. This module defines exactly that language: a typed,
 * integer-only vector expression DAG with the operations the paper's
 * benchmark kernels exercise (casts, saturating arithmetic, min/max,
 * shifts, strided reduction `reduce-add`, lane concatenation/slicing,
 * averages, multiply-high), plus its evaluator (halide/eval.h).
 * Memory access is *not* modeled, matching the paper ("Neither Rake
 * nor Hydride support synthesis of memory instructions") — loads
 * appear as vector inputs.
 */
#ifndef HYDRIDE_HALIDE_HEXPR_H
#define HYDRIDE_HALIDE_HEXPR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hir/bitvector.h"

namespace hydride {

/** Halide vector expression operators. */
enum class HOp {
    Input,      ///< Loaded vector operand; `imm` = input index.
    ConstSplat, ///< All lanes equal `imm`.
    Cast,       ///< Element width change; `sign` picks sext/zext.
    Add, Sub, Mul,
    MinS, MaxS, MinU, MaxU,
    ShlC, AShrC, LShrC, ///< Shift every lane by the constant `imm`.
    SatAddS, SatAddU, SatSubS, SatSubU,
    SatNarrowS, SatNarrowU, ///< Saturating casts to a narrower type.
    MulHiS,     ///< High half of the widened signed product.
    AvgU,       ///< Unsigned rounding average.
    AbsS,
    ReduceAdd,  ///< Sum groups of `imm` adjacent lanes.
    Concat,     ///< Lane concatenation (operand 0 in the low lanes).
    Slice,      ///< `imm` = first lane; lanes field = count.
};

struct HExpr;
using HExprPtr = std::shared_ptr<const HExpr>;

/** One Halide vector expression node (immutable). */
struct HExpr
{
    HOp op;
    int elem_width;  ///< Bits per lane of *this* value.
    int lanes;       ///< Lane count of this value.
    int64_t imm = 0; ///< Input index / constant / shift / stride / start.
    bool sign = true;
    std::vector<HExprPtr> kids;

    int totalWidth() const { return elem_width * lanes; }

    /** Structural equality. */
    static bool equals(const HExprPtr &a, const HExprPtr &b);

    /** Structural hash (the memoization-cache key builds on this). */
    static uint64_t hashOf(const HExprPtr &expr);

    /** Node count. */
    static int sizeOf(const HExprPtr &expr);

    /** Tree depth (leaves have depth 1). */
    static int depthOf(const HExprPtr &expr);
};

// ---- Factories --------------------------------------------------------------

HExprPtr hInput(int index, int elem_width, int lanes);
HExprPtr hConst(int64_t value, int elem_width, int lanes);
HExprPtr hCast(HExprPtr a, int new_width, bool sign);
HExprPtr hBin(HOp op, HExprPtr a, HExprPtr b);
HExprPtr hShift(HOp op, HExprPtr a, int amount);
HExprPtr hSatNarrow(HExprPtr a, int new_width, bool sign);
HExprPtr hAbs(HExprPtr a);
HExprPtr hReduceAdd(HExprPtr a, int stride);
HExprPtr hConcat(HExprPtr a, HExprPtr b);
HExprPtr hSlice(HExprPtr a, int start_lane, int count);

/** Evaluate on concrete inputs (lane 0 in the low-order bits):
 *  evalHalideDom (halide/eval.h) over BitVectorDomain. */
BitVector evalHalide(const HExprPtr &expr,
                     const std::vector<BitVector> &inputs);

/** Number of distinct Input indices referenced. */
int halideInputCount(const HExprPtr &expr);

/** Readable rendering for logs and examples. */
std::string printHalide(const HExprPtr &expr);

/**
 * Split a window into sub-windows of bounded depth (paper §4.2:
 * "Hydride extracts sub-expressions (which we call windows) of
 * bounded depth"). Subtrees cut out of the expression become new
 * Inputs numbered from `next_input`; pieces are returned in
 * evaluation order with the original root last, so piece k's extra
 * inputs refer to the outputs of earlier pieces. Only subtrees no
 * wider than `max_width` bits are cut (a cut point must fit in one
 * machine register); pass 0 for no width restriction.
 */
std::vector<HExprPtr> splitWindow(const HExprPtr &window, int max_depth,
                                  int next_input, int max_width = 0);

/** Operator mnemonic. */
const char *hOpName(HOp op);

} // namespace hydride

#endif // HYDRIDE_HALIDE_HEXPR_H
