/**
 * @file
 * Lane kernels: canonical semantics compiled for one assignment of
 * parameters and immediates.
 *
 * The synthesizer evaluates the same few (instruction, parameters,
 * immediate) triples millions of times per search. The tree-walk
 * interpreter (CanonicalSemantics::evaluate) re-evaluates every index
 * expression and allocates a BitVector per node on each call. A lane
 * kernel does that work once: it walks every output element's
 * template with the loop indices, parameters and immediates fixed,
 * folds all integer arithmetic (extract offsets, widths, constants),
 * and records the remaining bitvector work as a flat tape of
 * operations on 64-bit words. Running the tape reads argument words
 * in place and allocates nothing but the result.
 *
 * The interpreter stays the reference. compile() returns nullptr, and
 * the caller keeps interpreting, whenever
 *  - an element or intermediate value is wider than 64 bits (other
 *    than argument slices and concatenations that are only read
 *    through a <= 64-bit extract), or
 *  - any index expression, width check or range check the interpreter
 *    performs would fail for some element. Since the kernel folds both
 *    arms of every select, it also rejects templates whose *unchosen*
 *    arm would fail; the interpreter, which evaluates only the chosen
 *    arm, keeps those.
 * A compiled kernel therefore computes exactly what the interpreter
 * computes, bit for bit, on every input of the argument widths it was
 * compiled for.
 */
#ifndef HYDRIDE_HIR_LANE_KERNEL_H
#define HYDRIDE_HIR_LANE_KERNEL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hir/semantics.h"

namespace hydride {

/** One (semantics, parameters, immediates) triple, compiled. */
class LaneKernel
{
  public:
    /**
     * Compile `sem` under `param_values` and `int_arg_values`; nullptr
     * when the triple must stay on the interpreter (see file comment).
     */
    static std::unique_ptr<const LaneKernel>
    compile(const CanonicalSemantics &sem,
            const std::vector<int64_t> &param_values,
            const std::vector<int64_t> &int_arg_values);

    /** Widths of the bitvector arguments the kernel reads. */
    const std::vector<int> &argWidths() const { return arg_widths_; }

    int outputWidth() const { return out_width_; }

    /**
     * Evaluate on `args[0 .. argWidths().size())`, whose widths must
     * equal argWidths(). Same result as CanonicalSemantics::evaluate.
     */
    BitVector evaluate(const BitVector *const *args) const;

    /**
     * Evaluate `calls` argument tuples in one call: call `c` reads
     * `args[c * argWidths().size() + a]` and writes `outs[c]`.
     */
    void evaluateBatch(const BitVector *const *args, size_t calls,
                       BitVector *outs) const;

    /** One tape operation; see lane_kernel.cpp for the encoding. */
    struct Op
    {
        uint8_t code;
        uint8_t width; ///< Result width in bits, 1..64.
        uint8_t aux;   ///< Operand width (casts, compares, concat).
        uint8_t arg;   ///< Argument index (loads).
        uint32_t a;
        uint32_t b;
        uint32_t c;
    };

  private:
    LaneKernel() = default;
    void run(const BitVector *const *args, uint64_t *regs,
             BitVector &out) const;

    std::vector<Op> tape_;
    std::vector<int> arg_widths_;
    int out_width_ = 0;
};

} // namespace hydride

#endif // HYDRIDE_HIR_LANE_KERNEL_H
