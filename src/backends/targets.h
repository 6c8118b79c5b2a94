/**
 * @file
 * Evaluation target descriptions, standing in for the paper's
 * hardware: an AVX-512 Xeon-class x86 (512-bit vectors), a Hexagon
 * HVX in 128-byte mode (1024-bit vectors), and an Apple-M2-class
 * AArch64 NEON (128-bit vectors). See DESIGN.md for the simulation
 * substitution rationale.
 */
#ifndef HYDRIDE_BACKENDS_TARGETS_H
#define HYDRIDE_BACKENDS_TARGETS_H

#include <string>
#include <vector>

#include "halide/hexpr.h"

namespace hydride {

/**
 * Simulator cost-model constants, calibrated per target: a wide
 * out-of-order Xeon hides more compute latency behind memory traffic
 * (high load/loop charge), the in-order HVX DSP does not.
 */
struct SimConfig
{
    double load_cost = 2.0;
    double loop_overhead = 4.0;
};

/** One evaluation target. */
struct TargetDesc
{
    std::string name; ///< Display name in benchmark output.
    std::string isa;  ///< Dictionary ISA key.
    int vector_bits;  ///< Vectorization width kernels schedule for.
    SimConfig sim;    ///< Calibrated simulator constants.
};

/** The three paper targets. */
const std::vector<TargetDesc> &evaluationTargets();

/** The 4-way byte dot-product-accumulate window (the query of the
 *  paper's Table 5 and Figure 7) at `target`'s vector width, with the
 *  operand signedness of its instruction (ARM `sdot`: s8*s8). */
HExprPtr dotProductWindow(const TargetDesc &target);

} // namespace hydride

#endif // HYDRIDE_BACKENDS_TARGETS_H
