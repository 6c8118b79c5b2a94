#include "backends/targets.h"

namespace hydride {

const std::vector<TargetDesc> &
evaluationTargets()
{
    static const std::vector<TargetDesc> targets = {
        {"x86 (AVX-512 Xeon-class)", "x86", 512, {14.0, 8.0}},
        {"HVX (Hexagon 128B mode)", "hvx", 1024, {2.0, 4.0}},
        {"ARM (NEON AArch64)", "arm", 128, {3.0, 4.0}},
    };
    return targets;
}

HExprPtr
dotProductWindow(const TargetDesc &target)
{
    const int out_lanes = target.vector_bits / 32;
    const int in_lanes = 4 * out_lanes;
    const bool a_signed = target.isa == "arm";
    HExprPtr a = hCast(hInput(1, 8, in_lanes), 32, a_signed);
    HExprPtr b = hCast(hInput(2, 8, in_lanes), 32, true);
    HExprPtr acc = hInput(0, 32, out_lanes);
    return hBin(HOp::Add, acc, hReduceAdd(hBin(HOp::Mul, a, b), 4));
}

} // namespace hydride
