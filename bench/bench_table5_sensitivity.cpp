/**
 * @file
 * Reproduces **Table 5**: synthesis sensitivity analysis — grammar
 * sizes and synthesis times for the dot-product operation on x86,
 * HVX and ARM under the pruning-heuristic settings:
 *
 *   - All target instructions (no pruning)
 *   - Top 50 instructions by score
 *   - BVS  (bitvector-based screening)
 *   - BVS + lane-wise synthesis
 *   - BVS + scaling
 *   - BVS + scaling + lane-wise
 *   - BVS + scaling + lane-wise + SBOS
 *
 * Times are milliseconds (enumerative C++ search vs the paper's
 * SMT-based Rosette, whose no-pruning rows are intractable/4h+); the
 * reproduced result is the ordering: pruning and the lane/scale
 * optimizations each cut synthesis time, and the full configuration
 * is fastest with the smallest grammar.
 */
#include <iostream>

#include "backends/targets.h"
#include "specs/spec_db.h"
#include "support/strings.h"
#include "support/table.h"
#include "synthesis/cegis.h"
#include "trace_cli.h"

using namespace hydride;

namespace {

struct Setting
{
    const char *label;
    bool bvs;
    bool sbos;
    int max_ops;
    bool lanewise;
    bool scaling;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchCli cli;
    cli.parse(argc, argv);
    std::cout << "=== Table 5: synthesis sensitivity (dot-product window) "
                 "===\n\n";
    AutoLLVMDict dict = AutoLLVMDict::build({"x86", "hvx", "arm"});

    const char *const slugs[] = {
        "all_insts", "top50", "bvs", "bvs_lane", "bvs_scale",
        "bvs_scale_lane", "bvs_scale_lane_sbos",
    };
    const Setting settings[] = {
        {"All target instructions", false, false, 0, false, false},
        {"Top 50 instructions by score", false, false, 50, false, false},
        {"BVS", true, false, 0, false, false},
        {"BVS + lane-wise", true, false, 0, true, false},
        {"BVS + scaling", true, false, 0, false, true},
        {"BVS + scaling + lane-wise", true, false, 0, true, true},
        {"BVS + scaling + lane-wise + SBOS", true, true, 0, true, true},
    };

    Table table({"Synthesis setting", "x86 #ops", "x86 ms", "HVX #ops",
                 "HVX ms", "ARM #ops", "ARM ms"});
    // The table's columns are fixed per target, so the full target
    // sweep runs even under --smoke (the window is tiny; the whole
    // table costs well under a second).
    for (size_t si = 0; si < std::size(settings); ++si) {
        const auto &setting = settings[si];
        std::vector<std::string> row = {setting.label};
        for (const auto &target : evaluationTargets()) {
            // The paper's query is "the dot-product operations":
            // the 4-way byte dot every target fuses (x86 dpbusd,
            // HVX vrmpy, ARM sdot), with each target's operand
            // signedness.
            HExprPtr window = dotProductWindow(target);

            SynthesisOptions options;
            options.grammar.bvs = setting.bvs;
            options.grammar.sbos = setting.sbos;
            options.grammar.max_ops = setting.max_ops;
            options.lanewise = setting.lanewise;
            options.scaling = setting.scaling;

            SynthesisResult result = synthesizeWindow(
                dict, target.isa, window, options);
            row.push_back(format("%d", result.grammar_size));
            row.push_back(result.ok ? format("%.1f", result.seconds * 1e3)
                                    : format("fail/%.0fms",
                                             result.seconds * 1e3));
            cli.record(target.isa + "." + slugs[si] + "_ms",
                       result.seconds * 1e3);
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nPaper reference (seconds, x86/HVX/ARM): all-insts "
                 "intractable; top-50 14400+; BVS 236/997/628; "
                 "BVS+lane-wise 118/360/452; BVS+scaling 142/108/165; "
                 "BVS+scaling+lane-wise 115/78/175; +SBOS 86/48/104.\n";
    return cli.finish();
}
