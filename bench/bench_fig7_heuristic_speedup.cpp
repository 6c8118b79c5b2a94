/**
 * @file
 * Reproduces **Figure 7**: speedup of synthesis using Hydride's
 * heuristics, relative to the BVS-only baseline, for x86, HVX and
 * ARM on the dot-product synthesis query (same experiment as Table 5,
 * presented as the paper's bar series).
 *
 * Paper reference speedups over BVS: lane-wise 2x/2.8x/1.4x;
 * scaling+lane-wise 2x/12.8x/3.6x; +SBOS 2.7x/20.8x/6x
 * (x86/HVX/ARM).
 */
#include <iostream>

#include "backends/targets.h"
#include "specs/spec_db.h"
#include "support/strings.h"
#include "support/table.h"
#include "synthesis/cegis.h"
#include "trace_cli.h"

using namespace hydride;

int
main(int argc, char **argv)
{
    bench::BenchCli cli;
    cli.parse(argc, argv);
    std::cout << "=== Figure 7: synthesis heuristic speedups over BVS "
                 "===\n\n";
    AutoLLVMDict dict = AutoLLVMDict::build({"x86", "hvx", "arm"});

    struct Setting
    {
        const char *label;
        bool sbos;
        bool lanewise;
        bool scaling;
    };
    const Setting settings[] = {
        {"BVS (baseline)", false, false, false},
        {"BVS + lane-wise", false, true, false},
        {"BVS + scaling", false, false, true},
        {"BVS + scaling + lane-wise", false, true, true},
        {"BVS + scaling + lane-wise + SBOS", true, true, true},
    };

    // Measure all settings per target, then normalize to BVS.
    Table table({"Heuristic", "x86 speedup", "HVX speedup",
                 "ARM speedup"});
    std::vector<std::vector<double>> times(
        std::size(settings), std::vector<double>(3, 0.0));

    // --smoke: median-of-one instead of median-of-three.
    const int reps = cli.smoke() ? 1 : 3;
    int target_idx = 0;
    for (const auto &target : evaluationTargets()) {
        HExprPtr window = dotProductWindow(target);
        for (size_t s = 0; s < std::size(settings); ++s) {
            SynthesisOptions options;
            options.grammar.bvs = true;
            options.grammar.sbos = settings[s].sbos;
            options.lanewise = settings[s].lanewise;
            options.scaling = settings[s].scaling;
            // Median of `reps` runs for timing stability.
            std::vector<double> runs;
            for (int r = 0; r < reps; ++r) {
                SynthesisResult result = synthesizeWindow(
                    dict, target.isa, window, options);
                runs.push_back(result.seconds);
            }
            std::sort(runs.begin(), runs.end());
            times[s][target_idx] = runs[runs.size() / 2];
        }
        ++target_idx;
    }

    const char *const slugs[] = {"bvs", "bvs_lane", "bvs_scale",
                                 "bvs_scale_lane",
                                 "bvs_scale_lane_sbos"};
    const char *const isas[] = {"x86", "hvx", "arm"};
    for (int t = 0; t < 3; ++t)
        cli.record(std::string(isas[t]) + ".bvs_ms", times[0][t] * 1e3);
    for (size_t s = 1; s < std::size(settings); ++s)
        for (int t = 0; t < 3; ++t)
            cli.recordRatio(std::string(isas[t]) + "." + slugs[s] + "_x",
                            times[0][t] / std::max(times[s][t], 1e-9));
    for (size_t s = 0; s < std::size(settings); ++s) {
        table.addRow({settings[s].label,
                      format("%.2fx", times[0][0] /
                                          std::max(times[s][0], 1e-9)),
                      format("%.2fx", times[0][1] /
                                          std::max(times[s][1], 1e-9)),
                      format("%.2fx", times[0][2] /
                                          std::max(times[s][2], 1e-9))});
    }
    table.print(std::cout);
    std::cout << "\nPaper reference speedups over BVS (x86/HVX/ARM): "
                 "lane-wise 2/2.8/1.4; scaling+lane-wise 2/12.8/3.6; "
                 "+SBOS 2.7/20.8/6.\n";
    return cli.finish();
}
