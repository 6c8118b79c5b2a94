/**
 * @file
 * Reproduces **Table 1**: AutoLLVM IR results for each architecture —
 * how many retargetable AutoLLVM instructions (equivalence classes)
 * represent each ISA and each ISA combination, and what fraction of
 * the ISA size that is.
 *
 * Paper reference values: x86 2,029 -> 136 (6.7%); HVX 307 -> 115
 * (37.5%); ARM 1,221 -> 177 (14.5%); combined 3,557 -> 397 (11.2%).
 * Our generated stand-in manuals are somewhat smaller (the paper
 * counts every intrinsic including memory/init forms we exclude by
 * design), so absolute numbers differ; the compression behaviour —
 * each ISA collapsing to a small class count, combinations sharing
 * classes across ISAs — is the reproduced result.
 */
#include <iostream>

#include "similarity/engine.h"
#include "specs/spec_db.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/timing.h"
#include "trace_cli.h"

using namespace hydride;

int
main(int argc, char **argv)
{
    bench::BenchCli cli;
    cli.parse(argc, argv);
    std::cout << "=== Table 1: AutoLLVM IR results per architecture ===\n\n";
    Table table({"Architecture", "ISA Size", "AutoLLVM IR Size",
                 "% of ISA Size", "Offline Time (s)"});

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        all_rows = {
            {"x86", {"x86"}},
            {"HVX", {"hvx"}},
            {"ARM", {"arm"}},
            {"x86 + HVX", {"x86", "hvx"}},
            {"x86 + ARM", {"x86", "arm"}},
            {"HVX + ARM", {"hvx", "arm"}},
            {"x86 + HVX + ARM", {"x86", "hvx", "arm"}},
        };
    const auto rows = cli.limited(all_rows, 3);

    for (const auto &[label, isas] : rows) {
        Stopwatch watch;
        auto insts = combinedSemantics(isas);
        SimilarityStats stats;
        auto classes = runSimilarityEngine(insts, {}, &stats);
        table.addRow({label, format("%d", static_cast<int>(insts.size())),
                      format("%d", static_cast<int>(classes.size())),
                      format("%.1f%%", 100.0 * classes.size() /
                                           insts.size()),
                      format("%.2f", watch.seconds())});
        cli.record("offline." + join(isas, "_") + "_ms",
                   watch.millis());
        cli.recordRatio("compression." + join(isas, "_"),
                        static_cast<double>(classes.size()) /
                            insts.size());
    }
    table.print(std::cout);

    std::cout << "\nPaper reference: x86 2,029->136 (6.7%), "
                 "HVX 307->115 (37.5%), ARM 1,221->177 (14.5%), "
                 "combined 3,557->397 (11.2%).\n";
    return cli.finish();
}
