/**
 * @file
 * Reproduces **Figure 6**: runtime performance of Hydride against the
 * production-Halide-style back ends (6a: x86, 6b: HVX, 6c: ARM), the
 * Halide-LLVM-style back end, and Rake (HVX only).
 *
 * Runtime is simulated cycles (latency model + memory traffic; see
 * backends/simulator.h and the substitution table in DESIGN.md).
 * Every compiled kernel is differentially validated against its
 * Halide windows before being timed. Bars are reported as speedup of
 * Hydride over each baseline (values > 1 mean Hydride is faster).
 *
 * Paper reference geomeans: x86 +8% vs production Halide, +12% vs
 * Halide-LLVM; HVX ~parity vs production (with gaussian7x7 and
 * conv3x3a16 losses), ~2x vs Halide-LLVM, +25% vs Rake; ARM +3% vs
 * production, +26% vs Halide-LLVM.
 */
#include <cmath>
#include <iostream>

#include "backends/simulator.h"
#include "backends/targets.h"
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
    std::cout << "=== Figure 6: runtime performance (simulated cycles) "
                 "===\n\n";
    AutoLLVMDict dict = AutoLLVMDict::build({"x86", "hvx", "arm"});

    // --smoke: one target, four kernels.
    const auto targets = cli.limited(evaluationTargets(), 1);
    const auto kernels = cli.limited(kernelNames(), 4);

    int validation_failures = 0;
    for (const auto &target : targets) {
        std::cout << "--- " << target.name << " ---\n";
        SynthesisCache cache;
        HydrideBackend hydride(dict, target.isa, target.vector_bits, {},
                               &cache);
        HalideProdBackend prod(dict, target.isa, target.vector_bits);
        LlvmStyleBackend llvm(dict, target.isa, target.vector_bits);
        RakeBackend rake(dict, target.isa, target.vector_bits);

        Table table({"Benchmark", "Hydride cyc", "vs halide-prod",
                     "vs halide-llvm", "vs rake"});
        double geo_prod = 0;
        double geo_llvm = 0;
        double geo_rake = 0;
        int n = 0;
        int n_rake = 0;

        Stopwatch compile_watch;
        for (const auto &name : kernels) {
            Schedule schedule;
            schedule.vector_bits = target.vector_bits;
            Kernel kernel = buildKernel(name, schedule);

            CompiledKernel ch;
            CompiledKernel cp;
            CompiledKernel cl;
            CompiledKernel cr;
            if (!hydride.compile(kernel, ch) ||
                !prod.compile(kernel, cp) || !llvm.compile(kernel, cl)) {
                table.addRow({name, "compile-fail", "-", "-", "-"});
                continue;
            }
            for (const CompiledKernel *compiled : {&ch, &cp, &cl}) {
                if (!validateCompiled(dict, *compiled, kernel)) {
                    ++validation_failures;
                    std::cout << "VALIDATION FAILURE: "
                              << compiled->backend << "/" << name << "\n";
                }
            }
            const double hyd = simulateCycles(ch, kernel, target.sim);
            const double prod_c = simulateCycles(cp, kernel, target.sim);
            const double llvm_c = simulateCycles(cl, kernel, target.sim);
            geo_prod += std::log(prod_c / hyd);
            geo_llvm += std::log(llvm_c / hyd);
            ++n;

            std::string rake_cell = "fail";
            if (rake.compile(kernel, cr) &&
                validateCompiled(dict, cr, kernel)) {
                const double rake_c = simulateCycles(cr, kernel, target.sim);
                geo_rake += std::log(rake_c / hyd);
                ++n_rake;
                rake_cell = format("%.2fx", rake_c / hyd);
            }
            table.addRow({name, format("%.0f", hyd),
                          format("%.2fx", prod_c / hyd),
                          format("%.2fx", llvm_c / hyd), rake_cell});
        }
        table.addRow(
            {"GEOMEAN", "", format("%.3fx", std::exp(geo_prod / n)),
             format("%.3fx", std::exp(geo_llvm / n)),
             n_rake ? format("%.3fx (%d benchmarks)",
                             std::exp(geo_rake / n_rake), n_rake)
                    : "-"});
        table.print(std::cout);
        std::cout << "\n";
        cli.record(target.isa + ".compile_all_ms",
                   compile_watch.millis(), n);
        cli.recordRatio(target.isa + ".vs_prod_x",
                        std::exp(geo_prod / n));
        cli.recordRatio(target.isa + ".vs_llvm_x",
                        std::exp(geo_llvm / n));
        if (n_rake)
            cli.recordRatio(target.isa + ".vs_rake_x",
                            std::exp(geo_rake / n_rake));
    }

    std::cout << "Validation failures: " << validation_failures << "\n";
    std::cout << "Paper reference geomeans: x86 1.08x/1.12x; HVX "
                 "~1.0x/~2x/1.25x (Rake); ARM 1.03x/1.26x.\n";
    const int status = cli.finish();
    return validation_failures == 0 ? status : 1;
}
