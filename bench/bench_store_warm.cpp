/**
 * @file
 * Cold-vs-warm compile-time curve for the durable synthesis store
 * (src/synthesis/store/, docs/cache_store.md).
 *
 * Run 0 compiles every kernel against an *empty* store — pure CEGIS,
 * appending each result. Every later run rebuilds the compiler and
 * the in-process cache from scratch (simulating a fresh compiler
 * process on the same machine), so the durable store is the only
 * memoization left: windows come back as verified `store_hit`s
 * instead of synthesis searches. The recorded curve
 *
 *   store.run0_ms  >>  store.run1_ms  ~=  store.run2_ms
 *
 * is the multi-process analogue of Table 4's cold/full-cache
 * relation, with trust-but-verify re-proving every retrieved entry
 * (the warm numbers *include* verification cost — that is the honest
 * price of a hit). `store.warm_speedup` records run0/run1;
 * tools/check_bench.py requires the curve fields to be present and
 * the speedup to be >= 1.
 */
#include <iostream>

#include "backends/targets.h"
#include "driver/resilience.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/timing.h"
#include "trace_cli.h"

#include <unistd.h>

using namespace hydride;

int
main(int argc, char **argv)
{
    bench::BenchCli cli;
    cli.parse(argc, argv);
    std::cout << "=== Durable store: cold vs warm compile times ===\n\n";

    AutoLLVMDict dict = AutoLLVMDict::build({"x86"});
    const auto kernels = cli.limited(kernelNames(), 3);
    constexpr int kRuns = 3;

    const std::string store_dir =
        "/tmp/hydride_bench_store." + std::to_string(::getpid());
    std::system(("rm -rf '" + store_dir + "'").c_str());

    ResilienceOptions options;
    options.store_path = store_dir;

    Table table({"Run", "compile (ms)", "store entries"});
    double run_ms[kRuns] = {};
    for (int run = 0; run < kRuns; ++run) {
        size_t store_size = 0;
        for (const auto &name : kernels) {
            Schedule schedule;
            Kernel kernel = buildKernel(name, schedule);
            // Fresh compiler and cache per kernel: within a run, the
            // durable store is the only state carried over — the same
            // situation as a fleet of short-lived compiler processes.
            SynthesisCache fresh;
            ResilientCompiler compiler(dict, "x86", 256, options, &fresh);
            Stopwatch watch;
            compiler.compile(kernel);
            run_ms[run] += watch.millis();
            store_size = compiler.store().size();
        }
        table.addRow({run == 0 ? "0 (cold)" : format("%d (warm)", run),
                      format("%.1f", run_ms[run]),
                      format("%zu", store_size)});
        cli.record(format("store.run%d_ms", run), run_ms[run],
                   static_cast<long>(kernels.size()));
    }
    table.print(std::cout);

    const double speedup =
        run_ms[1] > 0.0 ? run_ms[0] / run_ms[1] : 0.0;
    std::cout << "\nWarm speedup (run0 / run1): " << format("%.1fx", speedup)
              << "\n";
    cli.recordRatio("store.warm_speedup", speedup);

    std::system(("rm -rf '" + store_dir + "'").c_str());
    return cli.finish();
}
