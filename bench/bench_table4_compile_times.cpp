/**
 * @file
 * Reproduces **Table 4**: Hydride compilation times on x86, HVX and
 * ARM across the 33 benchmarks under four memoization scenarios:
 *
 *  I.   Cold cache — synthesis from scratch per benchmark (the paper
 *       also reports the number of expressions synthesized).
 *  II.  n-th benchmark — cache pre-populated with the results of all
 *       *other* benchmarks (shared subexpressions hit).
 *  III. Full cache — recompilation with every result cached.
 *  IV.  Modified schedules — tiling/unrolling changed, vectorization
 *       factor kept; windows keep their shapes so the full cache
 *       still hits (the paper's "common and realistic scenario").
 *
 * Absolute times are milliseconds rather than the paper's minutes —
 * the enumerative C++ synthesizer and C++ hash-table cache replace
 * Rosette/Racket (the paper itself predicts the cache-lookup gap:
 * "A fast language like C++ would greatly reduce cache lookup
 * times"). The reproduced result is the *relation* I >> II > III ~ IV.
 */
#include <cmath>
#include <iostream>
#include <map>
#include <set>

#include "backends/backends.h"
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
    std::cout << "=== Table 4: compilation times (ms) under cache "
                 "scenarios ===\n\n";
    AutoLLVMDict dict = AutoLLVMDict::build({"x86", "hvx", "arm"});

    // --smoke: one target, four kernels — enough to exercise every
    // cache scenario without the full 33-kernel sweep.
    const auto targets = cli.limited(evaluationTargets(), 1);
    const auto kernels = cli.limited(kernelNames(), 4);

    for (const auto &target : targets) {
        std::cout << "--- " << target.name << " ---\n";
        Table table({"Benchmark", "I cold (ms)", "(# expr)",
                     "II n-th (ms)", "III full (ms)", "IV resched (ms)"});

        // Pass 1: cold compiles; collect window-piece hashes per
        // benchmark and a union cache.
        SynthesisCache union_cache;
        std::map<std::string, std::set<uint64_t>> hashes;
        std::map<std::string, double> cold_ms;
        std::map<std::string, int> exprs;
        for (const auto &name : kernels) {
            Schedule schedule;
            schedule.vector_bits = target.vector_bits;
            Kernel kernel = buildKernel(name, schedule);
            SynthesisCache fresh;
            HydrideBackend hydride(dict, target.isa, target.vector_bits, {},
                                   &fresh);
            CompiledKernel compiled;
            Stopwatch watch;
            hydride.compile(kernel, compiled);
            cold_ms[name] = watch.millis();
            exprs[name] = static_cast<int>(compiled.windows.size());
            for (const auto &piece : compiled.windows)
                hashes[name].insert(HExpr::hashOf(piece));
            fresh.forEach([&](const SynthesisCache::Key &key,
                              const SynthesisResult &result) {
                union_cache.insertByKey(key, result);
            });
        }

        // Scenario helpers.
        auto timed_compile = [&](const std::string &name,
                                 SynthesisCache &cache,
                                 const Schedule &schedule) {
            Kernel kernel = buildKernel(name, schedule);
            HydrideBackend hydride(dict, target.isa, target.vector_bits, {},
                                   &cache);
            CompiledKernel compiled;
            Stopwatch watch;
            hydride.compile(kernel, compiled);
            return watch.millis();
        };

        double geo[4] = {0, 0, 0, 0};
        int count = 0;
        for (const auto &name : kernels) {
            Schedule schedule;
            schedule.vector_bits = target.vector_bits;

            // II: cache holds entries hit by at least one *other*
            // benchmark.
            SynthesisCache nth_cache;
            union_cache.forEach([&](const SynthesisCache::Key &key,
                                    const SynthesisResult &result) {
                for (const auto &[other, other_hashes] : hashes) {
                    if (other != name && other_hashes.count(key.first)) {
                        nth_cache.insertByKey(key, result);
                        return;
                    }
                }
            });
            const double ii = timed_compile(name, nth_cache, schedule);

            // III: full cache.
            const double iii = timed_compile(name, union_cache, schedule);

            // IV: modified schedules, same vectorization factor.
            Schedule rescheduled = schedule;
            rescheduled.unroll = 2;
            rescheduled.tile = 16;
            const double iv =
                timed_compile(name, union_cache, rescheduled);

            table.addRow({name, format("%.1f", cold_ms[name]),
                          format("(%d)", exprs[name]), format("%.1f", ii),
                          format("%.2f", iii), format("%.2f", iv)});
            geo[0] += std::log(std::max(cold_ms[name], 0.01));
            geo[1] += std::log(std::max(ii, 0.01));
            geo[2] += std::log(std::max(iii, 0.01));
            geo[3] += std::log(std::max(iv, 0.01));
            ++count;
        }
        table.addRow({"Geomean", format("%.1f", std::exp(geo[0] / count)),
                      "", format("%.1f", std::exp(geo[1] / count)),
                      format("%.2f", std::exp(geo[2] / count)),
                      format("%.2f", std::exp(geo[3] / count))});
        table.print(std::cout);
        std::cout << "\n";
        cli.record(target.isa + ".geomean_cold_ms",
                   std::exp(geo[0] / count), count);
        cli.record(target.isa + ".geomean_nth_ms",
                   std::exp(geo[1] / count), count);
        cli.record(target.isa + ".geomean_full_ms",
                   std::exp(geo[2] / count), count);
        cli.record(target.isa + ".geomean_resched_ms",
                   std::exp(geo[3] / count), count);
    }
    std::cout << "Paper relation reproduced when geomean(I) >> "
                 "geomean(II) > geomean(III) ~= geomean(IV).\n";
    return cli.finish();
}
