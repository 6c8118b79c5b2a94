/**
 * @file
 * Cold-vs-warm compile-time curve for the durable synthesis store
 * (src/synthesis/store/, docs/cache_store.md).
 *
 * Run 0 compiles every kernel against an *empty* store — pure CEGIS,
 * appending each result. Every run is a forked child of the process
 * as it stands after building the dictionary, with a fresh compiler
 * and in-process cache per kernel (a fresh compiler process on the
 * same machine), so the durable store is the only memoization left:
 * windows come back as verified `store_hit`s instead of synthesis
 * searches, and a warm run's time does not depend on the heap or the
 * process-wide memos run 0 left behind. The recorded curve
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
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "backends/targets.h"
#include "driver/resilience.h"
#include "observability/metrics.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/timing.h"
#include "trace_cli.h"

#include <sys/wait.h>
#include <unistd.h>

using namespace hydride;

namespace {

/** What one run reports back to the parent. */
struct RunResult
{
    double ms = 0.0;
    size_t store_size = 0;
};

/** Compile every kernel once against the store at `options`. */
RunResult
compileAll(const AutoLLVMDict &dict, const std::vector<std::string> &kernels,
           const ResilienceOptions &options)
{
    RunResult result;
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
        result.ms += watch.millis();
        result.store_size = compiler.store().size();
    }
    return result;
}

/**
 * Run `compileAll` in a forked child and return what it measured. The
 * child's counter increments (`synthesis.cegis.deadline_hits`, which
 * cli.finish() checks, among them) are added to the parent's.
 */
RunResult
inChild(const AutoLLVMDict &dict, const std::vector<std::string> &kernels,
        const ResilienceOptions &options)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe: ") + strerror(errno));
    std::cout.flush();
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork: ") + strerror(errno));
    if (pid == 0) {
        close(fds[0]);
        const auto counters = [] {
            const metrics::Snapshot snap = metrics::snapshot();
            return std::map<std::string, uint64_t>(snap.counters.begin(),
                                                   snap.counters.end());
        };
        const std::map<std::string, uint64_t> before = counters();
        std::string text;
        try {
            const RunResult r = compileAll(dict, kernels, options);
            text = format("%.17g %zu\n", r.ms, r.store_size);
        } catch (const std::exception &err) {
            std::fprintf(stderr, "bench_store_warm: run failed: %s\n",
                         err.what());
            std::fflush(nullptr);
            _exit(3);
        }
        for (const auto &[name, value] : counters()) {
            const auto it = before.find(name);
            const uint64_t start = it == before.end() ? 0 : it->second;
            if (value != start)
                text += format("%s %llu\n", name.c_str(),
                               static_cast<unsigned long long>(value - start));
        }
        size_t done = 0;
        while (done < text.size()) {
            const ssize_t n =
                write(fds[1], text.data() + done, text.size() - done);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            done += static_cast<size_t>(n);
        }
        const bool ok = done == text.size();
        close(fds[1]);
        std::fflush(nullptr);
        _exit(ok ? 0 : 4);
    }
    close(fds[1]);
    std::string text;
    char buf[256];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    RunResult result;
    std::istringstream in(text);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !(in >> result.ms >> result.store_size))
        throw std::runtime_error("run child failed (status " +
                                 std::to_string(status) + ")");
    std::string name;
    unsigned long long delta = 0;
    while (in >> name >> delta)
        metrics::counter(name).add(delta);
    return result;
}

} // namespace

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
        const RunResult result = inChild(dict, kernels, options);
        run_ms[run] = result.ms;
        table.addRow({run == 0 ? "0 (cold)" : format("%d (warm)", run),
                      format("%.1f", run_ms[run]),
                      format("%zu", result.store_size)});
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
