/**
 * @file
 * google-benchmark micro-benchmarks for Hydride's core components:
 * bitvector arithmetic, semantics interpretation and its compiled lane
 * kernel, pseudocode parsing + canonicalization, constant extraction,
 * similarity grouping, end-to-end window synthesis, concrete Halide
 * window and AutoLLVM module evaluation, and the symbolic re-proof of
 * a store hit. These quantify the substrate costs behind
 * the table/figure harnesses.
 */
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/symbolic/ir_equiv.h"
#include "halide/kernels.h"
#include "hir/canonicalize.h"
#include "hir/lane_kernel.h"
#include "similarity/extraction.h"
#include "specs/spec_db.h"
#include "specs/x86_manual.h"
#include "support/rng.h"
#include "synthesis/cache.h"
#include "trace_cli.h"

using namespace hydride;

namespace {

const AutoLLVMDict &
dict()
{
    static const AutoLLVMDict d = AutoLLVMDict::build({"x86", "hvx", "arm"});
    return d;
}

void
BM_BitVectorAdd(benchmark::State &state)
{
    Rng rng(1);
    BitVector a = BitVector::random(static_cast<int>(state.range(0)), rng);
    BitVector b = BitVector::random(static_cast<int>(state.range(0)), rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.add(b));
}
BENCHMARK(BM_BitVectorAdd)->Arg(64)->Arg(128)->Arg(512)->Arg(2048);

void
BM_BitVectorMul(benchmark::State &state)
{
    Rng rng(2);
    BitVector a = BitVector::random(static_cast<int>(state.range(0)), rng);
    BitVector b = BitVector::random(static_cast<int>(state.range(0)), rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.mul(b));
}
BENCHMARK(BM_BitVectorMul)->Arg(64)->Arg(512);

const CanonicalSemantics &
madd()
{
    for (const auto &sem : isaSemantics("x86").insts)
        if (sem.name == "_mm512_madd_epi16")
            return sem;
    std::abort();
}

void
BM_SemanticsInterpretation(benchmark::State &state)
{
    Rng rng(3);
    BitVector a = BitVector::random(512, rng);
    BitVector b = BitVector::random(512, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(madd().evaluate({a, b}, {}));
}
BENCHMARK(BM_SemanticsInterpretation);

/** The same instruction and inputs through its compiled lane kernel,
 *  the path CEGIS candidate evaluation takes. */
void
BM_SemanticsKernel(benchmark::State &state)
{
    const auto kernel = LaneKernel::compile(madd(), {}, {});
    if (!kernel) {
        state.SkipWithError("_mm512_madd_epi16 did not compile");
        return;
    }
    Rng rng(3);
    BitVector a = BitVector::random(512, rng);
    BitVector b = BitVector::random(512, rng);
    const BitVector *args[] = {&a, &b};
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel->evaluate(args));
}
BENCHMARK(BM_SemanticsKernel);

void
BM_ParseAndCanonicalize(benchmark::State &state)
{
    const IsaSpec &manual = isaManual("x86");
    const InstDef *inst = nullptr;
    for (const auto &candidate : manual.insts)
        if (candidate.name == "_mm512_unpacklo_epi8")
            inst = &candidate;
    for (auto _ : state) {
        SpecFunction fn = parseWithDialect("x86", *inst);
        benchmark::DoNotOptimize(canonicalize(fn));
    }
}
BENCHMARK(BM_ParseAndCanonicalize);

void
BM_ConstantExtraction(benchmark::State &state)
{
    const CanonicalSemantics *sem = nullptr;
    for (const auto &candidate : isaSemantics("x86").insts)
        if (candidate.name == "_mm512_dpwssd_epi32")
            sem = &candidate;
    for (auto _ : state)
        benchmark::DoNotOptimize(extractConstants(*sem));
}
BENCHMARK(BM_ConstantExtraction);

void
BM_SimilarityEngine300(benchmark::State &state)
{
    std::vector<CanonicalSemantics> insts(
        isaSemantics("hvx").insts.begin(),
        isaSemantics("hvx").insts.end());
    for (auto _ : state)
        benchmark::DoNotOptimize(runSimilarityEngine(insts));
}
BENCHMARK(BM_SimilarityEngine300)->Unit(benchmark::kMillisecond);

void
BM_SynthesizeMatmulWindow(benchmark::State &state)
{
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel kernel = buildKernel("matmul_b1", schedule);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            synthesizeWindow(dict(), "x86", kernel.windows[0]));
    }
}
BENCHMARK(BM_SynthesizeMatmulWindow)->Unit(benchmark::kMillisecond);

/**
 * A whole CEGIS search that ends "search exhausted": gaussian3x3's row
 * window on x86, one scaled search. Nearly every candidate is
 * rejected, so `per_rejected` (time over rejected candidates) is the
 * search's per-candidate cost, the number the paper benches cannot
 * isolate.
 */
void
BM_CegisExhaustedWindow(benchmark::State &state)
{
    Schedule schedule;
    schedule.vector_bits = 512;
    const HExprPtr window = buildKernel("gaussian3x3", schedule).windows[0];
    long rejected = 0;
    for (auto _ : state) {
        const SynthesisResult result =
            synthesizeWindow(dict(), "x86", window);
        if (result.ok || result.note.rfind("search exhausted", 0) != 0) {
            state.SkipWithError(("not exhausted: " + result.note).c_str());
            return;
        }
        rejected = result.candidates_rejected;
    }
    state.counters["rejected"] = static_cast<double>(rejected);
    state.counters["per_rejected"] = benchmark::Counter(
        static_cast<double>(rejected),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_CegisExhaustedWindow)->Unit(benchmark::kMillisecond);

/**
 * x86 matmul_bias's window 0 (a 16 x i32 `a + sum b*c`) and the module
 * CEGIS synthesizes for it (`_mm512_dpwssd_epi32`), built once.
 */
struct Dot2AccCase
{
    HExprPtr window;
    SynthesisResult synth;
};

const Dot2AccCase &
dot2Acc()
{
    static const Dot2AccCase c = [] {
        Dot2AccCase out;
        Schedule schedule;
        schedule.vector_bits = 512;
        out.window = buildKernel("matmul_bias", schedule).windows[0];
        out.synth = synthesizeWindow(dict(), "x86", out.window);
        return out;
    }();
    return c;
}

/** Eight random input vectors for the dot2acc window. */
std::vector<std::vector<BitVector>>
dot2AccInputs()
{
    Rng rng(5);
    std::vector<std::vector<BitVector>> sets(8);
    for (auto &inputs : sets)
        for (int width : dot2Acc().synth.module.input_widths)
            inputs.push_back(BitVector::random(width, rng));
    return sets;
}

/** The Halide window walker on concrete inputs: the specification side
 *  of every CEGIS counterexample check and store re-validation. */
void
BM_HalideWindowEval(benchmark::State &state)
{
    if (!dot2Acc().synth.ok) {
        state.SkipWithError("matmul_bias window 0 did not synthesize");
        return;
    }
    const auto sets = dot2AccInputs();
    for (auto _ : state)
        for (const auto &inputs : sets)
            benchmark::DoNotOptimize(evalHalide(dot2Acc().window, inputs));
}
BENCHMARK(BM_HalideWindowEval);

/** The synthesized module on the same inputs, through the AutoLLVM
 *  module walker (the representative view). */
void
BM_ModuleEval(benchmark::State &state)
{
    const Dot2AccCase &c = dot2Acc();
    if (!c.synth.ok) {
        state.SkipWithError("matmul_bias window 0 did not synthesize");
        return;
    }
    const auto sets = dot2AccInputs();
    for (auto _ : state)
        for (const auto &inputs : sets)
            benchmark::DoNotOptimize(c.synth.module.evaluate(dict(), inputs));
}
BENCHMARK(BM_ModuleEval);

/**
 * The symbolic re-proof a durable-store hit gets: the dot2acc window
 * against its synthesized module. Both sides bit-blast to one large
 * AIG of 32-bit multipliers that hashes to a constant-false miter, so
 * this times AIG construction, not SAT.
 */
void
BM_StoreReproofDot2Acc(benchmark::State &state)
{
    const Dot2AccCase &c = dot2Acc();
    if (!c.synth.ok) {
        state.SkipWithError(("not synthesized: " + c.synth.note).c_str());
        return;
    }
    sym::EqResult eq;
    for (auto _ : state) {
        eq = sym::checkModuleEquiv(dict(), c.synth.module, c.window,
                                   SynthesisOptions{}.symbolic_budget);
        benchmark::DoNotOptimize(eq);
        if (eq.verdict != sym::Verdict::Proved || eq.method != "structural") {
            state.SkipWithError(("not proved structurally: " + eq.method +
                                 " " + eq.reason)
                                    .c_str());
            return;
        }
    }
    state.counters["aig_nodes"] = static_cast<double>(eq.aig_nodes);
}
BENCHMARK(BM_StoreReproofDot2Acc)->Unit(benchmark::kMillisecond);

void
BM_CacheLookup(benchmark::State &state)
{
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel kernel = buildKernel("matmul_b1", schedule);
    SynthesisCache cache;
    SynthesisResult result =
        synthesizeWindow(dict(), "x86", kernel.windows[0]);
    cache.insert(kernel.windows[0], "x86", result);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.lookup(kernel.windows[0], "x86"));
}
BENCHMARK(BM_CacheLookup);

/** The `--benchmark_format` display reporter, wrapped so that every
 *  run is also record()ed into the BenchCli: `--json-out` captures
 *  per-benchmark times whatever the display format. Construct it
 *  after benchmark::Initialize, which parses that flag. */
class CaptureReporter : public benchmark::BenchmarkReporter
{
  public:
    explicit CaptureReporter(bench::BenchCli &cli)
        : cli_(cli), display_(benchmark::CreateDefaultDisplayReporter())
    {
    }

    bool
    ReportContext(const Context &context) override
    {
        return display_->ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred ||
                run.run_type != Run::RT_Iteration || run.iterations == 0)
                continue;
            const double denom = static_cast<double>(run.iterations);
            cli_.record(run.benchmark_name(),
                        1e3 * run.real_accumulated_time / denom,
                        static_cast<long>(run.iterations),
                        1e3 * run.cpu_accumulated_time / denom);
        }
        display_->ReportRuns(runs);
    }

    void Finalize() override { display_->Finalize(); }

  private:
    bench::BenchCli &cli_;
    /** Owned by google-benchmark (one per process). */
    benchmark::BenchmarkReporter *display_;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchCli cli;
    cli.parse(argc, argv);

    // Strip the BenchCli flags before handing argv to google-benchmark
    // (it rejects flags it does not know).
    std::vector<char *> gargv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json-out") == 0 ||
            std::strcmp(argv[i], "--trace-out") == 0) {
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--smoke") == 0 ||
            std::strcmp(argv[i], "--profile") == 0)
            continue;
        gargv.push_back(argv[i]);
    }
    std::string min_time = "--benchmark_min_time=0.02";
    if (cli.smoke())
        gargv.push_back(min_time.data());
    int gargc = static_cast<int>(gargv.size());
    benchmark::Initialize(&gargc, gargv.data());

    CaptureReporter reporter(cli);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return cli.finish();
}
