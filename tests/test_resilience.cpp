/**
 * @file
 * Tests for the fault-injection registry (support/faults.h) and the
 * resilient compilation driver (driver/resilience.h): the clause
 * grammar, every rung of the degradation ladder with its metrics and
 * trace attributes, and the CEGIS deadline-overshoot bound.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "driver/resilience.h"
#include "support/rng.h"
#include "observability/metrics.h"
#include "observability/phases.h"
#include "observability/trace.h"
#include "support/faults.h"
#include "support/timing.h"

namespace hydride {
namespace {

/** Registry-clearing guard so no test leaks configured faults. */
struct FaultGuard
{
    ~FaultGuard() { faults::reset(); }
};

/** Metrics recording is off by default; rung tests assert on it. */
struct MetricsOn
{
    MetricsOn() { metrics::setEnabled(true); }
    ~MetricsOn() { metrics::setEnabled(false); }
};

const AutoLLVMDict &
dict()
{
    static const AutoLLVMDict d = AutoLLVMDict::build({"x86"});
    return d;
}

/** A window small enough to synthesize within the test budget. */
HExprPtr
easyWindow()
{
    return hBin(HOp::Add, hInput(0, 16, 8), hInput(1, 16, 8));
}

ResilienceOptions
fastOptions()
{
    ResilienceOptions options;
    options.synthesis.timeout_seconds = 5.0;
    options.synthesis.max_insts = 2;
    return options;
}

/** The rung attribute of the most recent resilience window span. */
std::string
lastWindowSpanRung()
{
    std::string rung;
    for (const auto &span : trace::snapshotSpans()) {
        if (span.name != "driver.resilience.window")
            continue;
        for (const auto &[key, value] : span.attrs)
            if (key == "rung")
                rung = value;
    }
    return rung;
}

// ---- Clause grammar ---------------------------------------------------------

TEST(Faults, AlwaysModeFiresOnEveryEvaluation)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::configure("cegis.timeout"));
    EXPECT_TRUE(faults::shouldFail("cegis.timeout"));
    EXPECT_TRUE(faults::shouldFail("cegis.timeout"));
    EXPECT_FALSE(faults::shouldFail("lowering.fail"));
    EXPECT_EQ(faults::fireCount("cegis.timeout"), 2);
}

TEST(Faults, UnknownSiteIsRejectedAndLeavesRegistryEmpty)
{
    FaultGuard guard;
    std::string error;
    EXPECT_FALSE(faults::configure("no.such.site", &error));
    EXPECT_NE(error.find("no.such.site"), std::string::npos);
    EXPECT_FALSE(faults::active());
    // A bad clause *anywhere* rejects the whole spec.
    EXPECT_FALSE(faults::configure("cegis.timeout,bogus.site", &error));
    EXPECT_FALSE(faults::active());
}

TEST(Faults, MalformedClausesAreRejected)
{
    FaultGuard guard;
    std::string error;
    EXPECT_FALSE(faults::configure("cegis.timeout@1.5", &error));
    EXPECT_FALSE(faults::configure("cegis.timeout@x", &error));
    EXPECT_FALSE(faults::configure("cegis.timeout:0", &error));
    EXPECT_FALSE(faults::configure("cegis.timeout:-2", &error));
    EXPECT_FALSE(faults::active());
}

TEST(Faults, NthHitFiresExactlyOnceOnTheNthEvaluation)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::configure("cegis.timeout:3"));
    EXPECT_FALSE(faults::shouldFail("cegis.timeout"));
    EXPECT_FALSE(faults::shouldFail("cegis.timeout"));
    EXPECT_TRUE(faults::shouldFail("cegis.timeout"));
    EXPECT_FALSE(faults::shouldFail("cegis.timeout"));
    EXPECT_EQ(faults::fireCount("cegis.timeout"), 1);
    EXPECT_EQ(faults::hitCount("cegis.timeout"), 4);
}

TEST(Faults, ProbabilityModeIsDeterministicAcrossRuns)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::configure("cegis.timeout@0.5"));
    std::vector<bool> first;
    for (int i = 0; i < 200; ++i)
        first.push_back(faults::shouldFail("cegis.timeout"));
    ASSERT_TRUE(faults::configure("cegis.timeout@0.5"));
    std::vector<bool> second;
    for (int i = 0; i < 200; ++i)
        second.push_back(faults::shouldFail("cegis.timeout"));
    EXPECT_EQ(first, second);
    const long fired = std::count(first.begin(), first.end(), true);
    EXPECT_GT(fired, 50);
    EXPECT_LT(fired, 150);
}

TEST(Faults, ArgMatchFiresOnlyOnTheConfiguredKey)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::configure("parser.malformed=vadd_s16"));
    EXPECT_TRUE(faults::shouldFail("parser.malformed", "vadd_s16"));
    EXPECT_FALSE(faults::shouldFail("parser.malformed", "vsub_s16"));
}

TEST(Faults, ArgOfExposesCapacityStyleKnobs)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::configure("alloc.cap=64M"));
    EXPECT_EQ(faults::argOf("alloc.cap"), "64M");
    EXPECT_EQ(faults::parseSizeArg("64M", -1), 64LL << 20);
    EXPECT_EQ(faults::parseSizeArg("512K", -1), 512LL << 10);
    EXPECT_EQ(faults::parseSizeArg("2G", -1), 2LL << 30);
    EXPECT_EQ(faults::parseSizeArg("1048576", -1), 1048576LL);
    EXPECT_EQ(faults::parseSizeArg("", -1), -1);
    EXPECT_EQ(faults::parseSizeArg("garbage", -1), -1);
}

TEST(Faults, FailPointThrowsInjectedFaultNamingTheSite)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::configure("compiler.window"));
    try {
        faults::failPoint("compiler.window");
        FAIL() << "failPoint did not throw";
    } catch (const faults::InjectedFault &fault) {
        EXPECT_EQ(fault.site(), "compiler.window");
    }
}

TEST(Faults, EveryRegisteredSiteIsKnown)
{
    const auto sites = faults::knownSites();
    EXPECT_GE(sites.size(), 11u);
    for (const auto &site : sites)
        EXPECT_TRUE(faults::isKnownSite(site)) << site;
    EXPECT_FALSE(faults::isKnownSite("definitely.not.a.site"));
}

// ---- Degradation ladder rungs ----------------------------------------------

TEST(Resilience, SynthesizedRungRecordsMetricsAndTrace)
{
    FaultGuard guard;
    MetricsOn metrics_on;
    trace::reset();
    trace::setEnabled(true);
    metrics::Counter &rung_counter =
        metrics::counter("resilience.rung.synthesized");
    const uint64_t before = rung_counter.value();

    ResilientCompiler compiler(dict(), "x86", 256, fastOptions());
    ResilientWindow window = compiler.compileWindow(easyWindow());
    trace::setEnabled(false);

    EXPECT_TRUE(window.ok);
    EXPECT_EQ(window.rung, Rung::Synthesized);
    EXPECT_FALSE(window.recovered);
    EXPECT_EQ(rung_counter.value(), before + 1);
    EXPECT_EQ(lastWindowSpanRung(), "synthesized");
}

TEST(Resilience, CachedRungOnTheSecondCompile)
{
    FaultGuard guard;
    MetricsOn metrics_on;
    ResilientCompiler compiler(dict(), "x86", 256, fastOptions());
    ResilientWindow first = compiler.compileWindow(easyWindow());
    ASSERT_EQ(first.rung, Rung::Synthesized);

    metrics::Counter &rung_counter =
        metrics::counter("resilience.rung.cached");
    const uint64_t before = rung_counter.value();
    ResilientWindow second = compiler.compileWindow(easyWindow());
    EXPECT_TRUE(second.ok);
    EXPECT_EQ(second.rung, Rung::Cached);
    EXPECT_EQ(rung_counter.value(), before + 1);
}

TEST(Resilience, NegativeCacheEntrySkipsSynthesisAndFallsBack)
{
    FaultGuard guard;
    MetricsOn metrics_on;
    SynthesisCache cache;
    cache.insert(easyWindow(), "x86", SynthesisResult{}); // ok = false
    metrics::Counter &skips =
        metrics::counter("resilience.negative_cache.skips");
    const uint64_t before = skips.value();

    ResilientCompiler compiler(dict(), "x86", 256, fastOptions(), &cache);
    ResilientWindow window = compiler.compileWindow(easyWindow());
    EXPECT_TRUE(window.ok);
    EXPECT_EQ(window.rung, Rung::MacroExpanded);
    EXPECT_EQ(skips.value(), before + 1);
}

TEST(Resilience, InjectedTimeoutDegradesToMacroExpansionWithoutRetry)
{
    FaultGuard guard;
    MetricsOn metrics_on;
    ASSERT_TRUE(faults::configure("cegis.timeout"));
    trace::reset();
    trace::setEnabled(true);
    metrics::Counter &rung_counter =
        metrics::counter("resilience.rung.macro_expanded");
    metrics::Counter &degradations =
        metrics::counter("resilience.degradations");
    metrics::Counter &searches =
        metrics::counter("synthesis.cegis.windows");
    const uint64_t rung_before = rung_counter.value();
    const uint64_t deg_before = degradations.value();
    const uint64_t searches_before = searches.value();

    ResilientCompiler compiler(dict(), "x86", 256, fastOptions());
    ResilientWindow window = compiler.compileWindow(easyWindow());
    trace::setEnabled(false);

    EXPECT_TRUE(window.ok);
    EXPECT_EQ(window.rung, Rung::MacroExpanded);
    // The deadline fault looks exactly like a real deadline: the one
    // search ends "timeout" and the window falls straight to macro
    // expansion, with no second search.
    EXPECT_EQ(window.synth.note.rfind("timeout", 0), 0u)
        << window.synth.note;
    EXPECT_EQ(window.retries, 0);
    EXPECT_EQ(searches.value(), searches_before + 1);
    EXPECT_EQ(rung_counter.value(), rung_before + 1);
    EXPECT_EQ(degradations.value(), deg_before + 1);
    EXPECT_EQ(lastWindowSpanRung(), "macro_expanded");
}

TEST(Resilience, MacroFaultDegradesToScalarizedAndStaysEquivalent)
{
    FaultGuard guard;
    MetricsOn metrics_on;
    ASSERT_TRUE(faults::configure("lowering.fail,macro.fail"));
    metrics::Counter &rung_counter =
        metrics::counter("resilience.rung.scalarized");
    const uint64_t before = rung_counter.value();

    ResilientCompiler compiler(dict(), "x86", 256, fastOptions());
    const HExprPtr window = easyWindow();
    ResilientWindow compiled = compiler.compileWindow(window);

    EXPECT_TRUE(compiled.ok);
    EXPECT_EQ(compiled.rung, Rung::Scalarized);
    EXPECT_EQ(rung_counter.value(), before + 1);
    EXPECT_GT(scalarizedCost(window), 0);
    faults::reset();

    // The scalarized rung evaluates the window itself.
    Rng rng(0x5CA1A);
    std::vector<BitVector> inputs = {BitVector::random(128, rng),
                                     BitVector::random(128, rng)};
    EXPECT_EQ(evalResilient(dict(), compiled, inputs),
              evalHalide(window, inputs));
}

TEST(Resilience, BarrierCatchesInjectedFaultAndRecordsRecovery)
{
    FaultGuard guard;
    MetricsOn metrics_on;
    ASSERT_TRUE(faults::configure("compiler.window"));
    metrics::Counter &recovered =
        metrics::counter("resilience.recovered.compiler.window");
    const uint64_t before = recovered.value();

    ResilientCompiler compiler(dict(), "x86", 256, fastOptions());
    ResilientWindow window = compiler.compileWindow(easyWindow());

    EXPECT_TRUE(window.ok);
    EXPECT_TRUE(window.recovered);
    EXPECT_EQ(window.rung, Rung::MacroExpanded);
    ASSERT_FALSE(window.diagnostics.empty());
    EXPECT_EQ(window.diagnostics[0].site, "compiler.window");
    EXPECT_EQ(recovered.value(), before + 1);
}

TEST(Resilience, DisabledLadderYieldsStructuredFailureNotACrash)
{
    FaultGuard guard;
    MetricsOn metrics_on;
    ASSERT_TRUE(faults::configure("compiler.window"));
    metrics::Counter &failed =
        metrics::counter("resilience.failed_windows");
    const uint64_t before = failed.value();

    ResilienceOptions options = fastOptions();
    options.allow_macro_fallback = false;
    options.allow_scalarized = false;
    ResilientCompiler compiler(dict(), "x86", 256, options);
    ResilientWindow window = compiler.compileWindow(easyWindow());

    EXPECT_FALSE(window.ok);
    EXPECT_EQ(window.rung, Rung::Failed);
    ASSERT_FALSE(window.diagnostics.empty());
    EXPECT_EQ(window.diagnostics[0].site, "compiler.window");
    EXPECT_EQ(failed.value(), before + 1);
}

TEST(Resilience, WholeKernelCompilesThroughTheLadder)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::configure("cegis.timeout"));
    ResilientCompiler compiler(dict(), "x86", 256, fastOptions());
    Kernel kernel = buildKernel("add", Schedule{});
    ResilientCompilation compiled = compiler.compile(kernel);
    EXPECT_TRUE(compiled.allOk());
    EXPECT_EQ(compiled.failed_windows, 0);
    EXPECT_GT(compiled.degraded_windows, 0);
    EXPECT_GT(compiled.staticCost(), 0);
}

TEST(Resilience, PhaseAccountingNeedsMetricsButNoTracing)
{
    // Every compiled piece is one driver window; its phase buckets
    // must sum to its total with tracing off, and no span is kept.
    FaultGuard guard;
    MetricsOn metrics_on;
    trace::setEnabled(false);
    trace::reset();
    const phases::PhaseProfile before = phases::profile();

    ResilientCompiler compiler(dict(), "x86", 256, fastOptions());
    const ResilientCompilation compiled =
        compiler.compile(buildKernel("dilate3x3", Schedule{}));
    ASSERT_TRUE(compiled.allOk());
    ASSERT_GT(compiled.pieces.size(), 1u);

    const phases::PhaseProfile after = phases::profile();
    EXPECT_EQ(after.aggregate.windows - before.aggregate.windows,
              compiled.pieces.size());
    ASSERT_EQ(after.windows.size() - before.windows.size(),
              compiled.pieces.size());
    for (size_t i = before.windows.size(); i < after.windows.size(); ++i) {
        const phases::WindowBreakdown &window = after.windows[i];
        EXPECT_EQ(window.container, "driver.resilience.window");
        EXPECT_NEAR(window.totals.phaseSum(), window.totals.total_ms, 1e-6);
    }
    EXPECT_GT(after.aggregate.enumeration_ms, before.aggregate.enumeration_ms);
    EXPECT_TRUE(trace::snapshotSpans().empty());
}

// ---- CEGIS deadline granularity --------------------------------------------

TEST(Resilience, CegisDeadlineOvershootIsBounded)
{
    // Deadline checks live inside the candidate-enumeration inner loop
    // (the operand odometer), so a tiny budget must end the search
    // promptly instead of finishing the operation it is enumerating.
    // The window is built so that only that sampled check can stop it
    // in time: a 32-bit product of a sum and a difference ranks the
    // three-operand dot-product ops (`_mm512_dpbusds_epi32`, ...)
    // first, so depth 2 opens with an op whose operand product is
    // ~33 M tuples over the ~320 depth-1 values. Depth 1 takes a few
    // milliseconds, so the deadline expires inside that first op; with
    // only the per-op check, the search would run all of its tuples
    // (tens of seconds) before noticing.
    const HExprPtr window =
        hBin(HOp::Mul,
             hBin(HOp::Add, hInput(0, 32, 16), hInput(1, 32, 16)),
             hBin(HOp::Sub, hInput(2, 32, 16), hInput(3, 32, 16)));
    SynthesisOptions options;
    options.timeout_seconds = 0.05;
    options.max_insts = 3;
    options.max_combos = 40000000; // Above that op's operand product.
    const AutoLLVMDict &x86 = dict(); // Built outside the timed search.
    Stopwatch watch;
    SynthesisResult synth = synthesizeWindow(x86, "x86", window, options);
    const double elapsed = watch.seconds();
    EXPECT_LT(elapsed, 2.0);
    if (!synth.ok) {
        EXPECT_EQ(synth.note, "timeout");
    }
}

} // namespace
} // namespace hydride
