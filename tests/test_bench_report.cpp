/**
 * @file
 * Tests for the continuous-benchmarking subsystem
 * (docs/benchmarking.md): the bjson round-tripping JSON layer, the
 * histogram quantile estimator and log-scale bounds, the BenchReport
 * / SuiteReport schema round-trip, the exclusive per-phase accounting
 * (the `phaseSum() == total_ms` invariant), and the perf-regression
 * gate `compareReports` — including the smoke/full refusal and the
 * `scale_baseline` knob the WILL_FAIL ctest entry relies on.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "observability/bench/bench_report.h"
#include "observability/bench/json.h"
#include "observability/metrics.h"
#include "observability/phases.h"

using namespace hydride;
using namespace hydride::bench;
using phases::PhaseTotals;

// ---- bjson -----------------------------------------------------------------

TEST(BenchJson, ParsesAndRereadsNestedDocument)
{
    const std::string text =
        "{\"name\":\"t\\u0041b\",\"n\":3.5,\"ok\":true,\"none\":null,"
        "\"arr\":[1,2,3],\"obj\":{\"k\":\"v\"}}";
    std::string error;
    bjson::ValuePtr doc = bjson::parse(text, error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->getString("name", ""), "tAb"); // A == 'A'
    EXPECT_DOUBLE_EQ(doc->getNumber("n", 0.0), 3.5);
    EXPECT_TRUE(doc->getBool("ok", false));
    ASSERT_NE(doc->get("none"), nullptr);
    EXPECT_TRUE(doc->get("none")->isNull());
    ASSERT_NE(doc->get("arr"), nullptr);
    ASSERT_EQ(doc->get("arr")->items.size(), 3u);
    EXPECT_DOUBLE_EQ(doc->get("arr")->items[1]->numberOr(0.0), 2.0);
    EXPECT_EQ(doc->get("obj")->getString("k", ""), "v");

    // write() -> parse() is the identity on the value level.
    bjson::ValuePtr again = bjson::parse(bjson::write(*doc), error);
    ASSERT_TRUE(again) << error;
    EXPECT_EQ(again->getString("name", ""), "tAb");
    EXPECT_EQ(again->get("arr")->items.size(), 3u);
    // Pretty output parses back too.
    bjson::ValuePtr pretty = bjson::parse(bjson::writePretty(*doc), error);
    ASSERT_TRUE(pretty) << error;
    EXPECT_DOUBLE_EQ(pretty->getNumber("n", 0.0), 3.5);
}

TEST(BenchJson, KeepsObjectKeysInInsertionOrder)
{
    bjson::ValuePtr obj = bjson::Value::makeObject();
    obj->set("zebra", bjson::Value::makeNumber(1));
    obj->set("apple", bjson::Value::makeNumber(2));
    obj->set("mango", bjson::Value::makeNumber(3));
    const std::string out = bjson::write(*obj);
    EXPECT_LT(out.find("zebra"), out.find("apple"));
    EXPECT_LT(out.find("apple"), out.find("mango"));
}

TEST(BenchJson, RejectsMalformedInput)
{
    const char *bad[] = {
        "",
        "{",
        "{\"a\":}",
        "[1,2",
        "\"unterminated",
        "{\"a\":1} trailing",
        "nul",
        "{\"a\" 1}",
    };
    for (const char *text : bad) {
        std::string error;
        EXPECT_EQ(bjson::parse(text, error), nullptr)
            << "accepted malformed input: " << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(BenchJson, FormatNumberPrintsIntegersWithoutFraction)
{
    EXPECT_EQ(bjson::formatNumber(3.0), "3");
    EXPECT_EQ(bjson::formatNumber(-42.0), "-42");
    EXPECT_EQ(bjson::formatNumber(0.0), "0");
    // Non-integers keep a fractional part; NaN/Inf clamp to 0.
    EXPECT_NE(bjson::formatNumber(0.5).find('.'), std::string::npos);
    EXPECT_EQ(bjson::formatNumber(std::nan("")), "0");
}

// ---- Histogram quantiles ---------------------------------------------------

TEST(BenchQuantile, LogBoundsAreGeometricAndCoverHi)
{
    const std::vector<double> bounds = metrics::logBounds(1.0, 1000.0, 1);
    ASSERT_GE(bounds.size(), 4u);
    for (size_t i = 1; i < bounds.size(); ++i) {
        EXPECT_GT(bounds[i], bounds[i - 1]);
        EXPECT_NEAR(bounds[i] / bounds[i - 1], 10.0, 1e-6);
    }
    EXPECT_GE(bounds.back(), 1000.0);

    // The shared time bounds span 1µs .. 100s (in ms).
    const std::vector<double> &tb = metrics::logTimeMsBounds();
    ASSERT_FALSE(tb.empty());
    EXPECT_LE(tb.front(), 0.001 + 1e-12);
    EXPECT_GE(tb.back(), 1e5 - 1e-6);
}

TEST(BenchQuantile, UniformBucketInterpolatesLinearly)
{
    // 100 samples uniformly inside the (10, 20] bucket.
    metrics::Snapshot::Hist hist;
    hist.bounds = {10.0, 20.0, 30.0};
    hist.buckets = {0, 100, 0, 0};
    hist.count = 100;
    hist.min = 10.0;
    hist.max = 20.0;
    EXPECT_NEAR(hist.quantile(0.5), 15.0, 1e-9);
    EXPECT_NEAR(hist.quantile(0.9), 19.0, 1e-9);
    EXPECT_NEAR(hist.quantile(1.0), 20.0, 1e-9);
    EXPECT_NEAR(hist.quantile(0.0), 10.0, 1e-9);
}

TEST(BenchQuantile, MultiBucketDistributionFindsTheRightBucket)
{
    // 50 samples in (0, 1], 30 in (1, 2], 20 in (2, 4].
    metrics::Snapshot::Hist hist;
    hist.bounds = {1.0, 2.0, 4.0};
    hist.buckets = {50, 30, 20, 0};
    hist.count = 100;
    hist.min = 0.0;
    hist.max = 4.0;
    EXPECT_NEAR(hist.quantile(0.5), 1.0, 1e-9);  // rank 50: bucket edge
    EXPECT_NEAR(hist.quantile(0.8), 2.0, 1e-9);  // rank 80: next edge
    EXPECT_NEAR(hist.quantile(0.9), 3.0, 1e-9);  // mid of (2, 4]
    // Percentiles stay within [min, max] and are monotone.
    EXPECT_LE(hist.quantile(0.5), hist.quantile(0.9));
    EXPECT_LE(hist.quantile(0.9), hist.quantile(0.99));
    EXPECT_LE(hist.quantile(0.99), hist.max);
}

TEST(BenchQuantile, ClampsToObservedRangeAndHandlesEmpty)
{
    metrics::Snapshot::Hist empty;
    empty.bounds = {1.0};
    empty.buckets = {0, 0};
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

    // All mass in the overflow bucket: quantiles clamp to max.
    metrics::Snapshot::Hist over;
    over.bounds = {1.0};
    over.buckets = {0, 10};
    over.count = 10;
    over.min = 5.0;
    over.max = 9.0;
    EXPECT_GE(over.quantile(0.5), over.min);
    EXPECT_LE(over.quantile(0.99), over.max);
}

// ---- Report round-trip -----------------------------------------------------

namespace {

BenchReport
sampleReport(const std::string &suite, bool smoke)
{
    BenchReport report;
    report.suite = suite;
    report.smoke = smoke;
    BenchEntry time;
    time.name = "x86.compile_ms";
    time.wall_ms = 123.5;
    time.cpu_ms = 120.0;
    time.iterations = 4;
    report.benchmarks.push_back(time);
    BenchEntry no_cpu;
    no_cpu.name = "arm.compile_ms";
    no_cpu.wall_ms = 7.25;
    no_cpu.cpu_ms = -1.0; // Not measured: must not be serialized.
    report.benchmarks.push_back(no_cpu);
    BenchEntry ratio;
    ratio.name = "x86.speedup_x";
    ratio.kind = "ratio";
    ratio.value = 2.75;
    report.benchmarks.push_back(ratio);

    report.has_phases = true;
    report.phases.enumeration_ms = 60.0;
    report.phases.symbolic_ms = 25.0;
    report.phases.sat_ms = 10.0;
    report.phases.other_ms = 5.0;
    report.phases.total_ms = 100.0;
    report.phases.windows = 3;

    HistSummary hist;
    hist.name = "synthesis.cegis.enumerate.time_ms";
    hist.count = 7;
    hist.sum = 70.0;
    hist.min = 1.0;
    hist.max = 30.0;
    hist.p50 = 8.0;
    hist.p90 = 20.0;
    hist.p99 = 29.0;
    report.metrics.histograms.push_back(hist);
    report.metrics.counters.push_back({"synthesis.windows", 3});
    return report;
}

} // namespace

TEST(BenchReportRoundTrip, PreservesEntriesPhasesAndMetrics)
{
    const BenchReport report = sampleReport("bench_demo", true);
    std::string error;
    BenchReport back;
    ASSERT_TRUE(BenchReport::fromJson(report.toJson(), back, error))
        << error;
    EXPECT_EQ(back.suite, "bench_demo");
    EXPECT_TRUE(back.smoke);
    ASSERT_EQ(back.benchmarks.size(), 3u);
    EXPECT_EQ(back.benchmarks[0].name, "x86.compile_ms");
    EXPECT_EQ(back.benchmarks[0].kind, "time");
    EXPECT_DOUBLE_EQ(back.benchmarks[0].wall_ms, 123.5);
    EXPECT_DOUBLE_EQ(back.benchmarks[0].cpu_ms, 120.0);
    EXPECT_EQ(back.benchmarks[0].iterations, 4);
    EXPECT_LT(back.benchmarks[1].cpu_ms, 0.0); // Stays "not measured".
    EXPECT_EQ(back.benchmarks[2].kind, "ratio");
    EXPECT_DOUBLE_EQ(back.benchmarks[2].value, 2.75);
    ASSERT_TRUE(back.has_phases);
    EXPECT_DOUBLE_EQ(back.phases.enumeration_ms, 60.0);
    EXPECT_DOUBLE_EQ(back.phases.total_ms, 100.0);
    EXPECT_EQ(back.phases.windows, 3u);
    ASSERT_EQ(back.metrics.histograms.size(), 1u);
    EXPECT_EQ(back.metrics.histograms[0].name,
              "synthesis.cegis.enumerate.time_ms");
    EXPECT_DOUBLE_EQ(back.metrics.histograms[0].p90, 20.0);
    ASSERT_EQ(back.metrics.counters.size(), 1u);
    EXPECT_EQ(back.metrics.counters[0].second, 3u);
}

TEST(BenchReportRoundTrip, RejectsWrongSchemaOrShape)
{
    BenchReport out;
    std::string error;
    EXPECT_FALSE(BenchReport::fromJson("not json", out, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(BenchReport::fromJson(
        "{\"schema\":\"hydride-bench/v999\",\"kind\":\"report\","
        "\"suite\":\"s\",\"benchmarks\":[]}",
        out, error));
    EXPECT_NE(error.find("schema"), std::string::npos);
    // A suite wrapper is not a report.
    const SuiteReport suite;
    EXPECT_FALSE(BenchReport::fromJson(suite.toJson(), out, error));
}

TEST(BenchReportRoundTrip, SuiteReportMergesAndAggregates)
{
    SuiteReport suite;
    suite.smoke = false;
    suite.label = "full";
    suite.suites.push_back(sampleReport("bench_a", false));
    suite.suites.push_back(sampleReport("bench_b", false));

    std::string error;
    SuiteReport back;
    ASSERT_TRUE(SuiteReport::fromJson(suite.toJson(), back, error))
        << error;
    EXPECT_FALSE(back.smoke);
    EXPECT_EQ(back.label, "full");
    ASSERT_EQ(back.suites.size(), 2u);
    EXPECT_EQ(back.suites[0].suite, "bench_a");
    EXPECT_EQ(back.suites[1].suite, "bench_b");

    const PhaseTotals agg = back.aggregatePhases();
    EXPECT_DOUBLE_EQ(agg.total_ms, 200.0);
    EXPECT_DOUBLE_EQ(agg.enumeration_ms, 120.0);
    EXPECT_EQ(agg.windows, 6u);

    // A report payload is not a suite wrapper.
    SuiteReport bad;
    EXPECT_FALSE(SuiteReport::fromJson(
        sampleReport("bench_a", false).toJson(), bad, error));
}

// ---- Phase profiler --------------------------------------------------------

namespace {

using phases::Accumulator;
using phases::Phase;
using phases::PhaseProfile;

const char *const kDriverWindow = "driver.resilience.window";
const char *const kCegisWindow = "synthesis.cegis.window";

uint64_t
ms(uint64_t millis)
{
    return millis * 1'000'000;
}

/** Feed `acc` one phase [start, start + dur) (in ms). */
void
phase(Accumulator &acc, Phase which, uint64_t start, uint64_t dur)
{
    acc.enterPhase(which, ms(start));
    acc.exitPhase(ms(start + dur));
}

} // namespace

TEST(PhaseProfiler, AttributesExclusivelyAndSumsToWindowTotal)
{
    // window [0, 100): enumerate [10, 30), symbolic [40, 80) with a
    // SAT solve [50, 70) nested inside it. Exclusive attribution:
    // symbolic keeps only its 20 ms outside the solve.
    PhaseProfile profile;
    Accumulator acc(profile);
    acc.enterWindow(kCegisWindow, ms(0));
    phase(acc, Phase::Enumeration, 10, 20);
    acc.enterPhase(Phase::Symbolic, ms(40));
    phase(acc, Phase::Sat, 50, 20);
    acc.exitPhase(ms(80));
    acc.exitWindow(ms(100));
    ASSERT_EQ(profile.windows.size(), 1u);
    const PhaseTotals &t = profile.windows[0].totals;
    EXPECT_NEAR(t.enumeration_ms, 20.0, 1e-9);
    EXPECT_NEAR(t.symbolic_ms, 20.0, 1e-9);
    EXPECT_NEAR(t.sat_ms, 20.0, 1e-9);
    EXPECT_NEAR(t.other_ms, 40.0, 1e-9);
    EXPECT_NEAR(t.total_ms, 100.0, 1e-9);
    // The invariant the JSON validator also checks.
    EXPECT_NEAR(t.phaseSum(), t.total_ms, 1e-9);
    EXPECT_NEAR(profile.aggregate.phaseSum(), profile.aggregate.total_ms,
                1e-9);
}

TEST(PhaseProfiler, NestedWindowContainersAreTransparent)
{
    // The driver wraps cegis.window in resilience.window; only the
    // outermost container may count, else time doubles.
    PhaseProfile profile;
    Accumulator acc(profile);
    acc.enterWindow(kDriverWindow, ms(0));
    acc.enterWindow(kCegisWindow, ms(5));
    phase(acc, Phase::Enumeration, 10, 30);
    acc.exitWindow(ms(95));
    acc.exitWindow(ms(100));
    ASSERT_EQ(profile.windows.size(), 1u);
    EXPECT_EQ(profile.windows[0].container, kDriverWindow);
    EXPECT_NEAR(profile.aggregate.total_ms, 100.0, 1e-9);
    EXPECT_NEAR(profile.aggregate.enumeration_ms, 30.0, 1e-9);
    EXPECT_EQ(profile.aggregate.windows, 1u);
}

TEST(PhaseProfiler, IgnoresPhaseWorkOutsideWindowsAndSplitsThreads)
{
    // One accumulator per thread, all merging into one profile.
    PhaseProfile profile;
    Accumulator thread0(profile);
    Accumulator thread1(profile);
    Accumulator thread2(profile);
    // Thread 0: a symbolic check with no enclosing window
    // (hydride-verify's equivalence passes look like this).
    phase(thread0, Phase::Symbolic, 0, 50);
    // Thread 1 and 2: one window each, interleaved in time.
    thread1.enterWindow(kCegisWindow, ms(0));
    thread2.enterWindow(kCegisWindow, ms(0));
    phase(thread1, Phase::Enumeration, 0, 10);
    phase(thread2, Phase::ConcreteEval, 20, 30);
    thread1.exitWindow(ms(40));
    thread2.exitWindow(ms(60));
    EXPECT_EQ(profile.aggregate.windows, 2u);
    EXPECT_NEAR(profile.aggregate.total_ms, 100.0, 1e-9);
    EXPECT_NEAR(profile.aggregate.symbolic_ms, 0.0, 1e-9);
    EXPECT_NEAR(profile.aggregate.enumeration_ms, 10.0, 1e-9);
    EXPECT_NEAR(profile.aggregate.concrete_eval_ms, 30.0, 1e-9);
    EXPECT_NEAR(profile.aggregate.phaseSum(), profile.aggregate.total_ms,
                1e-9);
}

TEST(PhaseProfiler, SequentialWindowsEachGetTheirOwnBreakdown)
{
    PhaseProfile profile;
    Accumulator acc(profile);
    acc.enterWindow(kCegisWindow, ms(0));
    phase(acc, Phase::Enumeration, 0, 50);
    acc.exitWindow(ms(50));
    acc.enterWindow(kCegisWindow, ms(100));
    phase(acc, Phase::CacheLookup, 100, 5);
    acc.exitWindow(ms(130));
    ASSERT_EQ(profile.windows.size(), 2u);
    EXPECT_NEAR(profile.windows[0].totals.enumeration_ms, 50.0, 1e-9);
    EXPECT_NEAR(profile.windows[0].totals.other_ms, 0.0, 1e-9);
    EXPECT_NEAR(profile.windows[1].totals.cache_lookup_ms, 5.0, 1e-9);
    EXPECT_NEAR(profile.windows[1].totals.other_ms, 25.0, 1e-9);
    // formatProfile renders without crashing and mentions the phases.
    const std::string text = phases::formatProfile(profile, 2);
    EXPECT_NE(text.find("enumeration"), std::string::npos);
    EXPECT_NE(text.find("slowest windows"), std::string::npos);
}

// ---- Regression gate -------------------------------------------------------

namespace {

SuiteReport
timingSuite(bool smoke, double a_ms, double b_ms)
{
    SuiteReport suite;
    suite.smoke = smoke;
    BenchReport report;
    report.suite = "bench_demo";
    report.smoke = smoke;
    BenchEntry a;
    a.name = "a_ms";
    a.wall_ms = a_ms;
    report.benchmarks.push_back(a);
    BenchEntry b;
    b.name = "b_ms";
    b.wall_ms = b_ms;
    report.benchmarks.push_back(b);
    BenchEntry ratio;
    ratio.name = "speedup_x";
    ratio.kind = "ratio";
    ratio.value = 3.0;
    report.benchmarks.push_back(ratio);
    suite.suites.push_back(report);
    return suite;
}

} // namespace

TEST(RegressionGate, IdenticalReportsCompareClean)
{
    const SuiteReport base = timingSuite(false, 100.0, 50.0);
    const CompareResult result =
        compareReports(base, base, CompareOptions{});
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.compared, 2); // Ratio entries never gate.
    EXPECT_TRUE(result.regressions.empty());
    EXPECT_TRUE(result.improvements.empty());
}

TEST(RegressionGate, DetectsRegressionBeyondToleranceAndFloor)
{
    const SuiteReport base = timingSuite(false, 100.0, 50.0);
    const SuiteReport cur = timingSuite(false, 300.0, 50.0);
    const CompareResult result =
        compareReports(base, cur, CompareOptions{});
    ASSERT_EQ(result.regressions.size(), 1u);
    EXPECT_EQ(result.regressions[0].name, "a_ms");
    EXPECT_NEAR(result.regressions[0].ratio, 3.0, 1e-9);
    EXPECT_FALSE(result.ok());
    // The human-readable rendering names the entry.
    const std::string text = formatCompare(result, CompareOptions{});
    EXPECT_NE(text.find("REGRESSION"), std::string::npos);
    EXPECT_NE(text.find("a_ms"), std::string::npos);
}

TEST(RegressionGate, ToleranceAndAbsoluteFloorAbsorbNoise)
{
    const SuiteReport base = timingSuite(false, 100.0, 0.2);
    // a: +40% is inside the 50% tolerance. b: 10x slower but the
    // absolute change (1.8 ms) is under the 5 ms floor.
    const SuiteReport cur = timingSuite(false, 140.0, 2.0);
    const CompareResult result =
        compareReports(base, cur, CompareOptions{});
    EXPECT_TRUE(result.ok()) << formatCompare(result, CompareOptions{});
}

TEST(RegressionGate, ScaleBaselinePlantsDeterministicRegression)
{
    // The WILL_FAIL ctest self-test: scaling the baseline down 100x
    // must trip the gate on every sizeable entry, machine-independent.
    const SuiteReport base = timingSuite(false, 1000.0, 800.0);
    CompareOptions options;
    options.scale_baseline = 0.01;
    const CompareResult result = compareReports(base, base, options);
    EXPECT_EQ(result.regressions.size(), 2u);
    EXPECT_FALSE(result.ok());
    for (const CompareFinding &finding : result.regressions)
        EXPECT_NEAR(finding.ratio, 100.0, 1e-6);
}

TEST(RegressionGate, RefusesSmokeAgainstFullComparison)
{
    const SuiteReport smoke = timingSuite(true, 100.0, 50.0);
    const SuiteReport full = timingSuite(false, 100.0, 50.0);
    const CompareResult result =
        compareReports(full, smoke, CompareOptions{});
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.error.empty());
    EXPECT_EQ(result.compared, 0);
    const std::string text = formatCompare(result, CompareOptions{});
    EXPECT_NE(text.find("compare error"), std::string::npos);
}

TEST(RegressionGate, CountsLostAndNewEntries)
{
    SuiteReport base = timingSuite(false, 100.0, 50.0);
    SuiteReport cur = timingSuite(false, 100.0, 50.0);
    // Current loses "b_ms" and gains "c_ms".
    cur.suites[0].benchmarks[1].name = "c_ms";
    const CompareResult result =
        compareReports(base, cur, CompareOptions{});
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.compared, 1);
    EXPECT_EQ(result.only_baseline, 1);
    EXPECT_EQ(result.only_current, 1);
}

TEST(RegressionGate, ReportsImprovementsWithoutGating)
{
    const SuiteReport base = timingSuite(false, 300.0, 50.0);
    const SuiteReport cur = timingSuite(false, 100.0, 50.0);
    const CompareResult result =
        compareReports(base, cur, CompareOptions{});
    EXPECT_TRUE(result.ok());
    ASSERT_EQ(result.improvements.size(), 1u);
    EXPECT_EQ(result.improvements[0].name, "a_ms");
    EXPECT_NEAR(result.improvements[0].ratio, 1.0 / 3.0, 1e-9);
}
