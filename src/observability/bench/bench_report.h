/**
 * @file
 * Machine-readable benchmark reports: the `BENCH_*.json` trajectory.
 *
 * Every `bench/bench_*` binary emits one `BenchReport` (via the
 * shared `--json-out` flag, see bench/trace_cli.h): schema-versioned
 * JSON with per-benchmark wall/CPU time and iteration counts, the
 * metrics-registry snapshot (counters, gauges, histogram summaries
 * with p50/p90/p99), and the per-phase synthesis profile
 * (observability/phases.h). `hydride-bench` merges the per-binary reports
 * into one `SuiteReport` — the committed `BENCH_<n>.json` files at
 * the repository root — and `compareReports` is the perf-regression
 * gate that diffs a run against the committed baseline.
 *
 * Schema identifier: "hydride-bench/v1". Parsers reject other
 * versions loudly rather than misreading them.
 */
#ifndef HYDRIDE_OBSERVABILITY_BENCH_BENCH_REPORT_H
#define HYDRIDE_OBSERVABILITY_BENCH_BENCH_REPORT_H

#include <string>
#include <vector>

#include "observability/metrics.h"
#include "observability/phases.h"

namespace hydride {
namespace bench {

/** The schema identifier every artifact carries. */
extern const char *const kSchemaId; // "hydride-bench/v1"

/**
 * One measured quantity. `kind == "time"` entries (wall/CPU ms) are
 * what the regression gate compares; `kind == "ratio"` entries
 * (speedups, compression factors) are carried for trend analysis but
 * never gate — a ratio change is a result change, not a perf
 * regression.
 */
struct BenchEntry
{
    std::string name;     ///< e.g. "table4.x86.geomean_cold_ms"
    std::string kind = "time";
    double wall_ms = 0.0;
    double cpu_ms = 0.0;  ///< < 0 when not measured.
    double value = 0.0;   ///< Payload for kind == "ratio".
    long iterations = 1;
};

/** Histogram summary: the registry snapshot reduced to the numbers
 *  a perf trajectory needs (full bucket arrays stay in the trace
 *  artifacts). */
struct HistSummary
{
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/** Counters, gauges and histogram summaries at report time. */
struct MetricsSummary
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistSummary> histograms;

    static MetricsSummary fromSnapshot(const metrics::Snapshot &snap);
};

/** One bench binary's report. */
struct BenchReport
{
    std::string suite;  ///< Binary name, e.g. "bench_table4_compile_times".
    bool smoke = false; ///< Reduced --smoke workload (not comparable
                        ///< against full-run numbers).
    std::vector<BenchEntry> benchmarks;
    bool has_phases = false;
    phases::PhaseTotals phases;
    MetricsSummary metrics;

    std::string toJson(bool pretty = true) const;
    /** False + `error` on malformed input or schema mismatch. */
    static bool fromJson(const std::string &text, BenchReport &out,
                         std::string &error);
};

/** The merged artifact `hydride-bench` writes as BENCH_<n>.json. */
struct SuiteReport
{
    bool smoke = false;
    std::string label; ///< Free-form provenance ("full", "smoke", ...).
    std::vector<BenchReport> suites;

    std::string toJson(bool pretty = true) const;
    static bool fromJson(const std::string &text, SuiteReport &out,
                         std::string &error);

    /** Aggregate phase totals across all member reports. */
    phases::PhaseTotals aggregatePhases() const;
};

// ---- Regression gate -------------------------------------------------------

struct CompareOptions
{
    /** Relative slowdown tolerated before a time entry is a
     *  regression (0.5 == 50% slower). Benchmarks in this repo run
     *  on shared machines; the default absorbs scheduler noise while
     *  still catching the order-of-magnitude changes perf PRs aim
     *  for. */
    double tolerance = 0.5;
    /** Absolute floor: ignore regressions smaller than this many ms
     *  (sub-millisecond entries jitter far beyond any ratio). */
    double min_abs_ms = 5.0;
    /** Baseline times are multiplied by this before comparison.
     *  1.0 in normal operation; the WILL_FAIL ctest gate self-test
     *  plants a regression by scaling the baseline down. */
    double scale_baseline = 1.0;
};

struct CompareFinding
{
    std::string suite;
    std::string name;
    double baseline_ms = 0.0; ///< After scale_baseline.
    double current_ms = 0.0;
    double ratio = 0.0;       ///< current / baseline.
};

struct CompareResult
{
    std::vector<CompareFinding> regressions;
    std::vector<CompareFinding> improvements; ///< Informational.
    int compared = 0;      ///< Time entries present in both reports.
    int only_baseline = 0; ///< Entries the current run lost.
    int only_current = 0;  ///< Entries the baseline predates.
    std::string error;     ///< Non-empty: reports not comparable.

    bool ok() const { return error.empty() && regressions.empty(); }
};

/**
 * Diff `current` against `baseline`. Time entries are matched by
 * (suite, name); a smoke report is never compared against a full
 * one (the workloads differ, set `error` instead of lying).
 */
CompareResult compareReports(const SuiteReport &baseline,
                             const SuiteReport &current,
                             const CompareOptions &options);

/** Render a compare result the way hydride-bench prints it. */
std::string formatCompare(const CompareResult &result,
                          const CompareOptions &options);

// ---- Timing helper ---------------------------------------------------------

/** Process CPU time (user+system) in milliseconds. */
double cpuTimeMs();

} // namespace bench
} // namespace hydride

#endif // HYDRIDE_OBSERVABILITY_BENCH_BENCH_REPORT_H
