/**
 * @file
 * Per-phase synthesis profiler riding the trace-span infrastructure.
 *
 * The CEGIS hot path opens spans around its five cost centers —
 * candidate enumeration, concrete counterexample evaluation,
 * symbolic verification, SAT solving and memoization-cache lookup
 * (see docs/benchmarking.md for the span names). This profiler
 * consumes a `trace::snapshotSpans()` dump and attributes wall time
 * *exclusively*: a SAT solve nested inside a symbolic-verification
 * span counts as SAT, not twice. Whatever a window spent outside
 * the five phases (grammar construction, lowering, bookkeeping)
 * lands in `other_ms`, so per window
 *
 *     enumeration + concrete_eval + symbolic + sat + cache + other
 *         == window total
 *
 * holds exactly — the invariant tests/test_bench_report.cpp pins.
 *
 * A "window" is an outermost `driver.resilience.window` or
 * `synthesis.cegis.window` span (the driver wraps the latter in the
 * former; only the outermost counts). Phase spans outside any
 * window (e.g. hydride-verify's equivalence passes) are ignored.
 */
#ifndef HYDRIDE_OBSERVABILITY_BENCH_PHASE_PROFILER_H
#define HYDRIDE_OBSERVABILITY_BENCH_PHASE_PROFILER_H

#include <string>
#include <vector>

#include "observability/trace.h"

namespace hydride {
namespace bench {

/** Exclusive per-phase wall time, in milliseconds. */
struct PhaseTotals
{
    double enumeration_ms = 0.0;
    double concrete_eval_ms = 0.0;
    double symbolic_ms = 0.0;
    double sat_ms = 0.0;
    double cache_lookup_ms = 0.0;
    double other_ms = 0.0;
    double total_ms = 0.0; ///< Sum of window-span durations.
    uint64_t windows = 0;  ///< Number of window containers seen.

    /** Sum of the six phase buckets (== total_ms up to rounding). */
    double phaseSum() const
    {
        return enumeration_ms + concrete_eval_ms + symbolic_ms + sat_ms +
               cache_lookup_ms + other_ms;
    }
};

/** One window container with its exclusive phase split. */
struct WindowBreakdown
{
    std::string container; ///< Span name of the window container.
    uint64_t start_ns = 0; ///< Start, for chronological ordering.
    PhaseTotals totals;    ///< windows == 1 for a single breakdown.
};

/** Aggregate plus per-window attribution for one span dump. */
struct PhaseProfile
{
    PhaseTotals aggregate;
    std::vector<WindowBreakdown> windows;
};

/** Span names the profiler maps to phases (shared with the hot-path
 *  instrumentation so the two cannot drift apart). */
extern const char *const kSpanWindowDriver;    // driver.resilience.window
extern const char *const kSpanWindowCegis;     // synthesis.cegis.window
extern const char *const kSpanEnumerate;       // synthesis.cegis.enumerate
extern const char *const kSpanConcreteEval;    // synthesis.cegis.concrete_eval
extern const char *const kSpanSymbolic;        // symbolic.equiv.check
extern const char *const kSpanSat;             // symbolic.sat.solve
extern const char *const kSpanCacheLookup;     // synthesis.cache.lookup

/** Attribute a span dump to phases. O(n log n) in span count. */
PhaseProfile profilePhases(const std::vector<trace::SpanRecord> &spans);

/** Convenience: profile the live trace buffer. */
PhaseProfile profileCurrentTrace();

/**
 * Human-readable summary for `--profile`: the aggregate phase table
 * (share of total per phase) followed by the `top_windows` slowest
 * windows with their splits.
 */
std::string formatProfile(const PhaseProfile &profile,
                          size_t top_windows = 5);

} // namespace bench
} // namespace hydride

#endif // HYDRIDE_OBSERVABILITY_BENCH_PHASE_PROFILER_H
