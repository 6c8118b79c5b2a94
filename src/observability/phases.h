/**
 * @file
 * Always-on, exclusive per-phase accounting of synthesis windows.
 *
 * Each of the five CEGIS cost centers opens one RAII `Scope`. The
 * scope is the site's trace span, observes the phase's `*.time_ms`
 * histogram and, when `metrics::enabled()`, charges its *exclusive*
 * time to the calling thread's open window (a SAT solve nested in a
 * symbolic check counts as SAT only). A window is an outermost
 * `WindowScope`; nested ones are transparent, and phase work outside
 * any window is not charged. A window closes with
 * `other_ms = total - phases`, so per window
 *
 *     enumeration + concrete_eval + symbolic + sat + cache + other
 *         == window total
 *
 * No tracing is needed. Accounting state is per thread
 * (`Accumulator`, which takes explicit timestamps so it is testable
 * without sleeping) and merges into a profile when a window closes.
 */
#ifndef HYDRIDE_OBSERVABILITY_PHASES_H
#define HYDRIDE_OBSERVABILITY_PHASES_H

#include <cstdint>
#include <string>
#include <vector>

#include "observability/trace.h"

namespace hydride {
namespace phases {

/** The accounted cost centers. */
enum class Phase
{
    Enumeration,  ///< synthesis.cegis.enumerate
    ConcreteEval, ///< synthesis.cegis.concrete_eval
    Symbolic,     ///< symbolic.equiv.check
    Sat,          ///< symbolic.sat.solve
    CacheLookup,  ///< synthesis.cache.lookup
};

/** Exclusive per-phase wall time, in milliseconds. */
struct PhaseTotals
{
    double enumeration_ms = 0.0;
    double concrete_eval_ms = 0.0;
    double symbolic_ms = 0.0;
    double sat_ms = 0.0;
    double cache_lookup_ms = 0.0;
    double other_ms = 0.0;
    double total_ms = 0.0; ///< Sum of window durations.
    uint64_t windows = 0;  ///< Number of windows closed.

    /** Sum of the six phase buckets (== total_ms up to rounding). */
    double phaseSum() const
    {
        return enumeration_ms + concrete_eval_ms + symbolic_ms + sat_ms +
               cache_lookup_ms + other_ms;
    }

    /** Accumulate another split, window count included. */
    void add(const PhaseTotals &other);
};

/** One window with its exclusive phase split. */
struct WindowBreakdown
{
    std::string container; ///< Span name of the outermost window scope.
    PhaseTotals totals;    ///< windows == 1 for a single breakdown.
};

/** Aggregate plus per-window attribution. */
struct PhaseProfile
{
    PhaseTotals aggregate;
    std::vector<WindowBreakdown> windows;
};

/**
 * One thread's open window and phase stack. Enter and exit calls
 * must nest; timestamps are nanoseconds on one monotonic clock.
 * Closed windows merge into `sink` under a process-wide lock.
 */
class Accumulator
{
  public:
    explicit Accumulator(PhaseProfile &sink) : sink_(sink) {}

    void enterWindow(const char *container, uint64_t now_ns);
    void exitWindow(uint64_t now_ns);
    void enterPhase(Phase phase, uint64_t now_ns);
    void exitPhase(uint64_t now_ns);

  private:
    struct Frame
    {
        Phase phase;
        uint64_t start_ns;
        uint64_t child_ns; ///< Time of directly nested phases.
    };

    PhaseProfile &sink_;
    int window_depth_ = 0;
    uint64_t window_start_ns_ = 0;
    WindowBreakdown open_;
    std::vector<Frame> stack_;
};

/** Every window the scopes of this process closed so far. */
PhaseProfile profile();

/** A phase site: its trace span plus histogram and window accounting. */
class Scope : public trace::TraceSpan
{
  public:
    explicit Scope(Phase phase);
    ~Scope();

  private:
    Phase phase_;
    uint64_t start_ns_ = 0;
    bool timed_ = false;
};

/** A window: its trace span plus, when outermost, a window record. */
class WindowScope : public trace::TraceSpan
{
  public:
    explicit WindowScope(const char *container);
    ~WindowScope();

  private:
    bool timed_ = false;
};

/** `--profile` text: the aggregate phase table (share of total per
 *  phase), then the `top_windows` slowest windows with their splits. */
std::string formatProfile(const PhaseProfile &profile,
                          size_t top_windows = 5);

} // namespace phases
} // namespace hydride

#endif // HYDRIDE_OBSERVABILITY_PHASES_H
