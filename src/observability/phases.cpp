#include "observability/phases.h"

#include "observability/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace hydride {
namespace phases {

namespace {

struct PhaseInfo
{
    const char *label; ///< Row name in formatProfile.
    const char *span;
    const char *histogram; ///< nullptr: the phase has none.
    double PhaseTotals::*bucket;
};

/** Indexed by Phase. */
const PhaseInfo kPhases[] = {
    {"enumeration", "synthesis.cegis.enumerate",
     "synthesis.cegis.enumerate.time_ms", &PhaseTotals::enumeration_ms},
    {"concrete eval", "synthesis.cegis.concrete_eval",
     "synthesis.cegis.concrete_eval.time_ms",
     &PhaseTotals::concrete_eval_ms},
    {"symbolic verify", "symbolic.equiv.check", "symbolic.equiv.time_ms",
     &PhaseTotals::symbolic_ms},
    {"SAT", "symbolic.sat.solve", "symbolic.sat.time_ms",
     &PhaseTotals::sat_ms},
    {"cache lookup", "synthesis.cache.lookup", nullptr,
     &PhaseTotals::cache_lookup_ms},
};
constexpr int kPhaseCount = sizeof(kPhases) / sizeof(kPhases[0]);

const PhaseInfo &
infoOf(Phase phase)
{
    return kPhases[static_cast<int>(phase)];
}

/** The phase's histogram (nullptr if none), registered on first use. */
metrics::Histogram *
histogramOf(Phase phase)
{
    static std::once_flag once[kPhaseCount];
    static metrics::Histogram *histograms[kPhaseCount] = {};
    const int i = static_cast<int>(phase);
    if (kPhases[i].histogram) {
        std::call_once(once[i], [i] {
            histograms[i] = &metrics::histogram(kPhases[i].histogram,
                                                metrics::logTimeMsBounds());
        });
    }
    return histograms[i];
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
msOf(uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Guards every sink; windows close rarely, so one lock suffices. */
std::mutex g_sink_mutex;

PhaseProfile &
processProfile()
{
    // Leaked: threads still running at exit may close windows.
    static PhaseProfile *profile = new PhaseProfile;
    return *profile;
}

Accumulator &
threadAccumulator()
{
    thread_local Accumulator accumulator(processProfile());
    return accumulator;
}

} // namespace

void
PhaseTotals::add(const PhaseTotals &other)
{
    enumeration_ms += other.enumeration_ms;
    concrete_eval_ms += other.concrete_eval_ms;
    symbolic_ms += other.symbolic_ms;
    sat_ms += other.sat_ms;
    cache_lookup_ms += other.cache_lookup_ms;
    other_ms += other.other_ms;
    total_ms += other.total_ms;
    windows += other.windows;
}

void
Accumulator::enterWindow(const char *container, uint64_t now_ns)
{
    if (window_depth_++ > 0)
        return;
    open_ = WindowBreakdown{container, PhaseTotals{}};
    window_start_ns_ = now_ns;
}

void
Accumulator::exitWindow(uint64_t now_ns)
{
    if (window_depth_ == 0 || --window_depth_ > 0)
        return;
    PhaseTotals &totals = open_.totals;
    totals.total_ms = msOf(now_ns - window_start_ns_);
    totals.other_ms = std::max(0.0, totals.total_ms - totals.phaseSum());
    totals.windows = 1;
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    sink_.aggregate.add(totals);
    sink_.windows.push_back(std::move(open_));
}

void
Accumulator::enterPhase(Phase phase, uint64_t now_ns)
{
    stack_.push_back({phase, now_ns, 0});
}

void
Accumulator::exitPhase(uint64_t now_ns)
{
    if (stack_.empty())
        return;
    const Frame frame = stack_.back();
    stack_.pop_back();
    // Exclusive attribution: the full duration leaves the nearest
    // enclosing phase, so time counts once, at the innermost phase.
    const uint64_t dur_ns = now_ns - frame.start_ns;
    if (!stack_.empty())
        stack_.back().child_ns += dur_ns;
    if (window_depth_ > 0 && dur_ns > frame.child_ns)
        open_.totals.*infoOf(frame.phase).bucket +=
            msOf(dur_ns - frame.child_ns);
}

PhaseProfile
profile()
{
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    return processProfile();
}

Scope::Scope(Phase phase)
    : trace::TraceSpan(infoOf(phase).span), phase_(phase)
{
    // Register even with metrics off, so a report lists the same
    // histograms whenever metrics are turned on.
    histogramOf(phase);
    if (!metrics::enabled())
        return;
    timed_ = true;
    start_ns_ = nowNs();
    threadAccumulator().enterPhase(phase, start_ns_);
}

Scope::~Scope()
{
    if (!timed_)
        return;
    const uint64_t end_ns = nowNs();
    threadAccumulator().exitPhase(end_ns);
    if (metrics::Histogram *histogram = histogramOf(phase_))
        histogram->observe(msOf(end_ns - start_ns_));
}

WindowScope::WindowScope(const char *container) : trace::TraceSpan(container)
{
    timed_ = metrics::enabled();
    if (timed_)
        threadAccumulator().enterWindow(container, nowNs());
}

WindowScope::~WindowScope()
{
    if (timed_)
        threadAccumulator().exitWindow(nowNs());
}

std::string
formatProfile(const PhaseProfile &profile, size_t top_windows)
{
    const PhaseTotals &agg = profile.aggregate;
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "phase breakdown (%llu windows, %.2f ms total)\n",
                  static_cast<unsigned long long>(agg.windows),
                  agg.total_ms);
    out += buf;
    const double denom = agg.total_ms > 0.0 ? agg.total_ms : 1.0;
    auto row = [&](const char *label, double ms) {
        std::snprintf(buf, sizeof(buf), "  %-16s %10.2f ms  %5.1f%%\n",
                      label, ms, 100.0 * ms / denom);
        out += buf;
    };
    for (const PhaseInfo &phase : kPhases)
        row(phase.label, agg.*phase.bucket);
    row("other", agg.other_ms);
    if (top_windows == 0 || profile.windows.empty())
        return out;

    std::vector<const WindowBreakdown *> slowest;
    for (const WindowBreakdown &win : profile.windows)
        slowest.push_back(&win);
    std::sort(slowest.begin(), slowest.end(),
              [](const WindowBreakdown *a, const WindowBreakdown *b) {
                  return a->totals.total_ms > b->totals.total_ms;
              });
    slowest.resize(std::min(slowest.size(), top_windows));
    out += "slowest windows\n";
    for (size_t i = 0; i < slowest.size(); ++i) {
        const PhaseTotals &t = slowest[i]->totals;
        std::snprintf(
            buf, sizeof(buf),
            "  #%zu %s %.2f ms: enum %.2f | eval %.2f | sym %.2f | "
            "sat %.2f | cache %.2f | other %.2f\n",
            i + 1, slowest[i]->container.c_str(), t.total_ms,
            t.enumeration_ms, t.concrete_eval_ms, t.symbolic_ms, t.sat_ms,
            t.cache_lookup_ms, t.other_ms);
        out += buf;
    }
    return out;
}

} // namespace phases
} // namespace hydride
