#include "observability/bench/phase_profiler.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace hydride {
namespace bench {

const char *const kSpanWindowDriver = "driver.resilience.window";
const char *const kSpanWindowCegis = "synthesis.cegis.window";
const char *const kSpanEnumerate = "synthesis.cegis.enumerate";
const char *const kSpanConcreteEval = "synthesis.cegis.concrete_eval";
const char *const kSpanSymbolic = "symbolic.equiv.check";
const char *const kSpanSat = "symbolic.sat.solve";
const char *const kSpanCacheLookup = "synthesis.cache.lookup";

namespace {

enum Phase
{
    kEnumeration = 0,
    kConcreteEval,
    kSymbolic,
    kSat,
    kCacheLookup,
    kPhaseCount,
    kNotAPhase = -1,
};

int
phaseOf(const std::string &name)
{
    if (name == kSpanEnumerate)
        return kEnumeration;
    if (name == kSpanConcreteEval)
        return kConcreteEval;
    if (name == kSpanSymbolic)
        return kSymbolic;
    if (name == kSpanSat)
        return kSat;
    if (name == kSpanCacheLookup)
        return kCacheLookup;
    return kNotAPhase;
}

bool
isContainer(const std::string &name)
{
    return name == kSpanWindowDriver || name == kSpanWindowCegis;
}

double
msOf(uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

void
addPhase(PhaseTotals &totals, int phase, double ms)
{
    switch (phase) {
    case kEnumeration: totals.enumeration_ms += ms; break;
    case kConcreteEval: totals.concrete_eval_ms += ms; break;
    case kSymbolic: totals.symbolic_ms += ms; break;
    case kSat: totals.sat_ms += ms; break;
    case kCacheLookup: totals.cache_lookup_ms += ms; break;
    default: break;
    }
}

/** One open span on the attribution stack. */
struct Node
{
    bool container = false;
    int phase = kNotAPhase;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t child_phase_ns = 0; ///< Nearest-phase-children total.
    int window_idx = -1;         ///< Enclosing window, -1 outside.
};

} // namespace

PhaseProfile
profilePhases(const std::vector<trace::SpanRecord> &spans)
{
    PhaseProfile profile;

    // Group the relevant spans per thread; attribution is a per-thread
    // interval sweep.
    std::map<uint64_t, std::vector<const trace::SpanRecord *>> by_thread;
    for (const trace::SpanRecord &span : spans) {
        if (isContainer(span.name) || phaseOf(span.name) != kNotAPhase)
            by_thread[span.thread_id].push_back(&span);
    }

    for (auto &[tid, thread_spans] : by_thread) {
        (void)tid;
        // Parents sort before children: earlier start first, then
        // shallower depth (ties happen when a child opens in the same
        // nanosecond tick).
        std::sort(thread_spans.begin(), thread_spans.end(),
                  [](const trace::SpanRecord *a,
                     const trace::SpanRecord *b) {
                      if (a->start_ns != b->start_ns)
                          return a->start_ns < b->start_ns;
                      return a->depth < b->depth;
                  });

        std::vector<Node> stack;
        auto finalize = [&](const Node &node) {
            const uint64_t dur_ns = node.end_ns - node.start_ns;
            if (node.container) {
                WindowBreakdown &win = profile.windows[node.window_idx];
                win.totals.total_ms = msOf(dur_ns);
                win.totals.windows = 1;
                const double attributed =
                    win.totals.phaseSum(); // other_ms still 0 here.
                win.totals.other_ms =
                    std::max(0.0, win.totals.total_ms - attributed);
            } else {
                const uint64_t excl_ns =
                    dur_ns > node.child_phase_ns
                        ? dur_ns - node.child_phase_ns
                        : 0;
                if (node.window_idx >= 0) {
                    addPhase(profile.windows[node.window_idx].totals,
                             node.phase, msOf(excl_ns));
                }
            }
        };

        for (const trace::SpanRecord *span : thread_spans) {
            // Close everything this span does not nest inside.
            while (!stack.empty() &&
                   span->start_ns >= stack.back().end_ns) {
                finalize(stack.back());
                stack.pop_back();
            }

            Node node;
            node.start_ns = span->start_ns;
            node.end_ns = span->start_ns + span->duration_ns;
            if (isContainer(span->name)) {
                // Only the outermost window container counts; a
                // cegis.window inside a resilience.window is transparent.
                bool inside_container = false;
                for (const Node &open : stack)
                    inside_container |= open.container;
                if (inside_container)
                    continue;
                node.container = true;
                node.window_idx =
                    static_cast<int>(profile.windows.size());
                WindowBreakdown win;
                win.container = span->name;
                win.start_ns = span->start_ns;
                profile.windows.push_back(std::move(win));
                stack.push_back(node);
                continue;
            }

            node.phase = phaseOf(span->name);
            // Attribute exclusively: this span's full duration is
            // subtracted from its nearest phase ancestor, so time is
            // counted once, at the innermost phase.
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                if (!it->container) {
                    it->child_phase_ns += span->duration_ns;
                    break;
                }
            }
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                if (it->container) {
                    node.window_idx = it->window_idx;
                    break;
                }
            }
            if (node.window_idx < 0)
                continue; // Phase work outside any window: ignored.
            stack.push_back(node);
        }
        while (!stack.empty()) {
            finalize(stack.back());
            stack.pop_back();
        }
    }

    for (const WindowBreakdown &win : profile.windows) {
        profile.aggregate.enumeration_ms += win.totals.enumeration_ms;
        profile.aggregate.concrete_eval_ms += win.totals.concrete_eval_ms;
        profile.aggregate.symbolic_ms += win.totals.symbolic_ms;
        profile.aggregate.sat_ms += win.totals.sat_ms;
        profile.aggregate.cache_lookup_ms += win.totals.cache_lookup_ms;
        profile.aggregate.other_ms += win.totals.other_ms;
        profile.aggregate.total_ms += win.totals.total_ms;
        profile.aggregate.windows += 1;
    }
    return profile;
}

PhaseProfile
profileCurrentTrace()
{
    return profilePhases(trace::snapshotSpans());
}

std::string
formatProfile(const PhaseProfile &profile, size_t top_windows)
{
    const PhaseTotals &agg = profile.aggregate;
    std::ostringstream os;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "phase breakdown (%llu windows, %.2f ms total)\n",
                  static_cast<unsigned long long>(agg.windows),
                  agg.total_ms);
    os << buf;
    const double denom = agg.total_ms > 0.0 ? agg.total_ms : 1.0;
    const struct
    {
        const char *label;
        double ms;
    } rows[] = {
        {"enumeration", agg.enumeration_ms},
        {"concrete eval", agg.concrete_eval_ms},
        {"symbolic verify", agg.symbolic_ms},
        {"SAT", agg.sat_ms},
        {"cache lookup", agg.cache_lookup_ms},
        {"other", agg.other_ms},
    };
    for (const auto &row : rows) {
        std::snprintf(buf, sizeof(buf), "  %-16s %10.2f ms  %5.1f%%\n",
                      row.label, row.ms, 100.0 * row.ms / denom);
        os << buf;
    }

    if (top_windows == 0 || profile.windows.empty())
        return os.str();

    std::vector<const WindowBreakdown *> slowest;
    slowest.reserve(profile.windows.size());
    for (const WindowBreakdown &win : profile.windows)
        slowest.push_back(&win);
    std::sort(slowest.begin(), slowest.end(),
              [](const WindowBreakdown *a, const WindowBreakdown *b) {
                  return a->totals.total_ms > b->totals.total_ms;
              });
    if (slowest.size() > top_windows)
        slowest.resize(top_windows);
    os << "slowest windows\n";
    for (size_t i = 0; i < slowest.size(); ++i) {
        const PhaseTotals &t = slowest[i]->totals;
        std::snprintf(
            buf, sizeof(buf),
            "  #%zu %s %.2f ms: enum %.2f | eval %.2f | sym %.2f | "
            "sat %.2f | cache %.2f | other %.2f\n",
            i + 1, slowest[i]->container.c_str(), t.total_ms,
            t.enumeration_ms, t.concrete_eval_ms, t.symbolic_ms, t.sat_ms,
            t.cache_lookup_ms, t.other_ms);
        os << buf;
    }
    return os.str();
}

} // namespace bench
} // namespace hydride
