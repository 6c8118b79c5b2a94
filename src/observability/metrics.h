/**
 * @file
 * Process-wide metrics registry for the Hydride pipeline: named
 * counters, gauges and fixed-bucket histograms, all following the
 * `phase.component.event` naming convention (for example
 * `synthesis.cache.hits`, `synthesis.window.seconds`).
 *
 * Instruments are registered on first use and live for the process
 * lifetime, so call sites may cache the returned reference:
 *
 *     static metrics::Counter &hits =
 *         metrics::counter("synthesis.cache.hits");
 *     hits.add();
 *
 * Recording is off by default; when disabled each instrument costs a
 * single relaxed atomic load. Enable programmatically with
 * `metrics::setEnabled(true)` or via the environment:
 *
 *   HYDRIDE_METRICS=1       enable; write hydride_metrics.<pid>.json
 *                           into $HYDRIDE_TRACE_DIR (or the CWD) at
 *                           process exit
 *   HYDRIDE_METRICS=<path>  enable; write the JSON snapshot to <path>
 *   HYDRIDE_METRICS=0       force-disable
 *
 * Counters are unsigned 64-bit and wrap modulo 2^64 on overflow
 * (standard unsigned semantics; covered by tests).
 */
#ifndef HYDRIDE_OBSERVABILITY_METRICS_H
#define HYDRIDE_OBSERVABILITY_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hydride {
namespace metrics {

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** True when instruments are recording (single relaxed load). */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn metric recording on or off at runtime. */
void setEnabled(bool on);

/** Monotonic event counter (wraps modulo 2^64). */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        if (enabled())
            value_.fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins signed gauge. */
class Gauge
{
  public:
    void
    set(int64_t value)
    {
        if (enabled())
            value_.store(value, std::memory_order_relaxed);
    }
    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * Fixed-bucket histogram. Bucket `i` counts observations with
 * `value <= bounds[i]` (first matching bound); one implicit overflow
 * bucket counts everything above the last bound. Also tracks count,
 * sum, min and max of all observations.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);
    ~Histogram();
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double value);

    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-bucket counts; size bounds().size() + 1 (last = overflow). */
    std::vector<uint64_t> bucketCounts() const;
    uint64_t count() const;
    double sum() const;
    double minValue() const; ///< 0 when empty.
    double maxValue() const; ///< 0 when empty.
    void reset();

  private:
    struct State;
    std::vector<double> bounds_;
    State *state_;
};

/** Upper bounds (seconds) used when a histogram is registered
 *  without explicit bounds — tuned for per-window synthesis times. */
const std::vector<double> &defaultTimeBounds();

/**
 * Log-scale bucket bounds: geometrically spaced from `lo` to at
 * least `hi` with `per_decade` bounds per factor of ten. Linear
 * buckets collapse sub-millisecond CEGIS timings into one bin; a
 * log scale keeps resolution constant across orders of magnitude.
 * Requires lo > 0, hi > lo, per_decade >= 1.
 */
std::vector<double> logBounds(double lo, double hi, int per_decade);

/** Shared log-scale bounds for `*.time_ms` histograms: 1µs .. 100s
 *  (as milliseconds), three bounds per decade. */
const std::vector<double> &logTimeMsBounds();

// ---- Registry --------------------------------------------------------------

/** Find-or-create by name. References stay valid for the process
 *  lifetime: instruments are never removed. */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name,
                     const std::vector<double> &bounds = {});

/** Point-in-time copy of every registered instrument. */
struct Snapshot
{
    struct Hist
    {
        std::string name;
        std::vector<double> bounds;
        std::vector<uint64_t> buckets; ///< bounds.size() + 1 entries.
        uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;

        /**
         * Estimated q-quantile (q in [0,1]) by linear interpolation
         * within the bucket containing the target rank, clamped to
         * the observed [min, max]. Exact at bucket edges; within a
         * bucket the error is bounded by the bucket width (which the
         * log-scale bounds keep proportional to the value). 0 when
         * the histogram is empty.
         */
        double quantile(double q) const;
    };
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<Hist> histograms;
};

Snapshot snapshot();

/** Snapshot as JSON: {"counters":{...},"gauges":{...},"histograms":{...}}. */
std::string exportJson();

/** Write exportJson() to `path`; false on IO error. */
bool writeJson(const std::string &path);

/** (Re)read HYDRIDE_METRICS and apply it. Runs automatically before
 *  main(); callable again from tests. */
void configureFromEnv();

} // namespace metrics
} // namespace hydride

#endif // HYDRIDE_OBSERVABILITY_METRICS_H
