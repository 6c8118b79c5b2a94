#include "observability/metrics.h"

#include "observability/bench/json.h"
#include "support/env.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace hydride {
namespace metrics {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

// ---- Histogram -------------------------------------------------------------

struct Histogram::State
{
    mutable std::mutex mutex;
    std::vector<uint64_t> buckets; ///< bounds.size() + 1 (overflow last).
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
};

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), state_(new State)
{
    std::sort(bounds_.begin(), bounds_.end());
    state_->buckets.assign(bounds_.size() + 1, 0);
}

Histogram::~Histogram() { delete state_; }

void
Histogram::observe(double value)
{
    if (!enabled())
        return;
    // First bound >= value; everything above the last bound lands in
    // the implicit overflow bucket.
    size_t bucket = bounds_.size();
    for (size_t b = 0; b < bounds_.size(); ++b) {
        if (value <= bounds_[b]) {
            bucket = b;
            break;
        }
    }
    std::lock_guard<std::mutex> lock(state_->mutex);
    ++state_->buckets[bucket];
    if (state_->count == 0) {
        state_->min = value;
        state_->max = value;
    } else {
        state_->min = std::min(state_->min, value);
        state_->max = std::max(state_->max, value);
    }
    ++state_->count;
    state_->sum += value;
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->buckets;
}

uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->count;
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->sum;
}

double
Histogram::minValue() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->min;
}

double
Histogram::maxValue() const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->max;
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    std::fill(state_->buckets.begin(), state_->buckets.end(), 0);
    state_->count = 0;
    state_->sum = 0.0;
    state_->min = 0.0;
    state_->max = 0.0;
}

const std::vector<double> &
defaultTimeBounds()
{
    // Seconds; spans 0.1ms .. 10s, the realistic per-window range.
    static const std::vector<double> bounds = {
        0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
        0.05,   0.1,     0.25,   0.5,   1.0,    2.5,   5.0,  10.0};
    return bounds;
}

std::vector<double>
logBounds(double lo, double hi, int per_decade)
{
    std::vector<double> bounds;
    if (!(lo > 0.0) || !(hi > lo) || per_decade < 1)
        return bounds;
    const double step = std::pow(10.0, 1.0 / per_decade);
    // Multiply up from lo; recompute from the exponent each time so
    // rounding error cannot accumulate across decades.
    for (int i = 0;; ++i) {
        const double bound = lo * std::pow(step, i);
        bounds.push_back(bound);
        if (bound >= hi)
            break;
        if (bounds.size() > 4096)
            break; // Defensive cap against degenerate arguments.
    }
    return bounds;
}

const std::vector<double> &
logTimeMsBounds()
{
    static const std::vector<double> bounds = logBounds(0.001, 1e5, 3);
    return bounds;
}

double
Snapshot::Hist::quantile(double q) const
{
    if (count == 0 || buckets.empty())
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        const double before = static_cast<double>(cumulative);
        cumulative += buckets[b];
        if (static_cast<double>(cumulative) < target)
            continue;
        // Bucket b holds the target rank. Edges: bucket 0 starts at
        // the observed min, the overflow bucket ends at the observed
        // max.
        double lower = b == 0 ? min : bounds[b - 1];
        double upper = b < bounds.size() ? bounds[b] : max;
        lower = std::max(lower, min);
        upper = std::min(upper, max);
        if (upper < lower)
            upper = lower;
        const double fraction =
            buckets[b] == 0
                ? 0.0
                : (target - before) / static_cast<double>(buckets[b]);
        return lower + fraction * (upper - lower);
    }
    return max;
}

// ---- Registry --------------------------------------------------------------

namespace {

/** Intentionally leaked so exit-time exporters can always run. */
struct Registry
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry &
registry()
{
    static Registry *reg = new Registry;
    return *reg;
}

/** JSON numbers must not be NaN/Inf; histogram stats never are, but
 *  keep the formatter total. */
std::string
jsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

std::string &
exitPath()
{
    static std::string *path = new std::string;
    return *path;
}

void
writeAtExit()
{
    const std::string &path = exitPath();
    if (!path.empty())
        writeJson(path);
}

} // namespace

Counter &
counter(const std::string &name)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto &slot = reg.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
gauge(const std::string &name)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto &slot = reg.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
histogram(const std::string &name, const std::vector<double> &bounds)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto &slot = reg.histograms[name];
    if (!slot) {
        slot = std::make_unique<Histogram>(
            bounds.empty() ? defaultTimeBounds() : bounds);
    }
    return *slot;
}

Snapshot
snapshot()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    Snapshot snap;
    for (const auto &[name, c] : reg.counters)
        snap.counters.emplace_back(name, c->value());
    for (const auto &[name, g] : reg.gauges)
        snap.gauges.emplace_back(name, g->value());
    for (const auto &[name, h] : reg.histograms) {
        Snapshot::Hist hist;
        hist.name = name;
        hist.bounds = h->bounds();
        hist.buckets = h->bucketCounts();
        hist.count = h->count();
        hist.sum = h->sum();
        hist.min = h->minValue();
        hist.max = h->maxValue();
        snap.histograms.push_back(std::move(hist));
    }
    return snap;
}

std::string
exportJson()
{
    const Snapshot snap = snapshot();
    std::ostringstream os;
    os << "{\"counters\":{";
    for (size_t i = 0; i < snap.counters.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << bjson::escape(snap.counters[i].first)
           << "\":" << snap.counters[i].second;
    }
    os << "},\"gauges\":{";
    for (size_t i = 0; i < snap.gauges.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << bjson::escape(snap.gauges[i].first)
           << "\":" << snap.gauges[i].second;
    }
    os << "},\"histograms\":{";
    for (size_t i = 0; i < snap.histograms.size(); ++i) {
        const Snapshot::Hist &hist = snap.histograms[i];
        if (i)
            os << ",";
        os << "\"" << bjson::escape(hist.name) << "\":{\"bounds\":[";
        for (size_t b = 0; b < hist.bounds.size(); ++b) {
            if (b)
                os << ",";
            os << jsonNumber(hist.bounds[b]);
        }
        os << "],\"buckets\":[";
        for (size_t b = 0; b < hist.buckets.size(); ++b) {
            if (b)
                os << ",";
            os << hist.buckets[b];
        }
        os << "],\"count\":" << hist.count
           << ",\"sum\":" << jsonNumber(hist.sum)
           << ",\"min\":" << jsonNumber(hist.min)
           << ",\"max\":" << jsonNumber(hist.max) << "}";
    }
    os << "}}";
    return os.str();
}

bool
writeJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << exportJson() << "\n";
    return static_cast<bool>(out);
}

void
configureFromEnv()
{
    const env::Toggle knob = env::toggle("HYDRIDE_METRICS");
    if (!knob.set)
        return;
    if (!knob.enabled) {
        setEnabled(false);
        return;
    }
    setEnabled(true);
    const std::string path =
        knob.path.empty()
            ? env::defaultArtifactPath("hydride_metrics", "json")
            : knob.path;
    const bool was_registered = !exitPath().empty();
    exitPath() = path;
    if (!was_registered)
        std::atexit(writeAtExit);
}

namespace {
/** Apply the environment before main() runs. */
struct EnvInit
{
    EnvInit() { configureFromEnv(); }
} env_init;
} // namespace

} // namespace metrics
} // namespace hydride
