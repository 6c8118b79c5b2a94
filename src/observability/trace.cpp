#include "observability/trace.h"

#include "observability/bench/json.h"
#include "support/env.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

namespace hydride {
namespace trace {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/** Process-wide trace epoch; all span timestamps are relative to it. */
Clock::time_point
epoch()
{
    static const Clock::time_point start = Clock::now();
    return start;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch())
            .count());
}

/** Event log. Intentionally leaked so the atexit exporter can run
 *  regardless of static-destruction order. */
struct EventLog
{
    std::mutex mutex;
    std::vector<SpanRecord> spans;
};

EventLog &
eventLog()
{
    static EventLog *log = new EventLog;
    return *log;
}

/** Small per-process thread ordinal (stable, compact tids). */
uint64_t
threadId()
{
    static std::atomic<uint64_t> next{1};
    thread_local uint64_t id = next.fetch_add(1);
    return id;
}

/** Per-thread open-span depth; children inherit depth+1. */
int &
threadDepth()
{
    thread_local int depth = 0;
    return depth;
}

/** Exit-time export path; empty when env export is off. */
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
        writeChromeJson(path);
}

} // namespace

void
setEnabled(bool on)
{
    if (on)
        epoch(); // Pin the epoch no later than the first enable.
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char *name)
{
    if (!enabled())
        return;
    active_ = true;
    name_ = name;
    depth_ = threadDepth()++;
    start_ns_ = nowNs();
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    const uint64_t end_ns = nowNs();
    --threadDepth();
    SpanRecord record;
    record.name = std::move(name_);
    record.thread_id = threadId();
    record.depth = depth_;
    record.start_ns = start_ns_;
    record.duration_ns = end_ns - start_ns_;
    record.attrs = std::move(attrs_);
    EventLog &log = eventLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    log.spans.push_back(std::move(record));
}

void
TraceSpan::setAttr(const std::string &key, const std::string &value)
{
    if (!active_)
        return;
    attrs_.emplace_back(key, value);
}

void
TraceSpan::setAttr(const std::string &key, const char *value)
{
    setAttr(key, std::string(value));
}

void
TraceSpan::setAttr(const std::string &key, int64_t value)
{
    setAttr(key, std::to_string(value));
}

void
TraceSpan::setAttr(const std::string &key, int value)
{
    setAttr(key, std::to_string(value));
}

void
TraceSpan::setAttr(const std::string &key, double value)
{
    if (!active_)
        return;
    std::ostringstream os;
    os << value;
    attrs_.emplace_back(key, os.str());
}

void
TraceSpan::setAttr(const std::string &key, bool value)
{
    setAttr(key, std::string(value ? "true" : "false"));
}

void
reset()
{
    EventLog &log = eventLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    log.spans.clear();
}

std::vector<SpanRecord>
snapshotSpans()
{
    EventLog &log = eventLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    return log.spans;
}

std::string
exportChromeJson()
{
    const std::vector<SpanRecord> spans = snapshotSpans();
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord &span : spans) {
        if (!first)
            os << ",";
        first = false;
        // Complete ("X") events; ts/dur are microseconds (with the
        // nanosecond remainder as a correctly padded fraction).
        char ts[32];
        char dur[32];
        std::snprintf(ts, sizeof(ts), "%llu.%03llu",
                      static_cast<unsigned long long>(span.start_ns / 1000),
                      static_cast<unsigned long long>(span.start_ns % 1000));
        std::snprintf(dur, sizeof(dur), "%llu.%03llu",
                      static_cast<unsigned long long>(span.duration_ns / 1000),
                      static_cast<unsigned long long>(span.duration_ns %
                                                      1000));
        os << "{\"name\":\"" << bjson::escape(span.name)
           << "\",\"ph\":\"X\",\"cat\":\"hydride\",\"pid\":1,\"tid\":"
           << span.thread_id << ",\"ts\":" << ts << ",\"dur\":" << dur;
        if (!span.attrs.empty()) {
            os << ",\"args\":{";
            for (size_t a = 0; a < span.attrs.size(); ++a) {
                if (a)
                    os << ",";
                os << "\"" << bjson::escape(span.attrs[a].first) << "\":\""
                   << bjson::escape(span.attrs[a].second) << "\"";
            }
            os << "}";
        }
        os << "}";
    }
    os << "]}";
    return os.str();
}

std::string
exportTreeSummary()
{
    std::vector<SpanRecord> spans = snapshotSpans();
    // Completion order is children-before-parents; start order with
    // stable depth gives the natural top-down tree per thread.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         if (a.thread_id != b.thread_id)
                             return a.thread_id < b.thread_id;
                         if (a.start_ns != b.start_ns)
                             return a.start_ns < b.start_ns;
                         return a.depth < b.depth;
                     });
    std::ostringstream os;
    uint64_t current_tid = 0;
    for (const SpanRecord &span : spans) {
        if (span.thread_id != current_tid) {
            current_tid = span.thread_id;
            os << "thread " << current_tid << "\n";
        }
        for (int d = 0; d < span.depth; ++d)
            os << "  ";
        os << span.name << "  "
           << static_cast<double>(span.duration_ns) / 1e6 << " ms";
        for (const auto &[key, value] : span.attrs)
            os << "  " << key << "=" << value;
        os << "\n";
    }
    return os.str();
}

bool
writeChromeJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << exportChromeJson() << "\n";
    return static_cast<bool>(out);
}

void
configureFromEnv()
{
    const env::Toggle knob = env::toggle("HYDRIDE_TRACE");
    if (!knob.set)
        return;
    if (!knob.enabled) {
        setEnabled(false);
        return;
    }
    setEnabled(true);
    // The pid-suffixed default keeps parallel test runs under
    // `run_all.sh --trace` from clobbering each other.
    const std::string path =
        knob.path.empty()
            ? env::defaultArtifactPath("hydride_trace", "json")
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

} // namespace trace
} // namespace hydride
