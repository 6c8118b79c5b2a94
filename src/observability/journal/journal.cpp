#include "observability/journal/journal.h"

#include "observability/log.h"
#include "support/env.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>

#ifdef _WIN32
#include <process.h>
#define HYDRIDE_GETPID _getpid
#else
#include <unistd.h>
#define HYDRIDE_GETPID getpid
#endif

namespace hydride {
namespace journal {

const char *const kSchema = "hydride-journal/v1";
const char *const kFlightSchema = "hydride-flight/v1";

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/** Process-wide journal epoch; every t_ms is relative to it. */
Clock::time_point
epoch()
{
    static const Clock::time_point start = Clock::now();
    return start;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch())
        .count();
}

/** Events flush in batches; the threshold bounds loss on a crash
 *  between barriers while keeping fwrite off nearly every emit. */
constexpr size_t kFlushBatch = 64;

constexpr size_t kDefaultFlightCapacity = 128;

/** One ring entry: the parsed event (for flight splicing) plus its
 *  envelope seq (for cross-thread ordering at dump time). */
struct RingEntry
{
    uint64_t seq = 0;
    bjson::ValuePtr event;
};

/**
 * Per-thread sink. The mutex is per-buffer, so the emit hot path
 * never contends with other threads — only with an exit-time flush
 * or flight dump walking the registry.
 */
struct ThreadBuffer
{
    std::mutex mutex;
    uint64_t tid = 0;
    std::vector<std::string> pending; ///< Serialized lines not yet on disk.
    std::deque<RingEntry> ring;       ///< Flight recorder, newest last.
};

/**
 * Global state. Intentionally leaked so atexit flushing works
 * regardless of static-destruction order. Lock order everywhere:
 * registry -> thread -> file.
 */
struct Core
{
    std::mutex registry_mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> threads;
    std::atomic<uint64_t> next_tid{1};
    std::atomic<uint64_t> next_seq{1};
    std::atomic<size_t> flight_capacity{kDefaultFlightCapacity};

    std::mutex file_mutex;
    std::FILE *file = nullptr;
    std::string path;
    std::string flight_dir;
};

Core &
core()
{
    static Core *c = new Core;
    return *c;
}

/** Append lines to the journal file, opening it (and writing the
 *  header line) on first use. Caller holds no locks. */
void
writeLines(const std::vector<std::string> &lines)
{
    if (lines.empty())
        return;
    Core &c = core();
    std::lock_guard<std::mutex> lock(c.file_mutex);
    if (c.path.empty())
        return; // Flight-only mode: the ring is the only sink.
    if (!c.file) {
        c.file = std::fopen(c.path.c_str(), "w");
        if (!c.file) {
            HYD_LOG(Warn, "[journal] cannot open `" + c.path +
                              "`; journal disabled");
            c.path.clear();
            detail::g_enabled.store(false, std::memory_order_relaxed);
            return;
        }
        auto header = bjson::Value::makeObject();
        header->set("schema", bjson::Value::makeString(kSchema));
        header->set("kind", bjson::Value::makeString("header"));
        header->set("pid", bjson::Value::makeNumber(
                               static_cast<double>(HYDRIDE_GETPID())));
        const std::string line = bjson::write(*header);
        std::fwrite(line.data(), 1, line.size(), c.file);
        std::fputc('\n', c.file);
    }
    for (const std::string &line : lines) {
        std::fwrite(line.data(), 1, line.size(), c.file);
        std::fputc('\n', c.file);
    }
    // Whole lines reach the kernel at every flush, so a crash can
    // lose at most the events still buffered per thread — never
    // produce an interior torn line.
    std::fflush(c.file);
}

/** Drain one thread's pending lines (takes its mutex, then writes). */
void
flushBuffer(ThreadBuffer &buf)
{
    std::vector<std::string> batch;
    {
        std::lock_guard<std::mutex> lock(buf.mutex);
        batch.swap(buf.pending);
    }
    writeLines(batch);
}

void
flushAtExit()
{
    flush();
    Core &c = core();
    std::lock_guard<std::mutex> lock(c.file_mutex);
    if (c.file) {
        std::fclose(c.file);
        c.file = nullptr;
    }
}

/** The calling thread's buffer; registered once, flushed at thread
 *  exit. The registry's shared_ptr keeps the ring alive after the
 *  thread dies, so late flight dumps still see its events. */
ThreadBuffer &
threadBuffer()
{
    struct Holder
    {
        std::shared_ptr<ThreadBuffer> buf;
        Holder()
        {
            Core &c = core();
            buf = std::make_shared<ThreadBuffer>();
            buf->tid = c.next_tid.fetch_add(1);
            std::lock_guard<std::mutex> lock(c.registry_mutex);
            c.threads.push_back(buf);
        }
        ~Holder() { flushBuffer(*buf); }
    };
    thread_local Holder holder;
    return *holder.buf;
}

/** Stamp the envelope and enqueue. `event` already holds the
 *  payload-specific keys *after* the envelope slots set here. */
void
enqueue(const bjson::ValuePtr &event)
{
    Core &c = core();
    ThreadBuffer &buf = threadBuffer();
    const uint64_t seq = c.next_seq.fetch_add(1);
    event->set("seq", bjson::Value::makeNumber(static_cast<double>(seq)));
    event->set("thread",
               bjson::Value::makeNumber(static_cast<double>(buf.tid)));
    event->set("t_ms", bjson::Value::makeNumber(nowMs()));
    const std::string line = bjson::write(*event);
    const size_t capacity = c.flight_capacity.load(std::memory_order_relaxed);
    bool do_flush = false;
    {
        std::lock_guard<std::mutex> lock(buf.mutex);
        buf.pending.push_back(line);
        buf.ring.push_back({seq, event});
        while (buf.ring.size() > capacity)
            buf.ring.pop_front();
        do_flush = buf.pending.size() >= kFlushBatch;
    }
    if (do_flush)
        flushBuffer(buf);
}

/** Fresh event envelope: kind first, seq/thread/t_ms filled by
 *  enqueue() (insertion order keeps the envelope keys leading). */
bjson::ValuePtr
makeEnvelope(const char *kind)
{
    auto event = bjson::Value::makeObject();
    event->set("kind", bjson::Value::makeString(kind));
    event->set("seq", bjson::Value::makeNumber(0));
    event->set("thread", bjson::Value::makeNumber(0));
    event->set("t_ms", bjson::Value::makeNumber(0));
    return event;
}

std::string
flightPath(const Core &c)
{
    const std::string dir = c.flight_dir.empty() ? env::artifactDir()
                                                 : c.flight_dir;
    return dir + "/hydride-flight-" + std::to_string(HYDRIDE_GETPID()) +
           ".json";
}

} // namespace

void
setEnabled(bool on)
{
    if (on)
        epoch(); // Pin the epoch no later than the first enable.
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::string
hashHex(uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

void
emitEvent(const char *kind, const bjson::ValuePtr &fields)
{
    if (!enabled())
        return;
    auto event = makeEnvelope(kind);
    if (fields && fields->isObject()) {
        for (size_t i = 0; i < fields->keys.size(); ++i)
            event->set(fields->keys[i], fields->values[i]);
    }
    enqueue(event);
}

void
emitWindow(const WindowLedger &ledger)
{
    if (!enabled())
        return;
    auto event = makeEnvelope("window");
    event->set("hash", bjson::Value::makeString(ledger.window_hash));
    event->set("isa", bjson::Value::makeString(ledger.isa));
    auto shape = bjson::Value::makeObject();
    shape->set("lanes", bjson::Value::makeNumber(ledger.lanes));
    shape->set("elem_width", bjson::Value::makeNumber(ledger.elem_width));
    shape->set("nodes", bjson::Value::makeNumber(ledger.nodes));
    event->set("shape", shape);
    event->set("cache", bjson::Value::makeString(ledger.cache));
    event->set("rung", bjson::Value::makeString(ledger.rung));
    if (ledger.store_seeds > 0)
        event->set("store_seeds",
                   bjson::Value::makeNumber(ledger.store_seeds));
    if (ledger.warm_started)
        event->set("warm_started", bjson::Value::makeBool(true));
    auto cegis = bjson::Value::makeObject();
    cegis->set("iterations",
               bjson::Value::makeNumber(ledger.cegis_iterations));
    cegis->set("counterexamples",
               bjson::Value::makeNumber(ledger.counterexamples));
    cegis->set("rejected",
               bjson::Value::makeNumber(ledger.candidates_rejected));
    cegis->set("rejected_static",
               bjson::Value::makeNumber(ledger.candidates_rejected_static));
    cegis->set("symbolic_refutations",
               bjson::Value::makeNumber(ledger.symbolic_refutations));
    cegis->set("symbolic_unknowns",
               bjson::Value::makeNumber(ledger.symbolic_unknowns));
    cegis->set("verdict",
               bjson::Value::makeString(ledger.symbolic_verdict));
    event->set("cegis", cegis);
    if (!ledger.note.empty())
        event->set("note", bjson::Value::makeString(ledger.note));
    event->set("retries", bjson::Value::makeNumber(ledger.retries));
    event->set("recovered", bjson::Value::makeBool(ledger.recovered));
    event->set("cost", bjson::Value::makeNumber(ledger.cost));
    auto insts = bjson::Value::makeArray();
    for (const std::string &name : ledger.insts)
        insts->push(bjson::Value::makeString(name));
    event->set("insts", insts);
    auto faults = bjson::Value::makeArray();
    for (const auto &[site, what] : ledger.faults) {
        auto entry = bjson::Value::makeObject();
        entry->set("site", bjson::Value::makeString(site));
        entry->set("detail", bjson::Value::makeString(what));
        faults->push(entry);
    }
    event->set("faults", faults);
    event->set("wall_ms", bjson::Value::makeNumber(ledger.wall_ms));
    event->set("cpu_ms", bjson::Value::makeNumber(ledger.cpu_ms));
    enqueue(event);
}

void
flush()
{
    Core &c = core();
    std::vector<std::shared_ptr<ThreadBuffer>> threads;
    {
        std::lock_guard<std::mutex> lock(c.registry_mutex);
        threads = c.threads;
    }
    for (const auto &buf : threads)
        flushBuffer(*buf);
}

void
setOutputPath(const std::string &path)
{
    flush();
    Core &c = core();
    std::lock_guard<std::mutex> lock(c.file_mutex);
    if (c.file) {
        std::fclose(c.file);
        c.file = nullptr;
    }
    c.path = path;
}

void
setFlightDir(const std::string &dir)
{
    Core &c = core();
    std::lock_guard<std::mutex> lock(c.file_mutex);
    c.flight_dir = dir;
}

std::string
flightDir()
{
    Core &c = core();
    std::lock_guard<std::mutex> lock(c.file_mutex);
    return c.flight_dir.empty() ? env::artifactDir() : c.flight_dir;
}

void
setFlightCapacity(size_t capacity)
{
    core().flight_capacity.store(capacity > 0 ? capacity : 1,
                                 std::memory_order_relaxed);
}

std::string
flightDump(const std::string &reason)
{
    if (!enabled())
        return "";
    flush(); // The on-disk journal is complete up to this dump.
    Core &c = core();
    std::vector<RingEntry> entries;
    {
        std::lock_guard<std::mutex> registry_lock(c.registry_mutex);
        for (const auto &buf : c.threads) {
            std::lock_guard<std::mutex> lock(buf->mutex);
            entries.insert(entries.end(), buf->ring.begin(),
                           buf->ring.end());
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const RingEntry &a, const RingEntry &b) {
                  return a.seq < b.seq;
              });
    const size_t capacity =
        c.flight_capacity.load(std::memory_order_relaxed);
    if (entries.size() > capacity)
        entries.erase(entries.begin(),
                      entries.end() - static_cast<long>(capacity));
    auto doc = bjson::Value::makeObject();
    doc->set("schema", bjson::Value::makeString(kFlightSchema));
    doc->set("kind", bjson::Value::makeString("flight"));
    doc->set("pid", bjson::Value::makeNumber(
                        static_cast<double>(HYDRIDE_GETPID())));
    doc->set("reason", bjson::Value::makeString(reason));
    doc->set("t_ms", bjson::Value::makeNumber(nowMs()));
    auto events = bjson::Value::makeArray();
    for (const RingEntry &entry : entries)
        events->push(entry.event);
    doc->set("events", events);
    const std::string path = flightPath(c);
    std::ofstream out(path);
    if (!out) {
        HYD_LOG(Warn, "[journal] cannot write flight dump `" + path + "`");
        return "";
    }
    out << bjson::writePretty(*doc) << "\n";
    if (!out) {
        HYD_LOG(Warn, "[journal] short write on flight dump `" + path +
                          "`");
        return "";
    }
    return path;
}

void
resetForTest()
{
    Core &c = core();
    std::vector<std::shared_ptr<ThreadBuffer>> threads;
    {
        std::lock_guard<std::mutex> lock(c.registry_mutex);
        threads = c.threads;
    }
    for (const auto &buf : threads) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        buf->pending.clear();
        buf->ring.clear();
    }
    std::lock_guard<std::mutex> lock(c.file_mutex);
    if (c.file) {
        std::fclose(c.file);
        c.file = nullptr;
    }
    c.path.clear();
    c.flight_dir.clear();
    c.flight_capacity.store(kDefaultFlightCapacity);
    detail::g_enabled.store(false, std::memory_order_relaxed);
}

void
configureFromEnv()
{
    const env::Raw flight_dir = env::raw("HYDRIDE_FLIGHT_DIR");
    if (flight_dir.set && !flight_dir.value.empty())
        setFlightDir(flight_dir.value);
    const env::Toggle knob = env::toggle("HYDRIDE_JOURNAL");
    if (!knob.set)
        return;
    if (!knob.enabled) {
        setEnabled(false);
        return;
    }
    setEnabled(true);
    // The pid-suffixed default keeps parallel test runs from
    // clobbering each other, same as trace/metrics artifacts.
    setOutputPath(knob.path.empty()
                      ? env::defaultArtifactPath("hydride_journal", "jsonl")
                      : knob.path);
}

Journal
readJournal(const std::string &path)
{
    Journal journal;
    std::ifstream in(path);
    if (!in) {
        journal.error = "cannot open `" + path + "`";
        return journal;
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    // Drop trailing blank lines (a final "\n" is the normal case).
    while (!lines.empty() && lines.back().find_first_not_of(" \t\r") ==
                                 std::string::npos) {
        lines.pop_back();
    }
    if (lines.empty()) {
        journal.error = "`" + path + "` is empty";
        return journal;
    }
    for (size_t i = 0; i < lines.size(); ++i) {
        std::string why;
        bjson::ValuePtr value = bjson::parse(lines[i], why);
        if (!value || !value->isObject()) {
            if (i + 1 == lines.size() && i > 0) {
                // The process died mid-write; the good prefix stands.
                journal.truncated = true;
                return journal;
            }
            journal.error = "line " + std::to_string(i + 1) + ": " +
                            (value ? "not an object" : why);
            journal.header = nullptr;
            journal.events.clear();
            return journal;
        }
        if (i == 0) {
            if (value->getString("schema", "") != kSchema ||
                value->getString("kind", "") != "header") {
                journal.error =
                    "`" + path + "` is not a " + kSchema + " journal";
                return journal;
            }
            journal.header = value;
        } else {
            journal.events.push_back(value);
        }
    }
    return journal;
}

namespace {
/** Apply the environment before main() runs; the atexit flush is
 *  registered unconditionally so programmatic setEnabled() (tests,
 *  the chaos harness) gets the same end-of-process drain. */
struct EnvInit
{
    EnvInit()
    {
        configureFromEnv();
        std::atexit(flushAtExit);
    }
} env_init;
} // namespace

} // namespace journal
} // namespace hydride
