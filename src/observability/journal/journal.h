/**
 * @file
 * Synthesis provenance journal and crash-safe flight recorder.
 *
 * The journal is an append-only, schema-versioned event stream
 * (`hydride-journal/v1`, JSON Lines): one header line, then one
 * self-contained JSON object per event. Every compiled window emits a
 * *decision ledger* — window hash and shape, cache outcome, CEGIS
 * effort, symbolic verdict, degradation rung, chosen instructions and
 * cost, injected faults, wall/CPU time — so `hydride-inspect` can
 * reconstruct *why* the compiler produced what it produced without
 * re-running synthesis.
 *
 * Hot-path discipline matches trace/metrics: when HYDRIDE_JOURNAL is
 * unset, every emit site folds to one relaxed atomic load. When
 * enabled, events append to a per-thread buffer (its mutex is only
 * ever contended by an exit-time flush), and the global registry
 * mutex is touched only at thread registration, flush() and
 * flightDump().
 *
 * The flight recorder is a bounded per-thread ring of the most recent
 * events. Error barriers (src/driver/resilience.cpp) call
 * flightDump() when a window trips, writing the merged ring as a
 * single `hydride-flight/v1` document — a crash-box of the decisions
 * leading up to the failure, valid even when the process dies before
 * the journal's atexit flush.
 */
#ifndef HYDRIDE_OBSERVABILITY_JOURNAL_JOURNAL_H
#define HYDRIDE_OBSERVABILITY_JOURNAL_JOURNAL_H

#include "observability/bench/json.h"

#include <atomic>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace hydride {
namespace journal {

/** Schema tag on the journal header line. */
extern const char *const kSchema;
/** Schema tag on a flight-recorder dump document. */
extern const char *const kFlightSchema;

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** One relaxed load; every emit site guards on this. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

void setEnabled(bool on);

/**
 * The decision ledger for one compiled window. Field-for-field this
 * is what `hydride-inspect explain <hash>` prints; emitters fill what
 * they know and leave the rest defaulted.
 */
struct WindowLedger
{
    std::string window_hash; ///< HExpr::hashOf of the window, hex.
    std::string isa;         ///< Target ISA the window compiled for.
    int lanes = 0;
    int elem_width = 0;
    int nodes = 0;           ///< HExpr::sizeOf of the window.
    std::string cache;       ///< "hit" | "miss" | "negative" |
                             ///< "store_hit" | "store_negative".
    int store_seeds = 0;     ///< Warm-start seeds retrieved from the
                             ///< durable store for this window.
    bool warm_started = false; ///< A verified seed skipped the search.
    std::string rung;        ///< Degradation-ladder outcome.
    int cegis_iterations = 0;
    int counterexamples = 0;
    int candidates_rejected = 0;
    /** Candidates the abstract-interpretation tier pruned before any
     *  counterexample evaluation. */
    int candidates_rejected_static = 0;
    int symbolic_refutations = 0;
    int symbolic_unknowns = 0;
    /** "" when the checker never ran; on a store hit, the verdict of
     *  the hit's re-proof (symbolic_unknowns counts its unknown). */
    std::string symbolic_verdict;
    std::string note;             ///< Synthesizer's failure note, if any.
    int retries = 0;
    bool recovered = false;  ///< An error barrier caught something.
    double cost = 0.0;       ///< Cost-model score of the chosen program.
    std::vector<std::string> insts; ///< Chosen instruction names, in order.
    /** Injected-fault diagnostics attributed to this window (site, detail). */
    std::vector<std::pair<std::string, std::string>> faults;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
};

/** Canonical spelling of a window hash (16 lowercase hex digits) —
 *  the key `hydride-inspect explain` takes on its command line. */
std::string hashHex(uint64_t hash);

/** Emit one "window" event. No-op when the journal is disabled. */
void emitWindow(const WindowLedger &ledger);

/**
 * Emit a free-form event of the given kind. `fields` must be an
 * Object (or null for an envelope-only event); its members are
 * spliced into the event line after the envelope keys
 * (kind/seq/thread/t_ms). No-op when disabled.
 */
void emitEvent(const char *kind, const bjson::ValuePtr &fields);

/** Drain every thread's pending buffer to the journal file. */
void flush();

/**
 * Journal file path. Empty means flight-only mode: events still feed
 * the flight ring but nothing is written until flightDump(). Setting
 * a new path closes the previous file (after flushing into it).
 */
void setOutputPath(const std::string &path);

/** Directory flight dumps land in (default: env::artifactDir()). */
void setFlightDir(const std::string &dir);
std::string flightDir();

/** Per-thread flight-ring capacity (default 128 events). */
void setFlightCapacity(size_t capacity);

/**
 * Write the flight ring as `hydride-flight-<pid>.json` under
 * flightDir(): a single `hydride-flight/v1` document whose `events`
 * array holds the merged rings, seq-ordered. Also flushes the
 * journal first, so the on-disk stream is complete up to the dump.
 * Returns the path written, or "" when disabled or the write failed.
 */
std::string flightDump(const std::string &reason);

/** Drop buffered events, close the file, clear paths (unit tests). */
void resetForTest();

/** HYDRIDE_JOURNAL / HYDRIDE_FLIGHT_DIR hookup (pre-main). */
void configureFromEnv();

// ---- Reading (hydride-inspect, validators, tests) --------------------------

/** A parsed journal file. */
struct Journal
{
    bjson::ValuePtr header;              ///< The header line.
    std::vector<bjson::ValuePtr> events; ///< Every event line, in file order.
    bool truncated = false; ///< A trailing partial line was dropped.
    std::string error;      ///< Non-empty when the file is unusable.
};

/**
 * Load a `hydride-journal/v1` file. A malformed *final* line is
 * salvage (the process died mid-write): `truncated` is set and the
 * good prefix returned. A malformed line elsewhere, a missing file,
 * or a bad header is an error.
 */
Journal readJournal(const std::string &path);

} // namespace journal
} // namespace hydride

#endif // HYDRIDE_OBSERVABILITY_JOURNAL_JOURNAL_H
