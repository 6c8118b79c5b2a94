/**
 * @file
 * The durable, multi-process, content-addressed synthesis store.
 *
 * `SynthesisCache` (synthesis/cache.h) memoizes within one process,
 * in memory only. This store is its durable, compile-farm
 * generalization and the one persistence path (paper §4.1's
 * memoization, shared across a fleet of workers — ROADMAP
 * "persistent, content-addressed synthesis cache with warm-start"):
 *
 *  - **Content-addressed shards.** Records are keyed by the window's
 *    structural hash (`HExpr::hashOf`) + target ISA and land in
 *    `shards/<xx>.log` selected by the low hash bits. Shards are
 *    append-only: a record, once durable, is never rewritten.
 *
 *  - **Per-record checksums + resync salvage.** Every record carries
 *    an FNV-1a checksum and starts on a fresh line (writers emit a
 *    leading newline), so a crash mid-append costs exactly the torn
 *    record: the reader verifies each record and *resyncs* at the
 *    next record header instead of discarding the rest of the shard.
 *
 *  - **Single-writer shard locks with stale-lock takeover.** Appends
 *    serialize through `shards/<xx>.lock` (O_EXCL-created, holding
 *    `pid` + acquisition time). A lock whose owner is dead
 *    (`kill(pid, 0)` -> ESRCH) or older than the stale-age bound is
 *    *taken over*: the dead writer's lock is unlinked and the
 *    takeover is journaled — a SIGKILL'd worker never wedges the
 *    fleet.
 *
 *  - **Epoch/fingerprint gating.** A `meta` file (published atomically
 *    via temp+rename) binds the store to the AutoLLVM dictionary
 *    fingerprint. An incompatible store is never half-loaded: it is
 *    either refused or renamed aside to `<root>.quarantined.<...>`
 *    and re-initialized with a bumped epoch.
 *
 *  - **Approximate retrieval.** Each record also carries a SimHash
 *    *signature* of the window's node features; `nearest()` returns
 *    solved windows within a Hamming-distance bound, whose modules
 *    seed CEGIS as warm-start candidates (synthesis/cegis.h
 *    `warm_seeds`). Retrieval is trust-but-verify — the driver
 *    re-proves every retrieved solution before acceptance and
 *    demotes failures via `quarantine()` (an append-only tombstone
 *    in `quarantine.log`; poisoned keys are never loaded again).
 *
 * Fault sites (`HYDRIDE_FAULTS`): `store.lock` (acquisition fails),
 * `store.append` (torn record + leaked lock, the crash shape),
 * `store.load` (a record reads as corrupt), `store.verify` (driver-
 * side: a retrieved entry fails verification).
 *
 * One instance is single-threaded; cross-*process* coordination is
 * the lock protocol above. All failures are ordinary `false` returns
 * — the store never throws and never takes the compilation down
 * (docs/robustness.md ladder is unaffected by a dead store).
 */
#ifndef HYDRIDE_SYNTHESIS_STORE_STORE_H
#define HYDRIDE_SYNTHESIS_STORE_STORE_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "synthesis/cache.h"

namespace hydride {

/**
 * SimHash over the window's node features (operator, element width,
 * lane count, width-affecting immediates — but *not* constant values
 * or input indices, so e.g. commuted operands or a different clamp
 * bound stay nearby). Structurally similar windows land within a few
 * bits of Hamming distance; unrelated windows are ~32 bits apart.
 */
uint64_t windowSignature(const HExprPtr &window);

/** Hamming distance between two signatures. */
int signatureDistance(uint64_t a, uint64_t b);

/** Durable multi-process synthesis store (see file comment). */
class SynthesisStore
{
  public:
    struct Options
    {
        bool read_only = false;
        /** Shard count (power of two, 1..256). The concurrency tests
         *  use 1 to force every writer onto one lock. */
        int shards = 16;
        /** A held lock older than this is presumed abandoned even
         *  when its pid is unreadable/alive-looking (PID reuse). */
        double stale_lock_age_seconds = 30.0;
        /** Bounded lock wait: attempts x a fixed 2 ms backoff. */
        int lock_attempts = 200;
    };

    /** What open() found and did. */
    struct OpenStats
    {
        bool ok = false;
        bool initialized = false; ///< Fresh store was created.
        bool incompatible_quarantined = false;
        long epoch = 1;
        size_t records = 0;          ///< Entries loaded into the index.
        size_t salvaged = 0;         ///< Torn/corrupt records skipped.
        size_t poisoned_skipped = 0; ///< Tombstoned records skipped.
        std::string error;
    };

    /** One approximate match from nearest(). */
    struct Neighbor
    {
        SynthesisCache::Key key;
        uint64_t signature = 0;
        int distance = 0;
        const SynthesisResult *result = nullptr;
    };

    /**
     * Open (and if absent initialize) the store rooted at `root`.
     * False on a hard failure (unwritable directory, incompatible
     * store with quarantine disabled); openStats().error says why.
     */
    bool open(const std::string &root, const AutoLLVMDict &dict,
              Options options);
    bool
    open(const std::string &root, const AutoLLVMDict &dict)
    {
        return open(root, dict, Options());
    }

    bool isOpen() const { return open_; }
    const OpenStats &openStats() const { return open_stats_; }
    const std::string &root() const { return root_; }
    long epoch() const { return open_stats_.epoch; }
    size_t size() const { return entries_.size(); }

    /** Entries this instance demoted via quarantine(). */
    size_t sessionQuarantined() const { return session_quarantined_; }
    /** Stale locks this instance took over. */
    size_t lockTakeovers() const { return lock_takeovers_; }

    /** Exact lookup; nullptr when absent (or quarantined). */
    const SynthesisResult *find(const HExprPtr &window,
                                const std::string &isa) const;

    /**
     * Successful solved windows within `max_distance` signature bits,
     * nearest first, at most `limit`. The exact key (distance 0,
     * same hash) is excluded — that is find()'s job.
     */
    std::vector<Neighbor> nearest(const HExprPtr &window,
                                  const std::string &isa,
                                  int max_distance,
                                  size_t limit = 4) const;

    /**
     * Durably append one record under the shard writer lock; updates
     * the in-memory index on success. False (never throws) when the
     * store is read-only, the lock cannot be acquired, or the write
     * fails — compilation proceeds, the result is just not shared.
     */
    bool append(const HExprPtr &window, const std::string &isa,
                const SynthesisResult &result);

    /**
     * Demote a poisoned entry: drop it from the index and append a
     * tombstone to quarantine.log so no future open() serves it
     * again. Journals a `store_poisoned` event with the reason.
     */
    bool quarantine(const HExprPtr &window, const std::string &isa,
                    const std::string &reason);

    /** Re-scan the shards, picking up other processes' appends (and
     *  new tombstones). Keeps the epoch; false on meta mismatch. */
    bool refresh();

  private:
    struct StoredEntry
    {
        SynthesisResult result;
        uint64_t signature = 0;
    };

    std::string shardPath(int shard) const;
    std::string lockPath(const std::string &base) const;
    bool acquireLock(const std::string &base, std::string &why);
    void releaseLock(const std::string &base);
    bool loadShards();
    bool loadQuarantine();
    bool writeMeta(uint64_t fingerprint, long epoch);
    bool appendDurable(const std::string &base_path,
                       const std::string &payload, std::string &why);

    bool open_ = false;
    std::string root_;
    const AutoLLVMDict *dict_ = nullptr;
    Options options_;
    OpenStats open_stats_;
    std::map<SynthesisCache::Key, StoredEntry> entries_;
    std::set<SynthesisCache::Key> poisoned_;
    size_t session_quarantined_ = 0;
    size_t lock_takeovers_ = 0;
};

} // namespace hydride

#endif // HYDRIDE_SYNTHESIS_STORE_STORE_H
