/**
 * @file
 * The synthesis memoization cache (paper §4.1).
 *
 * Synthesis results are keyed by the *structure* of the input window
 * (HExpr::hashOf covers operators, types and lane counts but not
 * which benchmark the window came from) plus the target ISA, so
 * results transfer across benchmarks that share subexpressions —
 * the effect columns II-IV of Table 4 measure. Unlike the paper's
 * Racket hash table (whose lookup overhead dominates warm compile
 * times, Table 4's overhead rows), this is an in-memory C++ map with
 * negligible lookup cost — the improvement the paper explicitly
 * anticipates ("A fast language like C++ would greatly reduce cache
 * lookup times"). The cache lives in memory only; results that must
 * outlive the process go to the durable store (synthesis/store/),
 * which serializes entries with the `cachefmt` wire format below.
 */
#ifndef HYDRIDE_SYNTHESIS_CACHE_H
#define HYDRIDE_SYNTHESIS_CACHE_H

#include <map>
#include <string>

#include "synthesis/cegis.h"

namespace hydride {

/** Memoizes per-(window shape, ISA) synthesis outcomes. */
class SynthesisCache
{
  public:
    struct CachedEntry
    {
        SynthesisResult result;
        int hits = 0;
    };

    /** Look up a window; nullptr when absent. */
    const SynthesisResult *lookup(const HExprPtr &window,
                                  const std::string &isa);

    /** Record a synthesis outcome. */
    void insert(const HExprPtr &window, const std::string &isa,
                const SynthesisResult &result);

    /**
     * Drop every entry and restart the per-epoch hit/miss counters.
     * The counts are folded into the lifetime totals first (and into
     * the `synthesis.cache.*` metrics as they accrue), so clearing
     * between Table 4 warm/cold scenarios no longer silently discards
     * the statistics of earlier runs.
     */
    void clear();

    /** Hits/misses since construction or the last clear(). */
    int hits() const { return hits_; }
    int misses() const { return misses_; }

    /** Cumulative totals across every clear(). */
    long lifetimeHits() const { return lifetime_hits_ + hits_; }
    long lifetimeMisses() const { return lifetime_misses_ + misses_; }

    size_t size() const { return entries_.size(); }

    using Key = std::pair<uint64_t, std::string>;

    /** Visit every cached entry (used to build filtered caches for
     *  the Table 4 leave-one-out scenario). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &[key, entry] : entries_)
            fn(key, entry.result);
    }

    /** Insert under an explicit key (cache-transfer helper). Routes
     *  through the same bookkeeping as insert(), so cache-transfer
     *  builds count in the `synthesis.cache.inserts` metric and the
     *  entry's hit counter starts from a defined zero instead of
     *  whatever a prior partial write left behind. */
    void insertByKey(const Key &key, const SynthesisResult &result);

  private:
    /** The one insertion path: every public insert lands here. */
    void insertEntry(const Key &key, const SynthesisResult &result);

    std::map<Key, CachedEntry> entries_;
    int hits_ = 0;
    int misses_ = 0;
    long lifetime_hits_ = 0;
    long lifetime_misses_ = 0;
};

/**
 * The serialized cache-entry wire format, shared with the durable
 * synthesis store (src/synthesis/store/): one text block per entry
 * plus an FNV-1a checksum over the block, and the dictionary
 * fingerprint that binds a persisted artifact to the AutoLLVM
 * dictionary it was built against.
 */
namespace cachefmt {

/** One entry's serialized block (everything the checksum covers). */
std::string serializeEntry(const SynthesisCache::Key &key,
                           const SynthesisResult &result);

/** Parse one serialized entry block; false on any malformation
 *  (including instruction ids outside the dictionary). */
bool parseEntry(const std::string &block, const class AutoLLVMDict &dict,
                SynthesisCache::Key &key, SynthesisResult &result);

/** FNV-1a over a serialized block — the per-entry checksum. */
uint64_t checksum(const std::string &text);

/** Fingerprint tying a persisted artifact to the dictionary. */
uint64_t dictFingerprint(const class AutoLLVMDict &dict);

} // namespace cachefmt

} // namespace hydride

#endif // HYDRIDE_SYNTHESIS_CACHE_H
