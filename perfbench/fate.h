/**
 * @file
 * Window fate ledger and output digest for the compile benchmark.
 *
 * Every window the resilient driver compiles ends in exactly one
 * fate, derived only from public `ResilientWindow` fields (the rung,
 * the cache outcome, the `recovered` flag and the prefix of the
 * synthesis note). The fate says *why* a window landed on its rung:
 * a macro-expanded window may have exhausted its grammar, hit a
 * negative cache entry, or aborted on an internal error.
 */
#ifndef PERFBENCH_FATE_H
#define PERFBENCH_FATE_H

#include <cstdint>
#include <string>

#include "driver/resilience.h"

namespace perfbench {

enum class Fate {
    Solved,        ///< CEGIS (or a verified warm-start seed) found it.
    CacheHit,      ///< In-process cache returned a solved program.
    StoreHit,      ///< Durable store returned a verified program.
    Negative,      ///< In-process negative entry skipped synthesis.
    StoreNegative, ///< Durable-store negative record skipped synthesis.
    Exhausted,     ///< The search finished without a program.
    Deadline,      ///< The safety deadline stopped the search.
    Aborted,       ///< An internal error was caught by a barrier.
    MacroExpanded, ///< Macro-expanded for any other reason.
    Scalarized,    ///< Fell to the interpreted rung.
    Failed,        ///< Every enabled rung failed.
};

constexpr int kFateCount = static_cast<int>(Fate::Failed) + 1;

/** Stable lower-case name ("solved", "cache_hit", ...). */
const char *fateName(Fate fate);

/** Classify one compiled window (see the file comment). */
Fate classify(const hydride::ResilientWindow &window);

/** Fates that count as a failed operation: the window aborted on an
 *  internal error, reached the safety deadline, or failed outright. */
bool isFailure(Fate fate);

/** True when the synthesis note shows the wall-clock deadline fired,
 *  in the first attempt or in the unscaled retry. */
bool reachedDeadline(const std::string &note);

/**
 * Order-sensitive digest of compiler output: FNV-1a over each
 * window's rung, static cost and selected instruction names. Two
 * runs whose outputs agree window for window have equal digests.
 */
class OutputDigest
{
  public:
    void add(const std::string &text);
    void add(const hydride::ResilientWindow &window);
    uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace perfbench

#endif // PERFBENCH_FATE_H
