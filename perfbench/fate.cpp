#include "fate.h"

#include <cstdio>

namespace perfbench {

using hydride::ResilientWindow;
using hydride::Rung;

namespace {

bool
startsWith(const std::string &text, const char *prefix)
{
    return text.rfind(prefix, 0) == 0;
}

} // namespace

const char *
fateName(Fate fate)
{
    switch (fate) {
    case Fate::Solved: return "solved";
    case Fate::CacheHit: return "cache_hit";
    case Fate::StoreHit: return "store_hit";
    case Fate::Negative: return "negative";
    case Fate::StoreNegative: return "store_negative";
    case Fate::Exhausted: return "exhausted";
    case Fate::Deadline: return "deadline";
    case Fate::Aborted: return "aborted";
    case Fate::MacroExpanded: return "macro_expanded";
    case Fate::Scalarized: return "scalarized";
    case Fate::Failed: return "failed";
    }
    return "unknown";
}

bool
reachedDeadline(const std::string &note)
{
    // "timeout", or "search exhausted; unscaled retry: timeout" when
    // only the unscaled second attempt ran out of time.
    return startsWith(note, "timeout") ||
           note.find("unscaled retry: timeout") != std::string::npos;
}

Fate
classify(const ResilientWindow &window)
{
    const std::string &note = window.synth.note;
    if (window.rung == Rung::Failed)
        return Fate::Failed;
    // An error barrier caught an exception somewhere on the primary
    // or macro rung; CEGIS itself reports a caught assertion in its
    // note instead.
    if (window.recovered || startsWith(note, "synthesis aborted"))
        return Fate::Aborted;
    if (reachedDeadline(note))
        return Fate::Deadline;
    if (window.rung == Rung::Synthesized)
        return Fate::Solved;
    if (window.rung == Rung::Cached)
        return window.cache_outcome == "store_hit" ? Fate::StoreHit
                                                   : Fate::CacheHit;
    if (window.cache_outcome == "negative")
        return Fate::Negative;
    if (window.cache_outcome == "store_negative")
        return Fate::StoreNegative;
    if (startsWith(note, "search exhausted"))
        return Fate::Exhausted;
    if (window.rung == Rung::Scalarized)
        return Fate::Scalarized;
    return Fate::MacroExpanded;
}

bool
isFailure(Fate fate)
{
    return fate == Fate::Aborted || fate == Fate::Deadline ||
           fate == Fate::Failed;
}

void
OutputDigest::add(const std::string &text)
{
    for (unsigned char c : text) {
        hash_ ^= c;
        hash_ *= 0x100000001b3ull;
    }
    hash_ ^= 0xff; // Field separator: "ab"+"c" != "a"+"bc".
    hash_ *= 0x100000001b3ull;
}

void
OutputDigest::add(const ResilientWindow &window)
{
    add(hydride::rungName(window.rung));
    add(std::to_string(window.rung == Rung::Scalarized
                           ? hydride::scalarizedCost(window.window)
                           : window.program.cost()));
    for (const auto &inst : window.program.insts)
        add(inst.inst_name);
}

std::string
OutputDigest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

} // namespace perfbench
