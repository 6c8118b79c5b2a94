#include "support/faults.h"

#include "observability/journal/journal.h"
#include "observability/log.h"
#include "observability/metrics.h"
#include "support/env.h"
#include "support/error.h"
#include "support/strings.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>

namespace hydride {
namespace faults {

namespace {

/**
 * The static site registry. Every injection seam in the pipeline is
 * declared here; configure() rejects clauses naming anything else so
 * a chaos sweep (which iterates this table) is always exhaustive.
 */
struct SiteInfo
{
    const char *name;
    const char *what;
};

const SiteInfo kSites[] = {
    {"parser.malformed",
     "dialect parser raises a ParseError for the keyed instruction"},
    {"specdb.corrupt",
     "canonicalization of the keyed instruction fails during SpecDB "
     "construction"},
    {"similarity.verify",
     "similarity-engine member verification fails (member splits into "
     "a singleton class)"},
    {"cegis.timeout",
     "the CEGIS deadline reads as exhausted at the next inner-loop "
     "check"},
    {"alloc.cap",
     "caps the CEGIS value bank and solutions list at =ARG bytes each "
     "(overflow reads as search exhaustion)"},
    {"symbolic.budget",
     "the symbolic equivalence checker returns `unknown` (budget "
     "exhausted) instead of solving"},
    {"store.lock",
     "synthesis-store shard writer-lock acquisition fails (store "
     "becomes read-only for the attempt)"},
    {"store.append",
     "synthesis-store append crashes mid-record: a torn record is "
     "left on disk and the writer lock leaks, exactly as a SIGKILL "
     "mid-append would"},
    {"store.load",
     "a synthesis-store record reads as corrupt during a shard scan "
     "(checksum mismatch -> resync salvage)"},
    {"store.verify",
     "warm-start verification of a retrieved store entry fails (the "
     "entry is quarantined as poisoned)"},
    {"lowering.fail",
     "1-1 lowering of a synthesized module fails"},
    {"macro.fail",
     "macro expansion of a window fails"},
    {"compiler.window",
     "an InjectedFault escapes mid-window (exercises the error "
     "barrier against arbitrary exceptions)"},
};

/** One configured clause. */
struct Clause
{
    enum class Mode { Always, Probability, NthHit, ArgMatch };
    Mode mode = Mode::Always;
    double probability = 0.0;
    long nth = 0;
    std::string arg;
};

struct SiteState
{
    Clause clause;
    bool configured = false;
    long hits = 0;
    long fires = 0;
};

struct Registry
{
    std::mutex mutex;
    std::map<std::string, SiteState> sites;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/** SplitMix64 — the deterministic per-hit coin for `site@P`. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

bool
parseClause(const std::string &text, std::string &site, Clause &clause,
            std::string &error)
{
    std::string body = trim(text);
    if (body.empty()) {
        error = "empty fault clause";
        return false;
    }
    size_t at = body.find('@');
    size_t colon = body.find(':');
    size_t eq = body.find('=');
    size_t sep = std::min({at, colon, eq});
    site = sep == std::string::npos ? body : body.substr(0, sep);
    if (!isKnownSite(site)) {
        error = "unknown fault site `" + site + "`";
        return false;
    }
    if (sep == std::string::npos) {
        clause.mode = Clause::Mode::Always;
        return true;
    }
    const std::string rest = body.substr(sep + 1);
    if (rest.empty()) {
        error = "fault clause `" + body + "` has an empty argument";
        return false;
    }
    if (sep == at) {
        char *end = nullptr;
        clause.probability = std::strtod(rest.c_str(), &end);
        if (end == rest.c_str() || *end != '\0' ||
            clause.probability < 0.0 || clause.probability > 1.0) {
            error = "fault probability `" + rest +
                    "` is not a number in [0,1]";
            return false;
        }
        clause.mode = Clause::Mode::Probability;
        return true;
    }
    if (sep == colon) {
        char *end = nullptr;
        clause.nth = std::strtol(rest.c_str(), &end, 10);
        if (end == rest.c_str() || *end != '\0' || clause.nth < 1) {
            error = "fault hit index `" + rest +
                    "` is not a positive integer";
            return false;
        }
        clause.mode = Clause::Mode::NthHit;
        return true;
    }
    clause.mode = Clause::Mode::ArgMatch;
    clause.arg = rest;
    return true;
}

} // namespace

namespace detail {

std::atomic<bool> g_active{false};

bool
shouldFailSlow(const char *site, const std::string &key, bool has_key)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.sites.find(site);
    if (it == r.sites.end() || !it->second.configured)
        return false;
    SiteState &state = it->second;
    const long hit = ++state.hits;
    bool fire = false;
    switch (state.clause.mode) {
    case Clause::Mode::Always:
        fire = true;
        break;
    case Clause::Mode::Probability: {
        // Counter-based hash: deterministic run-to-run, independent
        // of every other site's hit sequence.
        const uint64_t h = mix64(static_cast<uint64_t>(hit) ^
                                 mix64(std::hash<std::string>{}(site)));
        fire = (h >> 11) * 0x1.0p-53 < state.clause.probability;
        break;
    }
    case Clause::Mode::NthHit:
        fire = hit == state.clause.nth;
        break;
    case Clause::Mode::ArgMatch:
        // Keyed sites fire on a key match; keyless sites treat the
        // clause as an always-on configuration knob (alloc.cap=64M).
        fire = !has_key || key == state.clause.arg;
        break;
    }
    if (fire) {
        ++state.fires;
        static metrics::Counter &fired =
            metrics::counter("faults.injected");
        fired.add();
        HYD_LOG(Debug, std::string("[faults] injected `") + site +
                           "` (hit " + std::to_string(hit) + ")");
        if (journal::enabled()) {
            // The injection lands in the provenance journal (and the
            // flight-recorder ring), so a dump at the downstream error
            // barrier shows *which* fault preceded the recovery.
            auto fields = bjson::Value::makeObject();
            fields->set("site", bjson::Value::makeString(site));
            fields->set("hit", bjson::Value::makeNumber(
                                   static_cast<double>(hit)));
            if (!key.empty())
                fields->set("key", bjson::Value::makeString(key));
            journal::emitEvent("fault", fields);
        }
    }
    return fire;
}

} // namespace detail

std::string
argOf(const char *site)
{
    if (!active())
        return "";
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.sites.find(site);
    if (it == r.sites.end() || !it->second.configured ||
        it->second.clause.mode != Clause::Mode::ArgMatch) {
        return "";
    }
    return it->second.clause.arg;
}

long long
parseSizeArg(const std::string &text, long long fallback)
{
    long long value = 0;
    return env::parseSize(text, value) ? value : fallback;
}

bool
configure(const std::string &spec, std::string *error)
{
    std::map<std::string, SiteState> parsed;
    for (const std::string &part : split(spec, ',')) {
        if (trim(part).empty())
            continue;
        std::string site;
        Clause clause;
        std::string why;
        if (!parseClause(part, site, clause, why)) {
            if (error)
                *error = why;
            reset();
            return false;
        }
        SiteState state;
        state.clause = clause;
        state.configured = true;
        parsed[site] = state;
    }
    Registry &r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.sites = std::move(parsed);
        detail::g_active.store(!r.sites.empty(),
                               std::memory_order_relaxed);
    }
    return true;
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.sites.clear();
    detail::g_active.store(false, std::memory_order_relaxed);
}

void
configureFromEnv()
{
    const env::Raw spec = env::raw("HYDRIDE_FAULTS");
    if (!spec.set || spec.value.empty()) {
        reset();
        return;
    }
    std::string error;
    if (!configure(spec.value, &error)) {
        // A malformed HYDRIDE_FAULTS is a CLI-level configuration
        // error (the one place fatal() is still right): silently
        // testing nothing would defeat the chaos suite's point.
        fatal("invalid HYDRIDE_FAULTS: " + error);
    }
}

std::vector<std::string>
knownSites()
{
    std::vector<std::string> names;
    for (const SiteInfo &info : kSites)
        names.push_back(info.name);
    std::sort(names.begin(), names.end());
    return names;
}

bool
isKnownSite(const std::string &site)
{
    for (const SiteInfo &info : kSites)
        if (site == info.name)
            return true;
    return false;
}

long
hitCount(const std::string &site)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.sites.find(site);
    return it == r.sites.end() ? 0 : it->second.hits;
}

long
fireCount(const std::string &site)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.sites.find(site);
    return it == r.sites.end() ? 0 : it->second.fires;
}

namespace {

/** Pre-main env hookup, same pattern as trace/metrics/log. */
struct EnvInit
{
    EnvInit() { configureFromEnv(); }
};
const EnvInit g_env_init;

} // namespace

} // namespace faults
} // namespace hydride
