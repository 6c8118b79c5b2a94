/**
 * @file
 * Deterministic fault injection for the Hydride pipeline.
 *
 * Every recoverable seam of the pipeline — spec parsing, SpecDB
 * construction, similarity verification, CEGIS deadlines, symbolic
 * solver budgets, store persistence, lowering, macro expansion —
 * hosts a named *fault site*. A site is a single inline check that
 * costs one relaxed atomic load when no faults are configured (the
 * same discipline as the tracing and metrics layers), and consults
 * the registry when they are.
 *
 * Faults are configured through the environment (or
 * programmatically, for tests and the chaos harness):
 *
 *   HYDRIDE_FAULTS="cegis.timeout@0.3,store.load:3,parser.malformed=vadd_s16,alloc.cap=64M"
 *
 * Grammar, per comma-separated clause:
 *
 *   site           fire on every evaluation of the site
 *   site@P         fire with probability P (deterministic: a seeded
 *                  per-site counter-based hash, identical run-to-run)
 *   site:N         fire on the Nth evaluation of the site (1-based),
 *                  once
 *   site=ARG       fire whenever the site's key matches ARG (for
 *                  keyless sites, ARG is available via argOf() — the
 *                  `alloc.cap=64M` style of configuration knob)
 *
 * Sites *fail closed for typos*: configuring an unknown site name is
 * itself an error surfaced by configure(), so a chaos sweep cannot
 * silently test nothing.
 */
#ifndef HYDRIDE_SUPPORT_FAULTS_H
#define HYDRIDE_SUPPORT_FAULTS_H

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hydride {
namespace faults {

namespace detail {
extern std::atomic<bool> g_active;
bool shouldFailSlow(const char *site, const std::string &key,
                    bool has_key);
} // namespace detail

/** True when any fault clause is configured (single relaxed load). */
inline bool
active()
{
    return detail::g_active.load(std::memory_order_relaxed);
}

/**
 * Evaluate a fault site. Returns true when the configured clause for
 * `site` says this evaluation must fail. When no faults are
 * configured at all this is one relaxed atomic load.
 */
inline bool
shouldFail(const char *site)
{
    if (!active())
        return false;
    return detail::shouldFailSlow(site, std::string(), false);
}

/** Keyed evaluation: a `site=ARG` clause fires only when `key`
 *  equals ARG (e.g. `parser.malformed=vadd_s16` fires for that one
 *  instruction). Unkeyed clause forms ignore the key. */
inline bool
shouldFail(const char *site, const std::string &key)
{
    if (!active())
        return false;
    return detail::shouldFailSlow(site, key, true);
}

/** The `=ARG` payload configured for `site`, or "" when the site has
 *  no argument clause. Used by capacity-style sites (`alloc.cap`). */
std::string argOf(const char *site);

/** Parse a size argument like "64M", "512K", "2G", "1048576";
 *  returns `fallback` when `text` is empty or malformed. */
long long parseSizeArg(const std::string &text, long long fallback);

/**
 * Thrown by fault sites that have no structured error path of their
 * own. The resilient driver's error barrier catches it (alongside
 * AssertionError); anything that lets it escape to the user is a
 * chaos-suite failure.
 */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &site)
        : std::runtime_error("injected fault at site `" + site + "`"),
          site_(site)
    {
    }
    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/** Throw InjectedFault when the site fires (sites without their own
 *  error path). */
inline void
failPoint(const char *site)
{
    if (shouldFail(site))
        throw InjectedFault(site);
}

/**
 * Configure the registry from a HYDRIDE_FAULTS-grammar string,
 * replacing any previous configuration. Returns false (and leaves
 * the registry *empty*) when the spec is malformed or names an
 * unregistered site; the error is reported via `error` when given.
 */
bool configure(const std::string &spec, std::string *error = nullptr);

/** Drop every configured clause and reset per-site counters. */
void reset();

/** (Re)read HYDRIDE_FAULTS and apply it. Runs automatically before
 *  main(); callable again from tests. A malformed value is a
 *  CLI-level configuration error and is fatal. */
void configureFromEnv();

/** Every registered fault-site name, sorted (the chaos sweep's
 *  worklist). Registration is static — all sites are known even
 *  before any has been evaluated. */
std::vector<std::string> knownSites();

/** True when `site` names a registered site. */
bool isKnownSite(const std::string &site);

/** Times `site` was evaluated / times it fired since the last
 *  configure()/reset() (chaos-harness assertions). */
long hitCount(const std::string &site);
long fireCount(const std::string &site);

} // namespace faults
} // namespace hydride

#endif // HYDRIDE_SUPPORT_FAULTS_H
