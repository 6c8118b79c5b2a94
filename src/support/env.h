/**
 * @file
 * Centralized parsing for the `HYDRIDE_*` environment knobs.
 *
 * Every subsystem that reads the environment — tracing, metrics,
 * logging, fault injection, load-time verification, and the synthesis
 * provenance journal — goes through this one helper instead of ad-hoc
 * `std::getenv` calls, so the knob grammar and the handling of
 * malformed values stay consistent:
 *
 *   HYDRIDE_TRACE / HYDRIDE_METRICS / HYDRIDE_JOURNAL
 *       tri-state toggles: "0" disables, "1" enables with a
 *       pid-derived default artifact path, anything else enables and
 *       IS the artifact path (env::toggle).
 *   HYDRIDE_LOG_LEVEL
 *       an enumerated value; a malformed setting is *reported* (the
 *       caller warns) and the previous level is kept.
 *   HYDRIDE_FAULTS
 *       a clause grammar; a malformed spec is a CLI-level
 *       configuration error (the caller fatals — silently testing
 *       nothing would defeat the chaos suite).
 *   HYDRIDE_VERIFY
 *       a boolean (env::parseBool); malformed values read as unset.
 *
 * The helpers themselves never log or exit: they return structured
 * results and let each caller apply its documented policy.
 */
#ifndef HYDRIDE_SUPPORT_ENV_H
#define HYDRIDE_SUPPORT_ENV_H

#include <string>

namespace hydride {
namespace env {

/** Raw value of `name`; empty string when unset. `set` distinguishes
 *  "unset" from "set to the empty string" (both read as disabled). */
struct Raw
{
    bool set = false;
    std::string value;
};
Raw raw(const char *name);

/**
 * The shared tri-state switch-or-path grammar used by
 * HYDRIDE_TRACE, HYDRIDE_METRICS and HYDRIDE_JOURNAL:
 *
 *   unset / ""   -> {set=false}                (leave defaults alone)
 *   "0"          -> {set, enabled=false}       (force-disable)
 *   "1"          -> {set, enabled=true}        (default artifact path)
 *   <anything>   -> {set, enabled=true, path}  (explicit artifact path)
 */
struct Toggle
{
    bool set = false;
    bool enabled = false;
    std::string path; ///< Empty unless an explicit path was given.
};
Toggle toggle(const char *name);

/**
 * Boolean knob: "1"/"true"/"on"/"yes" -> true, "0"/"false"/"off"/
 * "no"/"" -> false (case-insensitive). Returns false (and leaves
 * `out` untouched) on anything else so callers can report the
 * malformed value instead of guessing.
 */
bool parseBool(const std::string &text, bool &out);

/** Boolean knob with the fail-closed default: unset, empty, or
 *  malformed all read as `fallback`. */
bool boolOr(const char *name, bool fallback);

/**
 * Integer knob. Accepts an optional k/K, m/M, g/G binary-scale
 * suffix (the HYDRIDE_FAULTS `alloc.cap=64M` grammar). Returns false
 * on malformed or negative input.
 */
bool parseSize(const std::string &text, long long &out);

/** Directory for pid-named default artifacts: $HYDRIDE_TRACE_DIR
 *  when set and non-empty, otherwise "." (the CWD). */
std::string artifactDir();

/**
 * Default artifact path for a subsystem writing at process exit:
 * "<artifactDir()>/<stem>.<pid>.<ext>" — the pid suffix keeps
 * parallel test runs from clobbering each other.
 */
std::string defaultArtifactPath(const std::string &stem,
                                const std::string &ext);

} // namespace env
} // namespace hydride

#endif // HYDRIDE_SUPPORT_ENV_H
