/**
 * @file
 * Leveled diagnostic logging for the Hydride pipeline.
 *
 * All human-facing diagnostics (the CEGIS debug stream, parser and
 * lowering warnings, `warn()` in support/error.h) route through the
 * `HYD_LOG(level, message)` macro so verbosity is controlled in one
 * place:
 *
 *  - programmatically via `logging::setLevel()`, or
 *  - with `HYDRIDE_LOG_LEVEL=debug|info|warn|error|off`.
 *
 * The message argument of HYD_LOG is evaluated lazily — below the
 * active level the cost is a single relaxed atomic load.
 */
#ifndef HYDRIDE_OBSERVABILITY_LOG_H
#define HYDRIDE_OBSERVABILITY_LOG_H

#include <atomic>
#include <string>

namespace hydride {
namespace logging {

/** Severity levels, least to most severe. */
enum class Level : int {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Off = 4, ///< Suppresses everything (not a message level).
};

namespace detail {
extern std::atomic<int> g_level;
} // namespace detail

/** Current minimum level that is emitted. */
inline Level
level()
{
    return static_cast<Level>(
        detail::g_level.load(std::memory_order_relaxed));
}

/** Set the minimum emitted level. */
void setLevel(Level level);

/** True when a message at `at` would be emitted. */
inline bool
shouldLog(Level at)
{
    return at != Level::Off && static_cast<int>(at) >=
                                   detail::g_level.load(
                                       std::memory_order_relaxed);
}

/**
 * Emit one message at `at` with the standard `hydride: <level>:`
 * prefix. Callers normally go through HYD_LOG, which performs the
 * level check without evaluating the message.
 */
void write(Level at, const std::string &message);

/** Emit a pre-formatted line verbatim (used by fatal/panic, which
 *  must never be suppressed by the log level). */
void writeRaw(const std::string &line);

/** Parse a level name ("debug", "info", "warn", "error", "off");
 *  false when `text` is not a level name. */
bool parseLevel(const std::string &text, Level &out);

/** (Re)read HYDRIDE_LOG_LEVEL and apply it.
 *  Runs automatically before main(); callable again from tests. */
void configureFromEnv();

} // namespace logging
} // namespace hydride

/**
 * Leveled logging: `HYD_LOG(Warn, "lowering fell back: " + why);`
 * The message expression is only evaluated when the level passes.
 */
#define HYD_LOG(level_, message_)                                           \
    do {                                                                    \
        if (::hydride::logging::shouldLog(                                  \
                ::hydride::logging::Level::level_)) {                       \
            ::hydride::logging::write(                                      \
                ::hydride::logging::Level::level_, (message_));             \
        }                                                                   \
    } while (false)

#endif // HYDRIDE_OBSERVABILITY_LOG_H
