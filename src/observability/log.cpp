#include "observability/log.h"

#include "support/env.h"

#include <iostream>
#include <mutex>

namespace hydride {
namespace logging {

namespace detail {
std::atomic<int> g_level{static_cast<int>(Level::Warn)};
} // namespace detail

namespace {

std::mutex &
sinkMutex()
{
    static std::mutex mutex;
    return mutex;
}

const char *
levelName(Level at)
{
    switch (at) {
    case Level::Debug: return "debug";
    case Level::Info: return "info";
    case Level::Warn: return "warning";
    case Level::Error: return "error";
    case Level::Off: break;
    }
    return "log";
}

} // namespace

void
setLevel(Level level)
{
    detail::g_level.store(static_cast<int>(level),
                          std::memory_order_relaxed);
}

void
write(Level at, const std::string &message)
{
    writeRaw(std::string("hydride: ") + levelName(at) + ": " + message);
}

void
writeRaw(const std::string &line)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::cerr << line << std::endl;
}

bool
parseLevel(const std::string &text, Level &out)
{
    if (text == "debug" || text == "0") {
        out = Level::Debug;
    } else if (text == "info" || text == "1") {
        out = Level::Info;
    } else if (text == "warn" || text == "warning" || text == "2") {
        out = Level::Warn;
    } else if (text == "error" || text == "3") {
        out = Level::Error;
    } else if (text == "off" || text == "none" || text == "4") {
        out = Level::Off;
    } else {
        return false;
    }
    return true;
}

void
configureFromEnv()
{
    const env::Raw level_knob = env::raw("HYDRIDE_LOG_LEVEL");
    if (level_knob.set) {
        Level parsed;
        if (parseLevel(level_knob.value, parsed))
            setLevel(parsed);
        else
            write(Level::Warn, "unrecognized HYDRIDE_LOG_LEVEL `" +
                                   level_knob.value +
                                   "` (want debug|info|warn|error|off)");
    }
}

namespace {
/** Apply the environment before main() runs. */
struct EnvInit
{
    EnvInit() { configureFromEnv(); }
} env_init;
} // namespace

} // namespace logging
} // namespace hydride
