/**
 * @file
 * Leveled, component-tagged logging: the one channel for advisory
 * messages (common/log.hh keeps only fatal/panic/assert). This logger
 * writes single atomic stderr lines of the form
 *
 *   [component] level: message
 *
 * filtered by a process-wide threshold (default Info). The threshold
 * comes from, in increasing precedence, the built-in default, the
 * VTSIM_LOG_LEVEL environment variable, and an explicit setLevel()
 * call (vtsimd --log-level). Structured job-lifecycle history goes to
 * the JSONL event log (service/event_log.hh) instead; this channel is
 * for human-facing operational messages only.
 */

#ifndef VTSIM_COMMON_LOGGER_HH
#define VTSIM_COMMON_LOGGER_HH

#include <string>
#include <utility>

#include "common/log.hh"

namespace vtsim::logging {

enum class Level { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/** Current process-wide threshold; messages below it are dropped. */
Level level();

/** Override the threshold (also clears the env-var default). */
void setLevel(Level level);

/**
 * Parse "debug"/"info"/"warn"/"error"/"off" (case-sensitive).
 * Throws FatalError on anything else.
 */
Level parseLevel(const std::string &text);

/** The fixed spelling used on the wire and in --log-level. */
const char *levelName(Level level);

/** Format and emit one line; the write itself is a single fputs. */
void message(Level level, const char *component, const std::string &text);

template <typename... Args>
void
debug(const char *component, Args &&...args)
{
    if (level() <= Level::Debug)
        message(Level::Debug, component,
                detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
info(const char *component, Args &&...args)
{
    if (level() <= Level::Info)
        message(Level::Info, component,
                detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
warn(const char *component, Args &&...args)
{
    if (level() <= Level::Warn)
        message(Level::Warn, component,
                detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
error(const char *component, Args &&...args)
{
    if (level() <= Level::Error)
        message(Level::Error, component,
                detail::concat(std::forward<Args>(args)...));
}

} // namespace vtsim::logging

#endif // VTSIM_COMMON_LOGGER_HH
