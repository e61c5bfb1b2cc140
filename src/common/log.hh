/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * fatal(): the simulation cannot continue because of a user error (bad
 * configuration, malformed kernel). Exits with status 1.
 * panic(): an internal invariant was violated — a vtsim bug. Aborts.
 * Advisory messages go through the leveled logger (common/logger.hh).
 */

#ifndef VTSIM_COMMON_LOG_HH
#define VTSIM_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace vtsim {

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &message);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &message);

namespace detail {

/** Concatenate any streamable arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Exception carrying a fatal() message.
 *
 * fatal() throws instead of exiting so that library users (and tests) can
 * catch configuration errors; the examples let it terminate the process.
 */
class FatalError : public std::exception
{
  public:
    explicit FatalError(std::string message) : message_(std::move(message)) {}
    const char *what() const noexcept override { return message_.c_str(); }

  private:
    std::string message_;
};

} // namespace vtsim

/** User-level error: throw vtsim::FatalError with file/line context. */
#define VTSIM_FATAL(...)                                                     \
    ::vtsim::fatalImpl(__FILE__, __LINE__,                                   \
                       ::vtsim::detail::concat(__VA_ARGS__))

/** Internal invariant violation: abort with file/line context. */
#define VTSIM_PANIC(...)                                                     \
    ::vtsim::panicImpl(__FILE__, __LINE__,                                   \
                       ::vtsim::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; panics with the condition text. */
#define VTSIM_ASSERT(cond, ...)                                              \
    do {                                                                     \
        if (!(cond))                                                         \
            VTSIM_PANIC("assertion '" #cond "' failed: ",                    \
                        ::vtsim::detail::concat(__VA_ARGS__));               \
    } while (0)

#endif // VTSIM_COMMON_LOG_HH
