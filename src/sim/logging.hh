/**
 * @file
 * Status/error reporting in the spirit of gem5's base/logging.hh.
 *
 * - panic():  a condition that should never happen regardless of user
 *             input, i.e.\ a simulator bug. Throws PanicError (so tests
 *             can assert on it); uncaught it terminates the process.
 * - fatal():  the simulation cannot continue due to a user error (bad
 *             configuration, invalid arguments). Throws FatalError.
 * - warn():   something is questionable but the run continues.
 * - inform(): plain status output.
 */

#ifndef TB_SIM_LOGGING_HH_
#define TB_SIM_LOGGING_HH_

#include <sstream>
#include <stdexcept>
#include <string>

namespace tb {

/** Thrown by panic(): an internal simulator invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string& what)
        : std::logic_error(what)
    {}
};

/** Thrown by fatal(): the user asked for something unsupported. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& what)
        : std::runtime_error(what)
    {}
};

namespace detail {

/** Fold a pack of streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

void emitWarn(const std::string& msg);
void emitInform(const std::string& msg);

} // namespace detail

/** Abort the simulation: internal bug. Never returns. */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    throw PanicError(detail::concat("panic: ",
                                    std::forward<Args>(args)...));
}

/** Abort the simulation: user error. Never returns. */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    throw FatalError(detail::concat("fatal: ",
                                    std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition to stderr. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::emitWarn(detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status to stderr. */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::emitInform(detail::concat(std::forward<Args>(args)...));
}

/**
 * Render @p err (an errno value) as "message (errno N)". Replacement
 * for std::strerror, which returns a pointer into static storage and
 * is not thread-safe — campaign workers report I/O errors
 * concurrently.
 */
std::string errnoMessage(int err);

/**
 * Deterministic name for signal @p sig ("SIGSEGV", ...). Replacement
 * for strsignal(), which is mt-unsafe and locale-dependent — signal
 * names reach crash payloads in failure manifests, so the spelling
 * must not vary with the environment.
 */
std::string signalName(int sig);

/** Number of warn() calls so far (tests use this to observe warnings). */
std::uint64_t warnCount();

/** Suppress or re-enable warn()/inform() console output (for tests). */
void setLogQuiet(bool quiet);

} // namespace tb

#endif // TB_SIM_LOGGING_HH_
