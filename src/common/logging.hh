/**
 * @file
 * Minimal status/error reporting helpers in the gem5 tradition.
 *
 * Severity ladder:
 *  - inform(): normal operating status, no connotation of error.
 *  - warn():   something is off but the run can continue sensibly.
 *  - fatal():  the run cannot continue due to a user-level problem
 *              (bad configuration, impossible parameters). Exits 1.
 *  - panic():  an internal invariant was violated — an hdrd bug.
 *              Aborts so debuggers/core dumps catch it.
 */

#ifndef HDRD_COMMON_LOGGING_HH
#define HDRD_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace hdrd
{

namespace log_detail
{

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void fatalImpl(const std::string &msg);
[[noreturn]] void panicImpl(const std::string &msg);
void informImpl(const std::string &msg);
void warnImpl(const std::string &msg);

/** Enable/disable inform() output (tests silence it). */
void setInformEnabled(bool enabled);
bool informEnabled();

} // namespace log_detail

/** Print an informational status message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    log_detail::informImpl(
        log_detail::concat(std::forward<Args>(args)...));
}

/** Print a warning about questionable-but-survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    log_detail::warnImpl(
        log_detail::concat(std::forward<Args>(args)...));
}

/** Terminate the process: unrecoverable user-level error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    log_detail::fatalImpl(
        log_detail::concat(std::forward<Args>(args)...));
}

/** What panic() throws inside a PanicTrap. */
struct PanicError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * While alive, panic() (and so hdrdAssert()) on this thread throws
 * PanicError instead of aborting. For running untrusted input — a
 * replayed trace whose operations break the engine's invariants is
 * that input's error, not a reason to take the process down.
 */
class PanicTrap
{
  public:
    PanicTrap();
    ~PanicTrap();

    PanicTrap(const PanicTrap &) = delete;
    PanicTrap &operator=(const PanicTrap &) = delete;

  private:
    bool outer_;
};

/** Abort the process: internal invariant violated (an hdrd bug). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    log_detail::panicImpl(
        log_detail::concat(std::forward<Args>(args)...));
}

/**
 * Assert an internal invariant; panics with the provided message when
 * the condition is false. Always evaluated (not compiled out): the
 * simulator's correctness claims rest on these checks.
 */
template <typename... Args>
void
hdrdAssert(bool condition, Args &&...args)
{
    if (!condition)
        panic(std::forward<Args>(args)...);
}

} // namespace hdrd

#endif // HDRD_COMMON_LOGGING_HH
