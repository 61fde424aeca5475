#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace hdrd
{
namespace log_detail
{

namespace
{
bool inform_enabled = true;
} // namespace

void
setInformEnabled(bool enabled)
{
    inform_enabled = enabled;
}

bool
informEnabled()
{
    return inform_enabled;
}

void
informImpl(const std::string &msg)
{
    if (inform_enabled)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

namespace
{
thread_local bool trap_panics = false;
}

void
panicImpl(const std::string &msg)
{
    if (trap_panics)
        throw PanicError(msg);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

} // namespace log_detail

PanicTrap::PanicTrap() : outer_(log_detail::trap_panics)
{
    log_detail::trap_panics = true;
}

PanicTrap::~PanicTrap()
{
    log_detail::trap_panics = outer_;
}
} // namespace hdrd
