#include "detect/vector_clock.hh"

#include <algorithm>

namespace hdrd::detect
{

void
VectorClock::promote(std::uint32_t n)
{
    // Double to amortize repeated promotions; the clock never shrinks
    // afterwards, so pooled reuse keeps this capacity.
    std::uint32_t cap = cap_;
    while (cap < n)
        cap *= 2;
    ClockValue *fresh = new ClockValue[cap];
    std::copy_n(data(), size_, fresh);
    delete[] heap_;
    heap_ = fresh;
    cap_ = cap;
}

ThreadId
VectorClock::firstGreaterExcept(const VectorClock &other,
                                ThreadId except) const
{
    // Beyond other's stored size its components are implicitly zero
    // (get() returns 0), so any nonzero component here wins.
    for (std::uint32_t i = 0; i < size_; ++i) {
        if (i != except && data()[i] > other.get(i))
            return i;
    }
    return kInvalidThread;
}

bool
VectorClock::operator==(const VectorClock &other) const
{
    const std::uint32_t common = std::min(size_, other.size_);
    if (!std::equal(data(), data() + common, other.data()))
        return false;
    // The longer clock's tail must be all zeros to match the shorter
    // clock's implicit zeros.
    const VectorClock &longer = size_ > other.size_ ? *this : other;
    for (std::uint32_t i = common; i < longer.size_; ++i) {
        if (longer.data()[i] != 0)
            return false;
    }
    return true;
}

std::ostream &
operator<<(std::ostream &os, const VectorClock &vc)
{
    os << '[';
    for (std::uint32_t i = 0; i < vc.size_; ++i) {
        if (i)
            os << ',';
        os << vc.data()[i];
    }
    return os << ']';
}

} // namespace hdrd::detect
