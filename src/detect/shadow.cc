#include "detect/shadow.hh"

#include "common/logging.hh"

namespace hdrd::detect
{

namespace
{

void
checkShift(std::uint32_t granule_shift)
{
    hdrdAssert(granule_shift <= 12,
               "unreasonable shadow granule shift ", granule_shift);
}

} // namespace

ShadowMemory::ShadowMemory(std::uint32_t granule_shift,
                           ShadowPool *pool)
    : granule_shift_(granule_shift),
      table_(pool == nullptr ? nullptr : &pool->states),
      sites_(pool == nullptr ? nullptr : &pool->sites)
{
    checkShift(granule_shift);
}

void
ShadowMemory::prepare(std::uint32_t granule_shift)
{
    checkShift(granule_shift);
    granule_shift_ = granule_shift;
    clear();
}

} // namespace hdrd::detect
