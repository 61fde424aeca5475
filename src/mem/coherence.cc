#include "mem/coherence.hh"

#include "common/logging.hh"

namespace hdrd::mem
{

PrivateCaches::PrivateCaches(std::uint32_t ncores,
                             const CacheGeometry &l1,
                             const CacheGeometry &l2)
    : ncores_(ncores)
{
    hdrdAssert(ncores > 0, "PrivateCaches needs at least one core");
    if (l1.line_bytes != l2.line_bytes)
        fatal("L1/L2 line sizes must match (", l1.line_bytes, " vs ",
              l2.line_bytes, ")");
    l1_.reserve(ncores);
    l2_.reserve(ncores);
    for (std::uint32_t c = 0; c < ncores; ++c) {
        l1_.emplace_back(l1, "l1");
        l2_.emplace_back(l2, "l2");
    }
}

bool
PrivateCaches::inL1(CoreId core, Addr line_addr) const
{
    return l1_[core].probe(line_addr) != nullptr;
}

void
PrivateCaches::touchL1(CoreId core, Addr line_addr)
{
    l1_[core].touch(line_addr);
    // Keep L2 warm too: an L1 hit still protects the line's L2 copy
    // from eviction, as inclusive hierarchies do in practice.
    l2_[core].touch(line_addr);
}

void
PrivateCaches::touchL2(CoreId core, Addr line_addr)
{
    l2_[core].touch(line_addr);
}

void
PrivateCaches::setState(CoreId core, Addr line_addr, Mesi state)
{
    CacheLine *l2_line = l2_[core].probe(line_addr);
    hdrdAssert(l2_line != nullptr,
               "setState on a line missing from L2");
    l2_line->state = state;
    if (CacheLine *l1_line = l1_[core].probe(line_addr))
        l1_line->state = state;
}

void
PrivateCaches::fillL1(CoreId core, Addr line_addr)
{
    const CacheLine *l2_line = l2_[core].probe(line_addr);
    hdrdAssert(l2_line != nullptr, "fillL1 without an L2 copy");
    hdrdAssert(l1_[core].probe(line_addr) == nullptr,
               "fillL1 on a line already in L1");
    fillL1From(core, line_addr, l2_line);
}

std::vector<CoreId>
PrivateCaches::remoteHolders(Addr line_addr, CoreId except) const
{
    std::vector<CoreId> holders;
    for (CoreId c = 0; c < ncores_; ++c) {
        if (c != except && state(c, line_addr) != Mesi::kInvalid)
            holders.push_back(c);
    }
    return holders;
}

std::uint64_t
PrivateCaches::residentLines() const
{
    std::uint64_t n = 0;
    for (const auto &cache : l2_)
        n += cache.residentLines();
    return n;
}

void
PrivateCaches::flushAll()
{
    for (auto &cache : l1_)
        cache.flush();
    for (auto &cache : l2_)
        cache.flush();
}

} // namespace hdrd::mem
