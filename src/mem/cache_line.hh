/**
 * @file
 * Cache line metadata and MESI coherence states.
 */

#ifndef HDRD_MEM_CACHE_LINE_HH
#define HDRD_MEM_CACHE_LINE_HH

#include <cstdint>

#include "common/types.hh"

namespace hdrd::mem
{

/**
 * MESI coherence states.
 *
 * The simulator tracks tags and coherence state only — no data. The
 * authoritative state for a core's private hierarchy is stored in its
 * L2 line (L2 is inclusive of L1); L1 lines mirror presence for
 * capacity/latency modelling.
 */
enum class Mesi : std::uint8_t
{
    kInvalid = 0,
    kShared,
    kExclusive,
    kModified,
};

/** Printable name for a MESI state. */
const char *mesiName(Mesi state);

/**
 * One way of a cache set. The way's tag lives only in its cache's
 * packed tag array (Cache::tags_), which the probe scans; the way
 * itself holds the state a hit reads and updates.
 */
struct CacheLine
{
    /** Coherence state; kInvalid means the way is empty. */
    Mesi state = Mesi::kInvalid;

    /**
     * Way-array slot of this line's copy one level out, set at fill
     * time: an L1 line's L2 slot, an L2 line's L3 slot. Inclusion
     * pins the outer copy in place (an L2 victim drops its L1 copy
     * first, an L3 victim back-invalidates its private copies), so
     * L1 hits follow the link instead of re-probing the L2 tags, and
     * L2 state changes reach the L3's presence bits without an L3
     * probe. Unused by L3 lines.
     */
    std::uint32_t link = 0;

    /**
     * LRU timestamp: larger = more recently used. Only the order
     * within a set matters; Cache renormalises a set's stamps before
     * its clock wraps.
     */
    std::uint32_t lru = 0;

    bool valid() const { return state != Mesi::kInvalid; }
};

static_assert(sizeof(CacheLine) == 12, "CacheLine must stay 12 bytes");

} // namespace hdrd::mem

#endif // HDRD_MEM_CACHE_LINE_HH
