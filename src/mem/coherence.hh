/**
 * @file
 * Per-core private cache pairs (L1+L2) with inclusion maintenance.
 *
 * PrivateCaches owns every core's L1 and L2 tag arrays and keeps two
 * invariants:
 *   1. L2 is inclusive of L1 (a line in L1 is always in L2);
 *   2. the two levels agree on the line's MESI state (L2 is
 *      authoritative, L1 mirrors).
 *
 * The MESI *protocol* (who may hold what, when HITMs fire) is driven by
 * mem::Hierarchy; this class only answers presence/state questions and
 * performs state changes while preserving inclusion. Which cores hold
 * a line is recorded by the hierarchy, in its inclusive L3's presence
 * bits; each L2 line links to its L3 slot so those bits are found
 * without an L3 probe.
 */

#ifndef HDRD_MEM_COHERENCE_HH
#define HDRD_MEM_COHERENCE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"

namespace hdrd::mem
{

/** Outcome of inserting a line into a core's private hierarchy. */
struct PrivateInsertResult
{
    /** A Modified line was evicted from L2 (writeback to L3). */
    bool writeback = false;

    /** Line address of the L2 victim, if one was evicted. */
    std::optional<Addr> l2_victim;

    /** The L2 victim's L3 slot link (meaningful with l2_victim). */
    std::uint32_t l2_victim_l3_slot = 0;
};

/**
 * The array of private (per-core) L1+L2 cache pairs.
 */
class PrivateCaches
{
  public:
    PrivateCaches(std::uint32_t ncores, const CacheGeometry &l1,
                  const CacheGeometry &l2);

    /** Number of cores. */
    std::uint32_t ncores() const { return ncores_; }

    /** Authoritative MESI state of @p line_addr in @p core's caches. */
    Mesi state(CoreId core, Addr line_addr) const
    {
        const CacheLine *line = l2_[core].probe(line_addr);
        return line ? line->state : Mesi::kInvalid;
    }

    /** True when @p line_addr is resident in @p core's L1. */
    bool inL1(CoreId core, Addr line_addr) const;

    /**
     * Direct tag-array probes for the hot access path: one probe per
     * level, returning the line so state reads, LRU touches, and
     * upgrades reuse it instead of re-probing. No LRU update.
     */
    CacheLine *probeL1(CoreId core, Addr line_addr)
    {
        return l1_[core].probe(line_addr);
    }

    CacheLine *probeL2(CoreId core, Addr line_addr)
    {
        return l2_[core].probe(line_addr);
    }

    /** Hint the host to pull @p core's L2 tag set for @p line_addr. */
    void prefetchL2Set(CoreId core, Addr line_addr) const
    {
        l2_[core].prefetchSet(line_addr);
    }

    /**
     * Hint the host to pull both of @p core's private tag sets for
     * @p line_addr. Used by the simulator's cross-op prefetch, which
     * knows an access is coming well before the probes run.
     */
    void prefetchSets(CoreId core, Addr line_addr) const
    {
        l1_[core].prefetchSet(line_addr);
        l2_[core].prefetchSet(line_addr);
    }

    /** LRU-touch already-probed lines in both levels (L1 hit). */
    void touchLines(CoreId core, CacheLine *l1_line, CacheLine *l2_line)
    {
        l1_[core].touchLine(l1_line);
        l2_[core].touchLine(l2_line);
    }

    /** fillL1 with the L2 copy already probed. @pre not in L1. */
    void fillL1From(CoreId core, Addr line_addr,
                    const CacheLine *l2_line)
    {
        CacheLine *l1_line =
            l1_[core].insertLine(line_addr, l2_line->state);
        l1_line->link = l2_[core].slotOf(l2_line);
    }

    /**
     * The L2 line backing @p line_addr's L1-resident line, via the
     * slot link recorded at fill time — no L2 tag-array probe.
     * Inclusion keeps the link valid for as long as the L1 copy
     * exists.
     */
    CacheLine *l2LineOf(CoreId core, Addr line_addr,
                        const CacheLine *l1_line)
    {
        CacheLine *l2_line = l2_[core].lineAt(l1_line->link);
        hdrdAssert(l2_line->valid()
                       && l2_[core].lineAddrAt(l1_line->link)
                           == line_addr,
                   "stale L1 -> L2 slot link");
        return l2_line;
    }

    /** Update LRU for a hit at the given level. */
    void touchL1(CoreId core, Addr line_addr);
    void touchL2(CoreId core, Addr line_addr);

    /**
     * Set the state of a resident line in both levels (L1 only if
     * present there). @pre the line is resident in L2.
     */
    void setState(CoreId core, Addr line_addr, Mesi state);

    /** Drop @p line_addr from both of @p core's levels, if present. */
    void invalidate(CoreId core, Addr line_addr)
    {
        l1_[core].invalidate(line_addr);
        l2_[core].invalidate(line_addr);
    }

    /**
     * Insert @p line_addr into L2 (and L1) of @p core with @p state,
     * linking the new L2 line to its L3 copy at @p l3_slot.
     * Maintains inclusion: an L2 victim is also dropped from L1.
     * @pre the line is not already resident in this core's L2.
     */
    PrivateInsertResult insert(CoreId core, Addr line_addr, Mesi state,
                               std::uint32_t l3_slot = 0)
    {
        PrivateInsertResult result;
        std::optional<Eviction> l2_evict;
        CacheLine *l2_line =
            l2_[core].insertLine(line_addr, state, &l2_evict);
        l2_line->link = l3_slot;
        if (l2_evict) {
            // Inclusion: the L2 victim must leave L1 as well.
            l1_[core].invalidate(l2_evict->line_addr);
            result.l2_victim = l2_evict->line_addr;
            result.l2_victim_l3_slot = l2_evict->link;
            result.writeback = l2_evict->state == Mesi::kModified;
        }
        // L1 victims are silent: their authoritative state stays in L2.
        CacheLine *l1_line = l1_[core].insertLine(line_addr, state);
        l1_line->link = l2_[core].slotOf(l2_line);
        return result;
    }

    /**
     * Fill @p line_addr into L1 only (line already resident in L2).
     * Used on L1-miss/L2-hit paths. L1 victims are dropped silently
     * (their state lives on in L2).
     */
    void fillL1(CoreId core, Addr line_addr);

    /** Core holding @p line_addr in Modified state, if any. */
    std::optional<CoreId> findOwner(Addr line_addr) const
    {
        for (CoreId c = 0; c < ncores_; ++c) {
            if (state(c, line_addr) == Mesi::kModified)
                return c;
        }
        return std::nullopt;
    }

    /**
     * Cores (other than @p except) holding @p line_addr in any valid
     * state.
     */
    std::vector<CoreId> remoteHolders(Addr line_addr,
                                      CoreId except) const;

    /**
     * findOwner + remoteHolders in one sweep of every core's L2:
     * fills @p holders (cleared first) with every core other than
     * @p except holding a valid copy, in ascending core order, and
     * returns the first Modified owner, if any. The hierarchy reads
     * its L3 presence bits instead while it has them (<= 32 cores).
     */
    std::optional<CoreId> snapshotRemote(Addr line_addr, CoreId except,
                                         std::vector<CoreId> &holders)
        const
    {
        std::optional<CoreId> owner;
        holders.clear();
        for (CoreId c = 0; c < ncores_; ++c) {
            const CacheLine *line = l2_[c].probe(line_addr);
            if (line == nullptr)
                continue;
            if (!owner && line->state == Mesi::kModified)
                owner = c;
            if (c != except)
                holders.push_back(c);
        }
        return owner;
    }

    /**
     * Invalidate @p line_addr in @p core's hierarchy with a single L2
     * probe. @return true when the line was resident (back-
     * invalidation bookkeeping).
     */
    bool dropLine(CoreId core, Addr line_addr)
    {
        CacheLine *l2_line = l2_[core].probe(line_addr);
        if (l2_line == nullptr)
            return false;
        l2_[core].invalidateLine(l2_line);
        l1_[core].invalidate(line_addr);
        return true;
    }

    /** Total valid lines across all L2s (testing hook). */
    std::uint64_t residentLines() const;

    /** Read-only access to a core's L1 (invariant checks, tests). */
    const Cache &l1(CoreId core) const { return l1_[core]; }

    /** Read-only access to a core's L2 (invariant checks, tests). */
    const Cache &l2(CoreId core) const { return l2_[core]; }

    /** Drop every line everywhere, in O(ncores). */
    void flushAll();

  private:
    std::uint32_t ncores_;
    std::vector<Cache> l1_;
    std::vector<Cache> l2_;
};

} // namespace hdrd::mem

#endif // HDRD_MEM_COHERENCE_HH
