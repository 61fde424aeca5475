/**
 * @file
 * Two-level shadow memory mapping detection granules to FastTrack
 * variable state.
 *
 * The address space is chunked; chunks materialize lazily on first
 * touch. Detection granularity is configurable (default 8-byte words),
 * matching how commercial detectors shadow aligned machine words.
 *
 * Storage is a radix page table rather than a hash map: a granule
 * lookup is one shift plus a directory index, and the last chunk is
 * memoized so streaming accesses skip even that.
 *
 * Hot/cold split: the per-granule VarState is packed to 16 bytes —
 * the last-write epoch plus a tagged union of (last-read epoch |
 * ClockPool index) — so the per-access hot loop touches half the
 * shadow bytes of the old 32-byte layout and four granules share a
 * host cache line. The report-only static sites live in a separate
 * cold SiteTable, written on state transitions and read only when a
 * race is reported.
 *
 * Read-shared variables reference their vector clock by pool index
 * rather than pointer: inflation and collapse recycle pooled clocks
 * instead of hitting the allocator, and clear() reclaims every clock
 * in place for the next job.
 *
 * Chunk pages are borrowed from a ShadowPool and clear() hands them
 * back, in O(chunks taken). A shadow built without a pool borrows
 * from private ones, which hold its largest run's chunks and are
 * freed with it. The daemon passes one ShadowPool to every engine it
 * runs, and each engine hands its chunks back when its run ends, so
 * the daemon holds the chunks of the runs in flight, not each
 * engine's largest.
 */

#ifndef HDRD_DETECT_SHADOW_HH
#define HDRD_DETECT_SHADOW_HH

#include <cstdint>
#include <unordered_map>

#include "common/radix_table.hh"
#include "common/types.hh"
#include "detect/clock_pool.hh"
#include "detect/epoch.hh"
#include "detect/vector_clock.hh"

namespace hdrd::detect
{

/**
 * FastTrack per-variable state, packed to 16 bytes.
 *
 * The read side is adaptive: a single epoch while reads stay
 * thread-ordered, inflated to a pooled vector clock once concurrent
 * readers appear. Both representations share one 64-bit word: bit 63
 * (never set in a packed epoch, since SyncClocks caps thread ids at
 * Epoch::kMaxTaggableTid) tags the read-shared state, whose low 32
 * bits index the enclosing ShadowMemory's ClockPool.
 */
struct VarState
{
    /** Read-word tag: set = ClockPool index, clear = raw epoch. */
    static constexpr std::uint64_t kSharedBit = std::uint64_t{1} << 63;

    /** Last write, as an epoch. */
    Epoch w;

    /** Tagged read word: epoch bits, or kSharedBit | pool index. */
    std::uint64_t r_bits = 0;

    /** True while the read side is an inflated vector clock. */
    bool readShared() const { return (r_bits & kSharedBit) != 0; }

    /** Last read epoch. Meaningless while readShared(). */
    Epoch r() const { return Epoch::fromBits(r_bits); }

    /** Collapse/update the read side to epoch @p e. */
    void setRead(Epoch e) { r_bits = e.bits(); }

    /** Pool index of the read vector clock. @pre readShared() */
    std::uint32_t rvcIndex() const
    {
        return static_cast<std::uint32_t>(r_bits);
    }

    /** Inflate the read side to pooled clock @p index. */
    void setReadShared(std::uint32_t index)
    {
        r_bits = kSharedBit | index;
    }

    /** True when no access has ever been recorded. */
    bool untouched() const { return w.empty() && r_bits == 0; }
};

static_assert(sizeof(VarState) == 16,
              "VarState must stay a 16-byte hot record");

/**
 * log2 of the granules per shadow chunk, for the hot VarState table
 * and the cold SiteTable alike: 32 granules, i.e. 256 bytes of address
 * (four simulated lines) at 8-byte granules. Small chunks keep a
 * sparse job's shadow proportional to what it touches: a job whose
 * lines lie far apart pays 512 bytes of VarState per touched chunk,
 * not 8 KiB. The radix directory keeps its 2^20-chunk ceiling (at
 * most 8 MiB of pointers per table); chunks past it, above 256 MiB
 * of address at 8-byte granules, go to the overflow map.
 */
inline constexpr std::uint32_t kShadowChunkBits = 5;

/**
 * Cold per-granule metadata: the static sites of the last write and
 * last read, needed only to attribute race reports. Packed to two
 * 16-bit slots per granule; the rare site id that does not fit (trace
 * replays can carry arbitrary 32-bit sites) spills to an exact
 * overflow map behind a sentinel.
 */
class SiteTable
{
    struct Packed;

  public:
    /** Where the table's chunk pages come from. */
    using Pool = RadixTable<Packed, kShadowChunkBits>::Pool;

    /** @param pool shared chunk pages; null = a private pool */
    explicit SiteTable(Pool *pool = nullptr) : table_(pool) {}

    /** Site for the last write to granule @p g (kInvalidSite if none). */
    SiteId writeSite(std::uint64_t g) const
    {
        const Packed *p = table_.peek(g);
        return p == nullptr ? kInvalidSite : unpack(p->w, big_w_, g);
    }

    /** Site for the last read of granule @p g (kInvalidSite if none). */
    SiteId readSite(std::uint64_t g) const
    {
        const Packed *p = table_.peek(g);
        return p == nullptr ? kInvalidSite : unpack(p->r, big_r_, g);
    }

    void setWriteSite(std::uint64_t g, SiteId site)
    {
        pack(table_.get(g).w, big_w_, g, site);
    }

    void setReadSite(std::uint64_t g, SiteId site)
    {
        pack(table_.get(g).r, big_r_, g, site);
    }

    /** Retire every entry, handing its chunk pages back. */
    void reset()
    {
        table_.reset();
        if (!big_w_.empty())
            big_w_.clear();
        if (!big_r_.empty())
            big_r_.clear();
    }

  private:
    /** "no site recorded" (maps to kInvalidSite). */
    static constexpr std::uint16_t kNone = 0xFFFF;

    /** Sentinel: the exact value lives in the overflow map. */
    static constexpr std::uint16_t kBig = 0xFFFE;

    struct Packed
    {
        std::uint16_t w = kNone;
        std::uint16_t r = kNone;
    };

    using Overflow = std::unordered_map<std::uint64_t, SiteId>;

    static SiteId unpack(std::uint16_t slot, const Overflow &big,
                         std::uint64_t g)
    {
        if (slot == kNone)
            return kInvalidSite;
        if (slot != kBig)
            return slot;
        const auto it = big.find(g);
        return it == big.end() ? kInvalidSite : it->second;
    }

    static void pack(std::uint16_t &slot, Overflow &big,
                     std::uint64_t g, SiteId site)
    {
        if (site < kBig) {
            // Common case, store-avoiding: a sweep re-recording its
            // own site must not dirty the cold line (the rewrite is
            // ~every slow-path access; the dirty eviction is what
            // costs at cache-spilling scale).
            const auto want = static_cast<std::uint16_t>(site);
            if (slot == want)
                return;
            if (slot == kBig)
                big.erase(g);
            slot = want;
            return;
        }
        if (site == kInvalidSite) {
            if (slot == kNone)
                return;
            if (slot == kBig)
                big.erase(g);
            slot = kNone;
            return;
        }
        slot = kBig;
        big[g] = site;
    }

    /** Same chunking as the hot table (kShadowChunkBits). */
    RadixTable<Packed, kShadowChunkBits> table_;

    /** Exact values behind kBig sentinels, write/read separately. */
    Overflow big_w_;
    Overflow big_r_;
};

/**
 * The chunk pages shadows borrow: one pool per table kind. Thread-
 * safe; it must outlive every ShadowMemory built over it.
 */
struct ShadowPool
{
    RadixTable<VarState, kShadowChunkBits>::Pool states;
    SiteTable::Pool sites;

    /** Hot-table chunks held: the most borrowed at once. */
    std::size_t chunks() const { return states.pages(); }

    /** Hot-table chunks on loan now. */
    std::size_t borrowed() const { return states.borrowed(); }
};

/**
 * Lazily materialized shadow memory.
 */
class ShadowMemory
{
  public:
    /**
     * @param granule_shift log2 of the detection granule in bytes
     *        (3 = 8-byte words).
     * @param pool chunk pages to borrow; null = private pools, freed
     *        with this shadow
     */
    explicit ShadowMemory(std::uint32_t granule_shift = 3,
                          ShadowPool *pool = nullptr);

    /** Shadow state for the granule containing @p addr. */
    VarState &state(Addr addr)
    {
        return table_.get(addr >> granule_shift_);
    }

    /**
     * Shadow state if the granule's chunk is materialized, else null.
     * Never allocates.
     */
    const VarState *peek(Addr addr) const
    {
        return table_.peek(addr >> granule_shift_);
    }

    /** Granule-normalized key for @p addr (tests, ground truth). */
    std::uint64_t granule(Addr addr) const
    {
        return addr >> granule_shift_;
    }

    /**
     * Hint the host to pull @p addr's shadow word into cache. Pure
     * performance hint (no allocation, no state change): the
     * simulator issues it before running the cache model so the
     * detector's shadow load overlaps simulation work.
     */
    void prefetch(Addr addr) const
    {
        // Only the hot word: pulling the cold site line here too was
        // measured a net loss — site slots are written only on
        // slow-path transitions, so prefetching them on every access
        // doubles shadow DRAM traffic for a line that mostly goes
        // unused.
        if (const VarState *st = table_.peek(addr >> granule_shift_))
            __builtin_prefetch(st, 1 /* expect write */);
    }

    /** Pool backing the read-shared vector clocks. */
    ClockPool &readClocks() { return pool_; }
    const ClockPool &readClocks() const { return pool_; }

    /** Cold side-table of report-only static sites. */
    SiteTable &sites() { return sites_; }
    const SiteTable &sites() const { return sites_; }

    /** Cold-table site lookups by address (reporting, tests). */
    SiteId writeSite(Addr addr) const
    {
        return sites_.writeSite(addr >> granule_shift_);
    }

    SiteId readSite(Addr addr) const
    {
        return sites_.readSite(addr >> granule_shift_);
    }

    /** Number of live chunks. */
    std::size_t chunks() const { return table_.pages(); }

    /**
     * Chunks the pool holds, live or free. A private pool holds the
     * most any run since construction took.
     */
    std::size_t allocatedChunks() const
    {
        return table_.allocatedPages();
    }

    /** Chunks re-taken from the pool instead of newly carved. */
    std::uint64_t recycledChunks() const
    {
        return table_.recycledPages();
    }

    /** Live chunks bound in the overflow map, not the directory. */
    std::size_t overflowChunks() const { return table_.overflowPages(); }

    /**
     * Retire every chunk, site entry, and pooled clock: the chunk
     * pages go back to their pool in O(chunks), and clock capacity
     * stays parked for the next run.
     */
    void clear()
    {
        table_.reset();
        sites_.reset();
        pool_.reclaimAll();
    }

    /**
     * Re-aim this shadow at a new job: adopt @p granule_shift and
     * retire all state, recycling storage. Used by engines that keep
     * one ShadowMemory alive across runs.
     */
    void prepare(std::uint32_t granule_shift);

    /** Granules per chunk. */
    static constexpr std::uint64_t kChunkGranules =
        std::uint64_t{1} << kShadowChunkBits;

    /** First granule whose chunk lives in the overflow map. */
    static constexpr std::uint64_t kOverflowGranule =
        RadixTable<VarState, kShadowChunkBits>::kMaxDirPages
        << kShadowChunkBits;

  private:
    std::uint32_t granule_shift_;
    RadixTable<VarState, kShadowChunkBits> table_;
    SiteTable sites_;
    ClockPool pool_;
};

} // namespace hdrd::detect

#endif // HDRD_DETECT_SHADOW_HH
