/**
 * @file
 * The simulated three-level cache hierarchy and its MESI protocol.
 *
 * This is the substrate that makes the paper's hardware sharing
 * indicator exist: when a core's demand access finds the line Modified
 * in another core's private cache, the transfer is a "HITM". Loads
 * that HITM are what the modelled PEBS event counts — stores that HITM
 * are protocol-visible but *not* PMU-visible, reproducing the paper's
 * W->R-only observability.
 */

#ifndef HDRD_MEM_HIERARCHY_HH
#define HDRD_MEM_HIERARCHY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"

namespace hdrd::mem
{

/** Access latencies in cycles for each service point. */
struct LatencyModel
{
    Cycle l1_hit = 2;
    Cycle l2_hit = 10;
    Cycle l3_hit = 35;
    Cycle memory = 200;

    /** Modified-line cache-to-cache transfer (the HITM path). */
    Cycle hitm_transfer = 70;

    /** S->M upgrade (invalidation round-trip). */
    Cycle upgrade = 40;

    bool operator==(const LatencyModel &) const = default;
};

/** Where an access was ultimately serviced from. */
enum class HitWhere : std::uint8_t
{
    kL1 = 0,
    kL2,
    kL3,
    kRemoteCache,  ///< cache-to-cache from another core's private cache
    kMemory,
};

/** Printable name for a HitWhere. */
const char *hitWhereName(HitWhere where);

/** Everything a single access did to the hierarchy. */
struct AccessResult
{
    HitWhere where = HitWhere::kL1;

    /** The access was a store. */
    bool write = false;

    /** Protocol-level HITM: data came from a remote Modified line. */
    bool hitm = false;

    /**
     * PMU-visible HITM: a *load* that hit a remote Modified line.
     * This is the event the demand-driven detector samples on.
     */
    bool hitm_load = false;

    /** Remote copies invalidated by this access. */
    std::uint32_t invalidations = 0;

    /** The access was an S->M upgrade of a locally resident line. */
    bool upgrade = false;

    /** A Modified line was written back out of a private L2. */
    bool private_writeback = false;

    /** Service latency in cycles. */
    Cycle latency = 0;
};

/** Configuration for the whole hierarchy. */
struct HierarchyConfig
{
    std::uint32_t ncores = 4;
    CacheGeometry l1{.size_bytes = 32 * 1024, .assoc = 8,
                     .line_bytes = 64};
    CacheGeometry l2{.size_bytes = 256 * 1024, .assoc = 8,
                     .line_bytes = 64};
    CacheGeometry l3{.size_bytes = 8 * 1024 * 1024, .assoc = 16,
                     .line_bytes = 64};
    LatencyModel latency;

    bool operator==(const HierarchyConfig &) const = default;
};

/**
 * Three-level MESI hierarchy: private L1+L2 per core, shared inclusive
 * L3, flat memory behind it.
 *
 * Tags-only simulation: no data is stored, only coherence metadata.
 * The single public entry point is access(); everything else exists
 * for tests and statistics.
 *
 * The L3 keeps the presence directory, as the inclusive L3 of the
 * paper's Nehalem platform does in its tags: with <= 32 cores every
 * L3 way carries a 2-bit MESI field per core, mirroring that core's
 * L2 state. A private miss reads the owner and holders from the L3
 * way it probes anyway, and an L3 eviction back-invalidates only the
 * cores those bits name. Larger configurations sweep every core's L2.
 *
 * A hierarchy is reusable: reset() returns it to its freshly built
 * state in O(ncores), so an engine keeps one across runs.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config);

    /**
     * Perform one demand access.
     *
     * Lives in the header so the simulator's per-op loop inlines the
     * (dominant) private-cache hit path; misses tail-call out of line
     * into serviceMiss().
     *
     * @param core requesting core
     * @param addr byte address
     * @param write true for a store, false for a load
     * @return what happened (service point, HITM, latency, ...)
     */
    /**
     * Pure host-side hint: start pulling the private tag sets
     * @p core will scan when it next accesses @p addr. No simulated
     * state changes; safe to call speculatively.
     */
    void prefetchAccess(CoreId core, Addr addr) const
    {
        privates_.prefetchSets(core, l3_.lineAddr(addr));
    }

    AccessResult access(CoreId core, Addr addr, bool write)
    {
        hdrdAssert(core < config_.ncores,
                   "access from unknown core ", core);
        const Addr line = l3_.lineAddr(addr);
        const LatencyModel &lat = config_.latency;

        *c_accesses_ += 1;
        if (write)
            *c_writes_ += 1;

        // Probe L1 first: a hit reaches the backing L2 line through
        // the slot link recorded at fill time, so the (dominant)
        // L1-hit path scans one tag array instead of two. Probe
        // order is invisible — probes have no side effects, and
        // inclusion means an L1 hit implies the L2 copy the old
        // L2-first probe would have found.
        // Pull the L2 tag set while the L1 probe runs: the workloads'
        // L1 miss rates make the L2 scan the common next step, and on
        // an L1 hit the slot link lands in the same set anyway.
        privates_.prefetchL2Set(core, line);
        CacheLine *l1_line = privates_.probeL1(core, line);
        CacheLine *l2_line = l1_line != nullptr
            ? privates_.l2LineOf(core, line, l1_line)
            : privates_.probeL2(core, line);
        if (l2_line != nullptr) {
            AccessResult result;
            result.write = write;
            const bool in_l1 = l1_line != nullptr;
            result.where = in_l1 ? HitWhere::kL1 : HitWhere::kL2;
            result.latency = in_l1 ? lat.l1_hit : lat.l2_hit;
            *(in_l1 ? c_l1_hits_ : c_l2_hits_) += 1;
            if (in_l1)
                privates_.touchLines(core, l1_line, l2_line);

            if (write && l2_line->state != Mesi::kModified)
                upgradeForWrite(core, line, l1_line, l2_line, result);
            // Fill after any upgrade so the L1 copy lands with the
            // final state (identical to fill-then-upgrade).
            if (!in_l1)
                privates_.fillL1From(core, line, l2_line);
            return result;
        }

        AccessResult result = serviceMiss(core, line, write);
        result.write = write;
        return result;
    }

    /** Line address for a byte address. */
    Addr lineAddr(Addr addr) const;

    /** MESI state of @p addr's line in @p core's private caches. */
    Mesi privateState(CoreId core, Addr addr) const;

    /** True when @p addr's line is resident in the shared L3. */
    bool inL3(Addr addr) const;

    /** Configuration in force. */
    const HierarchyConfig &config() const { return config_; }

    /** Statistics group ("mem"). */
    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

    /**
     * Distribution of per-access service latencies, built from the
     * per-service-point counts: every access at one service point
     * has the same latency, and a histogram's buckets, sum, min and
     * max do not depend on the order of its samples.
     */
    Log2Histogram latencyHistogram() const;

    /**
     * Check global MESI invariants, including the L3 presence bits
     * against every core's L2 state; panics on violation (tests).
     */
    void checkInvariants() const;

    /**
     * Return to the state of a freshly built hierarchy: no cached
     * line, every counter zero. O(ncores).
     */
    void reset();

  private:
    /** Service a private-hierarchy miss; fills privates on return. */
    AccessResult serviceMiss(CoreId core, Addr line_addr, bool write);

    /** Hit-path write upgrade (E->M silent, S->M invalidating). */
    void upgradeForWrite(CoreId core, Addr line, CacheLine *l1_line,
                         CacheLine *l2_line, AccessResult &result);

    /**
     * Insert into L3, back-invalidating the victim's private copies.
     * @return the new L3 line, its presence bits all clear.
     */
    CacheLine *insertL3(Addr line_addr);

    /**
     * Owner and remote holders of @p line, which sits in L3 slot
     * @p l3_slot: fills holders_scratch_ (every holder but
     * @p except, ascending core id) and returns the first Modified
     * owner, if any. Decodes the slot's presence bits, or sweeps the
     * L2s when the hierarchy has none.
     */
    std::optional<CoreId> snapshotRemote(std::uint32_t l3_slot,
                                         Addr line, CoreId except);

    /** Record @p core's L2 state for the line in L3 slot @p l3_slot. */
    void setPresence(std::uint32_t l3_slot, CoreId core, Mesi state)
    {
        if (presence_.empty())
            return;
        std::uint64_t &word = presence_[l3_slot];
        const auto shift = static_cast<std::uint32_t>(core) * 2;
        word = (word & ~(std::uint64_t{3} << shift))
            | (static_cast<std::uint64_t>(state) << shift);
    }

    HierarchyConfig config_;
    PrivateCaches privates_;
    Cache l3_;
    StatGroup stats_;

    /** Most cores the presence bits cover (2 bits each in a u64). */
    static constexpr std::uint32_t kMaxPresenceCores = 32;

    /**
     * The L3's presence directory, one word per L3 way (indexed by
     * slot, parallel to the L3's way array): core c's MESI state for
     * the way's line at bits [2c, 2c+1]. Written whenever an L3 way
     * is filled, so a stale word is never read. Empty when ncores >
     * kMaxPresenceCores.
     */
    std::vector<std::uint64_t> presence_;

    // Counter cells fetched once at construction: the access path
    // bumps through pointers instead of name lookups.
    std::uint64_t *c_accesses_;
    std::uint64_t *c_writes_;
    std::uint64_t *c_l1_hits_;
    std::uint64_t *c_l2_hits_;
    std::uint64_t *c_l3_hits_;
    std::uint64_t *c_upgrades_;
    std::uint64_t *c_l1_upgrades_;
    std::uint64_t *c_invalidations_;
    std::uint64_t *c_hitm_transfers_;
    std::uint64_t *c_hitm_loads_;
    std::uint64_t *c_mem_fetches_;
    std::uint64_t *c_l2_evictions_;
    std::uint64_t *c_private_writebacks_;
    std::uint64_t *c_l3_evictions_;
    std::uint64_t *c_back_invalidations_;

    /** Reused remote-holder buffer (no per-access allocation). */
    std::vector<CoreId> holders_scratch_;
};

} // namespace hdrd::mem

#endif // HDRD_MEM_HIERARCHY_HH
