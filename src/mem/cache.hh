/**
 * @file
 * A set-associative tag array with true-LRU replacement.
 *
 * Cache stores coherence metadata only; it is policy-free with respect
 * to MESI — the Hierarchy drives all state transitions and inclusion
 * maintenance, Cache just answers probe/insert/evict questions.
 */

#ifndef HDRD_MEM_CACHE_HH
#define HDRD_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/cache_line.hh"

namespace hdrd::mem
{

/** Geometry of one cache level. */
struct CacheGeometry
{
    /** Total capacity in bytes. */
    std::uint64_t size_bytes = 32 * 1024;

    /** Ways per set. */
    std::uint32_t assoc = 8;

    /** Line size in bytes (must match across the hierarchy). */
    std::uint32_t line_bytes = 64;

    /** Number of sets implied by the geometry. */
    std::uint64_t sets() const;

    /** Validate invariants (powers of two, capacity >= one set). */
    void validate(const char *what) const;

    bool operator==(const CacheGeometry &) const = default;
};

/** Result of inserting a line: the victim, if a valid line was evicted. */
struct Eviction
{
    /** Line address (addr >> line bits << line bits) of the victim. */
    Addr line_addr = 0;

    /** Victim's coherence state at eviction time. */
    Mesi state = Mesi::kInvalid;

    /** Victim's outward slot link (CacheLine::link) at eviction. */
    std::uint32_t link = 0;
};

/**
 * Set-associative, true-LRU tag array.
 *
 * flush() is O(1): it advances the cache's generation, and a set whose
 * stamp is older reads as empty everywhere (probe, residentLines,
 * residentEntries) and is cleared when it is first filled. So a kept
 * cache pays for clearing only the sets the next run touches, and a
 * flushed cache then behaves exactly like a freshly built one.
 */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geom, const char *name = "cache");

    /** Line address (low bits cleared) for a byte address. */
    Addr lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(geom_.line_bytes - 1);
    }

    /**
     * Find the line holding @p addr.
     * @return pointer into the set (stable until next insert), or
     *         nullptr on miss. Does not update LRU.
     *
     * The scan runs over the packed tag array — geom.assoc
     * contiguous u64s (one host cache line at 8-way) instead of
     * strided CacheLine structs — and only reads the set's
     * generation stamp and the way array on a tag match.
     */
    CacheLine *probe(Addr addr)
    {
        const std::uint64_t tag = addr >> line_shift_;
        const std::uint64_t set = setIndex(addr);
        const std::size_t base = static_cast<std::size_t>(set) * geom_.assoc;
        const std::uint64_t *tags = &tags_[base];
        for (std::uint32_t w = 0; w < geom_.assoc; ++w) {
            if (tags[w] == tag)
                return set_gen_[set] == gen_ ? &ways_[base + w] : nullptr;
        }
        return nullptr;
    }

    const CacheLine *probe(Addr addr) const
    {
        return const_cast<Cache *>(this)->probe(addr);
    }

    /**
     * Hint the host to pull @p addr's packed tag set into cache
     * ahead of a probe/insert. Pure performance hint.
     */
    void prefetchSet(Addr addr) const
    {
        __builtin_prefetch(
            &tags_[static_cast<std::size_t>(setIndex(addr))
                   * geom_.assoc]);
    }

    /** Mark the line holding @p addr most-recently-used. @pre hit. */
    void touch(Addr addr)
    {
        CacheLine *line = probe(addr);
        hdrdAssert(line != nullptr, "Cache::touch on a missing line");
        touchLine(line);
    }

    /** Mark an already-probed line most-recently-used. */
    void touchLine(CacheLine *line) { line->lru = tick(); }

    /**
     * Insert @p addr with state @p state, evicting the LRU victim if
     * the set is full. @pre addr is not already present.
     * @return the evicted valid line, if any.
     */
    std::optional<Eviction> insert(Addr addr, Mesi state)
    {
        std::optional<Eviction> evicted;
        insertLine(addr, state, &evicted);
        return evicted;
    }

    /**
     * insert() that also hands back the just-filled line, so callers
     * wiring up a slot link avoid a re-probe. @p evicted (optional)
     * receives the victim.
     */
    CacheLine *insertLine(Addr addr, Mesi state,
                          std::optional<Eviction> *evicted = nullptr)
    {
        hdrdAssert(state != Mesi::kInvalid,
                   "Cache::insert with Invalid state");
        const std::uint64_t tag = addr >> line_shift_;
        const std::uint64_t set_idx = setIndex(addr);
        const std::size_t base =
            static_cast<std::size_t>(set_idx) * geom_.assoc;
        CacheLine *set = &ways_[base];
        std::uint64_t *tags = &tags_[base];
        if (set_gen_[set_idx] != gen_) {
            // First fill since a flush: the set's ways are from an
            // older generation; clear them here, where the host
            // already has the set's lines in cache.
            for (std::uint32_t w = 0; w < geom_.assoc; ++w) {
                tags[w] = kInvalidTag;
                set[w].state = Mesi::kInvalid;
            }
            set_gen_[set_idx] = gen_;
        }

        // One scan does triple duty: assert the line is absent, find
        // the first empty way, and track the true-LRU victim among
        // the valid ways. Victim choice matches the classic two-pass
        // form: prefer the first empty way, else the lowest-lru line
        // (earliest index on ties, since the compare is strict).
        std::uint32_t empty = geom_.assoc;
        std::uint32_t lru = geom_.assoc;
        for (std::uint32_t w = 0; w < geom_.assoc; ++w) {
            if (tags[w] == kInvalidTag) {
                if (empty == geom_.assoc)
                    empty = w;
                continue;
            }
            hdrdAssert(tags[w] != tag,
                       "Cache::insert on an already-present line");
            if (lru == geom_.assoc || set[w].lru < set[lru].lru)
                lru = w;
        }

        const std::uint32_t w = empty != geom_.assoc ? empty : lru;
        CacheLine *victim = &set[w];
        if (empty == geom_.assoc && evicted != nullptr) {
            *evicted = Eviction{
                .line_addr = tags[w] << line_shift_,
                .state = victim->state,
                .link = victim->link,
            };
        }
        tags[w] = tag;
        victim->state = state;
        victim->lru = tick();
        return victim;
    }

    /** Way-array slot of an already-probed line (slot links). */
    std::uint32_t slotOf(const CacheLine *line) const
    {
        return static_cast<std::uint32_t>(line - ways_.data());
    }

    /** Line at a slot previously returned by slotOf(). */
    CacheLine *lineAt(std::uint32_t slot) { return &ways_[slot]; }

    /** Line address held by a resident line's slot. */
    Addr lineAddrAt(std::uint32_t slot) const
    {
        return tags_[slot] << line_shift_;
    }

    /** Drop the line holding @p addr, if present. */
    void invalidate(Addr addr)
    {
        if (CacheLine *line = probe(addr))
            invalidateLine(line);
    }

    /**
     * Drop an already-probed line. All invalidation funnels through
     * here so the packed tag array stays in sync with way states.
     */
    void invalidateLine(CacheLine *line)
    {
        line->state = Mesi::kInvalid;
        tags_[line - ways_.data()] = kInvalidTag;
    }

    /** Number of valid lines currently resident. */
    std::uint64_t residentLines() const;

    /** Snapshot of all resident lines as (line address, state). */
    std::vector<std::pair<Addr, Mesi>> residentEntries() const;

    /** Geometry this cache was built with. */
    const CacheGeometry &geometry() const { return geom_; }

    /** Total ways (sets x assoc): the range of slotOf(). */
    std::size_t slots() const { return ways_.size(); }

    /** Remove all lines, in O(1) (see the class comment). */
    void flush();

    /**
     * Testing hook: advance the LRU clock by @p n ticks without
     * touching a line, so a test can cross the 32-bit wrap without
     * 2^32 accesses. Ticks only move forward, so every resident
     * stamp stays older than the next one handed out.
     */
    void skipLruTicks(std::uint32_t n);

  private:
    std::uint64_t setIndex(Addr addr) const
    {
        return (addr >> line_shift_) & (sets_ - 1);
    }

    /** Next LRU stamp, renormalising first when the clock is full. */
    std::uint32_t tick()
    {
        if (lru_tick_ == kMaxTick) [[unlikely]]
            renormaliseLru();
        return ++lru_tick_;
    }

    /**
     * Rewrite each live set's valid stamps as 1..k in their current
     * order and restart the clock above them. Victim choice compares
     * stamps within one set only, so every later victim is unchanged.
     */
    void renormaliseLru();

    /** True when @p set's ways belong to the current generation. */
    bool live(std::uint64_t set) const { return set_gen_[set] == gen_; }

    CacheGeometry geom_;
    std::uint64_t sets_;
    std::uint32_t line_shift_;
    std::vector<CacheLine> ways_;  // sets_ * assoc, row-major by set

    /**
     * Packed tag array, parallel to ways_ and the only copy of each
     * tag: tags_[i] is way i's line tag (addr >> line bits) when the
     * way is valid, kInvalidTag otherwise. probe() scans this dense
     * array instead of the strided CacheLine structs. kInvalidTag
     * cannot collide with a real tag: tags carry at most 64 -
     * line-shift significant bits.
     */
    std::vector<std::uint64_t> tags_;
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    /**
     * Per-set generation stamps: a set is live when its stamp equals
     * gen_. 64 bits, so flushes never wrap it.
     */
    std::vector<std::uint64_t> set_gen_;
    std::uint64_t gen_ = 0;

    static constexpr std::uint32_t kMaxTick = ~std::uint32_t{0};
    std::uint32_t lru_tick_ = 0;
};

} // namespace hdrd::mem

#endif // HDRD_MEM_CACHE_HH
