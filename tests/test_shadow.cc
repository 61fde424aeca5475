/**
 * @file
 * Unit tests for the two-level shadow memory.
 */

#include <gtest/gtest.h>

#include "detect/shadow.hh"

using namespace hdrd;
using namespace hdrd::detect;

TEST(Shadow, StartsWithNoChunks)
{
    ShadowMemory shadow;
    EXPECT_EQ(shadow.chunks(), 0u);
    EXPECT_EQ(shadow.peek(0x1000), nullptr);
}

TEST(Shadow, StateMaterializesChunk)
{
    ShadowMemory shadow;
    VarState &st = shadow.state(0x1000);
    EXPECT_TRUE(st.untouched());
    EXPECT_EQ(shadow.chunks(), 1u);
    EXPECT_NE(shadow.peek(0x1000), nullptr);
}

TEST(Shadow, SameGranuleSameState)
{
    ShadowMemory shadow(3);  // 8-byte granules
    VarState &a = shadow.state(0x1000);
    VarState &b = shadow.state(0x1007);
    EXPECT_EQ(&a, &b);
    VarState &c = shadow.state(0x1008);
    EXPECT_NE(&a, &c);
}

TEST(Shadow, GranularityShiftChangesAliasing)
{
    ShadowMemory coarse(6);  // 64-byte granules (cache lines)
    EXPECT_EQ(&coarse.state(0x1000), &coarse.state(0x103F));
    EXPECT_NE(&coarse.state(0x1000), &coarse.state(0x1040));
}

TEST(Shadow, PeekNeverAllocates)
{
    ShadowMemory shadow;
    EXPECT_EQ(shadow.peek(0x5000), nullptr);
    EXPECT_EQ(shadow.chunks(), 0u);
}

TEST(Shadow, WritesPersist)
{
    ShadowMemory shadow;
    shadow.state(0x2000).w = Epoch(3, 9);
    shadow.sites().setWriteSite(shadow.granule(0x2000), 42);
    const VarState *st = shadow.peek(0x2000);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->w, Epoch(3, 9));
    EXPECT_EQ(shadow.writeSite(0x2000), 42u);
    EXPECT_FALSE(st->untouched());
}

TEST(Shadow, DistantAddressesDifferentChunks)
{
    ShadowMemory shadow;
    shadow.state(0x0);
    shadow.state(0x100000);
    EXPECT_EQ(shadow.chunks(), 2u);
}

TEST(Shadow, NeighbouringGranulesShareChunk)
{
    ShadowMemory shadow;
    shadow.state(0x0);
    shadow.state(0x8);
    shadow.state(0x10);
    EXPECT_EQ(shadow.chunks(), 1u);
}

TEST(Shadow, ClearDropsEverything)
{
    ShadowMemory shadow;
    shadow.state(0x1000).w = Epoch(1, 1);
    shadow.clear();
    EXPECT_EQ(shadow.chunks(), 0u);
    EXPECT_EQ(shadow.peek(0x1000), nullptr);
    // Re-materialized state is fresh.
    EXPECT_TRUE(shadow.state(0x1000).untouched());
}

TEST(Shadow, ChunkBoundaryGranules)
{
    // 32 granules per chunk at 8-byte granularity: addresses 0x0
    // and 0xF8 share a chunk, 0x100 starts the next one.
    EXPECT_EQ(ShadowMemory::kChunkGranules, 32u);
    ShadowMemory shadow(3);
    VarState &first = shadow.state(0x0);
    VarState &last = shadow.state(0xF8);
    EXPECT_EQ(shadow.chunks(), 1u);
    EXPECT_EQ(&last - &first, 31);
    VarState &first_next = shadow.state(0x100);
    EXPECT_EQ(shadow.chunks(), 2u);
    EXPECT_NE(&last, &first_next);
    // Straddling byte addresses still map to their own granules.
    EXPECT_EQ(&shadow.state(0xFF), &last);
    // The site table chunks alike: a site set at the boundary's far
    // side does not show on the near side.
    shadow.sites().setWriteSite(shadow.granule(0x100), 7);
    EXPECT_EQ(shadow.writeSite(0x100), 7u);
    EXPECT_EQ(shadow.writeSite(0xF8), kInvalidSite);
}

TEST(Shadow, OverflowMapStartsAt256MiB)
{
    // The directory covers 2^20 chunks of 32 granules: granule 2^25,
    // byte address 256 MiB at 8-byte granules, is the first whose
    // chunk goes to the overflow map.
    EXPECT_EQ(ShadowMemory::kOverflowGranule, std::uint64_t{1} << 25);
    ShadowMemory shadow(3);
    const Addr boundary = ShadowMemory::kOverflowGranule << 3;
    EXPECT_EQ(boundary, Addr{256} << 20);
    shadow.state(boundary - 8).w = Epoch(1, 4);
    EXPECT_EQ(shadow.chunks(), 1u);
    EXPECT_EQ(shadow.overflowChunks(), 0u);
    shadow.state(boundary).w = Epoch(2, 6);
    EXPECT_EQ(shadow.chunks(), 2u);
    EXPECT_EQ(shadow.overflowChunks(), 1u);
    EXPECT_EQ(shadow.peek(boundary - 8)->w, Epoch(1, 4));
    EXPECT_EQ(shadow.peek(boundary)->w, Epoch(2, 6));
    // A coarser granule moves the boundary up in bytes, not granules.
    // Retiring the chunks unbound their overflow entry too.
    shadow.prepare(6);
    EXPECT_EQ(shadow.overflowChunks(), 0u);
    shadow.state((ShadowMemory::kOverflowGranule << 6) - 64);
    EXPECT_EQ(shadow.overflowChunks(), 0u);
    EXPECT_EQ(shadow.chunks(), 1u);
    shadow.state(ShadowMemory::kOverflowGranule << 6);
    EXPECT_EQ(shadow.overflowChunks(), 1u);
    EXPECT_EQ(shadow.chunks(), 2u);
}

TEST(Shadow, HugeSparseAddressIsTracked)
{
    // Top-of-address-space granule: must land in the radix table's
    // overflow path, not fault or alias a low address.
    ShadowMemory shadow;
    constexpr Addr kHuge = 0xFFFFFFFFFFFFFFF8ULL;
    shadow.state(kHuge).w = Epoch(2, 5);
    EXPECT_EQ(shadow.chunks(), 1u);
    const VarState *st = shadow.peek(kHuge);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->w, Epoch(2, 5));
    EXPECT_EQ(shadow.peek(0x1000), nullptr);
    shadow.state(0x1000);
    EXPECT_EQ(shadow.chunks(), 2u);
    EXPECT_NE(&shadow.state(kHuge), &shadow.state(0x1000));
}

TEST(Shadow, PeekNeverAllocatesEvenNearExistingChunks)
{
    ShadowMemory shadow;
    shadow.state(0x1000);
    const std::size_t before = shadow.chunks();
    // Same chunk, different granule: peek may see it (zero state)...
    const VarState *near = shadow.peek(0x1008);
    ASSERT_NE(near, nullptr);
    EXPECT_TRUE(near->untouched());
    // ...but peeks off-chunk never materialize anything.
    EXPECT_EQ(shadow.peek(0x100000), nullptr);
    EXPECT_EQ(shadow.peek(0xFFFFFFFFFFFFFFF8ULL), nullptr);
    EXPECT_EQ(shadow.chunks(), before);
}

TEST(Shadow, PrefetchIsPureHint)
{
    ShadowMemory shadow;
    // Prefetching unmapped granules allocates nothing.
    shadow.prefetch(0x4000);
    shadow.prefetch(0xFFFFFFFFFFFFFFF8ULL);
    EXPECT_EQ(shadow.chunks(), 0u);
    shadow.state(0x4000).w = Epoch(1, 3);
    shadow.prefetch(0x4000);
    EXPECT_EQ(shadow.chunks(), 1u);
    EXPECT_EQ(shadow.peek(0x4000)->w, Epoch(1, 3));
}

TEST(Shadow, UntouchedConsidersAllFields)
{
    VarState st;
    EXPECT_TRUE(st.untouched());
    st.setRead(Epoch(0, 1));
    EXPECT_FALSE(st.untouched());
    VarState st2;
    st2.setReadShared(0);
    EXPECT_FALSE(st2.untouched());
}

TEST(Shadow, VarStateIsSixteenBytes)
{
    // The tentpole invariant: the hot per-granule record is half the
    // old 32-byte layout, so four granules share a host cache line.
    EXPECT_EQ(sizeof(VarState), 16u);
    static_assert(sizeof(VarState) == 16);
}

TEST(Shadow, VarStateEpochBitsRoundTrip)
{
    // Property: for every taggable (tid, clock), storing the epoch in
    // the tagged read word and reading it back is the identity, and
    // the record never looks read-shared — exactly the observable
    // behaviour of the old {Epoch r; VectorClock *rvc=nullptr} pair.
    const ThreadId tids[] = {0, 1, 7, 255, 4096,
                             Epoch::kMaxTaggableTid};
    const ClockValue clocks[] = {1, 2, 0xFFFF, 0xFFFFFFFFull,
                                 (ClockValue{1} << 48) - 1};
    for (ThreadId t : tids) {
        for (ClockValue c : clocks) {
            const Epoch e(t, c);
            VarState st;
            st.setRead(e);
            EXPECT_FALSE(st.readShared());
            EXPECT_EQ(st.r(), e);
            EXPECT_EQ(st.r().tid(), e.tid());
            EXPECT_EQ(st.r().clock(), e.clock());
            // bits() round-trips through fromBits unchanged.
            EXPECT_EQ(Epoch::fromBits(e.bits()), e);
            // A packed taggable epoch never collides with the tag.
            EXPECT_EQ(e.bits() & VarState::kSharedBit, 0u);
        }
    }
}

TEST(Shadow, VarStatePromoteCollapseRoundTrip)
{
    // Property: epoch -> shared(index) -> epoch round-trips behave
    // like the old pointer representation: promotion preserves the
    // pool index exactly, collapse restores a plain epoch read side.
    for (std::uint32_t index : {0u, 1u, 63u, 64u, 0xFFFFu,
                                0xFFFFFFFFu}) {
        VarState st;
        st.setRead(Epoch(3, 17));
        st.setReadShared(index);
        EXPECT_TRUE(st.readShared());
        EXPECT_EQ(st.rvcIndex(), index);
        EXPECT_FALSE(st.untouched());
        st.setRead(Epoch(5, 9));  // write-collapse
        EXPECT_FALSE(st.readShared());
        EXPECT_EQ(st.r(), Epoch(5, 9));
    }
}

TEST(Shadow, SharedIndexNeverLooksLikeMyEpoch)
{
    // The onRead fast path is a single compare of r_bits against the
    // accessor's packed epoch; a shared record must never match it.
    VarState st;
    for (std::uint32_t index : {0u, 1u, 0xFFFFFFFFu}) {
        st.setReadShared(index);
        for (ThreadId t : {ThreadId{0}, ThreadId{1},
                           Epoch::kMaxTaggableTid}) {
            EXPECT_NE(st.r_bits, Epoch(t, 1).bits());
            EXPECT_NE(st.r_bits, Epoch(t, index).bits());
        }
    }
}

TEST(Shadow, SiteTableStoresAndClearsSites)
{
    SiteTable sites;
    EXPECT_EQ(sites.writeSite(7), kInvalidSite);
    EXPECT_EQ(sites.readSite(7), kInvalidSite);
    sites.setWriteSite(7, 11);
    sites.setReadSite(7, 22);
    EXPECT_EQ(sites.writeSite(7), 11u);
    EXPECT_EQ(sites.readSite(7), 22u);
    // Write and read slots are independent.
    sites.setReadSite(7, kInvalidSite);
    EXPECT_EQ(sites.writeSite(7), 11u);
    EXPECT_EQ(sites.readSite(7), kInvalidSite);
    sites.reset();
    EXPECT_EQ(sites.writeSite(7), kInvalidSite);
}

TEST(Shadow, SiteTableOverflowSitesExact)
{
    // Site ids beyond the packed 16-bit range (trace replays carry
    // arbitrary 32-bit sites) must come back exact, not truncated.
    SiteTable sites;
    const SiteId big_w = 0x12345678u;
    const SiteId big_r = 0xFFFFFFF0u;
    sites.setWriteSite(3, big_w);
    sites.setReadSite(3, big_r);
    EXPECT_EQ(sites.writeSite(3), big_w);
    EXPECT_EQ(sites.readSite(3), big_r);
    // The packed sentinels themselves round-trip through overflow.
    sites.setWriteSite(4, 0xFFFE);
    EXPECT_EQ(sites.writeSite(4), 0xFFFEu);
    // Overwriting a big site with a small one drops the spill.
    sites.setWriteSite(3, 5);
    EXPECT_EQ(sites.writeSite(3), 5u);
    // Distinct granules with the same key parity stay separate.
    sites.setWriteSite(0x8000000000000001ull, big_w);
    sites.setReadSite(0x8000000000000001ull, big_r);
    EXPECT_EQ(sites.writeSite(0x8000000000000001ull), big_w);
    EXPECT_EQ(sites.readSite(0x8000000000000001ull), big_r);
}

TEST(Shadow, ClearDropsSites)
{
    ShadowMemory shadow;
    shadow.sites().setWriteSite(shadow.granule(0x3000), 9);
    shadow.clear();
    EXPECT_EQ(shadow.writeSite(0x3000), kInvalidSite);
}

TEST(ShadowDeath, HugeGranuleShiftPanics)
{
    EXPECT_DEATH(ShadowMemory(40), "granule shift");
}
