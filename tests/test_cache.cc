/**
 * @file
 * Unit tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/cache.hh"

using namespace hdrd;
using namespace hdrd::mem;

namespace
{

CacheGeometry
smallGeometry()
{
    // 2 sets x 2 ways x 64B lines = 256 bytes.
    return CacheGeometry{.size_bytes = 256, .assoc = 2,
                         .line_bytes = 64};
}

/** Every eviction a cache made, as (line address, state). */
using Victims = std::vector<std::pair<Addr, Mesi>>;

/**
 * Drive @p c with @p n seeded accesses over 32 lines: a hit touches
 * the line, a miss inserts it (state from the seed). Returns every
 * victim in order, so two caches can be compared access by access.
 */
Victims
drive(Cache &c, std::uint64_t seed, int n)
{
    Victims victims;
    std::uint64_t x = seed;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Addr addr = ((x >> 33) % 32) * 64;
        if (CacheLine *line = c.probe(addr)) {
            c.touchLine(line);
            continue;
        }
        const Mesi state = ((x >> 20) & 1) ? Mesi::kModified
                                           : Mesi::kShared;
        if (const auto ev = c.insert(addr, state))
            victims.emplace_back(ev->line_addr, ev->state);
    }
    return victims;
}

std::vector<std::pair<Addr, Mesi>>
sortedEntries(const Cache &c)
{
    auto entries = c.residentEntries();
    std::sort(entries.begin(), entries.end());
    return entries;
}

/** 4 sets x 4 ways: 32 lines over 16 ways keeps evicting. */
const CacheGeometry kDriveGeometry{.size_bytes = 1024, .assoc = 4,
                                   .line_bytes = 64};

} // namespace

TEST(CacheGeometry, SetsComputed)
{
    EXPECT_EQ(smallGeometry().sets(), 2u);
    CacheGeometry big{.size_bytes = 32 * 1024, .assoc = 8,
                      .line_bytes = 64};
    EXPECT_EQ(big.sets(), 64u);
}

TEST(CacheGeometryDeath, RejectsNonPowerOfTwoLine)
{
    CacheGeometry g{.size_bytes = 256, .assoc = 2, .line_bytes = 48};
    EXPECT_EXIT(g.validate("t"), ::testing::ExitedWithCode(1),
                "line_bytes");
}

TEST(CacheGeometryDeath, RejectsZeroAssoc)
{
    CacheGeometry g{.size_bytes = 256, .assoc = 0, .line_bytes = 64};
    EXPECT_EXIT(g.validate("t"), ::testing::ExitedWithCode(1),
                "assoc");
}

TEST(CacheGeometryDeath, RejectsIndivisibleSize)
{
    CacheGeometry g{.size_bytes = 200, .assoc = 2, .line_bytes = 64};
    EXPECT_EXIT(g.validate("t"), ::testing::ExitedWithCode(1),
                "size_bytes");
}

TEST(Cache, LineAddrMasksLowBits)
{
    Cache c(smallGeometry());
    EXPECT_EQ(c.lineAddr(0x1234), 0x1200u);
    EXPECT_EQ(c.lineAddr(0x1200), 0x1200u);
    EXPECT_EQ(c.lineAddr(0x123F), 0x1200u);
}

TEST(Cache, MissThenHit)
{
    Cache c(smallGeometry());
    EXPECT_EQ(c.probe(0x1000), nullptr);
    c.insert(0x1000, Mesi::kExclusive);
    ASSERT_NE(c.probe(0x1000), nullptr);
    EXPECT_EQ(c.probe(0x1000)->state, Mesi::kExclusive);
    // Any address within the line hits.
    EXPECT_NE(c.probe(0x1038), nullptr);
}

TEST(Cache, InsertIntoEmptyWayNoEviction)
{
    Cache c(smallGeometry());
    EXPECT_FALSE(c.insert(0x0000, Mesi::kShared).has_value());
    // Same set (set index of 0x0000 and 0x0080 differ though) —
    // 64B lines, 2 sets: set = (addr>>6)&1. 0x0000 -> set 0,
    // 0x0080 -> set 0 (bit 6 = 0b10 -> (0x80>>6)=2 &1 = 0). Yes set 0.
    EXPECT_FALSE(c.insert(0x0080, Mesi::kShared).has_value());
}

TEST(Cache, LruEviction)
{
    Cache c(smallGeometry());
    // Set 0 holds lines 0x000, 0x080, 0x100, ... (every 128 bytes).
    c.insert(0x000, Mesi::kShared);
    c.insert(0x080, Mesi::kModified);
    // Touch 0x000 so 0x080 becomes LRU.
    c.touch(0x000);
    const auto evicted = c.insert(0x100, Mesi::kExclusive);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line_addr, 0x080u);
    EXPECT_EQ(evicted->state, Mesi::kModified);
    EXPECT_NE(c.probe(0x000), nullptr);
    EXPECT_EQ(c.probe(0x080), nullptr);
}

TEST(Cache, InsertPrefersEmptyWayOverEviction)
{
    Cache c(smallGeometry());
    c.insert(0x000, Mesi::kShared);
    c.invalidate(0x000);
    c.insert(0x080, Mesi::kShared);
    // One way empty (the invalidated one): no eviction.
    EXPECT_FALSE(c.insert(0x100, Mesi::kShared).has_value());
}

TEST(Cache, InvalidateMissingIsNoop)
{
    Cache c(smallGeometry());
    c.invalidate(0xdead00);
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(Cache, ResidentLinesAndFlush)
{
    Cache c(smallGeometry());
    c.insert(0x000, Mesi::kShared);
    c.insert(0x040, Mesi::kShared);  // set 1
    EXPECT_EQ(c.residentLines(), 2u);
    c.flush();
    EXPECT_EQ(c.residentLines(), 0u);
    EXPECT_EQ(c.probe(0x000), nullptr);
}

TEST(Cache, ResidentEntriesSnapshot)
{
    Cache c(smallGeometry());
    c.insert(0x000, Mesi::kModified);
    c.insert(0x040, Mesi::kShared);
    auto entries = c.residentEntries();
    ASSERT_EQ(entries.size(), 2u);
    bool saw_m = false, saw_s = false;
    for (const auto &[addr, state] : entries) {
        saw_m |= addr == 0x000 && state == Mesi::kModified;
        saw_s |= addr == 0x040 && state == Mesi::kShared;
    }
    EXPECT_TRUE(saw_m);
    EXPECT_TRUE(saw_s);
}

TEST(CacheDeath, TouchMissingPanics)
{
    Cache c(smallGeometry());
    EXPECT_DEATH(c.touch(0x1000), "touch");
}

TEST(CacheDeath, DoubleInsertPanics)
{
    Cache c(smallGeometry());
    c.insert(0x000, Mesi::kShared);
    EXPECT_DEATH(c.insert(0x000, Mesi::kShared), "already-present");
}

TEST(Cache, MesiNames)
{
    EXPECT_STREQ(mesiName(Mesi::kInvalid), "I");
    EXPECT_STREQ(mesiName(Mesi::kShared), "S");
    EXPECT_STREQ(mesiName(Mesi::kExclusive), "E");
    EXPECT_STREQ(mesiName(Mesi::kModified), "M");
}

TEST(Cache, ManyDistinctSetsNoInterference)
{
    CacheGeometry g{.size_bytes = 8192, .assoc = 2, .line_bytes = 64};
    Cache c(g);
    // 64 sets; fill one line in each.
    for (Addr a = 0; a < 64 * 64; a += 64)
        EXPECT_FALSE(c.insert(a, Mesi::kShared).has_value());
    EXPECT_EQ(c.residentLines(), 64u);
    for (Addr a = 0; a < 64 * 64; a += 64)
        EXPECT_NE(c.probe(a), nullptr);
}

TEST(Cache, FlushedCacheReadsEmptyAndRefillsLikeAFreshOne)
{
    Cache used(kDriveGeometry);
    ASSERT_FALSE(drive(used, 1, 500).empty());
    ASSERT_EQ(used.residentLines(), 16u);
    used.flush();

    // Empty everywhere: no line probes, counts or lists.
    EXPECT_EQ(used.residentLines(), 0u);
    EXPECT_TRUE(used.residentEntries().empty());
    for (Addr a = 0; a < 32 * 64; a += 64)
        EXPECT_EQ(used.probe(a), nullptr) << a;

    // Refilled, it evicts exactly what a fresh cache evicts and ends
    // holding the same lines in the same states.
    Cache fresh(kDriveGeometry);
    EXPECT_EQ(drive(used, 2, 500), drive(fresh, 2, 500));
    EXPECT_EQ(sortedEntries(used), sortedEntries(fresh));

    // A half-refilled cache flushed again is empty again, including
    // the sets the refill had already cleared.
    used.flush();
    fresh = Cache(kDriveGeometry);
    EXPECT_EQ(drive(used, 3, 7), drive(fresh, 3, 7));
    used.flush();
    EXPECT_EQ(used.residentLines(), 0u);
    fresh = Cache(kDriveGeometry);
    EXPECT_EQ(drive(used, 4, 300), drive(fresh, 4, 300));
    EXPECT_EQ(sortedEntries(used), sortedEntries(fresh));
}

TEST(Cache, LruClockWrapKeepsEveryVictim)
{
    // The 32-bit LRU clock renormalises each set's stamps before it
    // wraps; victims must be the ones an unwrapped clock picks.
    Cache plain(kDriveGeometry);
    Cache wrapped(kDriveGeometry);
    EXPECT_EQ(drive(plain, 5, 40), drive(wrapped, 5, 40));
    wrapped.skipLruTicks(~std::uint32_t{0});  // saturates at the wrap
    EXPECT_EQ(drive(plain, 6, 1000), drive(wrapped, 6, 1000));
    EXPECT_EQ(sortedEntries(plain), sortedEntries(wrapped));

    // Wrapping again, from a clock restarted by the first wrap.
    wrapped.skipLruTicks(~std::uint32_t{0} - 100);
    EXPECT_EQ(drive(plain, 7, 1000), drive(wrapped, 7, 1000));
    EXPECT_EQ(sortedEntries(plain), sortedEntries(wrapped));
}

TEST(Cache, EvictionCarriesTheVictimsTagAndLink)
{
    Cache c(smallGeometry());
    c.insertLine(0x000, Mesi::kModified)->link = 7;
    c.insertLine(0x080, Mesi::kShared)->link = 9;
    c.touch(0x080);
    const auto evicted = c.insert(0x100, Mesi::kShared);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line_addr, 0x000u);
    EXPECT_EQ(evicted->state, Mesi::kModified);
    EXPECT_EQ(evicted->link, 7u);
    const CacheLine *line = c.probe(0x100);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(c.lineAddrAt(c.slotOf(line)), 0x100u);
}
