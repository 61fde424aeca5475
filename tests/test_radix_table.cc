/**
 * @file
 * Unit tests for the two-level radix page table.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/radix_table.hh"

using namespace hdrd;

namespace
{

/** Small geometry so tests cross page and directory bounds cheaply. */
using SmallTable = RadixTable<std::uint64_t, /*kPageBits=*/4,
                              /*kMaxDirBits=*/6>;

} // namespace

TEST(RadixTable, StartsEmpty)
{
    SmallTable t;
    EXPECT_EQ(t.pages(), 0u);
    EXPECT_EQ(t.peek(0), nullptr);
    EXPECT_EQ(t.peek(123), nullptr);
}

TEST(RadixTable, GetValueInitializesSlot)
{
    SmallTable t;
    EXPECT_EQ(t.get(7), 0u);
    EXPECT_EQ(t.pages(), 1u);
}

TEST(RadixTable, GetIsStableAndWritable)
{
    SmallTable t;
    t.get(3) = 42;
    EXPECT_EQ(t.get(3), 42u);
    const std::uint64_t *p = t.peek(3);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 42u);
}

TEST(RadixTable, SamePageSharesOnePage)
{
    SmallTable t;
    // kPageBits=4: keys 0..15 share page 0.
    for (std::uint64_t k = 0; k < SmallTable::kPageSize; ++k)
        t.get(k) = k;
    EXPECT_EQ(t.pages(), 1u);
    for (std::uint64_t k = 0; k < SmallTable::kPageSize; ++k)
        EXPECT_EQ(t.get(k), k);
}

TEST(RadixTable, PageBoundaryMaterializesNewPage)
{
    SmallTable t;
    t.get(SmallTable::kPageSize - 1) = 1;  // last slot of page 0
    EXPECT_EQ(t.pages(), 1u);
    t.get(SmallTable::kPageSize) = 2;      // first slot of page 1
    EXPECT_EQ(t.pages(), 2u);
    EXPECT_EQ(t.get(SmallTable::kPageSize - 1), 1u);
    EXPECT_EQ(t.get(SmallTable::kPageSize), 2u);
}

TEST(RadixTable, PeekNeverAllocates)
{
    SmallTable t;
    t.get(0) = 9;
    const std::size_t before = t.pages();
    EXPECT_EQ(t.peek(SmallTable::kPageSize * 5), nullptr);
    EXPECT_EQ(t.peek(~std::uint64_t{0}), nullptr);
    EXPECT_EQ(t.pages(), before);
}

TEST(RadixTable, PeekSeesUntouchedSlotOnMaterializedPage)
{
    SmallTable t;
    t.get(0) = 9;
    // Key 1 shares page 0: the page exists, the slot is zero.
    const std::uint64_t *p = t.peek(1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 0u);
}

TEST(RadixTable, ReferencesSurviveLaterInserts)
{
    SmallTable t;
    std::uint64_t &first = t.get(2);
    first = 77;
    // Force directory growth and many new pages.
    for (std::uint64_t p = 1; p < 40; ++p)
        t.get(p * SmallTable::kPageSize) = p;
    EXPECT_EQ(first, 77u);
    EXPECT_EQ(&first, &t.get(2));
}

TEST(RadixTable, HugeKeysSpillToOverflow)
{
    // Directory ceiling: 2^(kMaxDirBits + kPageBits) = 2^10 keys.
    SmallTable t;
    const std::uint64_t huge = ~std::uint64_t{0} - 7;
    EXPECT_EQ(t.peek(huge), nullptr);
    t.get(huge) = 5;
    EXPECT_EQ(t.pages(), 1u);
    const std::uint64_t *p = t.peek(huge);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 5u);
    // A nearby huge key on the same overflow page shares it.
    t.get(huge + 1) = 6;
    EXPECT_EQ(t.pages(), 1u);
    // Directory keys still work alongside overflow keys.
    t.get(0) = 1;
    EXPECT_EQ(t.pages(), 2u);
    EXPECT_EQ(t.get(huge), 5u);
}

TEST(RadixTable, StreamingMemoSurvivesInterleavedPages)
{
    SmallTable t;
    // Alternate between two pages so the last-page memo keeps
    // switching; values must stay slot-accurate.
    for (int i = 0; i < 100; ++i) {
        t.get(i % 16) += 1;
        t.get(SmallTable::kPageSize + (i % 16)) += 2;
    }
    for (std::uint64_t k = 0; k < 16; ++k) {
        EXPECT_GE(t.get(k), 6u);
        EXPECT_EQ(t.get(SmallTable::kPageSize + k), 2 * t.get(k));
    }
}

TEST(RadixTable, ClearDropsEverything)
{
    SmallTable t;
    t.get(1) = 1;
    t.get(SmallTable::kPageSize * 3) = 2;
    t.get(~std::uint64_t{0}) = 3;  // overflow page
    EXPECT_EQ(t.pages(), 3u);
    t.clear();
    EXPECT_EQ(t.pages(), 0u);
    // The memoized last page must not dangle after clear().
    EXPECT_EQ(t.peek(1), nullptr);
    EXPECT_EQ(t.peek(~std::uint64_t{0}), nullptr);
    // Re-materialized slots are fresh.
    EXPECT_EQ(t.get(1), 0u);
}

TEST(RadixTable, DefaultGeometryHandlesShadowLikeKeys)
{
    // The production shapes: granule keys from 64-bit addresses.
    RadixTable<std::uint64_t> t;
    const std::uint64_t stack_like = 0x7ffd'1234'5678ULL >> 3;
    const std::uint64_t heap_like = 0x5555'0000ULL >> 3;
    t.get(stack_like) = 1;
    t.get(heap_like) = 2;
    t.get(0xFFFF'FFFF'FFFF'FFF8ULL >> 3) = 3;
    EXPECT_EQ(t.get(stack_like), 1u);
    EXPECT_EQ(t.get(heap_like), 2u);
    EXPECT_EQ(t.get(0xFFFF'FFFF'FFFF'FFF8ULL >> 3), 3u);
    EXPECT_EQ(t.pages(), 3u);
}

TEST(RadixTable, ResetLogicallyEmptiesInPlace)
{
    SmallTable t;
    t.get(1) = 7;
    t.get(SmallTable::kPageSize * 2) = 9;
    EXPECT_EQ(t.pages(), 2u);
    t.reset();
    // Observable state matches a cleared table...
    EXPECT_EQ(t.pages(), 0u);
    EXPECT_EQ(t.peek(1), nullptr);
    EXPECT_EQ(t.peek(SmallTable::kPageSize * 2), nullptr);
    // ...but the pages went back to the table's private pool, which
    // keeps them.
    EXPECT_EQ(t.allocatedPages(), 2u);
}

TEST(RadixTable, ResetRecyclesPagesOnNextTouch)
{
    SmallTable t;
    t.get(3) = 42;
    t.reset();
    // A page re-taken from the pool is wiped first.
    EXPECT_EQ(t.get(3), 0u);
    EXPECT_EQ(t.pages(), 1u);
    EXPECT_EQ(t.allocatedPages(), 1u);
    EXPECT_EQ(t.recycledPages(), 1u);
    // A page newly carved from the pool is not "recycled".
    t.get(SmallTable::kPageSize * 5) = 1;
    EXPECT_EQ(t.recycledPages(), 1u);
}

TEST(RadixTable, ResetCyclesPreserveSemanticsAcrossGenerations)
{
    SmallTable t;
    for (int cycle = 0; cycle < 5; ++cycle) {
        for (std::uint64_t k = 0; k < 8; ++k) {
            EXPECT_EQ(t.get(k), 0u) << "cycle " << cycle;
            t.get(k) = k + 100 * static_cast<std::uint64_t>(cycle);
        }
        t.reset();
    }
    // Five cycles over one page: carved once, re-taken each cycle.
    EXPECT_EQ(t.allocatedPages(), 1u);
    EXPECT_EQ(t.recycledPages(), 4u);
}

TEST(RadixTable, ResetInvalidatesMemoizedPage)
{
    SmallTable t;
    t.get(1) = 5;  // memoizes page 0
    t.reset();
    // The memoized page must not leak the stale value through peek
    // or get after reset.
    EXPECT_EQ(t.peek(1), nullptr);
    EXPECT_EQ(t.get(1), 0u);
}

TEST(RadixTable, ClearAfterResetStillFreesStorage)
{
    SmallTable t;
    t.get(1) = 1;
    t.reset();
    t.get(1) = 2;
    t.clear();
    EXPECT_EQ(t.pages(), 0u);
    EXPECT_EQ(t.allocatedPages(), 0u);
    EXPECT_EQ(t.get(1), 0u);
}

TEST(RadixTable, ResetAppliesToOverflowPagesToo)
{
    SmallTable t;
    const std::uint64_t huge = ~std::uint64_t{0};
    t.get(huge) = 11;
    t.reset();
    EXPECT_EQ(t.peek(huge), nullptr);
    EXPECT_EQ(t.get(huge), 0u);
    EXPECT_EQ(t.recycledPages(), 1u);
}

TEST(RadixTable, DisjointGenerationsKeepTheLargerPageCount)
{
    SmallTable t;
    // Generation 1: three pages; generation 2: two other pages.
    for (std::uint64_t p = 0; p < 3; ++p)
        t.get(p * SmallTable::kPageSize) = p + 1;
    EXPECT_EQ(t.allocatedPages(), 3u);
    t.reset();
    for (std::uint64_t p = 10; p < 12; ++p) {
        EXPECT_EQ(t.get(p * SmallTable::kPageSize), 0u);
        t.get(p * SmallTable::kPageSize) = p;
    }
    // The second generation re-took two of the first one's pages.
    EXPECT_EQ(t.pages(), 2u);
    EXPECT_EQ(t.allocatedPages(), 3u);
    EXPECT_EQ(t.recycledPages(), 2u);
    // Overflow keys draw from the same pool.
    t.reset();
    const std::uint64_t huge = ~std::uint64_t{0};
    for (std::uint64_t p = 0; p < 4; ++p)
        t.get(huge - p * SmallTable::kPageSize) = p;
    EXPECT_EQ(t.pages(), 4u);
    EXPECT_EQ(t.allocatedPages(), 4u);
}

TEST(RadixTable, EntryOfAPageNowServingAnotherKeyIsAbsent)
{
    SmallTable t;
    const std::uint64_t a = 2 * SmallTable::kPageSize + 1;
    const std::uint64_t b = 5 * SmallTable::kPageSize + 3;
    std::uint64_t *const a_slot = &t.get(a);  // pool page 0
    *a_slot = 7;
    t.get(b) = 9;  // pool page 1
    t.reset();
    // reset() unbound both entries, so b, touched first, re-takes
    // pool page 0, the one a's entry used to name.
    t.get(b) = 11;
    EXPECT_EQ(&t.get(b), a_slot + 2);
    EXPECT_EQ(t.allocatedPages(), 2u);
    EXPECT_EQ(t.peek(a), nullptr);
    EXPECT_EQ(t.peek(a - 1), nullptr);
    EXPECT_EQ(t.get(a), 0u);
    EXPECT_EQ(t.get(a - 1), 0u);
    EXPECT_EQ(t.get(b), 11u);
    EXPECT_EQ(t.get(b - 3), 0u);
    EXPECT_EQ(t.pages(), 2u);
    EXPECT_EQ(t.allocatedPages(), 2u);
}

TEST(RadixTable, OverflowEntryOfAPageNowServingAnotherKeyIsAbsent)
{
    SmallTable t;
    const std::uint64_t a = ~std::uint64_t{0};
    const std::uint64_t b = a - 4 * SmallTable::kPageSize;
    t.get(a) = 7;
    t.get(b) = 9;
    EXPECT_EQ(t.overflowPages(), 2u);
    t.reset();
    // reset() unbound both overflow entries; b then takes a's old
    // page and a takes b's.
    EXPECT_EQ(t.overflowPages(), 0u);
    t.get(b) = 11;
    EXPECT_EQ(t.peek(a), nullptr);
    EXPECT_EQ(t.overflowPages(), 1u);
    EXPECT_EQ(t.get(a), 0u);
    EXPECT_EQ(t.get(b), 11u);
    EXPECT_EQ(t.overflowPages(), 2u);
    // Directory keys re-taking the overflow keys' pages find the map
    // already empty: it only ever names pages taken this generation.
    t.reset();
    EXPECT_EQ(t.overflowPages(), 0u);
    t.get(0) = 1;
    t.get(SmallTable::kPageSize) = 2;
    EXPECT_EQ(t.peek(a), nullptr);
    EXPECT_EQ(t.peek(b), nullptr);
    EXPECT_EQ(t.overflowPages(), 0u);
    EXPECT_EQ(t.allocatedPages(), 2u);
}

TEST(RadixTable, ReferencesStayValidWithinAGeneration)
{
    SmallTable t;
    for (std::uint64_t p = 0; p < 40; ++p)
        t.get(p * SmallTable::kPageSize) = p;
    t.reset();
    // In a recycled generation, later materializations first re-take
    // pooled pages and then carve new ones; neither may move a page
    // an earlier get() of this generation returned.
    std::uint64_t &dir_slot = t.get(1000);  // directory page 62
    dir_slot = 77;
    std::uint64_t &huge_slot = t.get(~std::uint64_t{0});
    huge_slot = 88;
    for (std::uint64_t p = 0; p < 60; ++p)
        t.get(p * SmallTable::kPageSize) = p;
    for (std::uint64_t p = 100; p < 120; ++p)  // overflow pages
        t.get(p * SmallTable::kPageSize) = p;
    EXPECT_EQ(t.pages(), 82u);
    EXPECT_EQ(t.allocatedPages(), 82u);
    EXPECT_EQ(t.recycledPages(), 40u);
    EXPECT_EQ(dir_slot, 77u);
    EXPECT_EQ(huge_slot, 88u);
    EXPECT_EQ(&dir_slot, &t.get(1000));
    EXPECT_EQ(&huge_slot, &t.get(~std::uint64_t{0}));
    for (std::uint64_t p = 0; p < 60; ++p)
        EXPECT_EQ(t.get(p * SmallTable::kPageSize), p);
}

TEST(RadixTable, ResetUnbindsExactlyThePagesItTook)
{
    // Two tables borrow from one pool. A page one hands back may at
    // once serve the other, so reset() must leave no entry that
    // still reaches it.
    SmallTable::Pool pool;
    SmallTable first(&pool);
    SmallTable second(&pool);
    const std::uint64_t huge = ~std::uint64_t{0};
    first.get(1) = 7;
    first.get(SmallTable::kPageSize * 9) = 8;
    first.get(huge) = 9;
    EXPECT_EQ(pool.borrowed(), 3u);
    first.reset();
    EXPECT_EQ(pool.borrowed(), 0u);
    EXPECT_EQ(first.pages(), 0u);
    EXPECT_EQ(first.overflowPages(), 0u);
    EXPECT_EQ(first.peek(1), nullptr);
    EXPECT_EQ(first.peek(SmallTable::kPageSize * 9), nullptr);
    EXPECT_EQ(first.peek(huge), nullptr);

    // The other table re-takes the three pages, wiped, for its own
    // keys; writes through it never show in the first.
    for (std::uint64_t k : {std::uint64_t{1}, SmallTable::kPageSize * 9,
                            huge}) {
        EXPECT_EQ(second.get(k), 0u);
        second.get(k) = 100;
        EXPECT_EQ(first.peek(k), nullptr);
    }
    EXPECT_EQ(second.recycledPages(), 3u);
    EXPECT_EQ(pool.pages(), 3u);

    // The first table takes new pages beside them, not theirs.
    first.get(1) = 5;
    EXPECT_EQ(second.get(1), 100u);
    EXPECT_EQ(pool.pages(), 4u);
    EXPECT_EQ(first.allocatedPages(), 4u);
}

TEST(RadixTable, SharedPoolHoldsThePagesBorrowedAtOnce)
{
    // Tables that take their pages one after another share them; a
    // table destroyed while holding pages hands them back.
    SmallTable::Pool pool;
    {
        SmallTable big(&pool);
        for (std::uint64_t p = 0; p < 6; ++p)
            big.get(p * SmallTable::kPageSize) = p;
        big.reset();
        SmallTable small(&pool);
        for (std::uint64_t p = 20; p < 24; ++p)
            small.get(p * SmallTable::kPageSize) = p;
        EXPECT_EQ(pool.pages(), 6u);
        EXPECT_EQ(pool.borrowed(), 4u);
        for (std::uint64_t p = 30; p < 33; ++p)
            big.get(p * SmallTable::kPageSize) = p;
        EXPECT_EQ(pool.pages(), 7u);
        EXPECT_EQ(pool.borrowed(), 7u);
    }
    EXPECT_EQ(pool.borrowed(), 0u);
    EXPECT_EQ(pool.pages(), 7u);
}
