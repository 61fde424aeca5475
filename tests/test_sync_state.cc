/**
 * @file
 * Unit tests for SyncClocks: the happens-before rules.
 */

#include <gtest/gtest.h>

#include <array>

#include "detect/sync_state.hh"

using namespace hdrd;
using namespace hdrd::detect;

TEST(SyncClocks, InitialClocksStartAtOneForSelf)
{
    SyncClocks sc(3);
    for (ThreadId t = 0; t < 3; ++t) {
        EXPECT_EQ(sc.clock(t).get(t), 1u);
        for (ThreadId u = 0; u < 3; ++u) {
            if (u != t) {
                EXPECT_EQ(sc.clock(t).get(u), 0u);
            }
        }
    }
}

TEST(SyncClocks, EpochReflectsOwnClock)
{
    SyncClocks sc(2);
    EXPECT_EQ(sc.epoch(1), Epoch(1, 1));
}

TEST(SyncClocks, AcquireOfUntouchedLockIsNoop)
{
    SyncClocks sc(2);
    const VectorClock before = sc.clock(0);
    sc.acquire(0, 99);
    EXPECT_TRUE(sc.clock(0) == before);
}

TEST(SyncClocks, ReleaseAcquireCreatesOrdering)
{
    SyncClocks sc(2);
    const Epoch e0 = sc.epoch(0);
    // Initially unordered.
    EXPECT_FALSE(sc.epochOrdered(e0, 1));
    sc.release(0, 7);
    sc.acquire(1, 7);
    // Now thread 0's pre-release epoch happens-before thread 1.
    EXPECT_TRUE(sc.epochOrdered(e0, 1));
}

TEST(SyncClocks, ReleaseTicksReleaser)
{
    SyncClocks sc(2);
    sc.release(0, 7);
    EXPECT_EQ(sc.clock(0).get(0), 2u);
    // Post-release epoch is NOT ordered before the acquirer.
    sc.acquire(1, 7);
    EXPECT_FALSE(sc.epochOrdered(sc.epoch(0), 1));
}

TEST(SyncClocks, DifferentLocksDoNotOrder)
{
    SyncClocks sc(2);
    const Epoch e0 = sc.epoch(0);
    sc.release(0, 1);
    sc.acquire(1, 2);
    EXPECT_FALSE(sc.epochOrdered(e0, 1));
}

TEST(SyncClocks, LockChainIsTransitive)
{
    SyncClocks sc(3);
    const Epoch e0 = sc.epoch(0);
    sc.release(0, 1);
    sc.acquire(1, 1);
    sc.release(1, 2);
    sc.acquire(2, 2);
    EXPECT_TRUE(sc.epochOrdered(e0, 2));
}

TEST(SyncClocks, BarrierOrdersAllPairs)
{
    SyncClocks sc(4);
    std::array<Epoch, 4> before{};
    for (ThreadId t = 0; t < 4; ++t)
        before[t] = sc.epoch(t);
    const std::array<ThreadId, 4> all{0, 1, 2, 3};
    sc.barrier(all);
    for (ThreadId a = 0; a < 4; ++a) {
        for (ThreadId b = 0; b < 4; ++b)
            EXPECT_TRUE(sc.epochOrdered(before[a], b));
    }
}

TEST(SyncClocks, BarrierTicksParticipants)
{
    SyncClocks sc(2);
    const std::array<ThreadId, 2> both{0, 1};
    sc.barrier(both);
    // Post-barrier epochs are not ordered into each other.
    EXPECT_FALSE(sc.epochOrdered(sc.epoch(0), 1));
    EXPECT_FALSE(sc.epochOrdered(sc.epoch(1), 0));
}

TEST(SyncClocks, PartialBarrierLeavesOthersUnordered)
{
    SyncClocks sc(3);
    const Epoch e2 = sc.epoch(2);
    const std::array<ThreadId, 2> pair{0, 1};
    sc.barrier(pair);
    EXPECT_FALSE(sc.epochOrdered(e2, 0));
    EXPECT_FALSE(sc.epochOrdered(sc.epoch(0), 2));
}

TEST(SyncClocks, ForkOrdersParentPrefixIntoChild)
{
    SyncClocks sc(2);
    const Epoch parent_before = sc.epoch(0);
    sc.fork(0, 1);
    EXPECT_TRUE(sc.epochOrdered(parent_before, 1));
    // Parent ticked: post-fork parent work unordered with the child.
    EXPECT_FALSE(sc.epochOrdered(sc.epoch(0), 1));
}

TEST(SyncClocks, JoinOrdersChildIntoParent)
{
    SyncClocks sc(2);
    sc.fork(0, 1);
    const Epoch child_work = sc.epoch(1);
    EXPECT_FALSE(sc.epochOrdered(child_work, 0));
    sc.join(0, 1);
    EXPECT_TRUE(sc.epochOrdered(child_work, 0));
}

TEST(SyncClocks, LocksSeenCountsDistinctLocks)
{
    SyncClocks sc(2);
    sc.release(0, 10);
    sc.release(0, 11);
    sc.release(1, 10);
    EXPECT_EQ(sc.locksSeen(), 2u);
}

TEST(SyncClocksDeath, ZeroThreadsPanics)
{
    EXPECT_DEATH(SyncClocks(0), "at least one thread");
}
