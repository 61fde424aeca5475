/**
 * @file
 * Unit tests for the FastTrack detector: every conflict kind, every
 * synchronization idiom that must suppress reports, and the adaptive
 * epoch/vector-clock representation switching.
 */

#include <gtest/gtest.h>

#include <array>

#include "detect/fasttrack.hh"

using namespace hdrd;
using namespace hdrd::detect;

namespace
{

struct Fixture
{
    explicit Fixture(std::uint32_t nthreads = 4)
        : clocks(nthreads), detector(clocks, sink)
    {
    }

    SyncClocks clocks;
    ReportSink sink;
    FastTrackDetector detector;
};

constexpr Addr kX = 0x1000;

} // namespace

TEST(FastTrack, NoRaceOnFirstAccess)
{
    Fixture f;
    const auto out = f.detector.onAccess(0, kX, true, 1);
    EXPECT_FALSE(out.race);
    EXPECT_FALSE(out.inter_thread);
    EXPECT_EQ(f.sink.uniqueCount(), 0u);
}

TEST(FastTrack, UnsynchronizedWriteWriteRace)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    const auto out = f.detector.onAccess(1, kX, true, 2);
    EXPECT_TRUE(out.race);
    EXPECT_TRUE(out.inter_thread);
    ASSERT_EQ(f.sink.uniqueCount(), 1u);
    const auto &report = f.sink.reports()[0];
    EXPECT_EQ(report.type, RaceType::kWriteWrite);
    EXPECT_EQ(report.first_tid, 0u);
    EXPECT_EQ(report.second_tid, 1u);
    EXPECT_EQ(report.first_site, 1u);
    EXPECT_EQ(report.second_site, 2u);
}

TEST(FastTrack, UnsynchronizedWriteReadRace)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    const auto out = f.detector.onAccess(1, kX, false, 2);
    EXPECT_TRUE(out.race);
    ASSERT_EQ(f.sink.uniqueCount(), 1u);
    EXPECT_EQ(f.sink.reports()[0].type, RaceType::kWriteRead);
}

TEST(FastTrack, UnsynchronizedReadWriteRace)
{
    Fixture f;
    f.detector.onAccess(0, kX, false, 1);
    const auto out = f.detector.onAccess(1, kX, true, 2);
    EXPECT_TRUE(out.race);
    ASSERT_EQ(f.sink.uniqueCount(), 1u);
    EXPECT_EQ(f.sink.reports()[0].type, RaceType::kReadWrite);
}

TEST(FastTrack, ConcurrentReadsAreNotRaces)
{
    Fixture f;
    f.detector.onAccess(0, kX, false, 1);
    f.detector.onAccess(1, kX, false, 2);
    const auto out = f.detector.onAccess(2, kX, false, 3);
    EXPECT_FALSE(out.race);
    EXPECT_TRUE(out.inter_thread);
    EXPECT_EQ(f.sink.uniqueCount(), 0u);
}

TEST(FastTrack, LockOrderingSuppressesReport)
{
    Fixture f;
    f.clocks.acquire(0, 7);
    f.detector.onAccess(0, kX, true, 1);
    f.clocks.release(0, 7);
    f.clocks.acquire(1, 7);
    const auto out = f.detector.onAccess(1, kX, true, 2);
    EXPECT_FALSE(out.race);
    EXPECT_TRUE(out.inter_thread);  // still sharing, just ordered
    EXPECT_EQ(f.sink.uniqueCount(), 0u);
}

TEST(FastTrack, BarrierOrderingSuppressesReport)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    const std::array<ThreadId, 4> all{0, 1, 2, 3};
    f.clocks.barrier(all);
    const auto out = f.detector.onAccess(1, kX, true, 2);
    EXPECT_FALSE(out.race);
}

TEST(FastTrack, ForkOrderingSuppressesReport)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    f.clocks.fork(0, 1);
    EXPECT_FALSE(f.detector.onAccess(1, kX, true, 2).race);
}

TEST(FastTrack, JoinOrderingSuppressesReport)
{
    Fixture f;
    f.clocks.fork(0, 1);
    f.detector.onAccess(1, kX, true, 1);
    f.clocks.join(0, 1);
    EXPECT_FALSE(f.detector.onAccess(0, kX, true, 2).race);
}

TEST(FastTrack, WrongLockDoesNotSuppress)
{
    Fixture f;
    f.clocks.acquire(0, 7);
    f.detector.onAccess(0, kX, true, 1);
    f.clocks.release(0, 7);
    f.clocks.acquire(1, 8);  // different lock!
    EXPECT_TRUE(f.detector.onAccess(1, kX, true, 2).race);
}

TEST(FastTrack, SameThreadNeverRaces)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    f.detector.onAccess(0, kX, false, 2);
    f.detector.onAccess(0, kX, true, 3);
    EXPECT_EQ(f.sink.uniqueCount(), 0u);
}

TEST(FastTrack, ReadSharedInflationThenOrderedWriteIsClean)
{
    Fixture f;
    // Two ordered reads from different threads inflate to a read VC.
    f.detector.onAccess(0, kX, false, 1);
    f.detector.onAccess(1, kX, false, 2);
    // Order both readers before thread 2 via lock chains.
    f.clocks.release(0, 10);
    f.clocks.release(1, 11);
    f.clocks.acquire(2, 10);
    f.clocks.acquire(2, 11);
    EXPECT_FALSE(f.detector.onAccess(2, kX, true, 3).race);
}

TEST(FastTrack, ReadSharedWriteRacesIfOneReaderUnordered)
{
    Fixture f;
    f.detector.onAccess(0, kX, false, 1);
    f.detector.onAccess(1, kX, false, 2);
    // Only reader 0 ordered before the writer.
    f.clocks.release(0, 10);
    f.clocks.acquire(2, 10);
    const auto out = f.detector.onAccess(2, kX, true, 3);
    EXPECT_TRUE(out.race);
    ASSERT_EQ(f.sink.uniqueCount(), 1u);
    EXPECT_EQ(f.sink.reports()[0].type, RaceType::kReadWrite);
    EXPECT_EQ(f.sink.reports()[0].first_tid, 1u);
}

TEST(FastTrack, DistinctAddressesIndependent)
{
    Fixture f;
    f.detector.onAccess(0, 0x1000, true, 1);
    EXPECT_FALSE(f.detector.onAccess(1, 0x2000, true, 2).race);
}

TEST(FastTrack, GranularityMergesNeighbouringBytes)
{
    Fixture f;
    // Default 8-byte granules: 0x1000 and 0x1004 collide.
    f.detector.onAccess(0, 0x1000, true, 1);
    EXPECT_TRUE(f.detector.onAccess(1, 0x1004, true, 2).race);
    // 0x1008 is a different granule.
    EXPECT_FALSE(f.detector.onAccess(2, 0x1008, true, 3).race);
}

TEST(FastTrack, SameEpochWriteFastPathReportsOnce)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    f.detector.onAccess(1, kX, true, 2);  // race reported
    // Same epoch again: fast path, no duplicate dynamic report.
    const auto dyn_before = f.sink.dynamicCount();
    f.detector.onAccess(1, kX, true, 2);
    EXPECT_EQ(f.sink.dynamicCount(), dyn_before);
}

TEST(FastTrack, RacyReadersAfterWriteEachReport)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    f.detector.onAccess(1, kX, false, 2);
    f.detector.onAccess(2, kX, false, 3);
    f.detector.onAccess(3, kX, false, 4);
    // Three distinct write-read site pairs.
    EXPECT_EQ(f.sink.uniqueCount(), 3u);
    EXPECT_TRUE(f.sink.seenPair(1, 2));
    EXPECT_TRUE(f.sink.seenPair(1, 3));
    EXPECT_TRUE(f.sink.seenPair(1, 4));
}

TEST(FastTrack, InterThreadSignalFalseForPrivateData)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    const auto out = f.detector.onAccess(0, kX, false, 2);
    EXPECT_FALSE(out.inter_thread);
}

TEST(FastTrack, InterThreadSignalTrueForOrderedSharing)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    const std::array<ThreadId, 4> all{0, 1, 2, 3};
    f.clocks.barrier(all);
    const auto out = f.detector.onAccess(1, kX, false, 2);
    EXPECT_FALSE(out.race);
    EXPECT_TRUE(out.inter_thread);
}

TEST(FastTrack, ClearShadowForgetsHistory)
{
    Fixture f;
    f.detector.onAccess(0, kX, true, 1);
    f.detector.clearShadow();
    // The earlier write is forgotten: no race visible.
    EXPECT_FALSE(f.detector.onAccess(1, kX, true, 2).race);
}

TEST(FastTrack, WriteCollapsesReadVectorClock)
{
    Fixture f;
    f.detector.onAccess(0, kX, false, 1);
    f.detector.onAccess(1, kX, false, 2);
    // Unordered write over the shared-read state: reports, then
    // collapses back to epoch representation.
    EXPECT_TRUE(f.detector.onAccess(2, kX, true, 3).race);
    const VarState *st = f.detector.shadow().peek(kX);
    ASSERT_NE(st, nullptr);
    EXPECT_FALSE(st->readShared());
    EXPECT_TRUE(st->r().empty());
}

TEST(FastTrack, NameIsStable)
{
    Fixture f;
    EXPECT_STREQ(f.detector.name(), "fasttrack");
}

TEST(FastTrack, InflationRecyclesPooledClocks)
{
    Fixture f;
    ClockPool &pool = f.detector.shadow().readClocks();
    const std::array<ThreadId, 4> all{0, 1, 2, 3};

    // First inflation: concurrent readers force a pooled clock out.
    f.detector.onAccess(0, kX, false, 1);
    f.detector.onAccess(1, kX, false, 2);
    EXPECT_EQ(pool.created(), 1u);
    EXPECT_EQ(pool.reused(), 0u);

    // Collapse parks it; the next inflation must reuse, not allocate.
    f.clocks.barrier(all);
    f.detector.onAccess(2, kX, true, 3);
    EXPECT_EQ(pool.freeCount(), 1u);
    f.clocks.barrier(all);
    f.detector.onAccess(0, kX, false, 4);
    f.detector.onAccess(1, kX, false, 5);
    EXPECT_EQ(pool.created(), 1u);
    EXPECT_EQ(pool.reused(), 1u);

    // The recycled clock carries no stale components.
    const VarState *st = f.detector.shadow().peek(kX);
    ASSERT_NE(st, nullptr);
    ASSERT_TRUE(st->readShared());
    const VectorClock &rvc = pool.at(st->rvcIndex());
    EXPECT_FALSE(rvc.soleNonzero(0));  // both readers present
    EXPECT_EQ(rvc.get(2), 0u);  // thread 2 never read here
}

TEST(FastTrack, ClearShadowReclaimsOutstandingClocks)
{
    Fixture f;
    ClockPool &pool = f.detector.shadow().readClocks();
    // Three read-shared variables, three live pooled clocks.
    for (Addr a : {kX, kX + 8, kX + 16}) {
        f.detector.onAccess(0, a, false, 1);
        f.detector.onAccess(1, a, false, 2);
    }
    EXPECT_EQ(pool.created(), 3u);
    EXPECT_EQ(pool.freeCount(), 0u);
    f.detector.clearShadow();
    // Bulk reclaim: everything is back on the free list, and the
    // chunk storage is parked for recycling.
    EXPECT_EQ(pool.freeCount(), 3u);
    EXPECT_EQ(f.detector.shadow().chunks(), 0u);
    EXPECT_EQ(f.detector.shadow().allocatedChunks(), 1u);
    // Re-running the pattern allocates no new clocks.
    for (Addr a : {kX, kX + 8, kX + 16}) {
        f.detector.onAccess(0, a, false, 1);
        f.detector.onAccess(1, a, false, 2);
    }
    EXPECT_EQ(pool.created(), 3u);
    EXPECT_EQ(pool.reused(), 3u);
    EXPECT_EQ(f.detector.shadow().recycledChunks(), 1u);
}

TEST(FastTrack, ReportsCarrySitesFromColdTable)
{
    // After the hot/cold split the static sites live in the side
    // table; every report kind must still attribute both endpoints
    // exactly, including site ids beyond the packed 16-bit range.
    const SiteId w_site = 0x00ABCDEF;  // forces the overflow path
    const SiteId r_site = 0x00FEDCBA;
    {
        Fixture f;
        f.detector.onAccess(0, kX, true, w_site);
        const auto out = f.detector.onAccess(1, kX, true, 77);
        EXPECT_TRUE(out.race);
        ASSERT_EQ(f.sink.uniqueCount(), 1u);
        EXPECT_EQ(f.sink.reports()[0].first_site, w_site);
        EXPECT_EQ(f.sink.reports()[0].second_site, 77u);
    }
    {
        Fixture f;
        f.detector.onAccess(0, kX, true, w_site);
        f.detector.onAccess(1, kX, false, 78);
        ASSERT_EQ(f.sink.uniqueCount(), 1u);
        EXPECT_EQ(f.sink.reports()[0].type, RaceType::kWriteRead);
        EXPECT_EQ(f.sink.reports()[0].first_site, w_site);
    }
    {
        Fixture f;
        f.detector.onAccess(0, kX, false, r_site);
        f.detector.onAccess(1, kX, true, 79);
        ASSERT_EQ(f.sink.uniqueCount(), 1u);
        EXPECT_EQ(f.sink.reports()[0].type, RaceType::kReadWrite);
        EXPECT_EQ(f.sink.reports()[0].first_site, r_site);
    }
    {
        // Read-shared variant: the racing reader's site comes from
        // the cold table's read slot even after inflation.
        Fixture f;
        f.detector.onAccess(0, kX, false, 5);
        f.detector.onAccess(1, kX, false, r_site);
        f.clocks.release(0, 10);
        f.clocks.acquire(2, 10);
        const auto out = f.detector.onAccess(2, kX, true, 80);
        EXPECT_TRUE(out.race);
        ASSERT_EQ(f.sink.uniqueCount(), 1u);
        EXPECT_EQ(f.sink.reports()[0].first_tid, 1u);
        EXPECT_EQ(f.sink.reports()[0].first_site, r_site);
    }
}

TEST(FastTrack, CollapseClearsColdReadSite)
{
    Fixture f;
    f.detector.onAccess(0, kX, false, 11);
    f.detector.onAccess(1, kX, false, 12);
    EXPECT_EQ(f.detector.shadow().readSite(kX), 12u);
    // Ordered write collapses the shared read side and retires the
    // read site, exactly like the old inline r_site reset.
    const std::array<ThreadId, 4> all{0, 1, 2, 3};
    f.clocks.barrier(all);
    f.detector.onAccess(2, kX, true, 13);
    EXPECT_EQ(f.detector.shadow().readSite(kX), kInvalidSite);
    EXPECT_EQ(f.detector.shadow().writeSite(kX), 13u);
}

TEST(FastTrack, BorrowedShadowIsPreparedAndShared)
{
    ShadowMemory shared(3);
    shared.state(kX).w = Epoch(7, 7);  // stale junk from a "prior job"
    SyncClocks clocks(4);
    ReportSink sink;
    FastTrackDetector det(clocks, sink, shared, 3);
    // Construction prepared the borrowed shadow: stale state retired.
    EXPECT_EQ(shared.chunks(), 0u);
    EXPECT_EQ(det.shadow().peek(kX), nullptr);
    det.onAccess(0, kX, true, 1);
    // The detector writes through to the caller's shadow.
    ASSERT_NE(shared.peek(kX), nullptr);
    EXPECT_EQ(shared.peek(kX)->w, Epoch(0, 1));
    // And the prior job's chunk page was re-taken, not allocated.
    EXPECT_EQ(shared.allocatedChunks(), 1u);
    EXPECT_EQ(shared.recycledChunks(), 1u);
}
