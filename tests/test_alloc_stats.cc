/**
 * @file
 * Regression tests for the allocation interposer's process-wide
 * accumulation. This binary links tools/alloc_interpose.cc directly,
 * so the strong counting definitions are active, and hammers
 * allocation from 8 threads checking *exact* totals — the property
 * the old single-thread-visible counters could not provide under the
 * WorkerPool.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/alloc_stats.hh"

using namespace hdrd;

TEST(AllocStats, TrackingIsActiveInThisBinary)
{
    EXPECT_TRUE(allocTrackingActive());
}

TEST(AllocStats, ThreadCountersSeeOwnAllocations)
{
    const AllocCounters before = threadAllocCounters();
    {
        auto p = std::make_unique<std::uint64_t>(7);
        ASSERT_NE(p, nullptr);
    }
    const AllocCounters after = threadAllocCounters();
    EXPECT_GE(after.count, before.count + 1);
    EXPECT_GE(after.bytes, before.bytes + sizeof(std::uint64_t));
}

TEST(AllocStats, EightThreadHammerCountsExactly)
{
    constexpr int kThreads = 8;
    constexpr int kAllocsPerThread = 20000;
    constexpr std::size_t kBytesEach = 48;

    const AllocCounters before = processAllocCounters();

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kAllocsPerThread; ++i) {
                char *p = new char[kBytesEach];
                // Escape the pointer so the compiler cannot elide
                // the whole new/delete pair (it is allowed to).
                asm volatile("" : : "r"(p) : "memory");
                delete[] p;
            }
        });
    }
    for (std::thread &w : workers)
        w.join();

    // Joined threads have folded their totals into the retired
    // accumulator, so the process delta must cover every worker
    // allocation exactly — no lost updates, no under-count.
    const AllocCounters after = processAllocCounters();
    const std::uint64_t count_delta = after.count - before.count;
    const std::uint64_t bytes_delta = after.bytes - before.bytes;

    constexpr std::uint64_t kExpectedCount =
        std::uint64_t{kThreads} * kAllocsPerThread;
    constexpr std::uint64_t kExpectedBytes =
        kExpectedCount * kBytesEach;

    // std::thread construction/teardown allocates a little on this
    // (main) thread and inside each worker's registration; bound the
    // overhead tightly instead of ignoring it.
    EXPECT_GE(count_delta, kExpectedCount);
    EXPECT_LE(count_delta, kExpectedCount + 64 * kThreads);
    EXPECT_GE(bytes_delta, kExpectedBytes);
    EXPECT_LE(bytes_delta, kExpectedBytes + 65536 * kThreads);
}

TEST(AllocStats, ExitedThreadsRetainTheirTotals)
{
    const AllocCounters before = processAllocCounters();
    std::thread([] { delete new int(1); }).join();
    const AllocCounters after = processAllocCounters();
    EXPECT_GE(after.count, before.count + 1);
    EXPECT_GE(after.bytes, before.bytes + sizeof(int));
}

TEST(AllocStats, PeakRssIsReportedAndResettable)
{
    // Lift the watermark well above the RSS the checks below run at
    // and free it again: in a fresh process RSS is at its all-time
    // high, and the pages the reset itself touches would otherwise
    // push the fresh watermark past the old one.
    {
        std::vector<char> spike(64 << 20, 1);
        EXPECT_EQ(spike[spike.size() / 2], 1);
    }
    const std::uint64_t peak = peakRssKb();
    EXPECT_GT(peak, 0u);
    if (resetPeakRss()) {
        // After a reset the watermark re-measures from current RSS:
        // it must still be positive and below the freed spike.
        const std::uint64_t after = peakRssKb();
        EXPECT_GT(after, 0u);
        EXPECT_LT(after, peak);
        // Growing the heap moves the fresh watermark up again.
        std::vector<char> ballast(32 << 20, 1);
        EXPECT_GE(peakRssKb(), after);
    }
}
