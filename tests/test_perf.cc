/**
 * @file
 * Tests for the real perf_event wrapper. Every test degrades to a
 * skip when the kernel forbids perf_event_open (common in containers);
 * the wrapper's contract is "never crash, report availability".
 */

#include <gtest/gtest.h>

#include "perf/perf_event.hh"

using namespace hdrd::perf;

TEST(Perf, ProbeNeverCrashes)
{
    // Whatever the answer, asking must be safe.
    const bool available = perfAvailable();
    (void)available;
    SUCCEED();
}

TEST(Perf, UnavailableCounterReportsError)
{
    PerfCounter counter(HwEvent::kInstructions);
    if (counter.available())
        GTEST_SKIP() << "perf available here; nothing to check";
    EXPECT_FALSE(counter.error().empty());
    EXPECT_FALSE(counter.start());
    EXPECT_FALSE(counter.stop());
    EXPECT_FALSE(counter.read().has_value());
}

TEST(Perf, CountingInstructionsIfAvailable)
{
    PerfCounter counter(HwEvent::kInstructions);
    if (!counter.available())
        GTEST_SKIP() << "perf_event_open unavailable: "
                     << counter.error();
    ASSERT_TRUE(counter.start());
    // Burn some instructions.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(counter.stop());
    const auto value = counter.read();
    ASSERT_TRUE(value.has_value());
    EXPECT_GT(*value, 0u);
}

TEST(Perf, MoveTransfersOwnership)
{
    PerfCounter a(HwEvent::kCpuCycles);
    const bool was_available = a.available();
    PerfCounter b(std::move(a));
    EXPECT_EQ(b.available(), was_available);
    EXPECT_FALSE(a.available());  // NOLINT(bugprone-use-after-move)

    PerfCounter c(HwEvent::kInstructions);
    c = std::move(b);
    EXPECT_EQ(c.available(), was_available);
}

TEST(Perf, SelfMoveAssignIsHarmless)
{
    PerfCounter counter(HwEvent::kCpuCycles);
    const bool was_available = counter.available();
    PerfCounter *alias = &counter;  // defeat -Wself-move
    counter = std::move(*alias);
    EXPECT_EQ(counter.available(), was_available);
    if (was_available) {
        // The fd must have survived: the counter still works.
        EXPECT_TRUE(counter.start());
        EXPECT_TRUE(counter.stop());
        EXPECT_TRUE(counter.read().has_value());
    }
}

TEST(Perf, UnavailableErrorCarriesErrnoDetail)
{
    PerfCounter counter(HwEvent::kInstructions);
    if (counter.available())
        GTEST_SKIP() << "perf available here; nothing to check";
    // The message must name the syscall and carry the errno, not
    // just a bare strerror string.
    EXPECT_NE(counter.error().find("perf_event_open"),
              std::string::npos)
        << counter.error();
#if defined(__linux__)
    EXPECT_NE(counter.error().find("errno"), std::string::npos)
        << counter.error();
#endif
}

TEST(Perf, ReadSurvivesRepeatedCalls)
{
    PerfCounter counter(HwEvent::kInstructions);
    if (!counter.available())
        GTEST_SKIP() << "perf_event_open unavailable: "
                     << counter.error();
    ASSERT_TRUE(counter.start());
    // The retry loop must hand back a coherent value every time.
    for (int i = 0; i < 64; ++i) {
        const auto value = counter.read();
        ASSERT_TRUE(value.has_value());
    }
    ASSERT_TRUE(counter.stop());
}

TEST(Perf, EventNames)
{
    EXPECT_STREQ(hwEventName(HwEvent::kCpuCycles), "cpu-cycles");
    EXPECT_STREQ(hwEventName(HwEvent::kInstructions), "instructions");
    EXPECT_STREQ(hwEventName(HwEvent::kCacheMisses), "cache-misses");
}

TEST(Perf, EventAccessorRoundTrips)
{
    PerfCounter counter(HwEvent::kCacheReferences);
    EXPECT_EQ(counter.event(), HwEvent::kCacheReferences);
}
