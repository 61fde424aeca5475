/**
 * @file
 * Unit tests for the StatGroup registry.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hh"

using hdrd::StatGroup;

TEST(Stats, CountersStartAtZero)
{
    StatGroup g("g");
    EXPECT_EQ(g.counter("nothing"), 0u);
    EXPECT_EQ(g.scalar("nothing"), 0.0);
}

TEST(Stats, IncAccumulates)
{
    StatGroup g("g");
    g.inc("hits");
    g.inc("hits", 4);
    EXPECT_EQ(g.counter("hits"), 5u);
}

TEST(Stats, SetOverwritesScalar)
{
    StatGroup g("g");
    g.set("ratio", 0.25);
    g.set("ratio", 0.75);
    EXPECT_DOUBLE_EQ(g.scalar("ratio"), 0.75);
}

TEST(Stats, CountersAndScalarsAreSeparateNamespaces)
{
    StatGroup g("g");
    g.inc("x", 3);
    g.set("x", 9.5);
    EXPECT_EQ(g.counter("x"), 3u);
    EXPECT_DOUBLE_EQ(g.scalar("x"), 9.5);
}

TEST(Stats, FormulaEvaluatesAtDumpTime)
{
    StatGroup g("mem");
    g.formula("hit_rate", [](const StatGroup &s) {
        const auto total = s.counter("hits") + s.counter("misses");
        return total == 0
            ? 0.0
            : static_cast<double>(s.counter("hits"))
                / static_cast<double>(total);
    });
    g.inc("hits", 3);
    g.inc("misses", 1);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("mem.hit_rate 0.75"), std::string::npos);
}

TEST(Stats, DumpFormat)
{
    StatGroup g("pfx");
    g.inc("a", 7);
    g.set("b", 2.5);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "pfx.a 7\npfx.b 2.5\n");
}

TEST(Stats, DumpSortedByName)
{
    StatGroup g("g");
    g.inc("zeta");
    g.inc("alpha");
    std::ostringstream os;
    g.dump(os);
    const auto s = os.str();
    EXPECT_LT(s.find("g.alpha"), s.find("g.zeta"));
}

TEST(Stats, ResetClearsValuesKeepsFormulas)
{
    StatGroup g("g");
    g.inc("n", 10);
    g.set("x", 1.0);
    g.formula("two_n", [](const StatGroup &s) {
        return 2.0 * static_cast<double>(s.counter("n"));
    });
    g.reset();
    EXPECT_EQ(g.counter("n"), 0u);
    EXPECT_EQ(g.scalar("x"), 0.0);
    g.inc("n", 4);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("g.two_n 8"), std::string::npos);
}

TEST(Stats, NameAccessor)
{
    StatGroup g("memsys");
    EXPECT_EQ(g.name(), "memsys");
}

TEST(Stats, ResetZeroesCounterCellsInPlace)
{
    // A hot path's cached cell must stay valid across reset().
    StatGroup g("g");
    std::uint64_t *cell = g.counterCell("n");
    *cell += 5;
    g.reset();
    EXPECT_EQ(*cell, 0u);
    *cell += 3;
    EXPECT_EQ(g.counter("n"), 3u);
    EXPECT_EQ(g.counterCell("n"), cell);
}
