/**
 * @file
 * Unit tests for VectorClock: lattice laws, helper queries, and the
 * adaptive inline/heap storage underneath them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "detect/vector_clock.hh"

using namespace hdrd;
using namespace hdrd::detect;

TEST(VectorClock, DefaultIsAllZero)
{
    VectorClock vc;
    EXPECT_EQ(vc.get(0), 0u);
    EXPECT_EQ(vc.get(100), 0u);
    EXPECT_EQ(vc.size(), 0u);
}

TEST(VectorClock, SetGetGrows)
{
    VectorClock vc;
    vc.set(5, 7);
    EXPECT_EQ(vc.get(5), 7u);
    EXPECT_EQ(vc.size(), 6u);
    EXPECT_EQ(vc.get(4), 0u);
}

TEST(VectorClock, TickIncrements)
{
    VectorClock vc;
    vc.tick(2);
    vc.tick(2);
    vc.tick(0);
    EXPECT_EQ(vc.get(2), 2u);
    EXPECT_EQ(vc.get(0), 1u);
}

TEST(VectorClock, JoinIsComponentwiseMax)
{
    VectorClock a, b;
    a.set(0, 5);
    a.set(1, 1);
    b.set(1, 9);
    b.set(2, 3);
    a.join(b);
    EXPECT_EQ(a.get(0), 5u);
    EXPECT_EQ(a.get(1), 9u);
    EXPECT_EQ(a.get(2), 3u);
}

TEST(VectorClock, JoinIsIdempotentAndCommutative)
{
    VectorClock a, b;
    a.set(0, 2);
    b.set(1, 4);
    VectorClock ab = a;
    ab.join(b);
    VectorClock ba = b;
    ba.join(a);
    EXPECT_TRUE(ab == ba);
    VectorClock aa = ab;
    aa.join(ab);
    EXPECT_TRUE(aa == ab);
}

TEST(VectorClock, LeqReflexive)
{
    VectorClock a;
    a.set(0, 3);
    a.set(2, 1);
    EXPECT_TRUE(a.leq(a));
}

TEST(VectorClock, LeqOrdersDominatedClocks)
{
    VectorClock lo, hi;
    lo.set(0, 1);
    hi.set(0, 2);
    hi.set(1, 1);
    EXPECT_TRUE(lo.leq(hi));
    EXPECT_FALSE(hi.leq(lo));
}

TEST(VectorClock, IncomparableClocksNeitherLeq)
{
    VectorClock a, b;
    a.set(0, 2);
    b.set(1, 2);
    EXPECT_FALSE(a.leq(b));
    EXPECT_FALSE(b.leq(a));
}

TEST(VectorClock, LeqHandlesDifferentSizes)
{
    VectorClock shorter, longer;
    shorter.set(0, 1);
    longer.set(0, 1);
    longer.set(5, 2);
    EXPECT_TRUE(shorter.leq(longer));
    EXPECT_FALSE(longer.leq(shorter));
    // Trailing zeros don't matter.
    VectorClock padded;
    padded.set(0, 1);
    padded.set(9, 0);
    EXPECT_TRUE(padded.leq(shorter));
}

TEST(VectorClock, JoinIsLeastUpperBound)
{
    VectorClock a, b;
    a.set(0, 4);
    b.set(1, 6);
    VectorClock j = a;
    j.join(b);
    EXPECT_TRUE(a.leq(j));
    EXPECT_TRUE(b.leq(j));
}

TEST(VectorClock, FirstGreaterExceptFindsWitness)
{
    VectorClock mine, theirs;
    mine.set(0, 5);
    mine.set(1, 3);
    theirs.set(0, 5);
    theirs.set(1, 1);
    // Component 1 exceeds, but excluded -> no witness.
    EXPECT_EQ(mine.firstGreaterExcept(theirs, 1), kInvalidThread);
    // Not excluded -> witness 1.
    EXPECT_EQ(mine.firstGreaterExcept(theirs, 0), 1u);
}

TEST(VectorClock, FirstGreaterExceptNoneWhenDominated)
{
    VectorClock lo, hi;
    lo.set(0, 1);
    lo.set(1, 1);
    hi.set(0, 2);
    hi.set(1, 2);
    EXPECT_EQ(lo.firstGreaterExcept(hi, 99), kInvalidThread);
}

TEST(VectorClock, SoleNonzero)
{
    VectorClock vc;
    vc.set(3, 7);
    EXPECT_TRUE(vc.soleNonzero(3));
    EXPECT_FALSE(vc.soleNonzero(2));
    vc.set(1, 1);
    EXPECT_FALSE(vc.soleNonzero(3));
    VectorClock zero;
    EXPECT_TRUE(zero.soleNonzero(0));  // vacuously
}

TEST(VectorClock, ClearZeroesEverything)
{
    VectorClock vc;
    vc.set(0, 5);
    vc.set(4, 2);
    vc.clear();
    EXPECT_EQ(vc.get(0), 0u);
    EXPECT_EQ(vc.get(4), 0u);
}

TEST(VectorClock, EqualityIgnoresStoredSize)
{
    VectorClock a(2), b(8);
    a.set(0, 1);
    b.set(0, 1);
    EXPECT_TRUE(a == b);
    b.set(7, 1);
    EXPECT_FALSE(a == b);
}

TEST(VectorClock, StreamFormat)
{
    VectorClock vc;
    vc.set(0, 1);
    vc.set(2, 3);
    std::ostringstream os;
    os << vc;
    EXPECT_EQ(os.str(), "[1,0,3]");
}

// --- Adaptive storage ---------------------------------------------------

TEST(VectorClockStorage, TickOnUnmappedComponentIsSinglePassGrow)
{
    // The tick fast path must grow and increment in one pass: a fresh
    // component lands at exactly 1 (not garbage + 1) and the size
    // grows to exactly tid + 1.
    VectorClock vc;
    vc.tick(6);
    EXPECT_EQ(vc.get(6), 1u);
    EXPECT_EQ(vc.size(), 7u);
    // Across the inline/heap boundary too.
    vc.tick(VectorClock::kInlineSlots + 3);
    EXPECT_EQ(vc.get(VectorClock::kInlineSlots + 3), 1u);
    EXPECT_EQ(vc.size(), VectorClock::kInlineSlots + 4);
    // And the intermediate gap reads zero.
    EXPECT_EQ(vc.get(VectorClock::kInlineSlots), 0u);
}

TEST(VectorClockStorage, SmallClocksStayInline)
{
    VectorClock vc;
    EXPECT_TRUE(vc.usesInlineStorage());
    for (ThreadId t = 0; t < VectorClock::kInlineSlots; ++t)
        vc.set(t, t + 1);
    EXPECT_TRUE(vc.usesInlineStorage());
    EXPECT_EQ(vc.capacity(), VectorClock::kInlineSlots);
}

TEST(VectorClockStorage, PromotionPreservesValues)
{
    VectorClock vc;
    for (ThreadId t = 0; t < VectorClock::kInlineSlots; ++t)
        vc.set(t, 100 + t);
    vc.set(VectorClock::kInlineSlots, 999);  // forces heap promotion
    EXPECT_FALSE(vc.usesInlineStorage());
    for (ThreadId t = 0; t < VectorClock::kInlineSlots; ++t)
        EXPECT_EQ(vc.get(t), 100u + t);
    EXPECT_EQ(vc.get(VectorClock::kInlineSlots), 999u);
}

TEST(VectorClockStorage, ClearAndResetRetainCapacity)
{
    VectorClock vc;
    vc.set(63, 1);
    const std::uint32_t cap = vc.capacity();
    EXPECT_GE(cap, 64u);
    vc.clear();
    EXPECT_EQ(vc.size(), 64u);  // clear keeps size, zeroes values
    EXPECT_EQ(vc.get(63), 0u);
    EXPECT_EQ(vc.capacity(), cap);
    vc.reset();
    EXPECT_EQ(vc.size(), 0u);  // reset drops to empty...
    EXPECT_EQ(vc.capacity(), cap);  // ...but keeps the heap array
    // A reset clock is observably a fresh clock.
    EXPECT_TRUE(vc == VectorClock());
    std::ostringstream os;
    os << vc;
    EXPECT_EQ(os.str(), "[]");
}

TEST(VectorClockStorage, CopyAndMoveAcrossRepresentations)
{
    VectorClock small;
    small.set(1, 5);
    VectorClock big;
    big.set(20, 7);

    VectorClock small_copy = small;  // inline -> inline
    EXPECT_EQ(small_copy.get(1), 5u);
    VectorClock big_copy = big;  // heap -> heap
    EXPECT_EQ(big_copy.get(20), 7u);

    big_copy = small;  // shrink: keeps heap capacity, matches values
    EXPECT_TRUE(big_copy == small);
    small_copy = big;  // grow: promotes
    EXPECT_TRUE(small_copy == big);

    VectorClock moved = std::move(big_copy);
    EXPECT_TRUE(moved == small);
    VectorClock moved_heap = std::move(small_copy);
    EXPECT_TRUE(moved_heap == big);
    // Self-assignment is a no-op.
    moved = static_cast<VectorClock &>(moved);
    EXPECT_TRUE(moved == small);
}

// --- Property tests vs a plain std::vector reference model --------------

namespace
{

/** The old representation, reimplemented as an executable spec. */
struct RefClock
{
    std::vector<std::uint64_t> v;

    std::uint64_t get(std::size_t t) const
    {
        return t < v.size() ? v[t] : 0;
    }
    void set(std::size_t t, std::uint64_t val)
    {
        if (t >= v.size())
            v.resize(t + 1, 0);
        v[t] = val;
    }
    void join(const RefClock &o)
    {
        if (o.v.size() > v.size())
            v.resize(o.v.size(), 0);
        for (std::size_t i = 0; i < o.v.size(); ++i)
            v[i] = std::max(v[i], o.v[i]);
    }
    bool leq(const RefClock &o) const
    {
        for (std::size_t i = 0; i < v.size(); ++i)
            if (v[i] > o.get(i))
                return false;
        return true;
    }
    std::uint32_t firstGreaterExcept(const RefClock &o,
                                     std::uint32_t except) const
    {
        for (std::size_t i = 0; i < v.size(); ++i)
            if (i != except && v[i] > o.get(i))
                return static_cast<std::uint32_t>(i);
        return kInvalidThread;
    }
    bool soleNonzero(std::uint32_t tid) const
    {
        for (std::size_t i = 0; i < v.size(); ++i)
            if (i != tid && v[i] != 0)
                return false;
        return true;
    }
};

/** A random clock pair (adaptive + reference), identically filled. */
std::pair<VectorClock, RefClock>
randomPair(Rng &rng)
{
    VectorClock vc;
    RefClock ref;
    // Sizes straddle the inline/heap boundary so both storage shapes
    // occur, and pairs of unequal size exercise the implicit-zero tail.
    const std::uint64_t entries = rng.nextBounded(24);
    for (std::uint64_t i = 0; i < entries; ++i) {
        const auto tid = static_cast<ThreadId>(rng.nextBounded(40));
        const std::uint64_t val = rng.nextBounded(5);
        vc.set(tid, val);
        ref.set(tid, val);
    }
    return {std::move(vc), ref};
}

} // namespace

TEST(VectorClockProperty, MatchesReferenceModel)
{
    Rng rng(0xC10CC10CULL);
    for (int iter = 0; iter < 2000; ++iter) {
        auto [a, ra] = randomPair(rng);
        auto [b, rb] = randomPair(rng);
        const auto except =
            static_cast<ThreadId>(rng.nextBounded(42));

        EXPECT_EQ(a.leq(b), ra.leq(rb));
        EXPECT_EQ(a.firstGreaterExcept(b, except),
                  ra.firstGreaterExcept(rb, except));
        EXPECT_EQ(a.soleNonzero(except), ra.soleNonzero(except));

        a.join(b);
        ra.join(rb);
        ASSERT_EQ(a.size(), ra.v.size());
        for (std::size_t i = 0; i < ra.v.size(); ++i)
            ASSERT_EQ(a.get(static_cast<ThreadId>(i)), ra.v[i]);
    }
}

TEST(VectorClockProperty, PromotionAndResetCyclesMatchReference)
{
    // Drive one long-lived clock through grow/clear/reset cycles —
    // the lifecycle a pooled read clock sees — mirroring every step
    // on the reference model.
    Rng rng(0xF00DF00DULL);
    VectorClock vc;
    RefClock ref;
    for (int iter = 0; iter < 5000; ++iter) {
        const std::uint64_t action = rng.nextBounded(20);
        if (action == 0) {
            vc.clear();
            std::fill(ref.v.begin(), ref.v.end(), 0);
        } else if (action == 1) {
            vc.reset();  // pooled recycle: back to an empty clock
            ref.v.clear();
        } else if (action < 8) {
            const auto tid =
                static_cast<ThreadId>(rng.nextBounded(30));
            vc.tick(tid);
            ref.set(tid, ref.get(tid) + 1);
        } else {
            const auto tid =
                static_cast<ThreadId>(rng.nextBounded(30));
            const std::uint64_t val = rng.nextBounded(7);
            vc.set(tid, val);
            ref.set(tid, val);
        }
        ASSERT_EQ(vc.size(), ref.v.size());
        for (std::size_t i = 0; i < ref.v.size(); ++i)
            ASSERT_EQ(vc.get(static_cast<ThreadId>(i)), ref.v[i]);
    }
}
