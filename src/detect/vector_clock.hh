/**
 * @file
 * Vector clocks for happens-before race detection.
 *
 * Storage is adaptive, SmartTrack-style: components live in a flat
 * ClockValue array that starts as an inline small-vector (no heap
 * traffic for the common <= kInlineSlots-thread case) and promotes to
 * a dense heap array when more threads appear. Demotion never frees:
 * clear() and copy-assign retain capacity, so pooled clocks (see
 * detect/clock_pool.hh) recycle their dense storage across
 * inflation/collapse cycles instead of round-tripping malloc.
 *
 * The O(T) operations — join, leq, firstGreaterExcept, soleNonzero —
 * are plain loops over the flat array. The workloads run a handful
 * of threads (4 by default), where vector kernels for these loops
 * bought no end-to-end time (docs/PERF.md records them as a dead
 * end).
 */

#ifndef HDRD_DETECT_VECTOR_CLOCK_HH
#define HDRD_DETECT_VECTOR_CLOCK_HH

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "common/types.hh"

namespace hdrd::detect
{

/** One thread's logical-clock value. */
using ClockValue = std::uint64_t;

/**
 * A vector clock: one logical clock per thread, sparse-growing.
 *
 * Entries for threads beyond the stored size are implicitly zero, so
 * clocks can be created small and grow lazily as threads appear.
 */
class VectorClock
{
  public:
    /** Components stored inline before promoting to the heap. */
    static constexpr std::uint32_t kInlineSlots = 8;

    // User-provided (not defaulted) so `const VectorClock` default
    // constructs; inline_ stays uninitialized on purpose — size_ == 0
    // guards every read of it.
    VectorClock() {}

    /** Create with @p nthreads explicit zero entries. */
    explicit VectorClock(std::uint32_t nthreads) { grow(nthreads); }

    VectorClock(const VectorClock &other) { *this = other; }

    VectorClock &operator=(const VectorClock &other)
    {
        if (this != &other) {
            reserve(other.size_);
            std::copy_n(other.data(), other.size_, data());
            size_ = other.size_;
        }
        return *this;
    }

    VectorClock(VectorClock &&other) noexcept { stealFrom(other); }

    VectorClock &operator=(VectorClock &&other) noexcept
    {
        if (this != &other) {
            delete[] heap_;
            stealFrom(other);
        }
        return *this;
    }

    ~VectorClock() { delete[] heap_; }

    /** Clock value for @p tid (zero when beyond stored size). */
    ClockValue get(ThreadId tid) const
    {
        return tid < size_ ? data()[tid] : 0;
    }

    /** Set @p tid's component to @p value, growing as needed. */
    void set(ThreadId tid, ClockValue value)
    {
        if (tid >= size_)
            grow(tid + 1);
        data()[tid] = value;
    }

    /**
     * Increment @p tid's component: one grow-and-index pass, not the
     * get-then-set double walk of the std::vector representation.
     */
    void tick(ThreadId tid)
    {
        if (tid >= size_)
            grow(tid + 1);
        ++data()[tid];
    }

    /** Element-wise max with @p other (the "join" of sync ops). */
    void join(const VectorClock &other)
    {
        if (other.size_ > size_)
            grow(other.size_);
        ClockValue *mine = data();
        const ClockValue *theirs = other.data();
        for (std::uint32_t i = 0; i < other.size_; ++i)
            mine[i] = std::max(mine[i], theirs[i]);
    }

    /**
     * True when this clock happens-before-or-equals @p other:
     * every component of *this is <= the matching component of other.
     */
    bool leq(const VectorClock &other) const
    {
        const std::uint32_t common = std::min(size_, other.size_);
        const ClockValue *mine = data();
        const ClockValue *theirs = other.data();
        for (std::uint32_t i = 0; i < common; ++i) {
            if (mine[i] > theirs[i])
                return false;
        }
        // Components past other's stored size compare against an
        // implicit zero: any nonzero one breaks the order.
        for (std::uint32_t i = common; i < size_; ++i) {
            if (mine[i] != 0)
                return false;
        }
        return true;
    }

    /**
     * First thread (other than @p except) whose component here exceeds
     * the matching component of @p other.
     * @return the witness thread, or kInvalidThread when none exists.
     */
    ThreadId firstGreaterExcept(const VectorClock &other,
                                ThreadId except) const;

    /** True when every nonzero component belongs to @p tid. */
    bool soleNonzero(ThreadId tid) const
    {
        const ClockValue *mine = data();
        for (std::uint32_t i = 0; i < size_; ++i) {
            if (i != tid && mine[i] != 0)
                return false;
        }
        return true;
    }

    /** Number of explicitly stored components. */
    std::uint32_t size() const { return size_; }

    /** Components storable without another promotion. */
    std::uint32_t capacity() const { return cap_; }

    /** True while components still live in the inline small-vector. */
    bool usesInlineStorage() const { return heap_ == nullptr; }

    /**
     * Reset every component to zero. Keeps the stored size and the
     * (possibly heap) capacity, so recycled clocks re-inflate without
     * reallocating.
     */
    void clear() { std::fill_n(data(), size_, ClockValue{0}); }

    /**
     * Drop back to an empty clock while retaining capacity. A reset
     * clock is observably identical to a fresh one, which is what
     * pooled recycling hands back to the detector.
     */
    void reset() { size_ = 0; }

    bool operator==(const VectorClock &other) const;

    friend std::ostream &operator<<(std::ostream &os,
                                    const VectorClock &vc);

    /** Flat component storage (tests). */
    const ClockValue *data() const
    {
        // Invariant hint: components past kInlineSlots always live on
        // the heap (grow() promotes before size_ can exceed it).
        // Without this, GCC's range propagation follows the inline
        // branch for size_ > kInlineSlots accesses and reports
        // out-of-bounds writes that cannot happen.
        if (heap_ == nullptr && size_ > kInlineSlots)
            __builtin_unreachable();
        return heap_ != nullptr ? heap_ : inline_;
    }

  private:
    ClockValue *data()
    {
        if (heap_ == nullptr && size_ > kInlineSlots)
            __builtin_unreachable();
        return heap_ != nullptr ? heap_ : inline_;
    }

    /** Ensure capacity >= @p n without touching size or contents. */
    void reserve(std::uint32_t n)
    {
        if (n > cap_)
            promote(n);
    }

    /** Grow the stored size to @p n, zero-filling the new tail. */
    void grow(std::uint32_t n)
    {
        if (n > cap_)
            promote(n);
        std::fill(data() + size_, data() + n, ClockValue{0});
        size_ = n;
    }

    /** Dense promotion: move components to a bigger heap array. */
    void promote(std::uint32_t n);

    void stealFrom(VectorClock &other) noexcept
    {
        size_ = other.size_;
        cap_ = other.cap_;
        heap_ = other.heap_;
        if (heap_ == nullptr)
            std::copy_n(other.inline_, size_, inline_);
        other.heap_ = nullptr;
        other.size_ = 0;
        other.cap_ = kInlineSlots;
    }

    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInlineSlots;

    /** Dense heap array once promoted; null while inline. */
    ClockValue *heap_ = nullptr;

    ClockValue inline_[kInlineSlots];
};

} // namespace hdrd::detect

#endif // HDRD_DETECT_VECTOR_CLOCK_HH
