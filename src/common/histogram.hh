/**
 * @file
 * Fixed-bucket and log2 histograms for simulator statistics.
 */

#ifndef HDRD_COMMON_HISTOGRAM_HH
#define HDRD_COMMON_HISTOGRAM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <vector>

namespace hdrd
{

/**
 * Power-of-two-bucketed histogram of non-negative samples.
 *
 * Bucket i counts samples in [2^(i-1), 2^i), with bucket 0 reserved
 * for the value 0. Suits latency/burst-length distributions whose
 * interesting structure spans several orders of magnitude.
 */
class Log2Histogram
{
  public:
    /** Record one sample. */
    void add(std::uint64_t value) { add(value, 1); }

    /**
     * Record @p n samples of @p value; the same as @p n single adds
     * (a histogram does not depend on the order of its samples), and
     * nothing at all when @p n is 0.
     */
    void add(std::uint64_t value, std::uint64_t n)
    {
        if (n == 0)
            return;
        const std::size_t idx = bucketIndex(value);
        if (idx >= buckets_.size())
            buckets_.resize(idx + 1, 0);
        buckets_[idx] += n;
        count_ += n;
        sum_ += value * n;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Sum of all samples. */
    std::uint64_t sum() const { return sum_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Count in log2 bucket @p i (0 when beyond populated range). */
    std::uint64_t bucket(std::size_t i) const;

    /** Number of populated buckets. */
    std::size_t buckets() const { return buckets_.size(); }

    /** Smallest sample seen; 0 when empty. */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /** Largest sample seen; 0 when empty. */
    std::uint64_t max() const { return max_; }

    /**
     * Approximate p-th percentile (p in [0,100]) assuming uniform
     * spread within buckets. Exact for the 0-bucket.
     */
    double percentile(double p) const;

    /** Reset to empty. */
    void reset();

    /** Human-readable dump: one "[lo,hi) count" line per bucket. */
    void dump(std::ostream &os, const char *label = "") const;

  private:
    /** Bucket index: 0 for value 0, else 1 + floor(log2(value)). */
    static std::size_t bucketIndex(std::uint64_t value)
    {
        if (value == 0)
            return 0;
        return static_cast<std::size_t>(std::bit_width(value));
    }

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

} // namespace hdrd

#endif // HDRD_COMMON_HISTOGRAM_HH
