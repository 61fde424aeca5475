/**
 * @file
 * Shared pieces of the benchmark driver: options, the result line,
 * sample statistics, the in-memory span log, and process probes.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed from @p t0 to @p t1. */
inline double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * CPU seconds the calling thread has run. The kernel leaves out time
 * the hypervisor stole from the virtual CPU, so on a shared host this
 * measures the program, where wall time also measures its neighbours.
 */
double threadCpuSeconds();

/**
 * CPU seconds (user + system, every thread, live or exited) process
 * @p pid ("self" for this one) has run, from /proc; steal excluded.
 */
double processCpuSeconds(const std::string &pid);

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;

    /** Use the held-out input seed instead of --seed's pool entry. */
    bool heldout = false;

    /** Frozen engine-cell digests (perfbench/digests.txt). */
    std::string digests = "perfbench/digests.txt";

    /** Build directory: the span log is written here at exit. */
    std::string out_dir;

    /** Per-run scratch directory (traces, the daemon's socket). */
    std::string work_dir;

    /** --freeze-digests: rewrite the digest file and exit. */
    bool freeze = false;
};

/**
 * Input seed of this run. `--seed N` picks entry N mod kSeedPool of
 * a fixed pool (so every input has frozen output digests); the
 * held-out entry is reachable only through --heldout.
 */
constexpr std::uint64_t kSeedPool = 16;
constexpr std::uint64_t kHeldOutSeed = kSeedPool + 1;

inline std::uint64_t
inputSeed(const Options &opt)
{
    return opt.heldout ? kHeldOutSeed : 1 + opt.seed % kSeedPool;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports on its last stdout line. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/** Print @p result as the final one-line JSON object. */
void printResult(const Result &result);

/** Print a failure to stderr and exit 1 (no result line). */
[[noreturn]] void die(const std::string &message);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p (0..100) of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/** FNV-1a 64-bit, the digest of a RunResult::dump. */
std::uint64_t fnv1a(const std::string &s);

/** Return freed heap to the OS and reset the VmHWM watermark. */
void resetPeakRssWatermark();

/** VmHWM of process @p pid ("self" for this one), in KiB. */
std::uint64_t peakRssKbOf(const std::string &pid);

/**
 * One timed span, recorded from the benchmark's side of a layer
 * boundary. Spans stay in memory and are written out at exit.
 */
struct Span
{
    std::string layer;  ///< module name: trace, runtime, mem, ...
    std::string what;   ///< call or phase inside the layer
    std::string owner;  ///< cell or job the span belongs to
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t calls = 0;  ///< layer calls the span covers
};

/** The run's span log; add() may be called from several threads. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Microseconds since the log was created. */
    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now()
                                                         - origin_)
            .count();
    }

    void add(Span span)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    /** Write one JSON object per line. @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    const Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Write @p spans to out_dir/perfbench-spans-WORKLOAD[-traced].jsonl. */
void writeSpans(const Options &opt, const SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
