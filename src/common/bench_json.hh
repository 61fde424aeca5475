/**
 * @file
 * Machine-readable benchmark output: the BENCH_engine.json schema.
 *
 * One schema ("hdrd-bench-v2"), written by tools/hdrd_bench (the
 * workload x mode sweep), so the perf trajectory is one homogeneous
 * series of files.
 *
 * v2 extends v1 with memory columns (per-cell allocator traffic when
 * the interposer is linked, and process peak RSS); every v1 field is
 * unchanged, so v1 consumers keep working on v2 files that they read
 * leniently.
 */

#ifndef HDRD_COMMON_BENCH_JSON_HH
#define HDRD_COMMON_BENCH_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hdrd::benchjson
{

/** One timed simulation: a (workload, mode) cell of the sweep. */
struct BenchCell
{
    std::string workload;  ///< registry name, e.g. "phoenix.histogram"
    std::string suite;     ///< registry suite, e.g. "phoenix"
    std::string mode;      ///< "native" | "continuous" | "demand-hitm"
    std::string detector;  ///< e.g. "fasttrack"

    /** Best host wall time over the repeat loop, in seconds. */
    double wall_seconds = 0.0;

    /** Simulated operations executed (RunResult::total_ops). */
    std::uint64_t sim_ops = 0;

    /** Simulated data accesses (RunResult::mem_accesses). */
    std::uint64_t sim_mem_accesses = 0;

    /** Simulated wall cycles (RunResult::wall_cycles). */
    std::uint64_t sim_wall_cycles = 0;

    /** Unique race reports. */
    std::uint64_t races_unique = 0;

    /** sim_ops / wall_seconds. */
    double host_ops_per_sec = 0.0;

    /** Was this cell re-run and compared for determinism? */
    bool checked = false;

    /** Dump output was byte-identical across the check re-run. */
    bool deterministic = true;

    /**
     * Allocator traffic while timing this cell (v2): operator-new
     * calls and requested bytes on the running thread. Zero when the
     * producing binary lacks the interposer (meta.alloc_tracked).
     */
    std::uint64_t alloc_count = 0;
    std::uint64_t alloc_bytes = 0;

    /** v2: workload scale this cell ran at (large-tier sweeps mix
     *  scales in one file; 0 = the sweep default in meta). */
    double scale = 0.0;

    /**
     * v2: peak RSS attributed to this cell in KiB, measured by
     * resetting the kernel watermark before the timed repeats and
     * reading VmHWM after. Meaningful only with workers == 1 (the
     * large tier forces that); 0 = not measured.
     */
    std::uint64_t peak_rss_kb = 0;
};

/** Sweep-level configuration recorded alongside the cells. */
struct BenchMeta
{
    std::string tool;  ///< producing binary, e.g. "hdrd_bench"
    double scale = 0.5;
    std::uint64_t seed = 1;
    std::uint32_t threads = 4;
    std::uint32_t cores = 4;
    std::uint32_t workers = 1;
    std::uint32_t repeat = 1;
    bool smoke = false;

    /**
     * Pre-change reference: aggregate continuous-FastTrack host
     * ops/sec of the engine being compared against (0 = not given).
     * Recorded so a single BENCH_engine.json documents both sides of
     * a perf PR.
     */
    double baseline_continuous_ft_ops = 0.0;

    /** v2: process peak resident set size at write time, in KiB. */
    std::uint64_t peak_rss_kb = 0;

    /** v2: were the per-cell alloc columns actually counted? */
    bool alloc_tracked = false;

    /** v2: bench tier that produced the cells ("default"|"large"). */
    std::string tier = "default";

    /** v2: host stamp (uname node/machine), for trajectory hygiene —
     *  cells from different hosts must not be compared silently. */
    std::string host;

    /** v2: build stamp (compiler + flags flavour), same reason. */
    std::string build;
};

/**
 * Aggregate throughput of the continuous-FastTrack cells: the
 * headline engine-speed number (sum of sim_ops / sum of wall time).
 */
double continuousFtOpsPerSec(const std::vector<BenchCell> &cells);

/** Serialize meta + cells + computed summary as hdrd-bench-v1 JSON. */
void writeBenchJson(std::ostream &os, const BenchMeta &meta,
                    const std::vector<BenchCell> &cells);

} // namespace hdrd::benchjson

#endif // HDRD_COMMON_BENCH_JSON_HH
