/**
 * @file
 * hdrd_bench — the engine self-benchmark harness.
 *
 * Fans the registered workloads x {native, continuous, demand-hitm}
 * across a worker pool of host threads (simulations are independent),
 * times each cell, and writes the aggregate host-side throughput to a
 * BENCH_engine.json (schema hdrd-bench-v2, see docs/PERF.md). This is
 * the number that gates engine perf work: the continuous-FastTrack
 * aggregate is the headline "how fast does the simulator go" figure.
 *
 * Two tiers. The default tier sweeps the frozen workload registry at
 * --scale (0.5 by default), where simulated working sets fit host
 * cache — good for instruction-path regressions, blind to memory
 * ones. --tier=large sweeps the long-stream workloads over a
 * scale x detector x mode grid (the ABL-11 working-set sweep): data
 * regions scale with --scales so the detector's shadow spills host
 * cache, cells run on one worker with a per-cell peak-RSS watermark
 * (VmHWM reset between cells), and footprint becomes a first-class,
 * gateable axis (--max-rss-kb).
 *
 * Each cell reuses one Simulator engine across its repetitions — the
 * same per-job reuse hdrd_served does — so the repeat loop exercises
 * (and --check validates) the shadow-recycling path, and the v2
 * allocator columns report its steady state. Allocation counting
 * comes from alloc_interpose.cc, linked into this binary only.
 *
 *   hdrd_bench                          # full sweep, BENCH_engine.json
 *   hdrd_bench --smoke --check          # CI: subset + determinism check
 *   hdrd_bench --tier=large             # ABL-11 long-stream sweep
 *   hdrd_bench --tier=large --append    # add large cells to the file
 *   hdrd_bench --workers=8 --repeat=3   # quieter timing on a busy host
 *   hdrd_bench --hashes=FILE            # dump-hash manifest for
 *                                       # cross-build diffs
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/utsname.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/alloc_stats.hh"
#include "common/bench_json.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "instr/cost_model.hh"
#include "pmu/faults.hh"
#include "runtime/simulator.hh"
#include "service/metrics.hh"
#include "service/worker_pool.hh"
#include "workloads/registry.hh"

using namespace hdrd;

namespace
{

struct Options
{
    double scale = 0.5;
    std::uint64_t seed = 1;
    std::uint32_t threads = 4;
    std::uint32_t cores = 4;
    std::uint32_t workers = 0;  ///< 0 = hardware concurrency
    std::uint32_t repeat = 1;
    bool smoke = false;
    bool check = false;
    bool large = false;        ///< --tier=large
    bool append = false;       ///< merge cells into an existing file
    bool cell_rss = false;     ///< resolved in main: per-cell VmHWM
    std::string suite;
    std::string modes = "native,continuous,demand-hitm";
    std::string detectors = "fasttrack";
    std::string scales;        ///< large tier: comma list of scales
    std::string out = "BENCH_engine.json";
    std::string metrics_dump;
    std::string hashes_out;
    double baseline_ops = 0.0;
    std::uint64_t max_rss_kb = 0;  ///< 0 = no gate

    /** Degraded-signal sweep: resolved --faults= spec. */
    pmu::FaultConfig faults;
};

void
usage()
{
    std::puts(
        "hdrd_bench — engine self-benchmark (workloads x modes)\n"
        "\n"
        "  --smoke          micro suite at scale 0.1 (fast CI subset);\n"
        "                   with --tier=large: stream suite at scale 1\n"
        "  --check          run every cell twice; exit 3 if any dump\n"
        "                   differs between runs (nondeterminism)\n"
        "  --tier=NAME      'default' (registry sweep at --scale) or\n"
        "                   'large' (ABL-11 long-stream sweep: stream\n"
        "                   suite x --scales x --detectors x --modes,\n"
        "                   one worker, per-cell peak-RSS watermark)\n"
        "  --scales=LIST    large tier: comma list of workload scales\n"
        "                   (default 4,8; data regions scale with it)\n"
        "  --detectors=LIST large tier: comma list of fasttrack,"
        "lockset\n"
        "  --append         merge this run's cells into --out instead\n"
        "                   of overwriting; refuses files whose schema\n"
        "                   or host/build stamps mismatch\n"
        "  --max-rss-kb=N   exit 4 if any cell's peak_rss_kb exceeds N\n"
        "                   (CI footprint gate; large tier only)\n"
        "  --workers=N      host worker threads (default: all cores;\n"
        "                   forced to 1 by --tier=large)\n"
        "  --repeat=N       timing repetitions per cell, best kept\n"
        "  --scale=F        workload size multiplier (default 0.5)\n"
        "  --suite=NAME     restrict to one workload suite\n"
        "  --modes=LIST     comma list of native,continuous,"
        "demand-hitm\n"
        "  --threads=N --cores=N  simulated topology (default 4/4)\n"
        "  --seed=N         simulation seed (default 1)\n"
        "  --baseline-ops=F pre-change continuous-FastTrack ops/sec\n"
        "                   to embed for speedup accounting\n"
        "  --faults=SPEC    run every cell under a fault profile\n"
        "                   (name, file, or key=value list); cells\n"
        "                   stay deterministic, so --check still "
        "gates\n"
        "  --hashes=FILE    write 'workload mode hash' lines (FNV-1a\n"
        "                   of each cell's dump) for cross-build "
        "diffing;\n"
        "                   large tier lines are 'workload@scale mode "
        "hash'\n"
        "  --out=FILE       JSON output (default BENCH_engine.json)\n"
        "  --metrics-dump=FILE  write the pool's hdrd-metrics-v1\n"
        "                   snapshot (same schema hdrd_served "
        "serves)");
}

bool
eat(const char *arg, const char *key, std::string &out)
{
    const std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) != 0)
        return false;
    out = arg + n;
    return true;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0) {
            usage();
            std::exit(0);
        } else if (std::strcmp(arg, "--smoke") == 0) {
            opt.smoke = true;
        } else if (std::strcmp(arg, "--check") == 0) {
            opt.check = true;
        } else if (std::strcmp(arg, "--append") == 0) {
            opt.append = true;
        } else if (eat(arg, "--tier=", value)) {
            if (value == "large")
                opt.large = true;
            else if (value != "default")
                fatal("unknown tier '", value,
                      "' (expected 'default' or 'large')");
        } else if (eat(arg, "--scales=", value)) {
            opt.scales = value;
        } else if (eat(arg, "--detectors=", value)) {
            opt.detectors = value;
        } else if (eat(arg, "--max-rss-kb=", value)) {
            opt.max_rss_kb = cli::parseU64("max-rss-kb", value);
        } else if (eat(arg, "--workers=", value)) {
            opt.workers = cli::parseU32("workers", value, 0, 4096);
        } else if (eat(arg, "--repeat=", value)) {
            opt.repeat = cli::parseU32("repeat", value, 0, 1000);
        } else if (eat(arg, "--scale=", value)) {
            opt.scale = cli::parseDouble("scale", value, 1e-6, 1e6);
        } else if (eat(arg, "--suite=", value)) {
            opt.suite = value;
        } else if (eat(arg, "--modes=", value)) {
            opt.modes = value;
        } else if (eat(arg, "--threads=", value)) {
            opt.threads = cli::parseU32("threads", value, 1, 4096);
        } else if (eat(arg, "--cores=", value)) {
            opt.cores = cli::parseU32("cores", value, 1, 1024);
        } else if (eat(arg, "--seed=", value)) {
            opt.seed = cli::parseU64("seed", value);
        } else if (eat(arg, "--baseline-ops=", value)) {
            opt.baseline_ops =
                cli::parseDouble("baseline-ops", value, 0.0, 1e18);
        } else if (eat(arg, "--faults=", value)) {
            std::string err;
            if (!pmu::resolveFaultSpec(value, opt.faults, err))
                fatal("--faults: ", err);
        } else if (eat(arg, "--hashes=", value)) {
            opt.hashes_out = value;
        } else if (eat(arg, "--out=", value)) {
            opt.out = value;
        } else if (eat(arg, "--metrics-dump=", value)) {
            opt.metrics_dump = value;
        } else {
            usage();
            fatal("unknown option '", arg, "'");
        }
    }
    if (opt.repeat == 0)
        opt.repeat = 1;
    if (opt.large) {
        if (opt.scales.empty())
            opt.scales = opt.smoke ? "1" : "4,8";
        if (opt.smoke)
            opt.detectors = "fasttrack";
    } else {
        if (!opt.scales.empty())
            fatal("--scales requires --tier=large");
        if (opt.smoke) {
            // CI subset: every mode, micro suite only, small scale.
            if (opt.suite.empty())
                opt.suite = "micro";
            opt.scale = 0.1;
        }
    }
    return opt;
}

/** One unit of work for the pool. */
struct Cell
{
    const workloads::WorkloadInfo *info = nullptr;
    instr::ToolMode mode = instr::ToolMode::kNative;
    const char *mode_name = "";
    runtime::DetectorKind detector =
        runtime::DetectorKind::kFastTrack;
    const char *detector_name = "fasttrack";
    double scale = 0.0;  ///< 0 = Options::scale
    benchjson::BenchCell result;

    /** FNV-1a of the first repetition's dump (for --hashes). */
    std::uint64_t dump_hash = 0;
};

/** FNV-1a 64-bit, the manifest hash for cross-build dump diffing. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

runtime::SimConfig
cellConfig(const Options &opt, const Cell &cell)
{
    runtime::SimConfig config;
    config.mode = cell.mode;
    config.detector = cell.detector;
    config.gating.strategy = demand::Strategy::kDemandHitm;
    config.mem.ncores = opt.cores;
    config.seed = opt.seed;
    config.faults = opt.faults;
    return config;
}

void
runCell(Cell &cell, const Options &opt)
{
    const runtime::SimConfig config = cellConfig(opt, cell);
    workloads::WorkloadParams params;
    params.nthreads = opt.threads;
    params.scale = cell.scale > 0.0 ? cell.scale : opt.scale;
    params.seed = opt.seed + 41;  // matches hdrd_sim's program seed

    // Attribute the peak-RSS watermark to this cell alone (single
    // worker: nothing else is resident-growing concurrently). The
    // allocator must first hand freed arena pages back to the OS:
    // without the trim, residual RSS from a bigger earlier cell
    // floors every later cell's "peak".
    if (opt.cell_rss) {
#if defined(__GLIBC__)
        malloc_trim(0);
#endif
        resetPeakRss();
    }

    double best_seconds = 0.0;
    std::string dump;
    runtime::RunResult result;
    // One engine reused across repetitions, like a service worker
    // serving back-to-back jobs: repeats after the first run against
    // recycled shadow storage, so --check also gates the recycling
    // path, and the final rep's allocator delta is its steady state.
    runtime::Simulator engine(config);
    AllocCounters alloc_last;
    for (std::uint32_t rep = 0; rep < opt.repeat + (opt.check ? 1u : 0u);
         ++rep) {
        auto program = cell.info->factory(params);
        const AllocCounters alloc0 = threadAllocCounters();
        const auto t0 = std::chrono::steady_clock::now();
        runtime::RunResult r = engine.run(*program);
        const auto t1 = std::chrono::steady_clock::now();
        const AllocCounters alloc1 = threadAllocCounters();
        const double seconds =
            std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || seconds < best_seconds)
            best_seconds = seconds;
        alloc_last = AllocCounters{alloc1.count - alloc0.count,
                                   alloc1.bytes - alloc0.bytes};

        std::ostringstream os;
        r.dump(os);
        if (rep == 0) {
            dump = os.str();
            result = std::move(r);
        } else if (os.str() != dump) {
            cell.result.deterministic = false;
        }
    }
    cell.dump_hash = fnv1a(dump);

    benchjson::BenchCell &out = cell.result;
    out.workload = cell.info->name;
    out.suite = cell.info->suite;
    out.mode = cell.mode_name;
    out.detector = cell.mode == instr::ToolMode::kNative
        ? "none"
        : cell.detector_name;
    out.wall_seconds = best_seconds;
    out.sim_ops = result.total_ops;
    out.sim_mem_accesses = result.mem_accesses;
    out.sim_wall_cycles = result.wall_cycles;
    out.races_unique = result.reports.uniqueCount();
    out.host_ops_per_sec = best_seconds > 0.0
        ? static_cast<double>(result.total_ops) / best_seconds
        : 0.0;
    out.alloc_count = alloc_last.count;
    out.alloc_bytes = alloc_last.bytes;
    out.scale = params.scale;
    out.peak_rss_kb = opt.cell_rss ? peakRssKb() : 0;
    out.checked = opt.check || opt.repeat > 1;
}

/** uname-based host stamp: trajectory files must not silently mix
 *  numbers from different machines. */
std::string
hostStamp()
{
    struct utsname u{};
    if (uname(&u) != 0)
        return "unknown";
    return std::string(u.nodename) + "/" + u.machine;
}

/** Compiler stamp, same hygiene reason as hostStamp(). */
std::string
buildStamp()
{
#if defined(__clang__)
    return std::string("clang-") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc-") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Extract `"key": <value>` from a one-line JSON cell. */
bool
jsonField(const std::string &line, const char *key, std::string &out)
{
    const std::string needle = std::string{"\""} + key + "\": ";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t begin = at + needle.size();
    std::size_t end;
    if (line[begin] == '"') {
        ++begin;
        end = line.find('"', begin);
    } else {
        end = line.find_first_of(",}", begin);
    }
    if (end == std::string::npos)
        return false;
    out = line.substr(begin, end - begin);
    return true;
}

/**
 * Load the cells of an existing hdrd-bench-v2 file for --append.
 * Refuses (fatal) on schema, host, or build mismatch, and on any
 * cell missing the v2 columns — appending would silently mix
 * incomparable numbers into one trajectory file.
 */
std::vector<benchjson::BenchCell>
loadCellsForAppend(const std::string &path,
                   const benchjson::BenchMeta &meta)
{
    std::ifstream in(path);
    if (!in)
        fatal("--append: cannot read ", path);
    std::vector<benchjson::BenchCell> cells;
    std::string line;
    bool schema_ok = false;
    while (std::getline(in, line)) {
        std::string v;
        if (line.find("\"schema\": ") != std::string::npos) {
            if (!jsonField(line, "schema", v)
                || v != "hdrd-bench-v2")
                fatal("--append: ", path, " has schema '", v,
                      "', want hdrd-bench-v2; regenerate it instead "
                      "of mixing schemas");
            schema_ok = true;
        } else if (line.find("    \"host\": ") == 0) {
            if (jsonField(line, "host", v) && v != meta.host)
                fatal("--append: ", path, " was recorded on host '",
                      v, "', this run is '", meta.host,
                      "'; cross-host cells are not comparable");
        } else if (line.find("    \"build\": ") == 0) {
            if (jsonField(line, "build", v) && v != meta.build)
                fatal("--append: ", path, " was built with '", v,
                      "', this run is '", meta.build,
                      "'; cross-build cells are not comparable");
        } else if (line.find("{\"workload\": ") != std::string::npos) {
            benchjson::BenchCell c;
            std::string f;
            // All v2 columns must be present; a v1-era cell missing
            // the memory columns is a schema mismatch, not a zero.
            if (!jsonField(line, "workload", c.workload)
                || !jsonField(line, "suite", c.suite)
                || !jsonField(line, "mode", c.mode)
                || !jsonField(line, "detector", c.detector)
                || !jsonField(line, "wall_seconds", f)
                || (c.wall_seconds = std::stod(f), false)
                || !jsonField(line, "sim_ops", f)
                || (c.sim_ops = std::stoull(f), false)
                || !jsonField(line, "sim_mem_accesses", f)
                || (c.sim_mem_accesses = std::stoull(f), false)
                || !jsonField(line, "sim_wall_cycles", f)
                || (c.sim_wall_cycles = std::stoull(f), false)
                || !jsonField(line, "races_unique", f)
                || (c.races_unique = std::stoull(f), false)
                || !jsonField(line, "host_ops_per_sec", f)
                || (c.host_ops_per_sec = std::stod(f), false)
                || !jsonField(line, "alloc_count", f)
                || (c.alloc_count = std::stoull(f), false)
                || !jsonField(line, "alloc_bytes", f)
                || (c.alloc_bytes = std::stoull(f), false)
                || !jsonField(line, "scale", f)
                || (c.scale = std::stod(f), false)
                || !jsonField(line, "peak_rss_kb", f)
                || (c.peak_rss_kb = std::stoull(f), false)
                || !jsonField(line, "checked", f)
                || (c.checked = f == "true", false)
                || !jsonField(line, "deterministic", f)
                || (c.deterministic = f == "true", false))
                fatal("--append: cell in ", path,
                      " is missing hdrd-bench-v2 columns; refusing "
                      "to mix schemas (regenerate the file)");
            cells.push_back(std::move(c));
        }
    }
    if (!schema_ok)
        fatal("--append: ", path, " has no schema stamp");
    return cells;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    struct ModeSpec
    {
        const char *name;
        instr::ToolMode mode;
    };
    static const ModeSpec kAllModes[] = {
        {"native", instr::ToolMode::kNative},
        {"continuous", instr::ToolMode::kContinuous},
        {"demand-hitm", instr::ToolMode::kDemand},
    };

    std::vector<ModeSpec> modes;
    {
        std::stringstream ss(opt.modes);
        std::string token;
        while (std::getline(ss, token, ',')) {
            bool found = false;
            for (const ModeSpec &spec : kAllModes) {
                if (token == spec.name) {
                    modes.push_back(spec);
                    found = true;
                }
            }
            if (!found)
                fatal("unknown mode '", token, "' in --modes");
        }
    }
    if (modes.empty())
        fatal("--modes selected nothing");

    struct DetectorSpec
    {
        const char *name;
        runtime::DetectorKind kind;
    };
    static const DetectorSpec kAllDetectors[] = {
        {"fasttrack", runtime::DetectorKind::kFastTrack},
        {"lockset", runtime::DetectorKind::kLockset},
    };
    std::vector<DetectorSpec> detectors;
    {
        std::stringstream ss(opt.detectors);
        std::string token;
        while (std::getline(ss, token, ',')) {
            bool found = false;
            for (const DetectorSpec &spec : kAllDetectors) {
                if (token == spec.name) {
                    detectors.push_back(spec);
                    found = true;
                }
            }
            if (!found)
                fatal("unknown detector '", token,
                      "' in --detectors (fasttrack, lockset)");
        }
    }
    if (detectors.empty())
        fatal("--detectors selected nothing");

    std::vector<double> scales;
    if (opt.large) {
        std::stringstream ss(opt.scales);
        std::string token;
        while (std::getline(ss, token, ','))
            scales.push_back(
                cli::parseDouble("scales", token, 1e-6, 1e6));
        if (scales.empty())
            fatal("--scales selected nothing");
    } else {
        scales.push_back(0.0);  // use opt.scale
    }

    // The cell grid. Default tier: registry x modes (FastTrack).
    // Large tier (ABL-11): stream suite x scales x detectors x
    // modes, native emitted once per (workload, scale) since it runs
    // no detector.
    std::vector<Cell> cells;
    const auto &registry = opt.large ? workloads::streamWorkloads()
                                     : workloads::allWorkloads();
    for (const double scale : scales) {
        for (const auto &info : registry) {
            if (!opt.suite.empty() && info.suite != opt.suite)
                continue;
            for (const ModeSpec &spec : modes) {
                const bool native =
                    spec.mode == instr::ToolMode::kNative;
                for (std::size_t d = 0;
                     d < (native ? 1u : detectors.size()); ++d) {
                    Cell cell;
                    cell.info = &info;
                    cell.mode = spec.mode;
                    cell.mode_name = spec.name;
                    cell.detector = detectors[d].kind;
                    cell.detector_name = detectors[d].name;
                    cell.scale = scale;
                    cells.push_back(std::move(cell));
                }
            }
        }
    }
    if (cells.empty())
        fatal("no cells selected (bad --suite?)");

    std::uint32_t nworkers = opt.workers != 0
        ? opt.workers
        : std::max(1u, std::thread::hardware_concurrency());
    nworkers = std::min<std::uint32_t>(
        nworkers, static_cast<std::uint32_t>(cells.size()));
    if (opt.large) {
        // Sequential cells: the per-cell RSS watermark is process-
        // wide, and cache-spilling cells would throttle each other.
        nworkers = 1;
        opt.cell_rss = true;
    }

    // Fan the cells across the shared service::WorkerPool. Capacity
    // covers the whole sweep, so the blocking submit never rejects;
    // each job writes only its own cell, keeping results identical
    // for any worker count.
    service::Metrics metrics;
    const auto sweep_t0 = std::chrono::steady_clock::now();
    {
        service::WorkerPoolConfig pool_config;
        pool_config.workers = nworkers;
        pool_config.queue_capacity = cells.size();
        service::WorkerPool pool(pool_config, &metrics);
        auto &cell_us = metrics.histogram("bench.cell_us");
        for (Cell &cell : cells) {
            pool.submit([&cell, &cell_us, &opt](std::uint32_t) {
                const auto t0 = std::chrono::steady_clock::now();
                runCell(cell, opt);
                const auto t1 = std::chrono::steady_clock::now();
                cell_us.record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(t1 - t0)
                        .count()));
            });
        }
        pool.drain();
    }
    const auto sweep_t1 = std::chrono::steady_clock::now();

    // Report (cell order, deterministic modulo the timings).
    bool all_deterministic = true;
    std::vector<benchjson::BenchCell> results;
    results.reserve(cells.size());
    const bool alloc_tracked = allocTrackingActive();
    for (const Cell &cell : cells) {
        const benchjson::BenchCell &r = cell.result;
        if (opt.large)
            std::printf("%-22s s%-4.3g %-10s %-11s %9.3f ms  "
                        "%12.0f ops/s  %9llu KiB",
                        r.workload.c_str(), r.scale,
                        r.detector.c_str(), r.mode.c_str(),
                        r.wall_seconds * 1e3, r.host_ops_per_sec,
                        static_cast<unsigned long long>(
                            r.peak_rss_kb));
        else
            std::printf("%-28s %-11s %9.3f ms  %12.0f ops/s",
                        r.workload.c_str(), r.mode.c_str(),
                        r.wall_seconds * 1e3, r.host_ops_per_sec);
        if (alloc_tracked)
            std::printf("  %8llu allocs",
                        static_cast<unsigned long long>(r.alloc_count));
        std::printf("%s\n",
                    r.deterministic ? "" : "  NONDETERMINISTIC");
        all_deterministic = all_deterministic && r.deterministic;
        results.push_back(r);
    }

    benchjson::BenchMeta meta;
    meta.tool = "hdrd_bench";
    meta.scale = opt.scale;
    meta.seed = opt.seed;
    meta.threads = opt.threads;
    meta.cores = opt.cores;
    meta.workers = nworkers;
    meta.repeat = opt.repeat;
    meta.smoke = opt.smoke;
    meta.baseline_continuous_ft_ops = opt.baseline_ops;
    meta.peak_rss_kb = peakRssKb();
    // Per-cell watermark resets clobber the process-lifetime peak;
    // recover it as the max any cell (or the tail) observed.
    for (const benchjson::BenchCell &r : results)
        meta.peak_rss_kb = std::max(meta.peak_rss_kb, r.peak_rss_kb);
    meta.alloc_tracked = alloc_tracked;
    meta.tier = opt.large ? "large" : "default";
    meta.host = hostStamp();
    meta.build = buildStamp();

    if (opt.append) {
        std::vector<benchjson::BenchCell> merged =
            loadCellsForAppend(opt.out, meta);
        merged.insert(merged.end(), results.begin(), results.end());
        results = std::move(merged);
    }

    std::ofstream out(opt.out);
    if (!out)
        fatal("cannot open ", opt.out, " for writing");
    benchjson::writeBenchJson(out, meta, results);

    if (!opt.metrics_dump.empty()
        && !metrics.dumpToFile(opt.metrics_dump))
        fatal("cannot write metrics to ", opt.metrics_dump);

    if (!opt.hashes_out.empty()) {
        // Timing-free manifest: one line per cell, stable across
        // worker counts and repeats. Large-tier sweeps mix scales,
        // so the workload column carries it.
        std::ofstream hf(opt.hashes_out);
        if (!hf)
            fatal("cannot open ", opt.hashes_out, " for writing");
        for (const Cell &cell : cells) {
            char buf[17];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(
                              cell.dump_hash));
            hf << cell.result.workload;
            if (opt.large)
                hf << '@' << cell.result.scale;
            if (opt.large && cell.mode != instr::ToolMode::kNative)
                hf << '/' << cell.result.detector;
            hf << ' ' << cell.result.mode << ' ' << buf << '\n';
        }
    }

    if (opt.faults.any())
        std::printf("\nfault profile: %s\n",
                    pmu::faultSpec(opt.faults).c_str());
    const double cont_ft = benchjson::continuousFtOpsPerSec(results);
    std::printf("\n%zu cells in %.2f s (%u workers) -> %s\n",
                cells.size(),
                std::chrono::duration<double>(sweep_t1 - sweep_t0)
                    .count(),
                nworkers, opt.out.c_str());
    std::printf("peak rss: %llu KiB%s\n",
                static_cast<unsigned long long>(meta.peak_rss_kb),
                alloc_tracked ? "" : ", allocs untracked");
    if (cont_ft > 0.0) {
        std::printf("continuous-fasttrack aggregate: %.0f ops/s",
                    cont_ft);
        if (opt.baseline_ops > 0.0)
            std::printf("  (%.2fx vs baseline %.0f)",
                        cont_ft / opt.baseline_ops, opt.baseline_ops);
        std::printf("\n");
    }
    if (opt.max_rss_kb > 0) {
        for (const Cell &cell : cells) {
            if (cell.result.peak_rss_kb > opt.max_rss_kb) {
                std::fprintf(
                    stderr,
                    "hdrd_bench: cell %s (%s, %s) peak rss %llu KiB "
                    "exceeds --max-rss-kb=%llu\n",
                    cell.result.workload.c_str(),
                    cell.result.detector.c_str(),
                    cell.result.mode.c_str(),
                    static_cast<unsigned long long>(
                        cell.result.peak_rss_kb),
                    static_cast<unsigned long long>(opt.max_rss_kb));
                return 4;
            }
        }
    }
    if (!all_deterministic) {
        std::fprintf(stderr,
                     "hdrd_bench: nondeterministic cell output\n");
        return 3;
    }
    return 0;
}
