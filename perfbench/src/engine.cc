#include "engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "capture.hh"
#include "common/alloc_stats.hh"
#include "metrics.hh"
#include "replay.hh"
#include "runtime/simulator.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace hdrd;

namespace
{

const char *const kContended = "engine-contended";
const char *const kGated = "engine-gated";

/** One cell: a generated program under one analysis configuration. */
struct CellSpec
{
    std::string label;
    const workloads::WorkloadInfo *info = nullptr;
    double scale = 1.0;
    runtime::SimConfig config;

    /** Ops the traced run captures and replays. */
    std::uint64_t window = 0;
};

workloads::WorkloadParams
programParams(std::uint64_t seed, double scale)
{
    workloads::WorkloadParams params;
    params.nthreads = 4;
    params.scale = scale;
    params.seed = seed + 41;  // hdrd_sim's program seed for --seed
    return params;
}

std::vector<CellSpec>
engineCells(const std::string &workload, std::uint64_t seed)
{
    std::vector<CellSpec> cells;
    const auto add = [&](const std::string &name, double scale,
                         instr::ToolMode mode,
                         runtime::DetectorKind detector,
                         std::uint64_t window) {
        CellSpec cell;
        cell.info = workloads::findWorkload(name);
        if (cell.info == nullptr)
            die("workload " + name + " is not registered");
        cell.scale = scale;
        cell.config.mode = mode;
        cell.config.detector = detector;
        cell.config.mem.ncores = 4;
        cell.config.seed = seed;
        cell.window = window;
        std::ostringstream label;
        label << name << '@' << scale << '/'
              << (detector == runtime::DetectorKind::kLockset
                      ? "lockset"
                      : "fasttrack")
              << '/'
              << (mode == instr::ToolMode::kDemand ? "demand-hitm"
                                                   : "continuous");
        cell.label = label.str();
        cells.push_back(std::move(cell));
    };
    if (workload == kContended) {
        // Shadow footprint spills host cache at scale 4.
        for (const char *name : {"stream.shared_mix", "stream.hot_cold"})
            for (const auto det : {runtime::DetectorKind::kFastTrack,
                                   runtime::DetectorKind::kLockset})
                add(name, 4.0, instr::ToolMode::kContinuous, det,
                    std::uint64_t{1} << 20);
    } else if (workload == kGated) {
        add("stream.scan", 4.0, instr::ToolMode::kDemand,
            runtime::DetectorKind::kFastTrack, std::uint64_t{1} << 20);
        for (const auto &info : workloads::allWorkloads())
            add(info.name, 1.0, instr::ToolMode::kDemand,
                runtime::DetectorKind::kFastTrack,
                std::uint64_t{1} << 18);
    } else {
        die("unknown engine workload " + workload);
    }
    return cells;
}

/** Digest of the run's golden-format dump. */
std::uint64_t
dumpDigest(const runtime::RunResult &result)
{
    std::ostringstream os;
    result.dump(os);
    return fnv1a(os.str());
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** This seed's "label -> digest" lines of the frozen manifest. */
std::map<std::string, std::string>
loadDigests(const std::string &path, std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read digest manifest " + path);
    std::map<std::string, std::string> digests;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t s = 0;
        std::string label, digest;
        if (!(fields >> s >> label >> digest))
            die("malformed digest line: " + line);
        if (s == seed)
            digests[label] = digest;
    }
    return digests;
}

/** Everything set up before timing starts. */
struct EngineSetup
{
    std::map<std::string, std::string> digests;
    std::vector<CellSpec> cells;
    std::unique_ptr<runtime::Simulator> engine;
};

EngineSetup
setUp(const Options &opt, std::uint64_t seed)
{
    EngineSetup s;
    s.digests = loadDigests(opt.digests, seed);
    s.cells = engineCells(opt.workload, seed);
    for (const CellSpec &cell : s.cells) {
        if (!s.digests.count(cell.label))
            die("no frozen digest for seed " + std::to_string(seed)
                + " cell " + cell.label);
    }
    // One engine for the whole run, as in a daemon worker. Warm it
    // with every cell at a sixteenth of its size so page pools and
    // code are in place before the first timed cell.
    s.engine = std::make_unique<runtime::Simulator>(s.cells[0].config);
    for (const CellSpec &cell : s.cells) {
        s.engine->reconfigure(cell.config);
        auto program =
            cell.info->factory(programParams(seed, cell.scale / 16.0));
        s.engine->run(*program);
    }
    return s;
}

/**
 * What one reference walk counts as: about its CPU time on the host
 * this was sized on, so normalised times read as seconds there.
 */
constexpr double kReferenceWalkS = 5e-3;

/**
 * CPU seconds of 2^15 steps of a dependent walk over a fixed 16 MiB
 * random ring (a few milliseconds). It is memory-latency bound, as the
 * engine is, so it slows down and speeds up with the host as the
 * engine does; cells are timed in units of it.
 */
double
referenceCpuSeconds()
{
    static const std::vector<std::uint32_t> ring = [] {
        const std::uint32_t n = std::uint32_t{1} << 22;
        std::vector<std::uint32_t> order(n);
        for (std::uint32_t i = 0; i < n; ++i)
            order[i] = i;
        std::uint64_t x = 88172645463325252ULL;  // fixed xorshift seed
        for (std::uint32_t i = n - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(order[i], order[x % (i + 1)]);
        }
        std::vector<std::uint32_t> next(n);
        for (std::uint32_t i = 0; i < n; ++i)
            next[order[i]] = order[(i + 1) % n];
        return next;
    }();
    static std::uint32_t at = 0;
    const double c0 = threadCpuSeconds();
    for (int i = 0; i < (1 << 15); ++i)
        at = ring[at];
    return threadCpuSeconds() - c0;
}

/** One timed cell. */
struct CellSample
{
    double cpu_s = 0.0;

    /**
     * cpu_s in reference walks (the mean of one walk before the cell
     * and one after), times kReferenceWalkS.
     */
    double norm_s = 0.0;

    double wall_s = 0.0;
    std::uint64_t ops = 0;
    double rss_mb = 0.0;
};

class EngineRun
{
  public:
    EngineRun(const Options &opt, std::uint64_t seed)
        : opt_(opt), seed_(seed)
    {
    }

    /** Set up five times; keep the last, return the median CPU time. */
    double setUpRepeated()
    {
        std::vector<double> times;
        for (int rep = 0; rep < 5; ++rep) {
            setup_ = EngineSetup{};
            const double c0 = threadCpuSeconds();
            setup_ = setUp(opt_, seed_);
            times.push_back(threadCpuSeconds() - c0);
        }
        return median(times);
    }

    /**
     * Whole sweeps over the cells for about @p budget_s: at least
     * one, and no sweep that would end more than half a sweep late.
     */
    void sweepFor(double budget_s, SpanLog &spans)
    {
        const auto start = Clock::now();
        for (double done = 1.0;; done += 1.0) {
            std::vector<CellSample> sweep;
            for (const CellSpec &cell : setup_.cells)
                sweep.push_back(runCell(cell, spans));
            sweeps_.push_back(std::move(sweep));
            const double elapsed = seconds(start, Clock::now());
            if (elapsed + elapsed / done / 2.0 >= budget_s)
                break;
        }
    }

    /** The traced sweep: capture, check, replay every cell. */
    void tracedSweep(SpanLog &spans, EngineTrace &trace,
                     double &traced_cpu_s, std::uint64_t &traced_ops)
    {
        const std::string scratch = opt_.work_dir + "/window.trc";
        for (const CellSpec &cell : setup_.cells) {
            auto program =
                cell.info->factory(programParams(seed_, cell.scale));
            setup_.engine->reconfigure(cell.config);
            CellCapture capture;
            capture.owner = cell.label;
            const double c0 = threadCpuSeconds();
            const runtime::RunResult full = runCaptured(
                *setup_.engine, *program, cell.window, capture);
            traced_cpu_s += threadCpuSeconds() - c0;
            traced_ops += full.total_ops;
            check(cell, full);
            trace.addRun(full, cell.config, cell.label,
                         program->numThreads());
            std::string err;
            if (!replayWindow(capture, scratch, spans, trace.costs, err))
                die("replay-fidelity gate failed: " + err);
        }
    }

    const std::vector<std::vector<CellSample>> &sweeps() const
    {
        return sweeps_;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    CellSample runCell(const CellSpec &cell, SpanLog &spans)
    {
        auto program = cell.info->factory(programParams(seed_, cell.scale));
        setup_.engine->reconfigure(cell.config);
        // Per-cell watermark, as the large bench tier measures it.
        resetPeakRssWatermark();
        Span span{"runtime", "Simulator::run", cell.label, spans.nowUs(),
                  0.0, 1};
        const double ref0 = referenceCpuSeconds();
        const auto t0 = Clock::now();
        const double c0 = threadCpuSeconds();
        const runtime::RunResult result = setup_.engine->run(*program);
        const double c1 = threadCpuSeconds();
        const auto t1 = Clock::now();
        const double ref1 = referenceCpuSeconds();
        span.end_us = spans.nowUs();
        spans.add(std::move(span));
        CellSample sample;
        sample.cpu_s = c1 - c0;
        sample.norm_s = sample.cpu_s / ((ref0 + ref1) / 2.0) * kReferenceWalkS;
        sample.wall_s = seconds(t0, t1);
        sample.ops = result.total_ops;
        sample.rss_mb = static_cast<double>(peakRssKb()) / 1024.0;
        check(cell, result);
        return sample;
    }

    void check(const CellSpec &cell, const runtime::RunResult &result)
    {
        ++attempted_;
        const std::string got = hex(dumpDigest(result));
        if (got != setup_.digests[cell.label]) {
            ++failed_;
            std::fprintf(stderr,
                         "perfbench: %s seed %llu: dump digest %s, "
                         "frozen %s\n",
                         cell.label.c_str(),
                         static_cast<unsigned long long>(seed_),
                         got.c_str(),
                         setup_.digests[cell.label].c_str());
        }
    }

    const Options &opt_;
    std::uint64_t seed_;
    EngineSetup setup_;
    std::vector<std::vector<CellSample>> sweeps_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Simulated ops per CPU second over a set of samples. */
double
cpuRate(const std::vector<CellSample> &samples)
{
    double cpu_s = 0.0;
    std::uint64_t ops = 0;
    for (const CellSample &s : samples) {
        cpu_s += s.cpu_s;
        ops += s.ops;
    }
    return cpu_s > 0.0 ? static_cast<double>(ops) / cpu_s : 0.0;
}

} // namespace

bool
isEngineWorkload(const std::string &name)
{
    return name == kContended || name == kGated;
}

Result
runEngineWorkload(const Options &opt)
{
    const std::uint64_t seed = inputSeed(opt);
    SpanLog spans;
    EngineRun run(opt, seed);
    EndToEnd e2e;
    e2e.setup_s = run.setUpRepeated();

    Result result;
    if (!opt.trace) {
        run.sweepFor(opt.seconds, spans);
        // Each cell's median normalised CPU time over the sweeps. CPU
        // time leaves out what the hypervisor steals from the virtual
        // CPU (wall time on the shared host this was sized on moved by
        // 20-40% for whole runs at a time), and the reference walks
        // take out the host's speed, which still swung by up to a
        // half for minutes at a time (see perfbench/README.md).
        const auto &sweeps = run.sweeps();
        const std::size_t ncells = sweeps.front().size();
        double sweep_norm_s = 0.0;
        double sweep_cpu_s = 0.0;
        double sweep_wall_s = 0.0;
        double rss_sum = 0.0;
        std::uint64_t sweep_ops = 0;
        for (std::size_t c = 0; c < ncells; ++c) {
            std::vector<double> norm, cpu, wall;
            for (const auto &sweep : sweeps) {
                norm.push_back(sweep[c].norm_s);
                cpu.push_back(sweep[c].cpu_s);
                wall.push_back(sweep[c].wall_s);
                rss_sum += sweep[c].rss_mb;
            }
            sweep_norm_s += median(norm);
            sweep_cpu_s += median(cpu);
            sweep_wall_s += median(wall);
            sweep_ops += sweeps.front()[c].ops;
        }
        e2e.peak_rss_mb =
            rss_sum / static_cast<double>(sweeps.size() * ncells);
        e2e.sim_ops_per_cpu_s =
            static_cast<double>(sweep_ops) / sweep_norm_s;
        e2e.cpu_ms_per_job =
            sweep_norm_s * 1e3 / static_cast<double>(ncells);
        result.metrics = e2e.metrics();
        std::fprintf(stderr,
                     "perfbench: %s seed %llu: %zu sweeps of %zu cells; "
                     "median sweep %.4g normalised s, %.4g CPU s, "
                     "%.4g wall s\n",
                     opt.workload.c_str(),
                     static_cast<unsigned long long>(seed), sweeps.size(),
                     ncells, sweep_norm_s, sweep_cpu_s, sweep_wall_s);
    } else {
        // One traced sweep between two untraced quarters (so drift
        // cancels in the overhead); the traced sweep gives the
        // per-layer numbers.
        EngineTrace trace;
        double traced_cpu_s = 0.0;
        std::uint64_t traced_ops = 0;
        run.sweepFor(opt.seconds / 4.0, spans);
        run.tracedSweep(spans, trace, traced_cpu_s, traced_ops);
        run.sweepFor(opt.seconds / 4.0, spans);
        std::vector<CellSample> all;
        for (const auto &sweep : run.sweeps())
            all.insert(all.end(), sweep.begin(), sweep.end());
        for (const CellSample &s : all) {
            trace.run_ns += s.cpu_s * 1e9;
            trace.run_ops += s.ops;
        }
        const double untraced = cpuRate(all);
        const double traced =
            static_cast<double>(traced_ops) / traced_cpu_s;
        result.metrics = perLayerMetrics(
            trace, ServiceTrace{}, (1.0 - traced / untraced) * 100.0);
    }
    result.attempted = run.attempted();
    result.failed = run.failed();
    writeSpans(opt, spans);
    return result;
}

void
freezeDigests(const Options &opt)
{
    struct Task
    {
        std::uint64_t seed;
        CellSpec cell;
        std::string digest;
    };
    std::vector<Task> tasks;
    for (std::uint64_t seed = 1; seed <= kHeldOutSeed; ++seed) {
        for (const char *workload : {kContended, kGated}) {
            for (CellSpec &cell : engineCells(workload, seed))
                tasks.push_back({seed, std::move(cell), ""});
        }
    }
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        std::unique_ptr<runtime::Simulator> engine;
        for (std::size_t i = next.fetch_add(1); i < tasks.size();
             i = next.fetch_add(1)) {
            Task &t = tasks[i];
            if (!engine)
                engine = std::make_unique<runtime::Simulator>(t.cell.config);
            engine->reconfigure(t.cell.config);
            auto program =
                t.cell.info->factory(programParams(t.seed, t.cell.scale));
            t.digest = hex(dumpDigest(engine->run(*program)));
        }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();

    std::ofstream out(opt.digests, std::ios::trunc);
    out << "# FNV-1a 64 of RunResult::dump per engine cell and input "
           "seed.\n"
           "# Regenerate: python3 perfbench/run.py --freeze-digests\n";
    for (const Task &t : tasks)
        out << t.seed << ' ' << t.cell.label << ' ' << t.digest << '\n';
    if (!out)
        die("cannot write " + opt.digests);
}

} // namespace perfbench
