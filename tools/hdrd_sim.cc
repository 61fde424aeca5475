/**
 * @file
 * hdrd_sim — the command-line driver for the whole system.
 *
 * Run any registered workload (or a recorded trace) under any
 * analysis regime with every knob exposed, print the run summary and
 * race reports, optionally record a trace for later replay.
 *
 *   hdrd_sim --list
 *   hdrd_sim --workload=phoenix.kmeans --mode=demand
 *   hdrd_sim --workload=micro.racy_counter --mode=demand --sav=100
 *   hdrd_sim --workload=parsec.dedup --record=dedup.trc
 *   hdrd_sim --replay=dedup.trc --mode=continuous
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "instr/cost_model.hh"
#include "pmu/faults.hh"
#include "runtime/simulator.hh"
#include "service/report_json.hh"
#include "trace/trace_program.hh"
#include "workloads/registry.hh"

using namespace hdrd;

namespace
{

struct Options
{
    std::string workload;
    std::string replay;
    std::string record;
    std::string report_json;
    instr::ToolMode mode = instr::ToolMode::kDemand;
    runtime::DetectorKind detector =
        runtime::DetectorKind::kFastTrack;
    demand::Strategy strategy = demand::Strategy::kDemandHitm;
    demand::EnableScope scope = demand::EnableScope::kGlobal;
    bool pebs = false;
    bool track_gt = false;
    bool verbose = false;
    bool stats = false;
    double scale = 0.5;
    std::uint32_t threads = 4;
    std::uint32_t cores = 4;
    std::uint64_t seed = 1;
    std::uint64_t sav = 1;
    std::uint32_t granule = 3;
    std::uint32_t injected = 0;
    runtime::SchedPolicy sched =
        runtime::SchedPolicy::kEarliestFirst;
    double jitter = 0.0;
    bool list = false;

    /** --faults= base profile plus --fault-* overrides, in order. */
    std::string fault_spec;
    std::vector<std::string> fault_overrides;
    bool fault_flags_given = false;

    /** Controller hardening. */
    bool failsafe = false;
    std::uint64_t failsafe_window = 0;  ///< 0 = default
    std::uint64_t holdoff = 0;
    std::uint64_t pebs_staleness = 0;
};

void
usage()
{
    std::puts(
        "hdrd_sim — demand-driven race detection simulator\n"
        "\n"
        "  --list                 list registered workloads\n"
        "  --workload=NAME        workload to run\n"
        "  --replay=FILE          replay a recorded trace instead\n"
        "  --record=FILE          record the run's op streams\n"
        "  --mode=M               native|continuous|demand "
        "(default demand)\n"
        "  --detector=D           fasttrack|naive|lockset\n"
        "  --strategy=S           hitm|oracle|sampling|cold-region\n"
        "  --scope=S              global|per-thread\n"
        "  --pebs                 precise capture of sampled loads\n"
        "  --sav=N                PMU sample-after value (default 1)\n"
        "  --scale=F              workload size multiplier "
        "(default 0.5)\n"
        "  --threads=N --cores=N  topology (default 4/4)\n"
        "  --granule=N            log2 detection granule (default 3)\n"
        "  --inject=N             inject N known races\n"
        "  --sched=P              earliest|random|rr scheduler "
        "policy\n"
        "  --jitter=F             random scheduling jitter [0,1)\n"
        "  --seed=N               simulation seed\n"
        "  --faults=SPEC          fault profile: a name (none|mild|"
        "lossy|bursty|\n"
        "                         skidstorm|throttle|storm), a file, "
        "or key=value,...\n"
        "  --fault-KEY=V          override one fault knob (e.g. "
        "--fault-drop=0.3)\n"
        "  --failsafe             enable the escalation ladder "
        "(demand->sampling->continuous)\n"
        "  --failsafe-window=N    health window in accesses\n"
        "  --holdoff=N            enable-side hysteresis holdoff in "
        "accesses\n"
        "  --pebs-staleness=N     drop PEBS captures older than N "
        "accesses\n"
        "  --report-json=FILE     write an hdrd-report-v1 race "
        "report (the\n"
        "                         same writer hdrd_served replies "
        "with)\n"
        "  --track-gt             ground-truth sharing accounting\n"
        "  --verbose              print every race report\n"
        "  --stats                machine-readable stats dump");
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
        if (std::strcmp(arg, "--list") == 0) {
            opt.list = true;
        } else if (std::strcmp(arg, "--help") == 0) {
            usage();
            std::exit(0);
        } else if (std::strcmp(arg, "--pebs") == 0) {
            opt.pebs = true;
        } else if (std::strcmp(arg, "--track-gt") == 0) {
            opt.track_gt = true;
        } else if (std::strcmp(arg, "--verbose") == 0) {
            opt.verbose = true;
        } else if (std::strcmp(arg, "--stats") == 0) {
            opt.stats = true;
        } else if (eat(arg, "--workload=", value)) {
            opt.workload = value;
        } else if (eat(arg, "--replay=", value)) {
            opt.replay = value;
        } else if (eat(arg, "--record=", value)) {
            opt.record = value;
        } else if (eat(arg, "--report-json=", value)) {
            opt.report_json = value;
        } else if (eat(arg, "--mode=", value)) {
            if (value == "native")
                opt.mode = instr::ToolMode::kNative;
            else if (value == "continuous")
                opt.mode = instr::ToolMode::kContinuous;
            else if (value == "demand")
                opt.mode = instr::ToolMode::kDemand;
            else
                fatal("unknown mode '", value, "'");
        } else if (eat(arg, "--detector=", value)) {
            if (value == "fasttrack")
                opt.detector = runtime::DetectorKind::kFastTrack;
            else if (value == "naive")
                opt.detector = runtime::DetectorKind::kNaiveHb;
            else if (value == "lockset")
                opt.detector = runtime::DetectorKind::kLockset;
            else
                fatal("unknown detector '", value, "'");
        } else if (eat(arg, "--strategy=", value)) {
            if (value == "hitm")
                opt.strategy = demand::Strategy::kDemandHitm;
            else if (value == "oracle")
                opt.strategy = demand::Strategy::kDemandOracle;
            else if (value == "sampling")
                opt.strategy = demand::Strategy::kRandomSampling;
            else if (value == "cold-region")
                opt.strategy = demand::Strategy::kColdRegion;
            else
                fatal("unknown strategy '", value, "'");
        } else if (eat(arg, "--scope=", value)) {
            if (value == "global")
                opt.scope = demand::EnableScope::kGlobal;
            else if (value == "per-thread")
                opt.scope = demand::EnableScope::kPerThread;
            else
                fatal("unknown scope '", value, "'");
        } else if (eat(arg, "--scale=", value)) {
            opt.scale = cli::parseDouble("scale", value, 1e-6, 1e6);
        } else if (eat(arg, "--threads=", value)) {
            opt.threads = cli::parseU32("threads", value, 1, 4096);
        } else if (eat(arg, "--cores=", value)) {
            opt.cores = cli::parseU32("cores", value, 1, 1024);
        } else if (eat(arg, "--seed=", value)) {
            opt.seed = cli::parseU64("seed", value);
        } else if (eat(arg, "--sav=", value)) {
            opt.sav = cli::parseU64("sav", value, 1, UINT64_MAX);
        } else if (eat(arg, "--granule=", value)) {
            opt.granule = cli::parseU32("granule", value, 0, 16);
        } else if (eat(arg, "--inject=", value)) {
            opt.injected = cli::parseU32("inject", value);
        } else if (eat(arg, "--faults=", value)) {
            opt.fault_spec = value;
            opt.fault_flags_given = true;
        } else if (eat(arg, "--fault-", value)) {
            // --fault-drop=0.3 becomes the spec fragment "drop=0.3",
            // layered over the --faults= base profile in order.
            if (value.find('=') == std::string::npos)
                fatal("--fault-", value, ": expected --fault-KEY=V");
            opt.fault_overrides.push_back(value);
            opt.fault_flags_given = true;
        } else if (std::strcmp(arg, "--failsafe") == 0) {
            opt.failsafe = true;
        } else if (eat(arg, "--failsafe-window=", value)) {
            opt.failsafe_window = cli::parseU64(
                "failsafe-window", value, 1, UINT64_MAX);
            opt.failsafe = true;
        } else if (eat(arg, "--holdoff=", value)) {
            opt.holdoff = cli::parseU64("holdoff", value);
        } else if (eat(arg, "--pebs-staleness=", value)) {
            opt.pebs_staleness =
                cli::parseU64("pebs-staleness", value);
        } else if (eat(arg, "--sched=", value)) {
            if (value == "earliest")
                opt.sched = runtime::SchedPolicy::kEarliestFirst;
            else if (value == "random")
                opt.sched = runtime::SchedPolicy::kRandom;
            else if (value == "rr")
                opt.sched = runtime::SchedPolicy::kRoundRobin;
            else
                fatal("unknown sched policy '", value, "'");
        } else if (eat(arg, "--jitter=", value)) {
            opt.jitter = cli::parseDouble("jitter", value, 0.0, 1.0);
        } else {
            usage();
            fatal("unknown option '", arg, "'");
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    if (opt.list) {
        for (const auto &info : workloads::allWorkloads())
            std::printf("%-10s %s\n", info.suite.c_str(),
                        info.name.c_str());
        return 0;
    }
    if (opt.workload.empty() && opt.replay.empty()) {
        usage();
        fatal("need --workload or --replay (or --list)");
    }

    // Build the program.
    std::unique_ptr<runtime::Program> program;
    std::string trace_fault_spec;
    std::string trace_name;
    if (!opt.replay.empty()) {
        trace::TraceData data = trace::TraceData::load(opt.replay);
        if (!data.ok())
            fatal("trace load failed: ", data.error());
        trace_fault_spec = data.faultSpec();
        trace_name = data.name();
        program = std::make_unique<trace::TraceProgram>(
            std::move(data));
    } else {
        const auto *info = workloads::findWorkload(opt.workload);
        if (info == nullptr)
            fatal("unknown workload '", opt.workload,
                  "' (try --list)");
        workloads::WorkloadParams params;
        params.nthreads = opt.threads;
        params.scale = opt.scale;
        params.seed = opt.seed + 41;
        params.injected_races = opt.injected;
        program = info->factory(params);
    }

    // Resolve the fault spec: the CLI wins; otherwise a replayed
    // trace re-applies the spec it was recorded under, so a saved
    // lossy run reproduces as recorded.
    pmu::FaultConfig fault_config;
    {
        std::string err;
        std::string base = opt.fault_spec;
        if (!opt.fault_flags_given && !trace_fault_spec.empty()
            && trace_fault_spec != "none") {
            base = trace_fault_spec;
            std::printf("faults       %s (from trace)\n",
                        base.c_str());
        }
        if (!base.empty()
            && !pmu::resolveFaultSpec(base, fault_config, err))
            fatal("--faults: ", err);
        for (const std::string &fragment : opt.fault_overrides) {
            if (!pmu::applyFaultSpec(fragment, fault_config, err))
                fatal("--fault-", fragment, ": ", err);
        }
    }

    // Configure the platform.
    runtime::SimConfig config;
    config.mode = opt.mode;
    config.detector = opt.detector;
    config.gating.strategy = opt.strategy;
    config.gating.scope = opt.scope;
    config.gating.pebs_precise_capture = opt.pebs;
    config.gating.hitm_counter.sample_after = opt.sav;
    config.granule_shift = opt.granule;
    config.mem.ncores = opt.cores;
    config.seed = opt.seed;
    config.sched_policy = opt.sched;
    config.sched_jitter = opt.jitter;
    config.track_ground_truth = opt.track_gt;
    config.faults = fault_config;
    config.gating.failsafe.escalation = opt.failsafe;
    if (opt.failsafe_window > 0)
        config.gating.failsafe.health_window = opt.failsafe_window;
    config.gating.failsafe.enable_holdoff = opt.holdoff;
    config.gating.pebs_staleness = opt.pebs_staleness;

    // Optionally tee the run into a trace file.
    std::unique_ptr<trace::TraceWriter> writer;
    std::unique_ptr<trace::RecordingProgram> recording;
    runtime::Program *to_run = program.get();
    if (!opt.record.empty()) {
        writer = std::make_unique<trace::TraceWriter>(
            opt.record, program->name(), program->numThreads(),
            pmu::faultSpec(config.faults));
        if (!writer->ok())
            fatal("cannot open trace file ", opt.record);
        recording = std::make_unique<trace::RecordingProgram>(
            *program, *writer);
        to_run = recording.get();
    }

    const auto result = runtime::Simulator::runWith(*to_run, config);

    if (!opt.report_json.empty()) {
        // The daemon's report writer: lets CI diff hdrd_served
        // replies byte-for-byte against this one-shot path.
        service::JobReport report;
        // For a replay, report the recorded trace's name (what the
        // daemon reports), not the ".replay"-suffixed program name.
        report.trace =
            trace_name.empty() ? program->name() : trace_name;
        report.nthreads = program->numThreads();
        report.options.mode = static_cast<std::uint32_t>(opt.mode);
        report.options.detector =
            static_cast<std::uint32_t>(opt.detector);
        report.options.seed = opt.seed;
        report.options.granule_shift = opt.granule;
        report.options.cores = opt.cores;
        report.options.sav = opt.sav;
        report.fault_spec = pmu::faultSpec(config.faults);
        report.result = &result;

        std::ofstream os(opt.report_json, std::ios::trunc);
        if (!os)
            fatal("cannot open report json file ", opt.report_json);
        service::writeJobReport(os, report);
        std::printf("report json  %s\n", opt.report_json.c_str());
    }

    if (writer) {
        writer->finalize();
        std::printf("recorded %llu ops to %s\n",
                    static_cast<unsigned long long>(
                        writer->recorded()),
                    opt.record.c_str());
    }

    // Summary.
    std::printf("program      %s\n", program->name().c_str());
    std::printf("mode         %s", instr::toolModeName(opt.mode));
    if (opt.mode == instr::ToolMode::kDemand) {
        std::printf(" (%s, %s scope%s, SAV %llu)",
                    demand::strategyName(opt.strategy),
                    demand::scopeName(opt.scope),
                    opt.pebs ? ", pebs" : "",
                    static_cast<unsigned long long>(opt.sav));
    }
    std::printf("\n");
    std::printf("wall cycles  %llu\n",
                static_cast<unsigned long long>(result.wall_cycles));
    std::printf("ops          %llu total: %llu mem, %llu sync, "
                "%llu atomic, %llu work\n",
                static_cast<unsigned long long>(result.total_ops),
                static_cast<unsigned long long>(result.mem_accesses),
                static_cast<unsigned long long>(result.sync_ops),
                static_cast<unsigned long long>(result.atomic_ops),
                static_cast<unsigned long long>(result.work_ops));
    std::printf("analyzed     %llu (%.2f%%), %llu enables, "
                "%llu interrupts, %llu pebs captures\n",
                static_cast<unsigned long long>(
                    result.analyzed_accesses),
                100.0 * result.analyzedFraction(),
                static_cast<unsigned long long>(result.enables),
                static_cast<unsigned long long>(result.interrupts),
                static_cast<unsigned long long>(
                    result.pebs_captures));
    std::printf("hitm         %llu loads / %llu transfers\n",
                static_cast<unsigned long long>(result.hitm_loads),
                static_cast<unsigned long long>(
                    result.hitm_transfers));
    if (opt.track_gt) {
        std::printf("sharing      %.3f%% of accesses (W->R %llu, "
                    "W->W %llu, R->W %llu)\n",
                    100.0 * result.sharingFraction(),
                    static_cast<unsigned long long>(result.gt.wr),
                    static_cast<unsigned long long>(result.gt.ww),
                    static_cast<unsigned long long>(result.gt.rw));
    }
    if (result.faults_active) {
        std::printf("faults       %s\n",
                    pmu::faultSpec(config.faults).c_str());
        std::printf("signal       %llu seen, %llu dropped (%.1f%%), "
                    "%llu coalesced, %llu throttled, skid rms %.1f\n",
                    static_cast<unsigned long long>(
                        result.faults.samples_seen),
                    static_cast<unsigned long long>(
                        result.faults.dropped()),
                    100.0 * result.faults.dropRatio(),
                    static_cast<unsigned long long>(
                        result.faults.coalesced),
                    static_cast<unsigned long long>(
                        result.faults.throttled),
                    result.faults.skidRms());
    }
    if (result.failsafe_active) {
        std::printf("failsafe     final %s, %llu escalations, "
                    "%llu de-escalations, %llu held-off interrupts, "
                    "%llu stale pebs\n",
                    demand::failsafeModeName(result.failsafe_mode),
                    static_cast<unsigned long long>(
                        result.escalations),
                    static_cast<unsigned long long>(
                        result.deescalations),
                    static_cast<unsigned long long>(
                        result.ignored_interrupts),
                    static_cast<unsigned long long>(
                        result.pebs_stale));
    }
    std::printf("races        %zu unique (%llu dynamic)\n",
                result.reports.uniqueCount(),
                static_cast<unsigned long long>(
                    result.reports.dynamicCount()));
    if (opt.stats) {
        std::printf("\n");
        result.dump(std::cout);
    }
    if (opt.verbose) {
        for (const auto &report : result.reports.reports())
            std::printf("  thread %u site %u vs thread %u site %u "
                        "(%s) @0x%llx\n",
                        report.first_tid, report.first_site,
                        report.second_tid, report.second_site,
                        detect::raceTypeName(report.type),
                        static_cast<unsigned long long>(report.addr));
    }
    return 0;
}
