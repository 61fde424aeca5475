/**
 * @file
 * ABL-9 (our ablation): detection recall vs overhead under a degraded
 * hardware signal.
 *
 * The paper's accuracy numbers assume the HITM sampling path works as
 * advertised. This harness degrades it on purpose — three grids
 * (sample loss, interrupt skid, kernel throttling) swept over every
 * registry workload with injected races — and reports, per grid
 * point, the demand regime's recall and its runtime overhead over
 * native, with and without the failsafe escalation ladder. The
 * interesting question: how much signal can the demand approach lose
 * before it stops earning its overhead advantage, and how much of the
 * lost recall does the failsafe buy back?
 */

#include <cinttypes>

#include "bench_util.hh"
#include "pmu/faults.hh"
#include "workloads/synthetic.hh"

using namespace hdrd;
using namespace hdrd::bench;

namespace
{

struct GridPoint
{
    const char *label;
    const char *spec;
};

const GridPoint kLossGrid[] = {
    {"clean", ""},
    {"drop-25%", "drop=0.25"},
    {"drop-50%", "drop=0.5"},
    {"drop-75%", "drop=0.75"},
    {"drop-95%", "drop=0.95"},
    {"blackout", "drop=1.0"},
};

const GridPoint kSkidGrid[] = {
    {"skid-16", "skid=16"},
    {"skid-64", "skid=64"},
    {"skid-256", "skid=256"},
    {"skid-256+coal", "skid=256,coalesce=128"},
};

const GridPoint kThrottleGrid[] = {
    {"throttle-loose", "throttle-max=16,throttle-window=4000,"
                       "throttle-backoff=8000"},
    {"throttle-tight", "throttle-max=4,throttle-window=4000,"
                       "throttle-backoff=30000"},
    {"throttle-storm", "throttle-max=2,throttle-window=8000,"
                       "throttle-backoff=60000,drop=0.3"},
};

struct PointResult
{
    double recall = 0.0;           ///< mean over racy workloads
    double recall_failsafe = 0.0;  ///< same, escalation ladder on
    double overhead = 0.0;         ///< geomean demand/native cycles
    double overhead_failsafe = 0.0;
    double drop_ratio = 0.0;       ///< mean observed sample loss
    double escalation_runs = 0.0;  ///< fraction of runs that tripped
};

runtime::SimConfig
demandConfig(const pmu::FaultConfig &faults, bool failsafe)
{
    runtime::SimConfig config;
    config.mode = instr::ToolMode::kDemand;
    config.faults = faults;
    if (failsafe) {
        // Trip fast: injected race bursts are short, so a ladder that
        // waits tens of thousands of accesses escalates after the
        // interesting window has already passed.
        config.gating.failsafe.escalation = true;
        config.gating.failsafe.health_window = 2000;
        config.gating.failsafe.trip_windows = 1;
        config.gating.failsafe.recover_windows = 4;
    }
    return config;
}

PointResult
sweepPoint(const std::vector<workloads::WorkloadInfo> &subjects,
           const workloads::WorkloadParams &params,
           const pmu::FaultConfig &faults,
           const std::vector<double> &native_cycles)
{
    PointResult out;
    std::vector<double> recalls, recalls_fs;
    std::vector<double> over, over_fs, drops;
    std::size_t escalated = 0, fs_runs = 0;
    for (std::size_t i = 0; i < subjects.size(); ++i) {
        const auto &info = subjects[i];
        for (const bool failsafe : {false, true}) {
            auto program = info.factory(params);
            const auto injected = program->injectedRaces();
            const auto r = runtime::Simulator::runWith(
                *program, demandConfig(faults, failsafe));
            const double recall =
                workloads::detectedFraction(injected, r.reports);
            const double oh = native_cycles[i] > 0.0
                ? static_cast<double>(r.wall_cycles)
                    / native_cycles[i]
                : 1.0;
            if (failsafe) {
                if (!injected.empty())
                    recalls_fs.push_back(recall);
                over_fs.push_back(oh);
                ++fs_runs;
                escalated += r.escalations > 0;
            } else {
                if (!injected.empty())
                    recalls.push_back(recall);
                over.push_back(oh);
                drops.push_back(r.faults.dropRatio());
            }
        }
    }
    out.recall = mean(recalls);
    out.recall_failsafe = mean(recalls_fs);
    out.overhead = geomean(over);
    out.overhead_failsafe = geomean(over_fs);
    out.drop_ratio = mean(drops);
    out.escalation_runs = fs_runs == 0
        ? 0.0
        : static_cast<double>(escalated)
            / static_cast<double>(fs_runs);
    return out;
}

void
sweepGrid(const char *title, const GridPoint *points, std::size_t n,
          const std::vector<workloads::WorkloadInfo> &subjects,
          const workloads::WorkloadParams &params,
          const std::vector<double> &native_cycles)
{
    std::printf("\n--- %s ---\n", title);
    std::printf("%-16s %9s %12s %10s %13s %9s %11s\n", "grid point",
                "recall", "recall(fs)", "overhead", "overhead(fs)",
                "loss", "escalated");
    for (std::size_t p = 0; p < n; ++p) {
        pmu::FaultConfig faults;
        std::string err;
        if (!pmu::resolveFaultSpec(points[p].spec, faults, err)) {
            std::fprintf(stderr, "bad grid spec %s: %s\n",
                         points[p].spec, err.c_str());
            std::exit(1);
        }
        const PointResult r =
            sweepPoint(subjects, params, faults, native_cycles);
        std::printf("%-16s %8.1f%% %11.1f%% %9.2fx %12.2fx %8.1f%% "
                    "%10.0f%%\n",
                    points[p].label, 100.0 * r.recall,
                    100.0 * r.recall_failsafe, r.overhead,
                    r.overhead_failsafe, 100.0 * r.drop_ratio,
                    100.0 * r.escalation_runs);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = BenchOptions::parse(argc, argv, 0.2);
    banner("ABL-9", "recall vs overhead on a degraded HITM signal",
           opt);

    // Every registry workload participates; recall is averaged over
    // the ones that carry injected races (the rest still contribute
    // overhead and loss measurements).
    std::vector<workloads::WorkloadInfo> subjects;
    for (const auto &info : workloads::allWorkloads()) {
        if (!opt.suite.empty() && info.suite != opt.suite)
            continue;
        subjects.push_back(info);
    }
    auto params = opt.params();
    params.injected_races = 4;
    params.race_repeats = 150;

    std::printf("%zu workloads, %u injected races x %" PRIu64
                " repeats each where supported;\n"
                "recall = injected races found, "
                "overhead = simulated cycles vs native,\n(fs) = "
                "failsafe escalation ladder armed\n",
                subjects.size(), params.injected_races,
                params.race_repeats);

    // Native baselines, one per workload (faults never touch native
    // runs; this is the denominator for every overhead column).
    std::vector<double> native_cycles;
    native_cycles.reserve(subjects.size());
    for (const auto &info : subjects) {
        auto program = info.factory(params);
        runtime::SimConfig config;
        config.mode = instr::ToolMode::kNative;
        const auto r = runtime::Simulator::runWith(*program, config);
        native_cycles.push_back(static_cast<double>(r.wall_cycles));
    }

    sweepGrid("grid 1: iid sample loss", kLossGrid,
              std::size(kLossGrid), subjects, params, native_cycles);
    sweepGrid("grid 2: interrupt skid / coalescing", kSkidGrid,
              std::size(kSkidGrid), subjects, params, native_cycles);
    sweepGrid("grid 3: kernel throttling", kThrottleGrid,
              std::size(kThrottleGrid), subjects, params,
              native_cycles);

    std::printf("\nexpected shape: recall degrades gracefully with "
                "loss (repeated races survive\nmoderate drop rates), "
                "skid mostly perturbs attribution rather than "
                "detection,\nand tight throttling is the worst case "
                "(whole bursts silenced). The failsafe\ncolumn buys "
                "recall back at higher overhead exactly where the "
                "signal is\nworst — that is its purpose.\n");
    return 0;
}
