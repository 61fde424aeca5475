/**
 * @file
 * The benchmark's metric sets. Every workload reports the same
 * end-to-end names (untraced run) and the same per-layer names
 * (traced run); perfbench/README.md says what each means on each
 * workload and which metric a layer should move where.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <vector>

#include "common.hh"
#include "replay.hh"
#include "runtime/simulator.hh"

namespace perfbench
{

/**
 * End-to-end metrics of one untraced run. Times are CPU time of the
 * program under test (the engine thread, or the whole daemon), which
 * leaves out what the hypervisor steals. The failed fraction rides
 * the result line's attempted/failed counts instead: a metric here
 * may never read 0.
 */
struct EndToEnd
{
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    double sim_ops_per_cpu_s = 0.0;
    double cpu_ms_per_job = 0.0;

    std::vector<Metric> metrics() const;
};

/** Engine-layer inputs of a traced run. */
struct EngineTrace
{
    /** Replayed windows. */
    LayerCosts costs;

    /** Untraced Simulator::run spans. */
    double run_ns = 0.0;
    std::uint64_t run_ops = 0;

    /** Complete traced runs (deterministic counts). */
    std::uint64_t ops = 0;
    std::uint64_t hitm_loads = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t mem_accesses = 0;
    std::uint64_t analyzed = 0;
    std::uint64_t enables = 0;
    std::uint64_t races_unique = 0;

    /** In-process service::jobReportJson on the same results. */
    double render_us = 0.0;
    std::uint64_t renders = 0;

    /** Count @p result and time rendering its report. */
    void addRun(const hdrd::runtime::RunResult &result,
                const hdrd::runtime::SimConfig &config,
                const std::string &name, std::uint32_t nthreads);
};

/** Service-side inputs of a traced run (zero when no daemon). */
struct ServiceTrace
{
    /** Wall-clock latencies from the untraced parts of the run. */
    double job_p50_ms = 0.0;
    double job_p99_ms = 0.0;
    double first_report_ms = 0.0;
    double stream_job_ms = 0.0;

    double non_engine_ms_p50 = 0.0;
    double queue_wait_us_p50 = 0.0;
    double trace_read_us_p50 = 0.0;
    std::uint64_t busy_replies = 0;
    double credit_grants_per_job = 0.0;
    double partials_per_job = 0.0;
};

/**
 * Every per-layer metric. @p overhead_pct is the end-to-end
 * throughput lost to tracing (traced vs untraced halves of the run).
 */
std::vector<Metric> perLayerMetrics(const EngineTrace &engine,
                                    const ServiceTrace &service,
                                    double overhead_pct);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
