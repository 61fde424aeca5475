#include "metrics.hh"

#include "service/report_json.hh"

namespace perfbench
{

using namespace hdrd;

namespace
{

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

std::vector<Metric>
EndToEnd::metrics() const
{
    return {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"sim_ops_per_cpu_s", sim_ops_per_cpu_s, "1/s"},
        {"cpu_ms_per_job", cpu_ms_per_job, "ms"},
    };
}

void
EngineTrace::addRun(const runtime::RunResult &result,
                    const runtime::SimConfig &config,
                    const std::string &name, std::uint32_t nthreads)
{
    ops += result.total_ops;
    hitm_loads += result.hitm_loads;
    interrupts += result.interrupts;
    mem_accesses += result.mem_accesses;
    analyzed += result.analyzed_accesses;
    enables += result.enables;
    races_unique += result.reports.uniqueCount();

    service::JobReport report;
    report.trace = name;
    report.nthreads = nthreads;
    report.options.mode = static_cast<std::uint32_t>(config.mode);
    report.options.detector = static_cast<std::uint32_t>(config.detector);
    report.options.seed = config.seed;
    report.result = &result;
    const auto t0 = Clock::now();
    const std::string json = service::jobReportJson(report);
    const auto t1 = Clock::now();
    if (json.empty())
        die("empty report for " + name);
    render_us += seconds(t0, t1) * 1e6;
    ++renders;
}

std::vector<Metric>
perLayerMetrics(const EngineTrace &e, const ServiceTrace &s,
                double overhead_pct)
{
    const LayerCosts &c = e.costs;
    const double wops = static_cast<double>(c.window_ops);
    const double run_ns_per_op =
        ratio(e.run_ns, static_cast<double>(e.run_ops));
    const double layers_ns_per_op =
        ratio(c.mem_ns + c.pmu_ns + c.demand_ns + c.detect_ns, wops);
    return {
        {"trace.decode_ns_per_op",
         ratio(c.decode_ns, static_cast<double>(c.decode_records)), "ns"},
        {"runtime.run_ns_per_op", run_ns_per_op, "ns"},
        {"runtime.self_ns_per_op", run_ns_per_op - layers_ns_per_op, "ns"},
        {"mem.access_ns",
         ratio(c.mem_ns, static_cast<double>(c.mem_calls)), "ns"},
        {"mem.l1_hit_ratio",
         ratio(static_cast<double>(c.l1_hits),
               static_cast<double>(c.mem_calls)),
         "ratio"},
        {"mem.hitm_loads_per_kop",
         ratio(1000.0 * static_cast<double>(e.hitm_loads),
               static_cast<double>(e.ops)),
         "count/kop"},
        {"pmu.record_ns",
         ratio(c.pmu_ns, static_cast<double>(c.pmu_calls)), "ns"},
        {"pmu.interrupts", static_cast<double>(e.interrupts), "count"},
        {"demand.call_ns",
         ratio(c.demand_ns, static_cast<double>(c.demand_calls)), "ns"},
        {"demand.analyzed_fraction",
         ratio(static_cast<double>(e.analyzed),
               static_cast<double>(e.mem_accesses)),
         "ratio"},
        {"demand.enables", static_cast<double>(e.enables), "count"},
        {"detect.access_ns",
         ratio(c.detect_ns, static_cast<double>(c.detect_calls)), "ns"},
        {"detect.peak_rss_mb",
         ratio(c.detect_rss_mb, static_cast<double>(c.windows)), "MB"},
        {"detect.races_unique", static_cast<double>(e.races_unique),
         "count"},
        {"service.job_p50_ms", s.job_p50_ms, "ms"},
        {"service.job_p99_ms", s.job_p99_ms, "ms"},
        {"service.non_engine_ms_p50", s.non_engine_ms_p50, "ms"},
        {"service.report_render_us",
         ratio(e.render_us, static_cast<double>(e.renders)), "us"},
        {"service.queue_wait_us_p50", s.queue_wait_us_p50, "us"},
        {"service.trace_read_us_p50", s.trace_read_us_p50, "us"},
        {"service.busy_replies", static_cast<double>(s.busy_replies),
         "count"},
        {"stream.credit_grants", s.credit_grants_per_job, "count/job"},
        {"stream.partials", s.partials_per_job, "count/job"},
        {"stream.first_report_ms", s.first_report_ms, "ms"},
        {"stream.job_ms", s.stream_job_ms, "ms"},
        {"tracing.overhead_pct", overhead_pct, "%"},
    };
}

} // namespace perfbench
