/**
 * @file
 * ABL-10 (our ablation): daemon saturation sweep through the epoll
 * service plane.
 *
 * Two measurement modes over a clients x workers x pipeline-depth
 * grid, all payloads recorded to memory before any socket is opened
 * (trace generation never sits on the submission hot path):
 *
 *  - **plane** points isolate the I/O plane itself: a tiny trace
 *    (sub-millisecond analysis) plus the server's `min_job_ms` floor
 *    makes every job cost a fixed, known service time, so jobs/s
 *    measures connection handling, framing, pipelining, and queue
 *    hand-off — and scales with workers even on a single-core host,
 *    because floored jobs sleep rather than compute.
 *  - **compute** points push the whole 33-workload registry through
 *    real analysis engines, i.e. the end-to-end number a deployment
 *    would see (on a 1-core host this is pinned near what one core
 *    can simulate, whatever the width).
 *
 * Pipeline depth 1 is a window-1 SUBMIT_JOB (one frame in flight, the
 * "sequential" points below) on a kept-alive connection; deeper
 * points pipeline SUBMIT_JOB batches per connection.
 * `--assert-monotonic`, `--assert-speedup`, and
 * `--p99-ceiling-ms` turn the sweep into a CI regression gate.
 *
 * Writes an "hdrd-bench-service-v2" JSON report (default
 * BENCH_service.json) with one entry per grid point plus
 * per-workload latency percentiles from the widest sequential
 * compute configuration.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "common/histogram.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "trace/trace_program.hh"

using namespace hdrd;

namespace
{

struct Options
{
    double scale = 0.25;
    std::uint32_t threads = 4;       ///< recorded workload threads
    std::uint32_t repeat = 3;        ///< registry passes per point
    std::vector<std::uint32_t> workers = {1, 2, 4, 8};
    std::vector<std::uint32_t> clients = {1, 4};
    std::vector<std::uint32_t> pipeline = {1, 8};
    std::uint64_t plane_job_ms = 60; ///< plane-mode service floor
    bool run_plane = true;
    bool run_compute = true;
    bool assert_monotonic = false;
    double assert_speedup = 0.0;
    std::uint64_t p99_ceiling_ms = 0;
    std::string out = "BENCH_service.json";
    bool quick = false;
};

[[noreturn]] void
usageAndExit()
{
    std::fprintf(
        stderr,
        "usage: abl10_service_throughput [options]\n"
        "  --scale=F          workload size multiplier (default "
        "0.25)\n"
        "  --threads=N        recorded workload threads (default 4)\n"
        "  --repeat=N         registry passes per compute point "
        "(default 3)\n"
        "  --workers=CSV      worker counts to sweep (default "
        "1,2,4,8)\n"
        "  --clients=CSV      concurrent client connections "
        "(default 1,4)\n"
        "  --pipeline=CSV     pipeline depths per connection "
        "(default 1,8)\n"
        "  --plane-job-ms=N   plane-mode per-job service floor "
        "(default 60)\n"
        "  --mode=M           plane|compute|both (default both)\n"
        "  --assert-monotonic fail unless plane jobs/s is "
        "nondecreasing in\n"
        "                     workers (15%% tolerance, saturated "
        "grid groups)\n"
        "  --assert-speedup=F fail unless the best saturated plane "
        "group\n"
        "                     scales >= F x from min to max workers\n"
        "  --p99-ceiling-ms=N fail if any uncontended sequential "
        "plane point\n"
        "                     (workers >= clients) has p99 above N "
        "ms\n"
        "  --out=FILE         JSON output (default "
        "BENCH_service.json)\n"
        "  --quick            CI smoke: plane mode only, small grid, "
        "20 ms floor\n");
    std::exit(2);
}

std::vector<std::uint32_t>
parseCsv(const std::string &text)
{
    std::vector<std::uint32_t> values;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        values.push_back(
            static_cast<std::uint32_t>(std::stoul(item)));
    if (values.empty())
        usageAndExit();
    return values;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--scale=", 0) == 0) {
            opt.scale = std::stod(arg.substr(8));
        } else if (arg.rfind("--threads=", 0) == 0) {
            opt.threads = static_cast<std::uint32_t>(
                std::stoul(arg.substr(10)));
        } else if (arg.rfind("--repeat=", 0) == 0) {
            opt.repeat = static_cast<std::uint32_t>(
                std::stoul(arg.substr(9)));
        } else if (arg.rfind("--workers=", 0) == 0) {
            opt.workers = parseCsv(arg.substr(10));
        } else if (arg.rfind("--clients=", 0) == 0) {
            opt.clients = parseCsv(arg.substr(10));
        } else if (arg.rfind("--pipeline=", 0) == 0) {
            opt.pipeline = parseCsv(arg.substr(11));
        } else if (arg.rfind("--plane-job-ms=", 0) == 0) {
            opt.plane_job_ms = std::stoull(arg.substr(15));
        } else if (arg.rfind("--mode=", 0) == 0) {
            const std::string mode = arg.substr(7);
            opt.run_plane = mode == "plane" || mode == "both";
            opt.run_compute = mode == "compute" || mode == "both";
            if (!opt.run_plane && !opt.run_compute)
                usageAndExit();
        } else if (arg == "--assert-monotonic") {
            opt.assert_monotonic = true;
        } else if (arg.rfind("--assert-speedup=", 0) == 0) {
            opt.assert_speedup = std::stod(arg.substr(17));
        } else if (arg.rfind("--p99-ceiling-ms=", 0) == 0) {
            opt.p99_ceiling_ms = std::stoull(arg.substr(17));
        } else if (arg.rfind("--out=", 0) == 0) {
            opt.out = arg.substr(6);
        } else if (arg == "--quick") {
            opt.quick = true;
            opt.run_compute = false;
            opt.workers = {1, 2, 4};
            opt.clients = {2};
            opt.pipeline = {1, 4};
            opt.plane_job_ms = 20;
            opt.repeat = 1;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usageAndExit();
        }
    }
    return opt;
}

[[noreturn]] void
fail(const std::string &what)
{
    std::fprintf(stderr, "abl10: %s\n", what.c_str());
    std::exit(1);
}

/** One recorded workload, held in memory as raw TRC2 bytes. */
struct RecordedTrace
{
    std::string name;
    std::string bytes;
    std::uint64_t ops = 0;
};

RecordedTrace
recordOne(const workloads::WorkloadInfo &info,
          const workloads::WorkloadParams &params,
          const std::string &dir)
{
    const std::string path = dir + "/reg.trc";
    auto program = info.factory(params);
    trace::TraceWriter writer(path, program->name(),
                              program->numThreads());
    if (!writer.ok())
        fail("cannot open trace file " + path);
    trace::RecordingProgram recording(*program, writer);
    runtime::SimConfig config;
    config.mode = instr::ToolMode::kNative;
    runtime::Simulator::runWith(recording, config);
    if (!writer.finalize())
        fail("trace write failed for " + info.name);

    RecordedTrace rec;
    rec.name = info.name;
    rec.ops = writer.recorded();
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    rec.bytes = buf.str();
    if (rec.bytes.empty())
        fail("empty trace for " + info.name);
    ::unlink(path.c_str());
    return rec;
}

std::vector<RecordedTrace>
recordRegistry(const Options &opt, const std::string &dir)
{
    workloads::WorkloadParams params;
    params.nthreads = opt.threads;
    params.scale = opt.scale;

    std::vector<RecordedTrace> traces;
    for (const auto &info : workloads::allWorkloads())
        traces.push_back(recordOne(info, params, dir));
    return traces;
}

/**
 * The plane-mode payload: the smallest racy micro we have, recorded
 * tiny, so analysis is sub-millisecond and the server's min_job_ms
 * floor is the service time.
 */
std::vector<RecordedTrace>
recordPlaneTrace(const std::string &dir)
{
    workloads::WorkloadParams params;
    params.nthreads = 2;
    params.scale = 0.01;
    for (const auto &info : workloads::allWorkloads())
        if (info.name == "micro.ping_pong")
            return {recordOne(info, params, dir)};
    fail("micro.ping_pong not in registry");
}

/** Latency stats snapshot pulled out of a Log2Histogram. */
struct LatencyStats
{
    std::uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t max_us = 0;
};

LatencyStats
statsOf(const Log2Histogram &h)
{
    LatencyStats s;
    s.count = h.count();
    s.mean_us = h.mean();
    s.p50_us = h.percentile(50.0);
    s.p90_us = h.percentile(90.0);
    s.p99_us = h.percentile(99.0);
    s.max_us = h.max();
    return s;
}

/** One sweep point's results. */
struct PointResult
{
    std::uint32_t workers = 0;
    std::uint32_t clients = 0;
    std::uint32_t pipeline = 0;
    std::uint32_t io_shards = 0;
    std::uint64_t jobs = 0;
    std::uint64_t busy_retries = 0;
    double wall_seconds = 0.0;
    double jobs_per_sec = 0.0;
    /** Per-job round trip at depth 1, per-batch round trip deeper. */
    const char *latency_unit = "job";
    LatencyStats latency;
};

PointResult
runPoint(const std::string &dir,
         const std::vector<RecordedTrace> &traces,
         std::uint32_t workers, std::uint32_t clients,
         std::uint32_t pipeline, std::uint64_t min_job_ms,
         std::uint64_t total,
         std::vector<Log2Histogram> *per_workload)
{
    service::ServerConfig config;
    config.unix_path = dir + "/abl10.sock";
    config.workers = workers;
    config.min_job_ms = min_job_ms;
    config.queue_capacity = std::max<std::uint64_t>(
        16, std::uint64_t{clients} * pipeline * 2);
    config.max_connections = clients + 4;
    config.max_pipeline = std::max<std::uint32_t>(32, pipeline);

    service::Server server(config);
    std::string err;
    if (!server.start(err))
        fail("server start: " + err);

    service::JobOptions job;
    job.flags = service::kJobOmitHostTiming;

    // Every client pulls the next batch of (trace, pass) indices off
    // a shared cursor, so the payload set interleaves across
    // connections the way a real client population would.
    std::atomic<std::uint64_t> cursor{0};
    std::atomic<std::uint64_t> busy_retries{0};
    std::atomic<bool> failed{false};

    service::Metrics side;
    auto &latency_us = side.histogram("client.round_trip_us");
    std::vector<std::unique_ptr<service::LatencyHistogram>> per_wl;
    if (per_workload)
        for (std::size_t i = 0; i < traces.size(); ++i)
            per_wl.push_back(
                std::make_unique<service::LatencyHistogram>());

    // Sequential submit with the server's own BUSY retry hint.
    const auto submitRetrying =
        [&](service::Client &client,
            const std::string &bytes) -> service::Response {
        for (;;) {
            service::Response resp = client.submit(job, bytes);
            if (!resp.isBusy())
                return resp;
            busy_retries.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                resp.retry_after_ms ? resp.retry_after_ms : 1));
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> streams;
    for (std::uint32_t s = 0; s < clients; ++s) {
        streams.emplace_back([&]() {
            service::Client client;
            std::string cerr_;
            if (!client.connectUnix(config.unix_path, cerr_)) {
                failed.store(true);
                return;
            }
            for (;;) {
                const std::uint64_t base = cursor.fetch_add(
                    pipeline, std::memory_order_relaxed);
                if (base >= total)
                    return;
                const std::uint64_t n =
                    std::min<std::uint64_t>(pipeline, total - base);
                const auto j0 = std::chrono::steady_clock::now();
                if (pipeline == 1) {
                    const auto &trc = traces[base % traces.size()];
                    const service::Response resp =
                        submitRetrying(client, trc.bytes);
                    if (!resp.isReport()) {
                        failed.store(true);
                        return;
                    }
                    const auto j1 = std::chrono::steady_clock::now();
                    const auto us = static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::microseconds>(j1 - j0)
                            .count());
                    latency_us.record(us);
                    if (!per_wl.empty())
                        per_wl[base % traces.size()]->record(us);
                    continue;
                }
                std::vector<service::PipelineSubmission> batch(n);
                for (std::uint64_t k = 0; k < n; ++k) {
                    batch[k].options = job;
                    batch[k].trace_bytes =
                        &traces[(base + k) % traces.size()].bytes;
                }
                auto responses =
                    client.submitPipelined(batch, pipeline);
                for (std::uint64_t k = 0; k < n; ++k) {
                    // A BUSY inside a batch retries sequentially on
                    // the same (kept-alive) connection.
                    if (responses[k].isBusy()) {
                        busy_retries.fetch_add(
                            1, std::memory_order_relaxed);
                        responses[k] = submitRetrying(
                            client, *batch[k].trace_bytes);
                    }
                    if (!responses[k].isReport()) {
                        failed.store(true);
                        return;
                    }
                }
                const auto j1 = std::chrono::steady_clock::now();
                latency_us.record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(j1 - j0)
                        .count()));
            }
        });
    }
    for (auto &t : streams)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint32_t resolved_workers = server.workers();
    const std::uint32_t io_shards = server.ioShards();
    server.stop();

    if (failed.load())
        fail("a client stream saw a transport failure or an "
             "unexpected reply");

    PointResult point;
    point.workers = resolved_workers;
    point.clients = clients;
    point.pipeline = pipeline;
    point.io_shards = io_shards;
    point.jobs = total;
    point.busy_retries = busy_retries.load();
    point.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    point.jobs_per_sec =
        point.wall_seconds > 0.0
            ? static_cast<double>(total) / point.wall_seconds
            : 0.0;
    point.latency_unit = pipeline == 1 ? "job" : "batch";
    point.latency = statsOf(latency_us.snapshot());
    if (per_workload) {
        per_workload->clear();
        for (auto &h : per_wl)
            per_workload->push_back(h->snapshot());
    }
    return point;
}

void
printHeader()
{
    std::printf("%8s %8s %9s %7s %10s %10s %10s %6s %6s\n",
                "workers", "clients", "pipeline", "jobs", "jobs/s",
                "p50(ms)", "p99(ms)", "unit", "busy");
}

void
printPoint(const PointResult &p)
{
    std::printf("%8u %8u %9u %7llu %10.1f %10.2f %10.2f %6s "
                "%6llu\n",
                p.workers, p.clients, p.pipeline,
                static_cast<unsigned long long>(p.jobs),
                p.jobs_per_sec, p.latency.p50_us / 1000.0,
                p.latency.p99_us / 1000.0, p.latency_unit,
                static_cast<unsigned long long>(p.busy_retries));
}

void
writeLatency(std::FILE *f, const LatencyStats &s)
{
    std::fprintf(f,
                 "{\"count\": %llu, \"mean_us\": %.1f, "
                 "\"p50_us\": %.1f, \"p90_us\": %.1f, "
                 "\"p99_us\": %.1f, \"max_us\": %llu}",
                 static_cast<unsigned long long>(s.count), s.mean_us,
                 s.p50_us, s.p90_us, s.p99_us,
                 static_cast<unsigned long long>(s.max_us));
}

void
writePoints(std::FILE *f, const std::vector<PointResult> &points)
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        std::fprintf(
            f,
            "    {\"workers\": %u, \"clients\": %u, "
            "\"pipeline\": %u, \"io_shards\": %u, \"jobs\": %llu, "
            "\"wall_seconds\": %.6f, \"jobs_per_sec\": %.1f, "
            "\"busy_retries\": %llu, \"latency_unit\": \"%s\", "
            "\"latency\": ",
            p.workers, p.clients, p.pipeline, p.io_shards,
            static_cast<unsigned long long>(p.jobs), p.wall_seconds,
            p.jobs_per_sec,
            static_cast<unsigned long long>(p.busy_retries),
            p.latency_unit);
        writeLatency(f, p.latency);
        std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
    }
}

void
writeJson(const Options &opt,
          const std::vector<RecordedTrace> &registry,
          const std::vector<PointResult> &plane,
          const std::vector<PointResult> &compute,
          const std::vector<Log2Histogram> &per_workload)
{
    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (!f)
        fail("cannot open " + opt.out);
    std::fprintf(f, "{\n  \"schema\": \"hdrd-bench-service-v2\",\n");
    std::fprintf(f, "  \"tool\": \"abl10_service_throughput\",\n");
    std::fprintf(f,
                 "  \"config\": {\"scale\": %g, \"threads\": %u, "
                 "\"repeat\": %u, \"workloads\": %zu, "
                 "\"host_cores\": %u, \"plane_job_ms\": %llu, "
                 "\"quick\": %s},\n",
                 opt.scale, opt.threads, opt.repeat, registry.size(),
                 std::thread::hardware_concurrency(),
                 static_cast<unsigned long long>(opt.plane_job_ms),
                 opt.quick ? "true" : "false");
    std::fprintf(f, "  \"plane_points\": [\n");
    writePoints(f, plane);
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"compute_points\": [\n");
    writePoints(f, compute);
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"per_workload\": [\n");
    for (std::size_t i = 0; i < per_workload.size(); ++i) {
        std::fprintf(f,
                     "    {\"workload\": \"%s\", \"trace_ops\": "
                     "%llu, \"latency\": ",
                     registry[i].name.c_str(),
                     static_cast<unsigned long long>(
                         registry[i].ops));
        writeLatency(f, statsOf(per_workload[i]));
        std::fprintf(f, "}%s\n",
                     i + 1 < per_workload.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

/**
 * CI gates over the plane points. "Saturated" grid groups — those
 * with enough offered load (clients x pipeline >= max workers) to
 * expose worker scaling — must be monotone in workers and hit the
 * requested speedup; uncontended sequential points gate p99.
 */
void
checkAsserts(const Options &opt,
             const std::vector<PointResult> &plane)
{
    if (!opt.assert_monotonic && opt.assert_speedup <= 0.0
        && opt.p99_ceiling_ms == 0)
        return;
    std::uint32_t max_workers = 0;
    for (const auto w : opt.workers)
        max_workers = std::max(max_workers, w);

    double best_speedup = 0.0;
    bool saw_saturated = false;
    for (const auto c : opt.clients) {
        for (const auto d : opt.pipeline) {
            if (std::uint64_t{c} * d < max_workers)
                continue;
            saw_saturated = true;
            const PointResult *prev = nullptr;
            const PointResult *first = nullptr;
            for (const auto &p : plane) {
                if (p.clients != c || p.pipeline != d)
                    continue;
                if (!first)
                    first = &p;
                if (opt.assert_monotonic && prev
                    && p.jobs_per_sec
                           < prev->jobs_per_sec * 0.85) {
                    char buf[256];
                    std::snprintf(
                        buf, sizeof(buf),
                        "plane jobs/s regressed in workers at "
                        "clients=%u pipeline=%u: %u workers %.1f "
                        "-> %u workers %.1f",
                        c, d, prev->workers, prev->jobs_per_sec,
                        p.workers, p.jobs_per_sec);
                    fail(buf);
                }
                prev = &p;
            }
            if (first && prev && first->jobs_per_sec > 0.0)
                best_speedup = std::max(
                    best_speedup,
                    prev->jobs_per_sec / first->jobs_per_sec);
        }
    }
    if ((opt.assert_monotonic || opt.assert_speedup > 0.0)
        && !saw_saturated)
        fail("no saturated grid group (clients x pipeline >= max "
             "workers) to assert on");
    if (opt.assert_speedup > 0.0
        && best_speedup < opt.assert_speedup) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "plane speedup %.2fx below required %.2fx",
                      best_speedup, opt.assert_speedup);
        fail(buf);
    }
    if (opt.p99_ceiling_ms > 0) {
        for (const auto &p : plane) {
            if (p.pipeline != 1 || p.workers < p.clients)
                continue;
            if (p.latency.p99_us
                > static_cast<double>(opt.p99_ceiling_ms)
                      * 1000.0) {
                char buf[160];
                std::snprintf(
                    buf, sizeof(buf),
                    "uncontended plane p99 %.1f ms exceeds ceiling "
                    "%llu ms (workers=%u clients=%u)",
                    p.latency.p99_us / 1000.0,
                    static_cast<unsigned long long>(
                        opt.p99_ceiling_ms),
                    p.workers, p.clients);
                fail(buf);
            }
        }
    }
    std::printf("asserts: ok (best saturated speedup %.2fx)\n",
                best_speedup);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    char dir_template[] = "/tmp/hdrd_abl10.XXXXXX";
    char *dir_c = ::mkdtemp(dir_template);
    if (!dir_c)
        fail("mkdtemp failed");
    const std::string dir = dir_c;

    std::printf("=== ABL-10: service saturation sweep "
                "(abl10_service_throughput) ===\n");
    std::printf("(host cores: %u)\n\n",
                std::thread::hardware_concurrency());

    std::vector<PointResult> plane_points;
    if (opt.run_plane) {
        const auto plane_trace = recordPlaneTrace(dir);
        std::printf("plane mode: %s (%llu ops, %zu bytes), "
                    "min_job_ms=%llu floor\n",
                    plane_trace[0].name.c_str(),
                    static_cast<unsigned long long>(
                        plane_trace[0].ops),
                    plane_trace[0].bytes.size(),
                    static_cast<unsigned long long>(
                        opt.plane_job_ms));
        printHeader();
        for (const auto c : opt.clients) {
            for (const auto d : opt.pipeline) {
                for (const auto w : opt.workers) {
                    // Jobs sized so every point runs a comparable
                    // wall time and keeps all workers fed.
                    const std::uint64_t jobs =
                        opt.repeat
                        * std::max<std::uint64_t>(
                              24 * std::uint64_t{w},
                              4 * std::uint64_t{c} * d);
                    const auto p =
                        runPoint(dir, plane_trace, w, c, d,
                                 opt.plane_job_ms, jobs, nullptr);
                    printPoint(p);
                    plane_points.push_back(p);
                }
            }
        }
        std::printf("\n");
    }

    std::vector<PointResult> compute_points;
    std::vector<RecordedTrace> registry;
    std::vector<Log2Histogram> per_workload;
    if (opt.run_compute) {
        registry = recordRegistry(opt, dir);
        std::uint64_t total_ops = 0, total_bytes = 0;
        for (const auto &t : registry) {
            total_ops += t.ops;
            total_bytes += t.bytes.size();
        }
        std::printf("compute mode: %zu workloads (scale %.3g, %u "
                    "threads): %llu ops, %.1f MiB of trace\n",
                    registry.size(), opt.scale, opt.threads,
                    static_cast<unsigned long long>(total_ops),
                    static_cast<double>(total_bytes)
                        / (1024.0 * 1024.0));
        printHeader();
        const std::uint64_t jobs =
            std::uint64_t{opt.repeat} * registry.size();
        for (std::size_t i = 0; i < opt.workers.size(); ++i) {
            const std::uint32_t w = opt.workers[i];
            // Per-workload percentiles come from the widest
            // sequential point, where per-job round trips are
            // directly observable.
            const bool widest = i + 1 == opt.workers.size();
            for (const std::uint32_t d :
                 std::vector<std::uint32_t>{1, 8}) {
                const auto p = runPoint(
                    dir, registry, w, 2 * w, d, 0, jobs,
                    widest && d == 1 ? &per_workload : nullptr);
                printPoint(p);
                compute_points.push_back(p);
            }
        }
        std::printf("\n");
    }

    writeJson(opt, registry, plane_points, compute_points,
              per_workload);
    std::printf("wrote %s\n", opt.out.c_str());

    checkAsserts(opt, plane_points);

    ::rmdir(dir.c_str());

    std::printf(
        "\nexpected shape: plane-mode jobs/s scales with workers "
        "while offered\nload (clients x pipeline) covers them — the "
        "floor makes jobs sleep, so\nthis holds even on one core — "
        "and pipelining lifts single-client\nthroughput to the same "
        "ceiling multiple connections reach. Compute-mode\njobs/s "
        "scales only with real cores; on a 1-core host it stays "
        "pinned at\nwhat one core can simulate, whatever the "
        "width.\n");
    return 0;
}
