/**
 * @file
 * ABL-13 (our ablation): streaming analysis memory and latency
 * against the buffered baseline.
 *
 * One in-process daemon, one bounded-address workload recorded at a
 * geometric ladder of trace lengths (1x, 2x, ... 8x). Each length is
 * analyzed twice over the same socket:
 *
 *  - **buffered**: SUBMIT_JOB — the client slurps the
 *    whole TRC2 image into memory, the server decodes it into a
 *    complete TraceData before analysis starts, and the first byte
 *    of report JSON exists only after the last op executed. Peak
 *    memory scales with trace length twice over (client image +
 *    server op vectors).
 *  - **streamed**: SUBMIT_STREAM — the client reads the trace
 *    file in 64 KiB chunks under the server's CREDIT window while
 *    the engine analyzes concurrently; JOB_PARTIAL reports appear
 *    from the first partial-interval on. Un-analyzed bytes are
 *    bounded by the per-session credit window whatever the trace
 *    length, so peak RSS is flat across the ladder — the
 *    constant-memory-at-unbounded-trace-length headline.
 *
 * Peak RSS is whole-process VmHWM, reset between runs via
 * /proc/self/clear_refs ("5"), so each point reports its own
 * high-water mark. The bench also diffs the streamed final report
 * against the buffered one (both with host timing omitted) — byte
 * equality is asserted, not assumed.
 *
 * `--max-rss-kb=N` and `--assert-flat=F` turn the ladder into a CI
 * gate: every streamed point must stay under N kB, and the largest
 * streamed point must stay within F x the smallest.
 *
 * Writes an "hdrd-bench-stream-v1" JSON report (default
 * BENCH_stream.json).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "bench_util.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "trace/trace_io.hh"
#include "trace/trace_program.hh"

using namespace hdrd;

namespace
{

struct Options
{
    double base_scale = 0.5;  ///< 1x ladder rung workload scale
    std::uint32_t threads = 4;
    std::vector<std::uint32_t> mults = {1, 2, 4, 8};
    std::uint64_t stream_buffer = 1ull << 20;
    std::uint64_t partial_interval = 1ull << 14;
    std::uint64_t max_rss_kb = 0;   ///< gate on streamed peaks
    double assert_flat = 0.0;       ///< max/min streamed peak ratio
    std::string workload = "micro.ping_pong";
    std::string out = "BENCH_stream.json";
    bool quick = false;
};

[[noreturn]] void
usageAndExit()
{
    std::fprintf(
        stderr,
        "usage: abl13_streaming [options]\n"
        "  --scale=F            1x workload scale (default 0.5)\n"
        "  --threads=N          workload threads (default 4)\n"
        "  --mults=CSV          trace length multipliers (default "
        "1,2,4,8)\n"
        "  --stream-buffer=N    per-session credit window bytes "
        "(default 1 MiB)\n"
        "  --partial-interval=N ops between partial reports "
        "(default 16384)\n"
        "  --workload=NAME      registry workload (default "
        "micro.ping_pong,\n"
        "                       a bounded-address racy micro)\n"
        "  --max-rss-kb=N       fail if any streamed point's peak "
        "RSS tops N kB\n"
        "  --assert-flat=F      fail if the largest streamed peak "
        "exceeds\n"
        "                       F x the smallest (e.g. 1.25)\n"
        "  --out=FILE           JSON output (default "
        "BENCH_stream.json)\n"
        "  --quick              CI smoke: mults 1,8 and a smaller "
        "1x rung\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--scale=", 0) == 0) {
            opt.base_scale = std::stod(arg.substr(8));
        } else if (arg.rfind("--threads=", 0) == 0) {
            opt.threads = static_cast<std::uint32_t>(
                std::stoul(arg.substr(10)));
        } else if (arg.rfind("--mults=", 0) == 0) {
            opt.mults.clear();
            std::stringstream ss(arg.substr(8));
            std::string item;
            while (std::getline(ss, item, ','))
                opt.mults.push_back(static_cast<std::uint32_t>(
                    std::stoul(item)));
            if (opt.mults.empty())
                usageAndExit();
        } else if (arg.rfind("--stream-buffer=", 0) == 0) {
            opt.stream_buffer = std::stoull(arg.substr(16));
        } else if (arg.rfind("--partial-interval=", 0) == 0) {
            opt.partial_interval = std::stoull(arg.substr(19));
        } else if (arg.rfind("--workload=", 0) == 0) {
            opt.workload = arg.substr(11);
        } else if (arg.rfind("--max-rss-kb=", 0) == 0) {
            opt.max_rss_kb = std::stoull(arg.substr(13));
        } else if (arg.rfind("--assert-flat=", 0) == 0) {
            opt.assert_flat = std::stod(arg.substr(14));
        } else if (arg.rfind("--out=", 0) == 0) {
            opt.out = arg.substr(6);
        } else if (arg == "--quick") {
            opt.quick = true;
            opt.base_scale = 0.25;
            opt.mults = {1, 8};
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         arg.c_str());
            usageAndExit();
        }
    }
    return opt;
}

[[noreturn]] void
fail(const std::string &what)
{
    std::fprintf(stderr, "abl13: %s\n", what.c_str());
    std::exit(1);
}

/** Current VmHWM (peak RSS) of this process, in kB. */
std::uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/**
 * Reset the kernel's peak-RSS watermark to the current RSS, so the
 * next peakRssKb() reads this measurement's own high-water mark.
 * malloc_trim first: freed-but-retained heap from the previous
 * measurement would otherwise floor the watermark.
 */
void
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

/** Record the chosen workload at @p scale into @p path. */
std::uint64_t
recordTrace(const Options &opt, double scale,
            const std::string &path)
{
    workloads::WorkloadParams params;
    params.nthreads = opt.threads;
    params.scale = scale;
    for (const auto &info : workloads::allWorkloads()) {
        if (info.name != opt.workload)
            continue;
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
            fail("trace write failed");
        return writer.recorded();
    }
    fail("workload not in registry: " + opt.workload);
}

std::uint64_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fail("cannot open " + path);
    return static_cast<std::uint64_t>(in.tellg());
}

struct PointResult
{
    std::uint32_t mult = 0;
    std::uint64_t trace_bytes = 0;
    std::uint64_t trace_ops = 0;

    std::uint64_t buffered_rss_kb = 0;
    double buffered_total_s = 0.0;

    std::uint64_t streamed_rss_kb = 0;
    double streamed_first_report_s = 0.0;
    double streamed_total_s = 0.0;
    std::uint64_t partials = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    using Clock = std::chrono::steady_clock;

    char dir_template[] = "/tmp/hdrd_abl13.XXXXXX";
    char *dir_c = ::mkdtemp(dir_template);
    if (!dir_c)
        fail("mkdtemp failed");
    const std::string dir = dir_c;
    const std::string trace_path = dir + "/abl13.trc";

    service::ServerConfig config;
    config.unix_path = dir + "/abl13.sock";
    config.workers = 1;
    config.io_shards = 1;
    config.stream_buffer = opt.stream_buffer;
    config.partial_interval_ops = opt.partial_interval;

    service::Server server(config);
    std::string err;
    if (!server.start(err))
        fail("server start: " + err);

    service::JobOptions job;
    job.flags = service::kJobOmitHostTiming;

    std::printf("=== ABL-13: streaming vs buffered analysis "
                "(abl13_streaming) ===\n");
    std::printf("workload %s, %u threads, credit window %llu kB, "
                "partial every %llu ops\n\n",
                opt.workload.c_str(), opt.threads,
                static_cast<unsigned long long>(
                    opt.stream_buffer / 1024),
                static_cast<unsigned long long>(
                    opt.partial_interval));
    std::printf("%5s %10s %9s | %9s %8s | %9s %8s %9s %8s\n",
                "mult", "bytes", "ops", "buf.rss", "buf.t",
                "str.rss", "str.t", "first", "partials");

    std::vector<PointResult> points;
    for (const std::uint32_t mult : opt.mults) {
        PointResult p;
        p.mult = mult;
        p.trace_ops =
            recordTrace(opt, opt.base_scale * mult, trace_path);
        p.trace_bytes = fileSize(trace_path);

        // Streamed first (64 KiB chunks off the file under credit;
        // the trace image never exists in memory on either side) so
        // the buffered run's heap can't floor its RSS watermark.
        resetPeakRss();
        std::string streamed_report;
        {
            service::Client client;
            std::string cerr_;
            if (!client.connectUnix(config.unix_path, cerr_))
                fail("connect: " + cerr_);
            std::ifstream in(trace_path, std::ios::binary);
            if (!in)
                fail("cannot open " + trace_path);

            const auto t0 = Clock::now();
            Clock::time_point t_first{};
            std::uint64_t partials = 0;
            service::StreamHandlers handlers;
            handlers.on_partial =
                [&](const std::string &) {
                    if (partials++ == 0)
                        t_first = Clock::now();
                };
            const service::StreamSource source =
                [&in](char *dst, std::size_t max) {
                    in.read(dst,
                            static_cast<std::streamsize>(max));
                    return static_cast<std::size_t>(in.gcount());
                };
            const service::Response resp = client.submitStream(
                job, "abl13", source, handlers);
            const auto t1 = Clock::now();
            if (!resp.isReport())
                fail("streamed submit failed: " + resp.payload);
            streamed_report = resp.payload;
            p.partials = partials;
            p.streamed_total_s =
                std::chrono::duration<double>(t1 - t0).count();
            p.streamed_first_report_s = partials > 0
                ? std::chrono::duration<double>(t_first - t0)
                      .count()
                : p.streamed_total_s;
        }
        p.streamed_rss_kb = peakRssKb();

        // Buffered baseline: whole image in client memory, whole
        // TraceData in the server, report only at the end — and the
        // byte-equality check on the two finals.
        resetPeakRss();
        {
            service::Client client;
            std::string cerr_;
            if (!client.connectUnix(config.unix_path, cerr_))
                fail("connect: " + cerr_);
            const auto t0 = Clock::now();
            std::ifstream in(trace_path, std::ios::binary);
            std::ostringstream image;
            image << in.rdbuf();
            const service::Response resp =
                client.submit(job, image.str());
            const auto t1 = Clock::now();
            if (!resp.isReport())
                fail("buffered submit failed: " + resp.payload);
            if (resp.payload != streamed_report)
                fail("streamed final report differs from the "
                     "buffered report at mult "
                     + std::to_string(mult));
            p.buffered_total_s =
                std::chrono::duration<double>(t1 - t0).count();
        }
        p.buffered_rss_kb = peakRssKb();

        std::printf("%5u %10llu %9llu | %8lluK %7.2fs | %8lluK "
                    "%7.2fs %8.3fs %8llu\n",
                    p.mult,
                    static_cast<unsigned long long>(p.trace_bytes),
                    static_cast<unsigned long long>(p.trace_ops),
                    static_cast<unsigned long long>(
                        p.buffered_rss_kb),
                    p.buffered_total_s,
                    static_cast<unsigned long long>(
                        p.streamed_rss_kb),
                    p.streamed_total_s, p.streamed_first_report_s,
                    static_cast<unsigned long long>(p.partials));
        points.push_back(p);
    }

    server.stop();
    ::unlink(trace_path.c_str());
    ::rmdir(dir.c_str());

    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (!f)
        fail("cannot open " + opt.out);
    std::fprintf(f, "{\n  \"schema\": \"hdrd-bench-stream-v1\",\n");
    std::fprintf(f, "  \"tool\": \"abl13_streaming\",\n");
    std::fprintf(f,
                 "  \"config\": {\"workload\": \"%s\", \"scale\": "
                 "%g, \"threads\": %u, \"stream_buffer\": %llu, "
                 "\"partial_interval\": %llu, \"quick\": %s},\n",
                 opt.workload.c_str(), opt.base_scale, opt.threads,
                 static_cast<unsigned long long>(opt.stream_buffer),
                 static_cast<unsigned long long>(
                     opt.partial_interval),
                 opt.quick ? "true" : "false");
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = points[i];
        std::fprintf(
            f,
            "    {\"mult\": %u, \"trace_bytes\": %llu, "
            "\"trace_ops\": %llu, "
            "\"buffered\": {\"peak_rss_kb\": %llu, "
            "\"total_s\": %.6f}, "
            "\"streamed\": {\"peak_rss_kb\": %llu, "
            "\"first_report_s\": %.6f, \"total_s\": %.6f, "
            "\"partials\": %llu}}%s\n",
            p.mult,
            static_cast<unsigned long long>(p.trace_bytes),
            static_cast<unsigned long long>(p.trace_ops),
            static_cast<unsigned long long>(p.buffered_rss_kb),
            p.buffered_total_s,
            static_cast<unsigned long long>(p.streamed_rss_kb),
            p.streamed_first_report_s, p.streamed_total_s,
            static_cast<unsigned long long>(p.partials),
            i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", opt.out.c_str());

    // CI gates.
    std::uint64_t min_peak = UINT64_MAX, max_peak = 0;
    for (const PointResult &p : points) {
        min_peak = std::min(min_peak, p.streamed_rss_kb);
        max_peak = std::max(max_peak, p.streamed_rss_kb);
        if (opt.max_rss_kb > 0
            && p.streamed_rss_kb > opt.max_rss_kb) {
            char buf[160];
            std::snprintf(
                buf, sizeof(buf),
                "streamed peak RSS %llu kB at mult %u exceeds the "
                "--max-rss-kb=%llu gate",
                static_cast<unsigned long long>(p.streamed_rss_kb),
                p.mult,
                static_cast<unsigned long long>(opt.max_rss_kb));
            fail(buf);
        }
    }
    if (opt.assert_flat > 0.0 && min_peak > 0
        && static_cast<double>(max_peak)
               > opt.assert_flat * static_cast<double>(min_peak)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "streamed peak RSS not flat: %llu kB vs "
                      "%llu kB exceeds %.2fx",
                      static_cast<unsigned long long>(max_peak),
                      static_cast<unsigned long long>(min_peak),
                      opt.assert_flat);
        fail(buf);
    }
    if (opt.max_rss_kb > 0 || opt.assert_flat > 0.0)
        std::printf("asserts: ok (streamed peaks %llu..%llu kB)\n",
                    static_cast<unsigned long long>(min_peak),
                    static_cast<unsigned long long>(max_peak));

    std::printf(
        "\nexpected shape: buffered peak RSS climbs with trace "
        "length (the whole\nimage plus the decoded op vectors live "
        "in memory at once) while streamed\npeak RSS stays flat at "
        "the credit window, and the streamed first report\nlands "
        "after the first partial interval instead of after the "
        "whole trace.\n");
    return 0;
}
