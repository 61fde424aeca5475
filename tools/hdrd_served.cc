/**
 * @file
 * hdrd_served — the sharded race-analysis daemon.
 *
 * Serves TRC2 traces submitted over a unix-domain (and optionally
 * TCP) socket in the HDS2 protocol: each SUBMIT_JOB is validated as
 * its bytes arrive, analyzed on a bounded worker pool (one reused
 * engine per worker), and answered with a deterministic
 * hdrd-report-v1 JSON race report; a SUBMIT_STREAM is analyzed on its
 * own engine thread while it uploads. Overload answers JOB_BUSY with
 * a retry hint; SIGTERM/SIGINT drains gracefully.
 *
 *   hdrd_served --socket=/tmp/hdrd.sock
 *   hdrd_served --socket=hdrd.sock --tcp=7411 --workers=16 \
 *               --queue=64 --metrics-dump=metrics.json
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "service/server.hh"

using namespace hdrd;

namespace
{

service::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop();
}

void
usage()
{
    std::puts(
        "hdrd_served — sharded race-analysis daemon (protocol HDS2)\n"
        "\n"
        "  --socket=PATH        unix-domain listen socket (required)\n"
        "  --tcp=PORT           also listen on 127.0.0.1:PORT\n"
        "  --workers=N          analysis workers (default: all "
        "cores)\n"
        "  --queue=K            bounded SUBMIT_JOB queue capacity "
        "(default\n"
        "                       16); overflow answers JOB_BUSY, never "
        "queues\n"
        "                       more\n"
        "  --max-conns=N        concurrent connection cap (default "
        "64)\n"
        "  --io-shards=N        socket I/O shard threads (default: "
        "derived\n"
        "                       from hardware concurrency)\n"
        "  --max-pipeline=N     per-connection in-flight SUBMIT_JOB "
        "cap\n"
        "                       (default 32)\n"
        "  --timeout-ms=N       cancel jobs still queued after N ms\n"
        "  --max-trace=BYTES    largest accepted trace (default 1g;\n"
        "                       k/m/g suffixes accepted)\n"
        "  --metrics-dump=FILE  periodic hdrd-metrics-v1 snapshot\n"
        "  --metrics-interval-ms=N  snapshot period (default 1000)\n"
        "  --min-job-ms=N       debug: floor per-job service time\n"
        "  --max-streams=N      concurrent SUBMIT_STREAM sessions, "
        "each on\n"
        "                       its own engine thread (default 8)\n"
        "  --stream-buffer=BYTES  per-session cap on buffered but\n"
        "                       unanalyzed stream bytes (default 4m;\n"
        "                       the CREDIT window)\n"
        "  --partial-interval=N executed ops between JOB_PARTIAL\n"
        "                       reports (default 1048576; 0 = none)\n"
        "\n"
        "Per-job analysis config (mode, detector, seed, granule,\n"
        "cores, sav, faults) arrives with each SUBMIT_JOB or\n"
        "SUBMIT_STREAM; see docs/SERVICE.md for the wire protocol.");
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

} // namespace

int
main(int argc, char **argv)
{
    service::ServerConfig config;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0) {
            usage();
            return 0;
        } else if (eat(arg, "--socket=", value)) {
            config.unix_path = value;
        } else if (eat(arg, "--tcp=", value)) {
            config.tcp_port = static_cast<std::uint16_t>(
                cli::parseU32("tcp", value, 1, 65535));
        } else if (eat(arg, "--workers=", value)) {
            config.workers = cli::parseU32("workers", value, 0, 4096);
        } else if (eat(arg, "--queue=", value)) {
            config.queue_capacity =
                cli::parseU64("queue", value, 1, 1 << 20);
        } else if (eat(arg, "--max-conns=", value)) {
            config.max_connections =
                cli::parseU32("max-conns", value, 1, 65536);
        } else if (eat(arg, "--io-shards=", value)) {
            config.io_shards =
                cli::parseU32("io-shards", value, 1, 64);
        } else if (eat(arg, "--max-pipeline=", value)) {
            config.max_pipeline =
                cli::parseU32("max-pipeline", value, 1, 4096);
        } else if (eat(arg, "--drain-linger-ms=", value)) {
            config.drain_linger_ms = cli::parseU64(
                "drain-linger-ms", value, 0, 600000);
        } else if (eat(arg, "--timeout-ms=", value)) {
            config.job_timeout_ms =
                cli::parseU64("timeout-ms", value, 1, UINT64_MAX);
        } else if (eat(arg, "--max-trace=", value)) {
            config.max_trace_bytes = cli::parseU64(
                "max-trace", value, 1024, UINT64_MAX);
        } else if (eat(arg, "--metrics-dump=", value)) {
            config.metrics_dump = value;
        } else if (eat(arg, "--metrics-interval-ms=", value)) {
            config.metrics_interval_ms = cli::parseU64(
                "metrics-interval-ms", value, 10, UINT64_MAX);
        } else if (eat(arg, "--min-job-ms=", value)) {
            config.min_job_ms =
                cli::parseU64("min-job-ms", value, 0, 60000);
        } else if (eat(arg, "--max-streams=", value)) {
            config.max_streams =
                cli::parseU32("max-streams", value, 1, 4096);
        } else if (eat(arg, "--stream-buffer=", value)) {
            config.stream_buffer = cli::parseU64(
                "stream-buffer", value, 4096, UINT64_MAX);
        } else if (eat(arg, "--partial-interval=", value)) {
            config.partial_interval_ops = cli::parseU64(
                "partial-interval", value, 0, UINT64_MAX);
        } else {
            usage();
            fatal("unknown option '", arg, "'");
        }
    }
    if (config.unix_path.empty()) {
        usage();
        fatal("need --socket=PATH");
    }

    service::Server server(std::move(config));
    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::string err;
    if (!server.start(err))
        fatal("hdrd_served: ", err);
    inform("hdrd_served: serving (", server.workers(), " workers, ",
           server.ioShards(), " I/O shards); SIGTERM drains");

    server.waitForStopRequest();
    inform("hdrd_served: draining");
    server.stop();
    inform("hdrd_served: stopped");
    return 0;
}
