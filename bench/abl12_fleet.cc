/**
 * @file
 * ABL-12 (our ablation): fleet failover sweep through the shard
 * router.
 *
 * Spawns N real daemon processes (the binary re-execs itself with
 * --serve, so SIGKILL is a genuine process death, not a graceful
 * drain), then drives a fixed job multiset through a Router over a
 * daemons x kills x pipeline-depth grid. At kills > 0 a killer
 * thread SIGKILLs that many non-primary daemons mid-point and
 * restarts them moments later, so every such point measures the
 * full failover path: refused connects, stranded in-flight jobs,
 * jittered backoff, reroute to survivors, and re-admission of the
 * restarted daemon.
 *
 * Every job uses kJobOmitHostTiming, so reports are byte-stable and
 * the whole sweep shares one correctness oracle: the
 * hdrd-report-cluster-v1 bytes of each point must equal the
 * single-daemon zero-kill baseline. A lost job, duplicated report,
 * or wrong payload changes the bytes; a reroute does not.
 *
 * `--check` turns the sweep into a CI gate (all jobs ok, all points
 * byte-identical, reroutes observed whenever daemons were killed).
 * Writes an "hdrd-bench-fleet-v1" JSON report (default
 * BENCH_fleet.json).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "service/client.hh"
#include "service/cluster.hh"
#include "service/protocol.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "trace/trace_program.hh"
#include "workloads/registry.hh"

using namespace hdrd;

namespace
{

struct Options
{
    double scale = 0.05;
    std::uint32_t repeat = 8;          ///< passes over the trace set
    std::vector<std::uint32_t> daemons = {1, 2, 3};
    std::vector<std::uint32_t> kills = {0, 1};
    std::vector<std::uint32_t> pipeline = {1, 4};
    std::uint32_t workers = 2;         ///< per-daemon pool width
    std::uint64_t min_job_ms = 30;     ///< per-job service floor
    std::uint64_t retry_seed = 1;
    bool check = false;
    std::string out = "BENCH_fleet.json";
    bool quick = false;
};

[[noreturn]] void
usageAndExit()
{
    std::fprintf(
        stderr,
        "usage: abl12_fleet [options]\n"
        "  --scale=F        recorded trace size multiplier (default "
        "0.05)\n"
        "  --repeat=N       passes over the 3-trace set per point "
        "(default 8)\n"
        "  --daemons=CSV    fleet sizes to sweep (default 1,2,3)\n"
        "  --kills=CSV      daemons SIGKILLed+restarted mid-point "
        "(default 0,1)\n"
        "  --pipeline=CSV   pipeline depths (default 1,4)\n"
        "  --workers=N      analysis workers per daemon (default 2)\n"
        "  --min-job-ms=N   per-job service floor (default 30)\n"
        "  --retry-seed=N   router jitter seed (default 1)\n"
        "  --check          CI gate: all jobs ok, every point's "
        "cluster bytes\n"
        "                   match the 1-daemon baseline, reroutes "
        "seen under kills\n"
        "  --out=FILE       JSON output (default BENCH_fleet.json)\n"
        "  --quick          CI smoke: daemons 1,3, pipeline 4, "
        "smaller floor\n");
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

[[noreturn]] void
fail(const std::string &what)
{
    std::fprintf(stderr, "abl12: %s\n", what.c_str());
    std::exit(1);
}

/* ------------------------------------------------------------- */
/* Daemon child mode: `abl12_fleet --serve=SOCK ...` runs one     */
/* hdrd_served-equivalent daemon until SIGTERMed (or SIGKILLed by */
/* the parent's killer thread).                                   */
/* ------------------------------------------------------------- */

service::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->requestStop();
}

[[noreturn]] int
serveMain(const std::string &socket_path, std::uint32_t workers,
          std::uint64_t min_job_ms)
{
    service::ServerConfig config;
    config.unix_path = socket_path;
    config.workers = workers;
    config.min_job_ms = min_job_ms;
    config.queue_capacity = 64;
    config.max_connections = 32;

    service::Server server(config);
    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::string err;
    if (!server.start(err)) {
        std::fprintf(stderr, "abl12 serve: %s\n", err.c_str());
        std::exit(1);
    }
    server.waitForStopRequest();
    server.stop();
    std::exit(0);
}

/* ------------------------------------------------------------- */
/* Parent-side fleet management. fork+exec of our own binary is   */
/* async-signal-safe in the child, so daemons can be (re)spawned  */
/* even while submitter threads are live — which is exactly when  */
/* the killer thread restarts its victims.                        */
/* ------------------------------------------------------------- */

struct Daemon
{
    std::string socket;
    pid_t pid = -1;
};

std::string g_self; ///< path of this binary, for re-exec

pid_t
spawnDaemon(const std::string &socket_path, std::uint32_t workers,
            std::uint64_t min_job_ms)
{
    const std::string serve = "--serve=" + socket_path;
    const std::string w = "--workers=" + std::to_string(workers);
    const std::string m =
        "--min-job-ms=" + std::to_string(min_job_ms);
    const pid_t pid = ::fork();
    if (pid < 0)
        fail("fork failed");
    if (pid == 0) {
        char *argv[] = {
            const_cast<char *>(g_self.c_str()),
            const_cast<char *>(serve.c_str()),
            const_cast<char *>(w.c_str()),
            const_cast<char *>(m.c_str()),
            nullptr,
        };
        ::execv(g_self.c_str(), argv);
        _exit(127);
    }
    return pid;
}

void
waitReady(const std::string &socket_path)
{
    for (int i = 0; i < 200; ++i) {
        service::Client client;
        std::string err;
        if (client.connectUnix(socket_path, err)
            && client.ping().transport_ok)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    fail("daemon on " + socket_path + " never became ready");
}

void
stopDaemon(Daemon &d, int sig)
{
    if (d.pid <= 0)
        return;
    ::kill(d.pid, sig);
    int status = 0;
    ::waitpid(d.pid, &status, 0);
    d.pid = -1;
}

/* ------------------------------------------------------------- */
/* Payloads: the three service micros, recorded to memory once.   */
/* ------------------------------------------------------------- */

struct RecordedTrace
{
    std::string name;
    std::string bytes;
};

std::vector<RecordedTrace>
recordTraces(const Options &opt, const std::string &dir)
{
    workloads::WorkloadParams params;
    params.nthreads = 2;
    params.scale = opt.scale;

    const char *names[] = {"micro.ping_pong", "micro.racy_counter",
                           "micro.locked_counter"};
    std::vector<RecordedTrace> traces;
    for (const char *want : names) {
        bool found = false;
        for (const auto &info : workloads::allWorkloads()) {
            if (info.name != want)
                continue;
            const std::string path = dir + "/rec.trc";
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
            std::ifstream in(path, std::ios::binary);
            std::stringstream buf;
            buf << in.rdbuf();
            rec.bytes = buf.str();
            if (rec.bytes.empty())
                fail("empty trace for " + info.name);
            ::unlink(path.c_str());
            traces.push_back(std::move(rec));
            found = true;
            break;
        }
        if (!found)
            fail(std::string(want) + " not in registry");
    }
    return traces;
}

/* ------------------------------------------------------------- */
/* One sweep point.                                               */
/* ------------------------------------------------------------- */

struct PointResult
{
    std::uint32_t daemons = 0;
    std::uint32_t kills = 0;
    std::uint32_t pipeline = 0;
    std::uint64_t jobs = 0;
    double wall_seconds = 0.0;
    double jobs_per_sec = 0.0;
    std::uint64_t rerouted = 0;
    std::uint64_t attempts = 0;
    std::string cluster; ///< hdrd-report-cluster-v1 bytes
};

PointResult
runPoint(const Options &opt, const std::string &dir,
         const std::vector<RecordedTrace> &traces,
         std::uint32_t ndaemons, std::uint32_t nkills,
         std::uint32_t pipeline)
{
    std::vector<Daemon> fleet(ndaemons);
    for (std::uint32_t i = 0; i < ndaemons; ++i) {
        fleet[i].socket =
            dir + "/d" + std::to_string(i) + ".sock";
        fleet[i].pid = spawnDaemon(fleet[i].socket, opt.workers,
                                   opt.min_job_ms);
    }
    for (auto &d : fleet)
        waitReady(d.socket);

    std::vector<service::Endpoint> endpoints;
    for (const auto &d : fleet) {
        service::Endpoint ep;
        std::string err;
        if (!service::Endpoint::parse(d.socket, ep, err))
            fail("endpoint parse: " + err);
        endpoints.push_back(ep);
    }
    service::RouterConfig rconfig;
    rconfig.retry_seed = opt.retry_seed;
    service::Router router(std::move(endpoints), rconfig);

    service::JobOptions job;
    job.flags = service::kJobOmitHostTiming;

    std::vector<service::Router::BatchJob> batch;
    for (std::uint32_t pass = 0; pass < opt.repeat; ++pass) {
        for (const auto &t : traces) {
            service::Router::BatchJob b;
            b.key = t.name; // same key every pass: cache-warm
            b.options = job;
            b.trace = &t.bytes;
            batch.push_back(b);
        }
    }

    // Killer: SIGKILL nkills daemons a fraction into the expected
    // point wall, restart them shortly after. Victims are daemons
    // that actually own keys (placement is deterministic over the
    // endpoint names), so every kill is guaranteed to strand placed
    // in-flight jobs — killing an ownerless daemon would exercise
    // nothing. At least one daemon always survives.
    std::vector<std::uint32_t> victims;
    if (nkills > 0 && ndaemons > 1) {
        for (const auto &t : traces) {
            const int owner = router.placeStatic(t.name);
            if (owner < 0)
                continue;
            const auto o = static_cast<std::uint32_t>(owner);
            if (std::find(victims.begin(), victims.end(), o)
                == victims.end())
                victims.push_back(o);
        }
        const std::uint32_t cap = std::min(nkills, ndaemons - 1);
        if (victims.size() > cap)
            victims.resize(cap);
        for (std::uint32_t i = 0;
             victims.size() < cap && i < ndaemons; ++i)
            if (std::find(victims.begin(), victims.end(), i)
                == victims.end())
                victims.push_back(i);
    }
    std::atomic<bool> done{false};
    std::thread killer;
    if (!victims.empty()) {
        const std::uint64_t expect_ms =
            batch.size() * opt.min_job_ms
            / (std::uint64_t{opt.workers} * ndaemons);
        const std::uint64_t kill_at = std::max<std::uint64_t>(
            10, expect_ms / 4);
        killer = std::thread([&]() {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kill_at));
            if (done.load())
                return;
            if (::getenv("ABL12_DEBUG"))
                std::fprintf(stderr, "dbg: killing %zu victims at "
                             "%llu ms\n", victims.size(),
                             (unsigned long long)kill_at);
            for (const auto v : victims)
                stopDaemon(fleet[v], SIGKILL);
            // Stay down past the first retry round: it only
            // starts once every surviving group drains
            // (~expect_ms), and a victim that comes back before its
            // stranded jobs retry would serve them in place,
            // turning the kill into a no-op. Several expected-wall
            // quanta guarantees the retries meet a dead daemon and
            // must reroute.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(4 * expect_ms));
            for (const auto v : victims)
                fleet[v].pid = spawnDaemon(
                    fleet[v].socket, opt.workers, opt.min_job_ms);
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto results = router.submitBatch(
        batch, std::max<std::size_t>(1, pipeline));
    const auto t1 = std::chrono::steady_clock::now();
    done.store(true);
    if (killer.joinable())
        killer.join();

    PointResult point;
    point.daemons = ndaemons;
    point.kills = nkills;
    point.pipeline = pipeline;
    point.jobs = batch.size();
    point.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    point.jobs_per_sec =
        point.wall_seconds > 0.0
            ? static_cast<double>(batch.size()) / point.wall_seconds
            : 0.0;
    point.rerouted = router.reroutedJobs();

    if (::getenv("ABL12_DEBUG") && nkills > 0) {
        std::fprintf(stderr, "dbg: wall=%.0fms victims:",
                     point.wall_seconds * 1000.0);
        for (const auto v : victims)
            std::fprintf(stderr, " %u", v);
        std::fprintf(stderr, "\n");
        for (std::size_t i = 0; i < results.size(); ++i)
            std::fprintf(stderr,
                         "dbg: job %2zu key=%s ep=%d att=%u rr=%d "
                         "static=%d\n",
                         i, batch[i].key.c_str(),
                         results[i].endpoint, results[i].attempts,
                         results[i].rerouted ? 1 : 0,
                         router.placeStatic(batch[i].key));
    }

    std::vector<std::string> reports;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        point.attempts += r.attempts;
        if (r.status != service::SubmitStatus::kOk) {
            char buf[160];
            std::snprintf(
                buf, sizeof(buf),
                "job %zu failed at daemons=%u kills=%u "
                "pipeline=%u (status %d, attempts %u): %s",
                i, ndaemons, nkills, pipeline,
                static_cast<int>(r.status), r.attempts,
                r.payload.substr(0, 60).c_str());
            fail(buf);
        }
        reports.push_back(r.payload);
    }
    point.cluster = service::writeClusterReport(std::move(reports));

    for (auto &d : fleet)
        stopDaemon(d, SIGTERM);
    return point;
}

void
writeJson(const Options &opt,
          const std::vector<PointResult> &points)
{
    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (!f)
        fail("cannot open " + opt.out);
    std::fprintf(f, "{\n  \"schema\": \"hdrd-bench-fleet-v1\",\n");
    std::fprintf(f, "  \"tool\": \"abl12_fleet\",\n");
    std::fprintf(f,
                 "  \"config\": {\"scale\": %g, \"repeat\": %u, "
                 "\"workers\": %u, \"min_job_ms\": %llu, "
                 "\"retry_seed\": %llu, \"quick\": %s},\n",
                 opt.scale, opt.repeat, opt.workers,
                 static_cast<unsigned long long>(opt.min_job_ms),
                 static_cast<unsigned long long>(opt.retry_seed),
                 opt.quick ? "true" : "false");
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        std::fprintf(
            f,
            "    {\"daemons\": %u, \"kills\": %u, \"pipeline\": "
            "%u, \"jobs\": %llu, \"wall_seconds\": %.6f, "
            "\"jobs_per_sec\": %.1f, \"rerouted\": %llu, "
            "\"attempts\": %llu}%s\n",
            p.daemons, p.kills, p.pipeline,
            static_cast<unsigned long long>(p.jobs),
            p.wall_seconds, p.jobs_per_sec,
            static_cast<unsigned long long>(p.rerouted),
            static_cast<unsigned long long>(p.attempts),
            i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    // Child mode first: --serve turns this invocation into a daemon.
    std::string serve_socket;
    std::uint32_t serve_workers = 2;
    std::uint64_t serve_job_ms = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--serve=", 0) == 0)
            serve_socket = arg.substr(8);
        else if (serve_socket.empty())
            break;
        else if (arg.rfind("--workers=", 0) == 0)
            serve_workers = static_cast<std::uint32_t>(
                std::stoul(arg.substr(10)));
        else if (arg.rfind("--min-job-ms=", 0) == 0)
            serve_job_ms = std::stoull(arg.substr(13));
    }
    if (!serve_socket.empty())
        serveMain(serve_socket, serve_workers, serve_job_ms);

    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--scale=", 0) == 0) {
            opt.scale = std::stod(arg.substr(8));
        } else if (arg.rfind("--repeat=", 0) == 0) {
            opt.repeat = static_cast<std::uint32_t>(
                std::stoul(arg.substr(9)));
        } else if (arg.rfind("--daemons=", 0) == 0) {
            opt.daemons = parseCsv(arg.substr(10));
        } else if (arg.rfind("--kills=", 0) == 0) {
            opt.kills = parseCsv(arg.substr(8));
        } else if (arg.rfind("--pipeline=", 0) == 0) {
            opt.pipeline = parseCsv(arg.substr(11));
        } else if (arg.rfind("--workers=", 0) == 0) {
            opt.workers = static_cast<std::uint32_t>(
                std::stoul(arg.substr(10)));
        } else if (arg.rfind("--min-job-ms=", 0) == 0) {
            opt.min_job_ms = std::stoull(arg.substr(13));
        } else if (arg.rfind("--retry-seed=", 0) == 0) {
            opt.retry_seed = std::stoull(arg.substr(13));
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            opt.out = arg.substr(6);
        } else if (arg == "--quick") {
            opt.quick = true;
            opt.daemons = {1, 3};
            opt.pipeline = {4};
            opt.repeat = 6;
            opt.min_job_ms = 20;
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         arg.c_str());
            usageAndExit();
        }
    }
    g_self = argv[0];
    std::signal(SIGPIPE, SIG_IGN);

    char dir_template[] = "/tmp/hdrd_abl12.XXXXXX";
    char *dir_c = ::mkdtemp(dir_template);
    if (!dir_c)
        fail("mkdtemp failed");
    const std::string dir = dir_c;

    std::printf("=== ABL-12: fleet failover sweep (abl12_fleet) "
                "===\n\n");
    const auto traces = recordTraces(opt, dir);
    std::printf("payloads: %zu traces x %u passes, %llu ms job "
                "floor, %u workers/daemon\n\n",
                traces.size(), opt.repeat,
                static_cast<unsigned long long>(opt.min_job_ms),
                opt.workers);
    std::printf("%8s %6s %9s %6s %10s %9s %9s\n", "daemons",
                "kills", "pipeline", "jobs", "jobs/s", "rerouted",
                "attempts");

    std::vector<PointResult> points;
    std::string baseline;
    std::uint64_t rerouted_under_kills = 0;
    for (const auto nd : opt.daemons) {
        for (const auto nk : opt.kills) {
            if (nk > 0 && nd < 2)
                continue; // nothing to fail over to
            for (const auto pd : opt.pipeline) {
                auto p = runPoint(opt, dir, traces, nd, nk, pd);
                std::printf("%8u %6u %9u %6llu %10.1f %9llu "
                            "%9llu\n",
                            p.daemons, p.kills, p.pipeline,
                            static_cast<unsigned long long>(
                                p.jobs),
                            p.jobs_per_sec,
                            static_cast<unsigned long long>(
                                p.rerouted),
                            static_cast<unsigned long long>(
                                p.attempts));
                if (baseline.empty())
                    baseline = p.cluster;
                else if (p.cluster != baseline)
                    fail("cluster bytes diverged from baseline at "
                         "daemons=" + std::to_string(nd)
                         + " kills=" + std::to_string(nk)
                         + " pipeline=" + std::to_string(pd));
                if (nk > 0)
                    rerouted_under_kills += p.rerouted;
                points.push_back(std::move(p));
            }
        }
    }
    std::printf("\n");

    writeJson(opt, points);
    std::printf("wrote %s\n", opt.out.c_str());

    if (opt.check) {
        bool any_kills = false;
        for (const auto &p : points)
            any_kills = any_kills || p.kills > 0;
        if (any_kills && rerouted_under_kills == 0)
            fail("no job was rerouted under any kill point — the "
                 "kills never landed mid-sweep");
        std::printf("check: ok (all jobs completed, every point "
                    "byte-identical to baseline%s)\n",
                    any_kills ? ", reroutes observed under kills"
                              : "");
    }

    ::rmdir(dir.c_str());

    std::printf(
        "\nexpected shape: jobs/s grows with fleet size while the "
        "floor keeps\ndaemons sleeping rather than computing; kill "
        "points trade some\nthroughput for reroutes but never lose "
        "a job — the cluster bytes stay\nidentical to the "
        "single-daemon baseline at every grid point.\n");
    return 0;
}
