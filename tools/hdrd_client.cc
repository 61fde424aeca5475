/**
 * @file
 * hdrd_client — submits recorded traces to hdrd_served, to one
 * daemon or to a fleet.
 *
 *   hdrd_client --socket=hdrd.sock trace1.trc trace2.trc
 *   hdrd_client --socket=hdrd.sock --stats
 *   hdrd_client --socket=hdrd.sock --omit-timing --out=agg.json *.trc
 *   hdrd_client --socket=hdrd.sock --parallel=8 --summary big.trc
 *   hdrd_client --socket=hdrd.sock --pipeline=16 --repeat=50 t.trc
 *   hdrd_client --daemons=a.sock,b.sock,9401 --out=cluster.json *.trc
 *   hdrd_client --merge --out=cluster.json agg_a.json agg_b.json
 *
 * Each of the --parallel connections is kept alive and carries its
 * job list as SUBMIT_JOB frames, up to --pipeline (default 1) in
 * flight, correlating the out-of-order responses by job id.
 *
 * --daemons=LIST turns on fleet mode: jobs are placed over the
 * daemons by consistent hash (service/router.hh), pipelined per
 * daemon, and rerouted on daemon death or BUSY; --out then writes
 * the placement-independent hdrd-report-cluster-v1 aggregate
 * (service/cluster.hh), byte-identical to a single-daemon run for
 * any fleet size, kill schedule, or placement (pair with
 * --omit-timing).
 *
 * In single-daemon mode the aggregate --out file is
 * hdrd-report-agg-v1: per-trace reports sorted by file basename,
 * byte-identical for any submission order, worker count, and
 * pipeline depth.
 *
 * Exit codes: 0 all ok; 1 any protocol error (daemon rejected a
 * job); 2 any BUSY left after retries; 3 any transport failure (no
 * daemon reachable / connection lost). Protocol beats transport
 * beats busy when several occur.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "service/client.hh"
#include "service/cluster.hh"
#include "service/router.hh"

using namespace hdrd;

namespace
{

struct Options
{
    std::string socket_path;
    std::uint16_t tcp_port = 0;
    std::string daemons;  ///< comma list => fleet mode
    std::vector<std::string> traces;
    std::string out;      ///< aggregate JSON file
    std::string out_dir;  ///< per-trace report files
    bool stats = false;
    bool ping = false;
    bool omit_timing = false;
    bool summary = false;
    bool merge = false;          ///< offline agg-file merge
    bool merge_metrics = false;  ///< offline metrics merge
    bool stream = false;         ///< chunked SUBMIT_STREAM upload
    bool partials = false;       ///< print streamed partial reports
    std::string session;         ///< --stream session name
    std::string follow;          ///< attach to this live session
    std::uint32_t parallel = 1;
    std::uint32_t repeat = 1;
    std::uint32_t retries = 0;
    std::uint32_t pipeline = 1;  ///< SUBMIT_JOB window

    std::uint64_t retry_seed = 1;
    std::uint32_t max_attempts = 8;
    std::uint64_t deadline_ms = 30000;
    std::uint32_t evict_after = 0;

    service::JobOptions job;
};

void
usage()
{
    std::puts(
        "hdrd_client — submit traces to hdrd_served\n"
        "\n"
        "  --socket=PATH     daemon unix socket\n"
        "  --tcp=PORT        connect to 127.0.0.1:PORT instead\n"
        "  --daemons=LIST    fleet mode: comma list of daemons\n"
        "                    (unix:PATH | PATH | HOST:PORT | PORT);\n"
        "                    jobs are consistent-hash placed and\n"
        "                    rerouted around dead or BUSY daemons\n"
        "  --retry-seed=N    seed for failover backoff jitter\n"
        "                    (default 1: reproducible schedules)\n"
        "  --max-attempts=N  failover attempts per job (default 8)\n"
        "  --deadline-ms=N   per-job failover deadline (0 = none)\n"
        "  --evict-after=N   drop a daemon from the placement ring\n"
        "                    after N consecutive failures (its keys\n"
        "                    rebalance; 0 = keep re-probing forever)\n"
        "  --stats           request the metrics snapshot and print\n"
        "                    it (fleet: merged cluster snapshot)\n"
        "  --ping            liveness probe (fleet: probe every "
        "daemon)\n"
        "  --merge           merge aggregate JSON files (the\n"
        "                    positional args) into one cluster "
        "report\n"
        "  --merge-metrics   merge metrics JSON files instead\n"
        "  --out=FILE        aggregate JSON (single daemon:\n"
        "                    hdrd-report-agg-v1 sorted by basename;\n"
        "                    fleet/merge: hdrd-report-cluster-v1)\n"
        "  --out-dir=DIR     also write DIR/<basename>.report.json "
        "per trace\n"
        "  --omit-timing     ask the server to omit host timing "
        "(determinism)\n"
        "  --parallel=N      N concurrent connections (stress/"
        "backpressure)\n"
        "  --pipeline=N      keep up to N SUBMIT_JOB frames in flight "
        "per\n"
        "                    connection (default 1)\n"
        "  --stream          upload the (single) trace as SUBMIT_DATA\n"
        "                    chunks under server credit; '-' streams\n"
        "                    the trace from stdin\n"
        "  --session=NAME    streaming session name others can "
        "--follow\n"
        "                    (default: the trace basename)\n"
        "  --follow=NAME     attach to a live streaming session and\n"
        "                    tail its partial reports to stdout\n"
        "  --partials        with --stream: also print each partial\n"
        "                    report as it arrives\n"
        "  --repeat=M        submit the trace list M times per "
        "connection\n"
        "  --retry=N         retry BUSY replies up to N times, "
        "honouring\n"
        "                    the server's retry_after_ms hint\n"
        "  --summary         print 'ok=A busy=B error=C ...' totals\n"
        "\n"
        "Analysis config forwarded with each job:\n"
        "  --mode=M          native|continuous|demand (default "
        "demand)\n"
        "  --detector=D      fasttrack|naive|lockset\n"
        "  --seed=N --granule=N --cores=N --sav=N\n"
        "  --faults=SPEC     override the trace's recorded fault "
        "spec\n"
        "  --no-trace-faults ignore the trace's recorded fault spec\n"
        "\n"
        "Exit: 0 all ok, 1 any protocol error, 2 any BUSY left "
        "after\n"
        "retries, 3 any transport failure (daemon unreachable).");
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
        } else if (std::strcmp(arg, "--stats") == 0) {
            opt.stats = true;
        } else if (std::strcmp(arg, "--ping") == 0) {
            opt.ping = true;
        } else if (std::strcmp(arg, "--omit-timing") == 0) {
            opt.omit_timing = true;
        } else if (std::strcmp(arg, "--summary") == 0) {
            opt.summary = true;
        } else if (std::strcmp(arg, "--merge") == 0) {
            opt.merge = true;
        } else if (std::strcmp(arg, "--merge-metrics") == 0) {
            opt.merge_metrics = true;
        } else if (std::strcmp(arg, "--stream") == 0) {
            opt.stream = true;
        } else if (std::strcmp(arg, "--partials") == 0) {
            opt.partials = true;
        } else if (eat(arg, "--session=", value)) {
            opt.session = value;
        } else if (eat(arg, "--follow=", value)) {
            opt.follow = value;
        } else if (eat(arg, "--evict-after=", value)) {
            opt.evict_after =
                cli::parseU32("evict-after", value, 0, 1000);
        } else if (std::strcmp(arg, "--no-trace-faults") == 0) {
            opt.job.flags |= service::kJobIgnoreTraceFaults;
        } else if (eat(arg, "--socket=", value)) {
            opt.socket_path = value;
        } else if (eat(arg, "--tcp=", value)) {
            opt.tcp_port = static_cast<std::uint16_t>(
                cli::parseU32("tcp", value, 1, 65535));
        } else if (eat(arg, "--daemons=", value)) {
            opt.daemons = value;
        } else if (eat(arg, "--retry-seed=", value)) {
            opt.retry_seed = cli::parseU64("retry-seed", value);
        } else if (eat(arg, "--max-attempts=", value)) {
            opt.max_attempts =
                cli::parseU32("max-attempts", value, 1, 1000);
        } else if (eat(arg, "--deadline-ms=", value)) {
            opt.deadline_ms = cli::parseU64("deadline-ms", value);
        } else if (eat(arg, "--out=", value)) {
            opt.out = value;
        } else if (eat(arg, "--out-dir=", value)) {
            opt.out_dir = value;
        } else if (eat(arg, "--parallel=", value)) {
            opt.parallel = cli::parseU32("parallel", value, 1, 4096);
        } else if (eat(arg, "--pipeline=", value)) {
            opt.pipeline = cli::parseU32("pipeline", value, 1, 4096);
        } else if (eat(arg, "--repeat=", value)) {
            opt.repeat = cli::parseU32("repeat", value, 1, 1000000);
        } else if (eat(arg, "--retry=", value)) {
            opt.retries = cli::parseU32("retry", value, 0, 1000);
        } else if (eat(arg, "--mode=", value)) {
            if (value == "native")
                opt.job.mode = 0;
            else if (value == "continuous")
                opt.job.mode = 1;
            else if (value == "demand")
                opt.job.mode = 2;
            else
                fatal("unknown mode '", value, "'");
        } else if (eat(arg, "--detector=", value)) {
            if (value == "fasttrack")
                opt.job.detector = 0;
            else if (value == "naive")
                opt.job.detector = 1;
            else if (value == "lockset")
                opt.job.detector = 2;
            else
                fatal("unknown detector '", value, "'");
        } else if (eat(arg, "--seed=", value)) {
            opt.job.seed = cli::parseU64("seed", value);
        } else if (eat(arg, "--granule=", value)) {
            opt.job.granule_shift =
                cli::parseU32("granule", value, 0, 16);
        } else if (eat(arg, "--cores=", value)) {
            opt.job.cores = cli::parseU32("cores", value, 1, 1024);
        } else if (eat(arg, "--sav=", value)) {
            opt.job.sav = cli::parseU64("sav", value, 1, UINT64_MAX);
        } else if (eat(arg, "--faults=", value)) {
            if (value.size() >= opt.job.fault_spec.size())
                fatal("--faults: spec too long");
            std::memcpy(opt.job.fault_spec.data(), value.data(),
                        value.size());
        } else if (arg[0] == '-' && arg[1] != '\0') {
            usage();
            fatal("unknown option '", arg, "'");
        } else {
            // A bare "-" is the stdin trace for --stream.
            opt.traces.push_back(arg);
        }
    }
    if (!opt.merge && !opt.merge_metrics && opt.socket_path.empty()
        && opt.tcp_port == 0 && opt.daemons.empty()) {
        usage();
        fatal("need --socket=PATH, --tcp=PORT, or --daemons=LIST");
    }
    if (opt.omit_timing)
        opt.job.flags |= service::kJobOmitHostTiming;
    return opt;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path
                                      : path.substr(slash + 1);
}

/** How one job ended, unified across single and fleet modes. */
enum class Outcome
{
    kOk,
    kBusy,
    kProtocol,   ///< daemon (or local file) rejected the job
    kTransport,  ///< daemon unreachable / connection lost
};

struct Result
{
    std::string file;
    Outcome outcome = Outcome::kTransport;
    std::string payload;
    int transport_errno = 0;
};

Outcome
classify(const service::Response &response)
{
    if (response.isReport())
        return Outcome::kOk;
    if (response.isBusy())
        return Outcome::kBusy;
    if (!response.transport_ok)
        // A local failure before any socket write (e.g. a missing
        // trace file) carries no errno and is the caller's error,
        // not the transport's.
        return response.transport_errno != 0 ? Outcome::kTransport
                                             : Outcome::kProtocol;
    return Outcome::kProtocol;
}

Result
fromResponse(const std::string &file, service::Response response)
{
    Result r;
    r.file = file;
    r.outcome = classify(response);
    r.payload = std::move(response.payload);
    r.transport_errno = response.transport_errno;
    return r;
}

Result
fromSubmitResult(const std::string &file,
                 service::SubmitResult result)
{
    Result r;
    r.file = file;
    r.payload = std::move(result.payload);
    r.transport_errno = result.transport_errno;
    switch (result.status) {
      case service::SubmitStatus::kOk:
        r.outcome = Outcome::kOk;
        break;
      case service::SubmitStatus::kBusy:
        r.outcome = Outcome::kBusy;
        break;
      case service::SubmitStatus::kRejected:
        r.outcome = Outcome::kProtocol;
        break;
      case service::SubmitStatus::kTransport:
      case service::SubmitStatus::kDeadline:
      case service::SubmitStatus::kNoEndpoints:
        r.outcome = Outcome::kTransport;
        break;
    }
    return r;
}

bool
connectTo(const Options &opt, service::Client &client,
          std::string &err)
{
    return opt.tcp_port != 0
        ? client.connectTcp(opt.tcp_port, err)
        : client.connectUnix(opt.socket_path, err);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open ", path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void
writeOut(const std::string &path, const std::string &bytes)
{
    if (path.empty()) {
        std::fputs(bytes.c_str(), stdout);
        return;
    }
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot open ", path);
    os << bytes;
}

/** --merge / --merge-metrics: offline file merges, no daemons. */
int
runMerge(const Options &opt)
{
    if (opt.traces.empty())
        fatal("--merge needs input files");
    if (opt.merge_metrics) {
        std::vector<std::string> docs;
        for (const std::string &path : opt.traces)
            docs.push_back(slurp(path));
        writeOut(opt.out, service::mergeMetrics(docs));
        return 0;
    }
    std::vector<std::string> reports;
    for (const std::string &path : opt.traces) {
        const std::string doc = slurp(path);
        std::vector<std::string> part;
        std::string err;
        if (!service::splitAggregate(doc, part, err))
            fatal("hdrd_client: protocol: ", path, ": ", err);
        reports.insert(reports.end(), part.begin(), part.end());
    }
    writeOut(opt.out, service::writeClusterReport(reports));
    return 0;
}

std::vector<service::Endpoint>
parseDaemons(const std::string &list)
{
    std::vector<service::Endpoint> endpoints;
    std::size_t at = 0;
    while (at <= list.size()) {
        const std::size_t comma = list.find(',', at);
        const std::string spec = list.substr(
            at, comma == std::string::npos ? std::string::npos
                                           : comma - at);
        if (!spec.empty()) {
            service::Endpoint ep;
            std::string err;
            if (!service::Endpoint::parse(spec, ep, err))
                fatal("--daemons: ", err);
            endpoints.push_back(std::move(ep));
        }
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    if (endpoints.empty())
        fatal("--daemons: no daemons in list");
    return endpoints;
}

service::Router
makeRouter(const Options &opt)
{
    service::RouterConfig config;
    config.retry_seed = opt.retry_seed;
    config.max_attempts = opt.max_attempts;
    config.job_deadline_ms = opt.deadline_ms;
    config.evict_after = opt.evict_after;
    return service::Router(parseDaemons(opt.daemons), config);
}

/** Fleet --stats / --ping: fan out, then merge or enumerate. */
int
runFleetControl(const Options &opt)
{
    service::Router router = makeRouter(opt);
    if (opt.ping) {
        bool all_ok = true;
        for (std::size_t i = 0; i < router.size(); ++i) {
            const bool ok = router.probe(i);
            std::printf("%s %s\n",
                        router.endpoint(i).name().c_str(),
                        ok ? "ok" : "dead");
            all_ok = all_ok && ok;
        }
        return all_ok ? 0 : 3;
    }
    const auto snapshots = router.statsAll();
    std::vector<std::string> reachable;
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        if (snapshots[i].first)
            reachable.push_back(snapshots[i].second);
        else
            std::fprintf(stderr,
                         "hdrd_client: transport: %s: %s\n",
                         router.endpoint(i).name().c_str(),
                         snapshots[i].second.c_str());
    }
    if (reachable.empty())
        return 3;
    writeOut("", service::mergeMetrics(reachable));
    return reachable.size() == snapshots.size() ? 0 : 3;
}

/** Classified per-failure diagnostics + the exit code. */
int
finish(const Options &opt, const std::vector<Result> &results,
       std::uint64_t rerouted)
{
    std::size_t n_ok = 0, n_busy = 0, n_protocol = 0,
                n_transport = 0;
    for (const Result &r : results) {
        switch (r.outcome) {
          case Outcome::kOk: ++n_ok; break;
          case Outcome::kBusy: ++n_busy; break;
          case Outcome::kProtocol: ++n_protocol; break;
          case Outcome::kTransport: ++n_transport; break;
        }
    }

    // Aggregate output: the fleet path sorts by the reports' own
    // trace names (cluster schema); the single-daemon path keeps
    // the basename-sorted agg schema.
    std::vector<const Result *> ordered;
    for (const Result &r : results) {
        if (r.outcome == Outcome::kOk)
            ordered.push_back(&r);
    }
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Result *a, const Result *b) {
                         const std::string ba = basenameOf(a->file);
                         const std::string bb = basenameOf(b->file);
                         return ba != bb ? ba < bb
                                         : a->file < b->file;
                     });

    if (!opt.out.empty()) {
        if (!opt.daemons.empty()) {
            std::vector<std::string> reports;
            reports.reserve(ordered.size());
            for (const Result *r : ordered)
                reports.push_back(r->payload);
            writeOut(opt.out,
                     service::writeClusterReport(
                         std::move(reports)));
        } else {
            std::ofstream os(opt.out, std::ios::trunc);
            if (!os)
                fatal("cannot open ", opt.out);
            os << "{\n\"schema\": \"hdrd-report-agg-v1\",\n"
                  "\"jobs\": [";
            const char *sep = "";
            for (const Result *r : ordered) {
                os << sep << "\n" << r->payload;
                sep = ",";
            }
            os << "]\n}\n";
        }
    }
    if (!opt.out_dir.empty()) {
        for (const Result *r : ordered) {
            const std::string path = opt.out_dir + "/"
                + basenameOf(r->file) + ".report.json";
            std::ofstream os(path, std::ios::trunc);
            if (!os)
                fatal("cannot open ", path);
            os << r->payload;
        }
    }
    if (opt.out.empty() && opt.out_dir.empty() && !opt.summary) {
        for (const Result &r : results)
            std::fputs(r.payload.c_str(), stdout);
    }
    if (opt.summary) {
        std::printf("ok=%zu busy=%zu error=%zu transport=%zu",
                    n_ok, n_busy, n_protocol, n_transport);
        if (!opt.daemons.empty())
            std::printf(" rerouted=%llu",
                        static_cast<unsigned long long>(rerouted));
        std::printf("\n");
    }

    for (const Result &r : results) {
        if (r.outcome == Outcome::kProtocol) {
            std::fprintf(stderr, "hdrd_client: protocol: %s: %s\n",
                         r.file.c_str(),
                         r.payload.empty() ? "rejected"
                                           : r.payload.c_str());
        } else if (r.outcome == Outcome::kTransport) {
            std::fprintf(
                stderr,
                "hdrd_client: transport: %s: %s (errno %d)\n",
                r.file.c_str(),
                r.transport_errno != 0
                    ? std::strerror(r.transport_errno)
                    : (r.payload.empty() ? "connection lost"
                                         : r.payload.c_str()),
                r.transport_errno);
        }
    }
    if (n_protocol > 0)
        return 1;
    if (n_transport > 0)
        return 3;
    return n_busy > 0 ? 2 : 0;
}

void
printTransport(const std::string &what, const std::string &detail,
               int err)
{
    std::fprintf(stderr,
                 "hdrd_client: transport: %s: %s (errno %d)\n",
                 what.c_str(),
                 detail.empty() ? "connection lost" : detail.c_str(),
                 err);
}

/** --follow=NAME: attach to a live session and tail its partials. */
int
runFollow(const Options &opt)
{
    service::Client client;
    std::string err;
    if (!connectTo(opt, client, err)) {
        printTransport(opt.follow, err, client.lastErrno());
        return 3;
    }
    service::StreamHandlers handlers;
    handlers.on_partial = [](const std::string &json) {
        std::fputs(json.c_str(), stdout);
        std::fflush(stdout);
    };
    const service::Response response =
        client.follow(opt.follow, handlers);
    if (!response.transport_ok) {
        printTransport(opt.follow, response.payload,
                       response.transport_errno);
        return 3;
    }
    if (!response.isReport()
        && response.type != service::FrameType::kJobError) {
        // Attach refused (no such session) or the connection was.
        std::fprintf(stderr, "hdrd_client: protocol: %s: %s\n",
                     opt.follow.c_str(), response.payload.c_str());
        return 1;
    }
    std::fputs(response.payload.c_str(), stdout);
    return response.isReport() ? 0 : 1;
}

/** --stream: chunked upload from a file or stdin. */
int
runStream(const Options &opt)
{
    if (opt.traces.size() != 1)
        fatal("--stream takes exactly one trace (a file or '-')");
    const std::string &path = opt.traces[0];
    const bool from_stdin = path == "-";

    std::ifstream file;
    if (!from_stdin) {
        file.open(path, std::ios::binary);
        if (!file)
            fatal("cannot open ", path);
    }
    std::istream &in = from_stdin ? std::cin : file;

    service::Client client;
    std::string err;
    if (!connectTo(opt, client, err)) {
        printTransport(path, err, client.lastErrno());
        return 3;
    }

    const std::string name = !opt.session.empty()
        ? opt.session
        : (from_stdin ? std::string("stdin") : basenameOf(path));

    service::StreamHandlers handlers;
    if (opt.partials) {
        handlers.on_partial = [](const std::string &json) {
            std::fputs(json.c_str(), stdout);
            std::fflush(stdout);
        };
    }
    const service::StreamSource source =
        [&in](char *dst, std::size_t max) {
            in.read(dst, static_cast<std::streamsize>(max));
            return static_cast<std::size_t>(in.gcount());
        };

    std::vector<Result> results;
    results.push_back(fromResponse(
        from_stdin ? name : path,
        client.submitStream(opt.job, name, source, handlers)));
    return finish(opt, results, 0);
}

/** Fleet submission: router placement, per-daemon pipelining. */
int
runFleet(const Options &opt)
{
    service::Router router = makeRouter(opt);

    std::map<std::string, std::string> images;
    for (const std::string &path : opt.traces) {
        if (images.count(path) == 0)
            images[path] = slurp(path);
    }

    // The placement key is the trace basename: repeats of one trace
    // land on the same daemon (warm caches), and placement does not
    // depend on the directory the client ran from.
    std::vector<service::Router::BatchJob> jobs;
    std::vector<const std::string *> files;
    const std::size_t total = static_cast<std::size_t>(opt.parallel)
        * opt.repeat * opt.traces.size();
    jobs.reserve(total);
    files.reserve(total);
    for (std::uint32_t s = 0; s < opt.parallel; ++s) {
        for (std::uint32_t rep = 0; rep < opt.repeat; ++rep) {
            for (const std::string &path : opt.traces) {
                service::Router::BatchJob job;
                job.key = basenameOf(path);
                job.options = opt.job;
                job.trace = &images.at(path);
                jobs.push_back(std::move(job));
                files.push_back(&path);
            }
        }
    }

    const std::vector<service::SubmitResult> outcomes =
        router.submitBatch(jobs, opt.pipeline);

    std::vector<Result> results;
    results.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        results.push_back(
            fromSubmitResult(*files[i], outcomes[i]));
    return finish(opt, results, router.reroutedJobs());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    if (opt.merge || opt.merge_metrics)
        return runMerge(opt);

    if (!opt.follow.empty()) {
        if (!opt.daemons.empty())
            fatal("--follow needs --socket/--tcp, not --daemons");
        return runFollow(opt);
    }

    if (!opt.daemons.empty() && (opt.stats || opt.ping))
        return runFleetControl(opt);

    if (opt.stats || opt.ping) {
        service::Client client;
        std::string err;
        if (!connectTo(opt, client, err)) {
            std::fprintf(stderr,
                         "hdrd_client: transport: %s (errno %d)\n",
                         err.c_str(), client.lastErrno());
            return 3;
        }
        const service::Response response =
            opt.stats ? client.stats() : client.ping();
        if (!response.transport_ok) {
            std::fprintf(
                stderr,
                "hdrd_client: transport: request failed "
                "(connection lost, errno %d)\n",
                response.transport_errno);
            return 3;
        }
        // The lifecycle state goes to stderr: explicit for a human
        // watching a drain, invisible to scripts piping the JSON.
        if (opt.stats)
            std::fputs(
                service::serverStateLine(response.payload).c_str(),
                stderr);
        std::fputs(response.payload.c_str(), stdout);
        return 0;
    }
    if (opt.traces.empty()) {
        usage();
        fatal("no traces to submit");
    }

    if (opt.stream) {
        if (!opt.daemons.empty())
            fatal("--stream needs --socket/--tcp, not --daemons");
        return runStream(opt);
    }

    if (!opt.daemons.empty())
        return runFleet(opt);

    std::vector<Result> results(
        static_cast<std::size_t>(opt.traces.size()) * opt.parallel
        * opt.repeat);
    std::atomic<std::size_t> slot{0};

    // Every distinct trace is loaded once, up front, so file I/O
    // never sits on the submission hot path.
    std::map<std::string, std::string> images;
    for (const std::string &path : opt.traces) {
        if (images.count(path) == 0)
            images[path] = slurp(path);
    }

    // One kept-alive connection carrying the whole job list with up
    // to --pipeline frames in flight; BUSY replies are re-submitted
    // after the server's retry hint.
    auto submitAll = [&]() {
        service::Client client;
        std::string err;
        if (!connectTo(opt, client, err)) {
            Result &r = results[slot.fetch_add(1)];
            r.file = "(connect)";
            r.outcome = Outcome::kTransport;
            r.payload = err;
            r.transport_errno = client.lastErrno();
            return;
        }
        std::vector<service::PipelineSubmission> jobs;
        std::vector<const std::string *> files;
        jobs.reserve(static_cast<std::size_t>(opt.repeat)
                     * opt.traces.size());
        for (std::uint32_t rep = 0; rep < opt.repeat; ++rep) {
            for (const std::string &path : opt.traces) {
                service::PipelineSubmission job;
                job.options = opt.job;
                job.trace_bytes = &images.at(path);
                jobs.push_back(job);
                files.push_back(&path);
            }
        }
        std::vector<service::Response> responses =
            client.submitPipelined(jobs, opt.pipeline);

        for (std::uint32_t attempt = 0; attempt < opt.retries;
             ++attempt) {
            std::vector<std::size_t> busy;
            std::uint64_t wait = 1;
            for (std::size_t i = 0; i < responses.size(); ++i) {
                if (responses[i].isBusy()) {
                    busy.push_back(i);
                    wait = std::max(wait,
                                    responses[i].retry_after_ms);
                }
            }
            if (busy.empty())
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(wait));
            // A daemon at its connection limit refused and closed
            // this connection: come back on a fresh one.
            if (!client.connected() && !connectTo(opt, client, err))
                break;
            std::vector<service::PipelineSubmission> again;
            again.reserve(busy.size());
            for (std::size_t i : busy)
                again.push_back(jobs[i]);
            std::vector<service::Response> retried =
                client.submitPipelined(again, opt.pipeline);
            for (std::size_t k = 0; k < busy.size(); ++k)
                responses[busy[k]] = std::move(retried[k]);
        }

        for (std::size_t i = 0; i < responses.size(); ++i) {
            Result &r = results[slot.fetch_add(1)];
            r = fromResponse(*files[i], std::move(responses[i]));
        }
    };

    if (opt.parallel == 1) {
        submitAll();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(opt.parallel);
        for (std::uint32_t s = 0; s < opt.parallel; ++s)
            threads.emplace_back(submitAll);
        for (std::thread &t : threads)
            t.join();
    }
    results.resize(slot.load());

    return finish(opt, results, 0);
}
