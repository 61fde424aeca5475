/**
 * @file
 * hdrd_client — submits recorded traces to hdrd_served daemons.
 *
 *   hdrd_client --socket=hdrd.sock trace1.trc trace2.trc
 *   hdrd_client --socket=hdrd.sock --stats
 *   hdrd_client --socket=hdrd.sock --omit-timing --out=all.json *.trc
 *   hdrd_client --socket=hdrd.sock --parallel=8 --summary big.trc
 *   hdrd_client --socket=hdrd.sock --pipeline=16 --repeat=50 t.trc
 *   hdrd_client --daemons=a.sock,b.sock,9401 --out=cluster.json *.trc
 *   hdrd_client --merge --out=cluster.json part_a.json part_b.json
 *
 * --socket, --tcp and --daemons all add to one endpoint list: a
 * single daemon is a fleet of one. Every job goes through
 * service::Router (service/router.hh): placed by consistent hash,
 * pipelined up to --pipeline (default 1) SUBMIT_JOB frames per
 * daemon connection, and retried on BUSY or transport failure up to
 * --max-attempts within --deadline-ms. Each of the --parallel
 * submitters carries the whole list over its own connections.
 *
 * --out writes the hdrd-report-cluster-v1 aggregate
 * (service/cluster.hh): byte-identical for any fleet size, kill
 * schedule, placement, submission order, worker count, and pipeline
 * depth (pair with --omit-timing).
 *
 * Exit codes: 0 all ok; 1 any protocol error (daemon rejected a
 * job); 2 any BUSY left after retries; 3 any transport failure (no
 * daemon reachable / connection lost). Protocol beats transport
 * beats busy when several occur.
 */

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
    /** Every --socket, --tcp and --daemons entry, in flag order. */
    std::vector<service::Endpoint> endpoints;
    std::vector<std::string> traces;
    std::string out;      ///< aggregate JSON file
    std::string out_dir;  ///< per-trace report files
    bool stats = false;
    bool ping = false;
    bool omit_timing = false;
    bool summary = false;
    bool merge = false;          ///< offline cluster-file merge
    bool merge_metrics = false;  ///< offline metrics merge
    bool stream = false;         ///< chunked SUBMIT_STREAM upload
    bool partials = false;       ///< print streamed partial reports
    std::string session;         ///< --stream session name
    std::string follow;          ///< attach to this live session
    std::uint32_t parallel = 1;
    std::uint32_t repeat = 1;
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
        "hdrd_client — submit traces to hdrd_served daemons\n"
        "\n"
        "--socket, --tcp and --daemons all add to one daemon list;\n"
        "one daemon is a fleet of one:\n"
        "  --socket=PATH     daemon unix socket\n"
        "  --tcp=PORT        daemon at 127.0.0.1:PORT\n"
        "  --daemons=LIST    comma list of daemons\n"
        "                    (unix:PATH | PATH | HOST:PORT | PORT);\n"
        "                    jobs are consistent-hash placed and\n"
        "                    rerouted around dead or BUSY daemons\n"
        "\n"
        "Retries (BUSY answers and transport failures):\n"
        "  --max-attempts=N  attempts per job (default 8, 1 = no "
        "retry)\n"
        "  --deadline-ms=N   per-job retry deadline (default 30000,\n"
        "                    0 = none)\n"
        "  --retry-seed=N    seed for backoff jitter (default 1:\n"
        "                    reproducible schedules)\n"
        "  --evict-after=N   drop a daemon from the placement ring\n"
        "                    after N consecutive failures (its keys\n"
        "                    rebalance; 0 = keep re-probing forever)\n"
        "\n"
        "  --stats           request the metrics snapshot and print\n"
        "                    it (several daemons: merged snapshot)\n"
        "  --ping            liveness probe (several daemons: probe\n"
        "                    every one)\n"
        "  --merge           merge hdrd-report-cluster-v1 files (the\n"
        "                    positional args) into one\n"
        "  --merge-metrics   merge metrics JSON files instead\n"
        "  --out=FILE        hdrd-report-cluster-v1 aggregate JSON\n"
        "  --out-dir=DIR     also write DIR/<basename>.report.json "
        "per trace\n"
        "  --omit-timing     ask the server to omit host timing "
        "(determinism)\n"
        "  --parallel=N      N concurrent submitters, each with its "
        "own\n"
        "                    connections, each carrying the whole "
        "list\n"
        "  --pipeline=N      keep up to N SUBMIT_JOB frames in flight "
        "per\n"
        "                    connection (default 1)\n"
        "  --stream          upload the (single) trace as SUBMIT_DATA\n"
        "                    chunks under server credit; '-' streams\n"
        "                    the trace from stdin (one daemon only)\n"
        "  --session=NAME    streaming session name others can "
        "--follow\n"
        "                    (default: the trace basename)\n"
        "  --follow=NAME     attach to a live streaming session and\n"
        "                    tail its partial reports to stdout (one\n"
        "                    daemon only)\n"
        "  --partials        with --stream: also print each partial\n"
        "                    report as it arrives\n"
        "  --repeat=M        submit the trace list M times per "
        "submitter\n"
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

void
addEndpoint(Options &opt, const char *flag, const std::string &spec)
{
    service::Endpoint ep;
    std::string err;
    if (!service::Endpoint::parse(spec, ep, err))
        fatal(flag, ": ", err);
    opt.endpoints.push_back(std::move(ep));
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
            addEndpoint(opt, "--socket", "unix:" + value);
        } else if (eat(arg, "--tcp=", value)) {
            addEndpoint(opt, "--tcp",
                        std::to_string(
                            cli::parseU32("tcp", value, 1, 65535)));
        } else if (eat(arg, "--daemons=", value)) {
            const std::size_t before = opt.endpoints.size();
            std::istringstream list(value);
            for (std::string spec; std::getline(list, spec, ',');) {
                if (!spec.empty())
                    addEndpoint(opt, "--daemons", spec);
            }
            if (opt.endpoints.size() == before)
                fatal("--daemons: no daemons in list");
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
    if (!opt.merge && !opt.merge_metrics && opt.endpoints.empty()) {
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

/** One job's trace file and final disposition. */
struct Result
{
    std::string file;
    service::SubmitResult outcome;
};

/** A streamed or followed job's answer as a routed job's result. */
service::SubmitResult
fromResponse(service::Response response)
{
    service::SubmitResult r;
    r.endpoint = 0;
    r.transport_errno = response.transport_errno;
    r.status = response.isReport() ? service::SubmitStatus::kOk
        : response.isBusy()        ? service::SubmitStatus::kBusy
        : response.transport_ok    ? service::SubmitStatus::kRejected
                                   : service::SubmitStatus::kTransport;
    r.payload = std::move(response.payload);
    return r;
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

/**
 * One transport failure: the daemon, what went wrong (the errno's
 * text, else @p detail), the errno, and the job's trace if any.
 */
void
printTransport(const std::string &daemon, const std::string &detail,
               int err, const std::string &file)
{
    std::fprintf(stderr,
                 "hdrd_client: transport: %s: %s (errno %d)%s%s\n",
                 daemon.c_str(),
                 err != 0 ? std::strerror(err)
                          : (detail.empty() ? "connection lost"
                                            : detail.c_str()),
                 err, file.empty() ? "" : " for ", file.c_str());
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

service::Router
makeRouter(const Options &opt)
{
    service::RouterConfig config;
    config.retry_seed = opt.retry_seed;
    config.max_attempts = opt.max_attempts;
    config.job_deadline_ms = opt.deadline_ms;
    config.evict_after = opt.evict_after;
    return service::Router(opt.endpoints, config);
}

/**
 * --stats / --ping: one daemon prints its own snapshot or PONG;
 * several are fanned out, then merged or enumerated.
 */
int
runControl(const Options &opt, service::Router &router)
{
    const bool single = router.size() == 1;
    std::vector<std::string> answers;
    for (std::size_t i = 0; i < router.size(); ++i) {
        const std::string name = router.endpoint(i).name();
        const service::Response response = router.request(
            i, opt.stats ? service::FrameType::kStats
                         : service::FrameType::kPing);
        if (opt.ping && !single)
            std::printf("%s %s\n", name.c_str(),
                        response.transport_ok ? "ok" : "dead");
        else if (!response.transport_ok)
            printTransport(name, response.payload,
                           response.transport_errno, "");
        if (response.transport_ok)
            answers.push_back(response.payload);
    }
    if (answers.empty())
        return 3;
    if (single) {
        // The lifecycle state goes to stderr: explicit for a human
        // watching a drain, invisible to scripts piping the JSON.
        if (opt.stats)
            std::fputs(service::serverStateLine(answers[0]).c_str(),
                       stderr);
        std::fputs(answers[0].c_str(), stdout);
    } else if (opt.stats) {
        writeOut("", service::mergeMetrics(answers));
    }
    return answers.size() == router.size() ? 0 : 3;
}

/** Classified per-failure diagnostics + the exit code. */
int
finish(const Options &opt, const std::vector<Result> &results,
       std::uint64_t rerouted)
{
    using service::SubmitStatus;
    // Anything else (transport, deadline) means no daemon answered.
    auto answered = [](SubmitStatus status) {
        return status == SubmitStatus::kOk
            || status == SubmitStatus::kBusy
            || status == SubmitStatus::kRejected;
    };
    std::size_t n_ok = 0, n_busy = 0, n_protocol = 0,
                n_transport = 0;
    std::vector<std::string> reports;
    for (const Result &r : results) {
        switch (r.outcome.status) {
          case SubmitStatus::kOk:
            ++n_ok;
            reports.push_back(r.outcome.payload);
            break;
          case SubmitStatus::kBusy: ++n_busy; break;
          case SubmitStatus::kRejected: ++n_protocol; break;
          default: ++n_transport; break;
        }
    }

    if (!opt.out.empty())
        writeOut(opt.out, service::writeClusterReport(reports));
    if (!opt.out_dir.empty()) {
        for (const Result &r : results) {
            if (r.outcome.status == SubmitStatus::kOk)
                writeOut(opt.out_dir + "/" + basenameOf(r.file)
                             + ".report.json",
                         r.outcome.payload);
        }
    }
    if (opt.out.empty() && opt.out_dir.empty() && !opt.summary) {
        for (const Result &r : results) {
            if (answered(r.outcome.status))
                std::fputs(r.outcome.payload.c_str(), stdout);
        }
    }
    if (opt.summary)
        std::printf("ok=%zu busy=%zu error=%zu transport=%zu "
                    "rerouted=%llu\n",
                    n_ok, n_busy, n_protocol, n_transport,
                    static_cast<unsigned long long>(rerouted));

    for (const Result &r : results) {
        const service::SubmitResult &o = r.outcome;
        if (o.status == SubmitStatus::kRejected) {
            std::fprintf(stderr, "hdrd_client: protocol: %s: %s\n",
                         r.file.c_str(),
                         o.payload.empty() ? "rejected"
                                           : o.payload.c_str());
        } else if (!answered(o.status)) {
            printTransport(
                o.endpoint >= 0
                    ? opt.endpoints[static_cast<std::size_t>(
                                        o.endpoint)]
                          .name()
                    : std::string("no daemon"),
                o.status == SubmitStatus::kDeadline
                    ? "job deadline expired"
                    : o.payload,
                o.transport_errno, r.file);
        }
    }
    if (n_protocol > 0)
        return 1;
    if (n_transport > 0)
        return 3;
    return n_busy > 0 ? 2 : 0;
}

/**
 * Connect @p client to the one daemon --stream and --follow talk to,
 * with the router's liveness timeout; a failed connect is reported
 * against @p file.
 */
bool
connectSole(const Options &opt, const char *flag,
            service::Client &client, const std::string &file)
{
    if (opt.endpoints.size() != 1)
        fatal(flag, " needs exactly one daemon, got ",
              opt.endpoints.size());
    client.setTimeouts(service::RouterConfig{}.io_timeout_ms);
    std::string err;
    if (opt.endpoints[0].connect(client, err))
        return true;
    printTransport(opt.endpoints[0].name(), err, client.lastErrno(),
                   file);
    return false;
}

/** --follow=NAME: attach to a live session and tail its partials. */
int
runFollow(const Options &opt)
{
    service::Client client;
    if (!connectSole(opt, "--follow", client, ""))
        return 3;
    service::StreamHandlers handlers;
    handlers.on_partial = [](const std::string &json) {
        std::fputs(json.c_str(), stdout);
        std::fflush(stdout);
    };
    const service::Response response =
        client.follow(opt.follow, handlers);
    if (!response.transport_ok) {
        printTransport(opt.endpoints[0].name(), response.payload,
                       response.transport_errno, "");
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
    if (!connectSole(opt, "--stream", client, path))
        return 3;

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
    results.push_back(
        {from_stdin ? name : path,
         fromResponse(
             client.submitStream(opt.job, name, source, handlers))});
    return finish(opt, results, 0);
}

/**
 * Every buffered job goes through the router: --parallel submitters,
 * each carrying the whole list (times --repeat) over its own
 * connections, results in submitter then list order.
 */
int
runSubmit(const Options &opt, service::Router &router)
{
    // Every distinct trace is loaded once, up front, so file I/O
    // never sits on the submission hot path.
    std::map<std::string, std::string> images;
    for (const std::string &path : opt.traces) {
        if (images.count(path) == 0)
            images[path] = slurp(path);
    }

    // The placement key is the trace basename: repeats of one trace
    // land on the same daemon (warm caches), and placement does not
    // depend on the directory the client ran from.
    std::vector<service::Router::BatchJob> jobs;
    jobs.reserve(static_cast<std::size_t>(opt.repeat)
                 * opt.traces.size());
    for (std::uint32_t rep = 0; rep < opt.repeat; ++rep) {
        for (const std::string &path : opt.traces)
            jobs.push_back(
                {basenameOf(path), opt.job, &images.at(path)});
    }

    std::vector<std::vector<service::SubmitResult>> outcomes(
        opt.parallel);
    auto submitter = [&](std::uint32_t s) {
        outcomes[s] = router.submitBatch(jobs, opt.pipeline);
    };
    if (opt.parallel == 1) {
        submitter(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(opt.parallel);
        for (std::uint32_t s = 0; s < opt.parallel; ++s)
            threads.emplace_back(submitter, s);
        for (std::thread &t : threads)
            t.join();
    }

    std::vector<Result> results;
    results.reserve(opt.parallel * jobs.size());
    for (std::vector<service::SubmitResult> &batch : outcomes) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            results.push_back({opt.traces[i % opt.traces.size()],
                               std::move(batch[i])});
    }
    return finish(opt, results, router.reroutedJobs());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    if (opt.merge || opt.merge_metrics)
        return runMerge(opt);
    if (!opt.follow.empty())
        return runFollow(opt);

    service::Router router = makeRouter(opt);
    if (opt.stats || opt.ping)
        return runControl(opt, router);
    if (opt.traces.empty()) {
        usage();
        fatal("no traces to submit");
    }
    if (opt.stream)
        return runStream(opt);
    return runSubmit(opt, router);
}
