#include "service.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "capture.hh"
#include "metrics.hh"
#include "pmu/faults.hh"
#include "replay.hh"
#include "runtime/simulator.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/report_json.hh"
#include "trace/trace_io.hh"
#include "trace/trace_program.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace hdrd;

namespace
{

const char *const kWorkload = "service-buffered";

/** Registry traces for buffered jobs: small, so the engine is cheap. */
constexpr double kJobScale = 0.05;

/** The streamed trace: micro.ping_pong at ABL-13's 2x rung. */
constexpr double kStreamScale = 1.0;

/** Buffered SUBMIT_JOBs in flight on the connection. */
constexpr std::size_t kWindow = 4;

/**
 * Buffered jobs per costed interval: two passes over the 66 job
 * kinds, about a CPU second of daemon work, so the 10 ms resolution
 * of /proc CPU times stays near 1% of an interval.
 */
constexpr std::uint64_t kIntervalJobs = 132;

/** Daemon knobs: two workers, ABL-13's credit window and cadence. */
const char *const kDaemonArgs[] = {"--workers=2", "--io-shards=1",
                                   "--stream-buffer=1048576",
                                   "--partial-interval=16384"};

/** The daemon child, killed at exit on every path (die() included). */
pid_t g_daemon_pid = -1;

void
killDaemonAtExit()
{
    if (g_daemon_pid > 0) {
        ::kill(g_daemon_pid, SIGKILL);
        ::waitpid(g_daemon_pid, nullptr, 0);
        g_daemon_pid = -1;
    }
}

/** A running hdrd_served child process. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    void start(const std::string &socket_path)
    {
        static const bool registered = std::atexit(killDaemonAtExit) == 0;
        if (!registered)
            die("cannot register the daemon cleanup");
        socket_ = socket_path;
        std::vector<std::string> args = {PERFBENCH_SERVED_PATH,
                                         "--socket=" + socket_path};
        for (const char *a : kDaemonArgs)
            args.emplace_back(a);
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid < 0)
            die("fork failed");
        if (pid == 0) {
            // The daemon must never write to the result stream, and
            // must not outlive the benchmark.
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::execv(argv[0], argv.data());
            std::_Exit(127);
        }
        pid_ = g_daemon_pid = pid;

        for (int i = 0; i < 1000; ++i) {
            service::Client probe;
            std::string err;
            if (probe.connectUnix(socket_, err)) {
                if (probe.ping().transport_ok)
                    return;
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = g_daemon_pid = -1;
                die("hdrd_served exited during start-up");
            }
            ::usleep(10000);
        }
        die("hdrd_served did not come up on " + socket_);
    }

    /** SIGTERM (graceful drain), then wait for the exit. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        int status = 0;
        for (int i = 0; i < 500; ++i) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = g_daemon_pid = -1;
                return;
            }
            ::usleep(10000);
        }
        killDaemonAtExit();
        pid_ = -1;
    }

    double peakRssMb() const
    {
        return static_cast<double>(peakRssKbOf(std::to_string(pid_)))
            / 1024.0;
    }

    /** CPU seconds the daemon has run so far, every thread counted. */
    double cpuSeconds() const
    {
        return processCpuSeconds(std::to_string(pid_));
    }

    const std::string &socket() const { return socket_; }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

/** One kind of job: a trace under one set of options. */
struct Variant
{
    std::string name;
    service::JobOptions options;

    /** The raw TRC2 image. */
    const std::string *bytes = nullptr;

    /** SUBMIT_JOB payload: job id slot + options + trace image. */
    std::string payload;

    /** In-process report without the host block. */
    std::string golden;

    std::uint64_t ops = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Record @p name at @p scale, natively, as a TRC2 image. */
std::string
recordTrace(const std::string &name, double scale, std::uint64_t seed,
            const std::string &path)
{
    const workloads::WorkloadInfo *info = workloads::findWorkload(name);
    if (info == nullptr)
        die("workload " + name + " is not registered");
    workloads::WorkloadParams params;
    params.nthreads = 4;
    params.scale = scale;
    params.seed = seed + 41;
    auto program = info->factory(params);
    trace::TraceWriter writer(path, program->name(),
                              program->numThreads());
    if (!writer.ok())
        die("cannot write " + path);
    trace::RecordingProgram recording(*program, writer);
    runtime::SimConfig config;
    config.mode = instr::ToolMode::kNative;
    config.seed = seed;
    runtime::Simulator::runWith(recording, config);
    if (!writer.finalize())
        die("cannot write " + path);
    std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

/** The daemon's engine configuration for @p options (server.cc). */
runtime::SimConfig
jobConfig(const service::JobOptions &options)
{
    runtime::SimConfig config;
    config.mode = static_cast<instr::ToolMode>(options.mode);
    config.detector = static_cast<runtime::DetectorKind>(options.detector);
    config.gating.hitm_counter.sample_after = options.sav;
    config.granule_shift = options.granule_shift;
    config.mem.ncores = options.cores;
    config.seed = options.seed;
    return config;
}

/** Decode a job image the way the daemon does. */
trace::TraceData
loadTrace(const std::string &bytes)
{
    std::istringstream in(bytes);
    trace::IstreamSource source(in);
    trace::TraceReader reader(source, bytes.size());
    if (!reader.readHeader())
        die("trace rejected: " + reader.error());
    trace::TraceData data = trace::TraceData::fromReader(reader);
    if (!data.ok())
        die("trace rejected: " + data.error());
    return data;
}

/** The report the daemon must send for @p v, computed in-process. */
std::string
goldenReport(const Variant &v, std::uint64_t &ops)
{
    trace::TraceProgram program(loadTrace(*v.bytes));
    const runtime::SimConfig config = jobConfig(v.options);
    const runtime::RunResult result =
        runtime::Simulator::runWith(program, config);
    ops = result.total_ops;
    service::JobReport report;
    report.trace = program.data().name();
    report.nthreads = program.data().nthreads();
    report.options = v.options;
    report.fault_spec = pmu::faultSpec(config.faults);
    report.result = &result;
    return service::jobReportJson(report);
}

/** Split the nondeterministic "host" block off a report. */
bool
stripHost(const std::string &report, std::string &stable,
          double &wall_ms)
{
    const std::string key = ",\n  \"host\": {\"wall_ms\": ";
    const std::size_t at = report.rfind(key);
    if (at == std::string::npos)
        return false;
    wall_ms = std::strtod(report.c_str() + at + key.size(), nullptr);
    stable = report.substr(0, at) + "\n}\n";
    return true;
}

/** p50 of histogram @p name in an hdrd-metrics-v1 snapshot. */
double
histogramP50(const std::string &stats, const std::string &name)
{
    const std::size_t at = stats.find("\"" + name + "\": {");
    if (at == std::string::npos)
        return 0.0;
    const std::size_t p50 = stats.find("\"p50\": ", at);
    if (p50 == std::string::npos)
        return 0.0;
    return std::strtod(stats.c_str() + p50 + 7, nullptr);
}

/** Everything set up before timing starts. */
struct Fixture
{
    std::vector<std::string> images;  ///< one per registry workload
    std::string stream_image;
    std::vector<Variant> variants;    ///< buffered job kinds
    Variant streamed;                 ///< the traced run's streamed job
    Daemon daemon;
};

/** One streamed job's outcome, as the client saw it. */
struct StreamedJob
{
    service::Response response;
    std::uint64_t partials = 0;
    std::uint64_t credits = 0;
    double first_ms = 0.0;
    double total_ms = 0.0;
};

/** Stream @p v as one SUBMIT_STREAM job named @p name. */
StreamedJob
streamOne(service::Client &client, const Variant &v,
          const std::string &name)
{
    StreamedJob job;
    std::size_t pos = 0;
    const service::StreamSource source = [&](char *dst, std::size_t max) {
        const std::size_t n = std::min(max, v.bytes->size() - pos);
        std::memcpy(dst, v.bytes->data() + pos, n);
        pos += n;
        return n;
    };
    Clock::time_point first{};
    service::StreamHandlers handlers;
    handlers.on_partial = [&](const std::string &) {
        if (job.partials++ == 0)
            first = Clock::now();
    };
    handlers.on_credit = [&](std::uint64_t) { ++job.credits; };
    const auto t0 = Clock::now();
    job.response = client.submitStream(v.options, name, source, handlers);
    const auto t1 = Clock::now();
    job.total_ms = seconds(t0, t1) * 1e3;
    job.first_ms = seconds(t0, job.partials > 0 ? first : t1) * 1e3;
    return job;
}

void
setUp(const Options &opt, std::uint64_t seed, Fixture &f)
{
    const std::string scratch = opt.work_dir + "/record.trc";
    const auto &registry = workloads::allWorkloads();
    f.images.clear();
    for (const auto &info : registry)
        f.images.push_back(recordTrace(info.name, kJobScale, seed, scratch));
    f.stream_image =
        recordTrace("micro.ping_pong", kStreamScale, seed, scratch);

    // Mixed regimes: every trace under continuous and demand-hitm.
    f.variants.clear();
    for (const std::uint32_t mode : {1u, 2u}) {
        for (std::size_t i = 0; i < registry.size(); ++i) {
            Variant v;
            v.name = registry[i].name
                + (mode == 1 ? "/continuous" : "/demand-hitm");
            v.options.mode = mode;
            v.options.seed = seed;
            v.bytes = &f.images[i];
            v.payload.assign(sizeof(std::uint64_t), '\0');
            v.payload.append(reinterpret_cast<const char *>(&v.options),
                             sizeof(v.options));
            v.payload += *v.bytes;
            v.golden = goldenReport(v, v.ops);
            f.variants.push_back(std::move(v));
        }
    }
    f.streamed = Variant{};
    f.streamed.name = "micro.ping_pong/stream";
    f.streamed.options.flags = service::kJobOmitHostTiming;
    f.streamed.options.seed = seed;
    f.streamed.bytes = &f.stream_image;
    f.streamed.golden = goldenReport(f.streamed, f.streamed.ops);

    f.daemon.stop();
    f.daemon.start(opt.work_dir + "/d.sock");
    // Warm the daemon's engines with one pass over the job kinds.
    service::Client client;
    std::string err;
    if (!client.connectUnix(f.daemon.socket(), err))
        die(err);
    const StreamedJob job = streamOne(client, f.streamed, "warm");
    if (!job.response.isReport())
        die("warm-up job failed: " + job.response.payload);
    std::vector<service::PipelineSubmission> warm;
    for (const Variant &v : f.variants)
        warm.push_back({v.options, v.bytes});
    for (const service::Response &r : client.submitPipelined(warm, kWindow)) {
        if (!r.isReport())
            die("warm-up job failed: " + r.payload);
    }
}

/** SUBMIT_JOB pipelining with per-job timestamps. */
class PipelinedConnection
{
  public:
    PipelinedConnection() = default;
    ~PipelinedConnection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    PipelinedConnection(const PipelinedConnection &) = delete;
    PipelinedConnection &operator=(const PipelinedConnection &) = delete;

    bool connect(const std::string &path)
    {
        sockaddr_un addr{};
        if (path.size() >= sizeof(addr.sun_path))
            return false;
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size());
        return ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr))
            == 0;
    }

    /** Send @p payload (id slot patched to @p id) as SUBMIT_JOB. */
    bool send(std::string &payload, std::uint64_t id)
    {
        std::memcpy(payload.data(), &id, sizeof(id));
        return service::writeFrame(fd_, service::FrameType::kSubmitJob,
                                   payload);
    }

    /** Read one job-keyed response. */
    bool receive(std::uint64_t &id, service::FrameType &type,
                 std::string &body)
    {
        service::FrameHeader header;
        std::string err, payload;
        if (!service::readFrameHeader(fd_, header, err)
            || !service::readPayload(fd_, header.length, payload))
            return false;
        type = static_cast<service::FrameType>(header.type);
        return service::isJobKeyed(type)
            && service::splitJobPayload(payload, id, body);
    }

  private:
    int fd_ = -1;
};

/** Outcome of one measured phase. */
struct Phase
{
    double wall_s = 0.0;

    /** Daemon CPU seconds over the phase. */
    double cpu_s = 0.0;

    /** Buffered: daemon CPU of each kIntervalJobs completed jobs. */
    std::vector<double> interval_cpu_s;

    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t busy = 0;
    std::uint64_t ops = 0;

    /** Submit to report (buffered) or to final (streamed). */
    std::vector<double> latency_ms;

    /** Buffered: latency minus the report's engine wall time. */
    std::vector<double> non_engine_ms;

    /** Streamed: submit to first partial, credits and partials. */
    std::vector<double> first_ms;
    std::uint64_t credits = 0;
    std::uint64_t partials = 0;

    std::string stats;
};

/** Window-4 pipelined SUBMIT_JOBs in a closed loop until @p deadline. */
void
bufferedLoop(Fixture &f, Clock::time_point deadline, bool traced,
             SpanLog &spans, Phase &out)
{
    PipelinedConnection conn;
    if (!conn.connect(f.daemon.socket())) {
        out.failed = out.sent = 1;
        return;
    }
    struct InFlight
    {
        std::size_t variant = 0;
        Clock::time_point sent;
        double send_us = 0.0;
        double sent_us = 0.0;
    };
    std::map<std::uint64_t, InFlight> inflight;
    std::uint64_t next_id = 0;
    double interval_start = f.daemon.cpuSeconds();
    const auto send_one = [&] {
        const std::uint64_t id = next_id++;
        InFlight job;
        job.variant = id % f.variants.size();
        job.send_us = spans.nowUs();
        job.sent = Clock::now();
        ++out.sent;
        if (!conn.send(f.variants[job.variant].payload, id)) {
            ++out.failed;
            return false;
        }
        job.sent_us = spans.nowUs();
        inflight[id] = job;
        return true;
    };
    bool alive = true;
    while (alive && inflight.size() < kWindow && Clock::now() < deadline)
        alive = send_one();
    while (alive && !inflight.empty()) {
        std::uint64_t id = 0;
        service::FrameType type{};
        std::string body;
        if (!conn.receive(id, type, body) || !inflight.count(id)) {
            out.failed += inflight.size();  // transport failure
            break;
        }
        const InFlight job = inflight[id];
        inflight.erase(id);
        const Variant &v = f.variants[job.variant];
        const double ms = seconds(job.sent, Clock::now()) * 1e3;
        std::string stable;
        double wall_ms = 0.0;
        if (type == service::FrameType::kJobBusy) {
            ++out.busy;
            ++out.failed;
        } else if (type != service::FrameType::kJobReport
                   || !stripHost(body, stable, wall_ms)
                   || stable != v.golden) {
            ++out.failed;
            std::fprintf(stderr, "perfbench: job %s: wrong reply\n",
                         v.name.c_str());
        } else {
            ++out.completed;
            out.ops += v.ops;
            out.latency_ms.push_back(ms);
            out.non_engine_ms.push_back(ms - wall_ms);
            if (out.completed % kIntervalJobs == 0) {
                const double now = f.daemon.cpuSeconds();
                out.interval_cpu_s.push_back(now - interval_start);
                interval_start = now;
            }
        }
        if (traced) {
            const std::string owner = v.name + "#" + std::to_string(id);
            spans.add({"service", "upload", owner, job.send_us,
                       job.sent_us, 1});
            spans.add({"service", "reply", owner, job.sent_us,
                       spans.nowUs(), 1});
        }
        if (Clock::now() < deadline)
            alive = send_one();
    }
}

/** SUBMIT_STREAM jobs back to back until @p deadline. */
void
streamLoop(Fixture &f, Clock::time_point deadline, bool traced,
           SpanLog &spans, Phase &out)
{
    service::Client client;
    std::string err;
    if (!client.connectUnix(f.daemon.socket(), err)) {
        out.failed = out.sent = 1;
        return;
    }
    const Variant &v = f.streamed;
    while (Clock::now() < deadline) {
        const std::string owner = "stream#" + std::to_string(out.sent);
        const double start_us = spans.nowUs();
        const StreamedJob job = streamOne(client, v, owner);
        ++out.sent;
        if (!job.response.isReport() || job.response.payload != v.golden) {
            ++out.failed;
            std::fprintf(stderr, "perfbench: %s: streamed final differs "
                                 "from the buffered golden\n",
                         owner.c_str());
            if (!job.response.transport_ok)
                break;
            continue;
        }
        ++out.completed;
        out.ops += v.ops;
        out.credits += job.credits;
        out.partials += job.partials;
        out.latency_ms.push_back(job.total_ms);
        out.first_ms.push_back(job.first_ms);
        if (traced)
            spans.add({"stream", "submitStream", owner, start_us,
                       spans.nowUs(), job.partials});
    }
}

/** One closed loop for @p secs, with the daemon's CPU. */
Phase
measure(Fixture &f, double secs, bool streamed, bool traced,
        SpanLog &spans)
{
    Phase phase;
    const auto t0 = Clock::now();
    const double cpu0 = f.daemon.cpuSeconds();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(secs));
    if (streamed)
        streamLoop(f, deadline, traced, spans, phase);
    else
        bufferedLoop(f, deadline, traced, spans, phase);
    phase.cpu_s = f.daemon.cpuSeconds() - cpu0;
    phase.wall_s = seconds(t0, Clock::now());
    if (traced) {
        service::Client client;
        std::string err;
        if (client.connectUnix(f.daemon.socket(), err)) {
            const double s0 = spans.nowUs();
            const service::Response stats = client.stats();
            spans.add({"service", "STATS", "phase", s0, spans.nowUs(), 1});
            if (stats.transport_ok)
                phase.stats = stats.payload;
        }
    }
    return phase;
}

} // namespace

bool
isServiceWorkload(const std::string &name)
{
    return name == kWorkload;
}

Result
runServiceWorkload(const Options &opt)
{
    const std::uint64_t seed = inputSeed(opt);
    Fixture f;
    // Set-up CPU: this process (recording, goldens) plus the daemon
    // the set-up starts and warms.
    std::vector<double> setup_times;
    for (int rep = 0; rep < 3; ++rep) {
        const double c0 = processCpuSeconds("self");
        setUp(opt, seed, f);
        setup_times.push_back(processCpuSeconds("self") - c0
                              + f.daemon.cpuSeconds());
    }

    SpanLog spans;
    Result result;
    const auto account = [&](const Phase &p) {
        result.attempted += p.sent;
        result.failed += p.failed;
    };
    if (!opt.trace) {
        const Phase p = measure(f, opt.seconds, false, false, spans);
        account(p);
        if (p.interval_cpu_s.empty())
            die("no complete costed interval; run longer");
        // Every interval runs the same jobs; its median daemon CPU
        // shrugs off the intervals a noisy neighbour slowed.
        const double interval_cpu_s = median(p.interval_cpu_s);
        std::uint64_t interval_ops = 0;
        for (std::uint64_t j = 0; j < kIntervalJobs; ++j)
            interval_ops += f.variants[j % f.variants.size()].ops;
        EndToEnd e2e;
        e2e.setup_s = median(setup_times);
        e2e.peak_rss_mb = f.daemon.peakRssMb();
        e2e.sim_ops_per_cpu_s =
            static_cast<double>(interval_ops) / interval_cpu_s;
        e2e.cpu_ms_per_job =
            interval_cpu_s * 1e3 / static_cast<double>(kIntervalJobs);
        result.metrics = e2e.metrics();
        std::fprintf(stderr,
                     "perfbench: %s seed %llu: %llu jobs in %.3g s, "
                     "%zu intervals (%.4g daemon CPU s in all); wall "
                     "latency p50 %.4g ms, p99 %.4g ms (%zu beyond)\n",
                     opt.workload.c_str(),
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(p.completed), p.wall_s,
                     p.interval_cpu_s.size(), p.cpu_s,
                     percentile(p.latency_ms, 50.0),
                     percentile(p.latency_ms, 99.0),
                     p.latency_ms.size() / 100);
    } else {
        // Traced buffered half between two untraced quarters, so drift
        // cancels in the overhead and latencies come from untraced
        // jobs; then a traced quarter of streamed jobs for the stream
        // layer.
        const Phase plain1 =
            measure(f, opt.seconds / 4.0, false, false, spans);
        const Phase traced =
            measure(f, opt.seconds / 2.0, false, true, spans);
        const Phase plain2 =
            measure(f, opt.seconds / 4.0, false, false, spans);
        const Phase streamed =
            measure(f, opt.seconds / 4.0, true, true, spans);
        for (const Phase *p : {&plain1, &traced, &plain2, &streamed})
            account(*p);
        std::vector<double> latency = plain1.latency_ms;
        latency.insert(latency.end(), plain2.latency_ms.begin(),
                       plain2.latency_ms.end());
        ServiceTrace st;
        st.job_p50_ms = percentile(latency, 50.0);
        st.job_p99_ms = percentile(latency, 99.0);
        st.non_engine_ms_p50 = median(traced.non_engine_ms);
        st.queue_wait_us_p50 =
            histogramP50(traced.stats, "job.queue_wait_us");
        st.trace_read_us_p50 =
            histogramP50(traced.stats, "job.trace_read_us");
        st.busy_replies = plain1.busy + traced.busy + plain2.busy;
        const double streams = static_cast<double>(streamed.completed);
        st.first_report_ms = median(streamed.first_ms);
        st.stream_job_ms = median(streamed.latency_ms);
        st.credit_grants_per_job =
            static_cast<double>(streamed.credits) / streams;
        st.partials_per_job =
            static_cast<double>(streamed.partials) / streams;

        // The engine layers on the jobs' own traces, in-process: each
        // buffered trace once (in its first regime), plus the streamed
        // one.
        EngineTrace et;
        const std::string scratch = opt.work_dir + "/window.trc";
        std::vector<const Variant *> jobs;
        const std::size_t n = f.images.size();
        for (std::size_t i = 0; i < n; ++i)
            jobs.push_back(&f.variants[i % 2 == 0 ? i : n + i]);
        jobs.push_back(&f.streamed);
        for (const Variant *v : jobs) {
            const runtime::SimConfig config = jobConfig(v->options);
            runtime::Simulator engine(config);
            {
                trace::TraceProgram program(loadTrace(*v->bytes));
                const double c0 = threadCpuSeconds();
                const runtime::RunResult r = engine.run(program);
                et.run_ns += (threadCpuSeconds() - c0) * 1e9;
                et.run_ops += r.total_ops;
            }
            trace::TraceProgram program(loadTrace(*v->bytes));
            CellCapture capture;
            capture.owner = v->name;
            const runtime::RunResult full = runCaptured(
                engine, program, std::uint64_t{1} << 20, capture);
            et.addRun(full, config, v->name, program.numThreads());
            std::string err;
            if (!replayWindow(capture, scratch, spans, et.costs, err))
                die("replay-fidelity gate failed: " + err);
        }
        // Tracing is client-side, so its overhead is in the client's
        // job rate, not in the daemon's CPU.
        const double plain_rate =
            static_cast<double>(plain1.completed + plain2.completed)
            / (plain1.wall_s + plain2.wall_s);
        const double traced_rate =
            static_cast<double>(traced.completed) / traced.wall_s;
        result.metrics = perLayerMetrics(
            et, st, (1.0 - traced_rate / plain_rate) * 100.0);
    }
    f.daemon.stop();
    writeSpans(opt, spans);
    return result;
}

} // namespace perfbench
