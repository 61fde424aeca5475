/**
 * @file
 * Unit tests for the service subsystem: metrics registry, worker
 * pool backpressure, wire framing, job options validation, report
 * serialization, and an in-process server end-to-end round trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "runtime/simulator.hh"
#include "service/client.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "service/report_json.hh"
#include "service/server.hh"
#include "service/worker_pool.hh"
#include "trace/trace_io.hh"
#include "trace/trace_program.hh"

using namespace hdrd;
using namespace hdrd::service;

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(Metrics, CountersGaugesHistograms)
{
    Metrics metrics;
    metrics.counter("a.count").add();
    metrics.counter("a.count").add(4);
    EXPECT_EQ(metrics.counter("a.count").value(), 5u);

    metrics.gauge("b.depth").set(7);
    metrics.gauge("b.depth").sub(2);
    EXPECT_EQ(metrics.gauge("b.depth").value(), 5);

    metrics.histogram("c.us").record(100);
    metrics.histogram("c.us").record(300);
    EXPECT_EQ(metrics.histogram("c.us").snapshot().count(), 2u);
}

TEST(Metrics, HandlesAreStable)
{
    Metrics metrics;
    Counter &c = metrics.counter("x");
    metrics.counter("y").add();
    c.add(3);
    EXPECT_EQ(metrics.counter("x").value(), 3u);
    EXPECT_EQ(&metrics.counter("x"), &c);
}

TEST(Metrics, JsonIsSortedAndDeterministic)
{
    Metrics a, b;
    // Register in different orders; snapshots must still match.
    a.counter("z.last").add(2);
    a.counter("a.first").add(1);
    a.gauge("m.mid").set(-3);
    b.gauge("m.mid").set(-3);
    b.counter("a.first").add(1);
    b.counter("z.last").add(2);
    EXPECT_EQ(a.toJson(), b.toJson());

    const std::string json = a.toJson();
    EXPECT_NE(json.find("\"schema\": \"hdrd-metrics-v1\""),
              std::string::npos);
    EXPECT_LT(json.find("a.first"), json.find("z.last"));
    EXPECT_NE(json.find("\"m.mid\": -3"), std::string::npos);
}

TEST(Metrics, HistogramJsonReportsPercentiles)
{
    Metrics metrics;
    for (int i = 1; i <= 100; ++i)
        metrics.histogram("lat.us").record(
            static_cast<std::uint64_t>(i));
    const std::string json = metrics.toJson();
    EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Metrics, DumpToFileIsAtomicReplace)
{
    Metrics metrics;
    metrics.counter("n").add(9);
    const std::string path =
        std::string(::testing::TempDir()) + "hdrd_metrics_test.json";
    ASSERT_TRUE(metrics.dumpToFile(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"n\": 9"), std::string::npos);
    // No leftover temp file.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.is_open());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

TEST(WorkerPool, RunsEveryJobWithValidWorkerIndex)
{
    WorkerPoolConfig config;
    config.workers = 4;
    config.queue_capacity = 64;
    WorkerPool pool(config);
    std::atomic<int> ran{0};
    std::atomic<bool> index_ok{true};
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(pool.submit([&](std::uint32_t worker) {
            if (worker >= 4)
                index_ok = false;
            ran.fetch_add(1);
        }));
    }
    pool.drain();
    EXPECT_EQ(ran.load(), 32);
    EXPECT_TRUE(index_ok.load());
}

TEST(WorkerPool, TrySubmitRefusesWhenQueueFull)
{
    WorkerPoolConfig config;
    config.workers = 1;
    config.queue_capacity = 2;
    Metrics metrics;
    WorkerPool pool(config, &metrics);

    // Block the lone worker so queued jobs cannot advance.
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    bool blocked = false;
    ASSERT_TRUE(pool.submit([&](std::uint32_t) {
        std::unique_lock<std::mutex> lock(m);
        blocked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    }));
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return blocked; });
    }

    // Fill the queue, then overflow it.
    EXPECT_TRUE(pool.trySubmit([](std::uint32_t) {}));
    EXPECT_TRUE(pool.trySubmit([](std::uint32_t) {}));
    EXPECT_EQ(pool.queueDepth(), 2u);
    EXPECT_FALSE(pool.trySubmit([](std::uint32_t) {}));
    EXPECT_FALSE(pool.trySubmit([](std::uint32_t) {}));
    EXPECT_EQ(metrics.counter("pool.jobs_rejected").value(), 2u);

    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    pool.drain();
    EXPECT_EQ(pool.queueDepth(), 0u);
    EXPECT_EQ(metrics.counter("pool.jobs_completed").value(), 3u);
}

TEST(WorkerPool, ShutdownRunsOutQueuedJobs)
{
    std::atomic<int> ran{0};
    {
        WorkerPoolConfig config;
        config.workers = 2;
        config.queue_capacity = 16;
        WorkerPool pool(config);
        for (int i = 0; i < 10; ++i) {
            ASSERT_TRUE(pool.submit(
                [&](std::uint32_t) { ran.fetch_add(1); }));
        }
        pool.shutdown();
        // After shutdown new work is refused.
        EXPECT_FALSE(pool.trySubmit([](std::uint32_t) {}));
        EXPECT_FALSE(pool.submit([](std::uint32_t) {}));
    }
    EXPECT_EQ(ran.load(), 10);
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

TEST(Protocol, FrameRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payload = "{\"hello\": \"world\"}";
    ASSERT_TRUE(writeFrame(fds[0], FrameType::kStatsReply, payload));

    FrameHeader header;
    std::string err;
    ASSERT_TRUE(readFrameHeader(fds[1], header, err)) << err;
    EXPECT_EQ(static_cast<FrameType>(header.type),
              FrameType::kStatsReply);
    std::string got;
    ASSERT_TRUE(readPayload(fds[1], header.length, got));
    EXPECT_EQ(got, payload);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, BadMagicRejected)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const char junk[16] = "XXXXYYYYZZZZWWW";
    ASSERT_EQ(::write(fds[0], junk, sizeof(junk)),
              static_cast<ssize_t>(sizeof(junk)));
    FrameHeader header;
    std::string err;
    EXPECT_FALSE(readFrameHeader(fds[1], header, err));
    EXPECT_NE(err.find("magic"), std::string::npos);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, OversizeFrameRejected)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameHeader header;
    header.type = static_cast<std::uint32_t>(FrameType::kSubmitJob);
    header.length = kMaxFrameLength + 1;
    ASSERT_EQ(::write(fds[0], &header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    FrameHeader got;
    std::string err;
    EXPECT_FALSE(readFrameHeader(fds[1], got, err));
    EXPECT_NE(err.find("length"), std::string::npos) << err;
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, UnknownFrameTypeRejected)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameHeader header;
    header.type = 999;
    header.length = 0;
    ASSERT_EQ(::write(fds[0], &header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    FrameHeader got;
    std::string err;
    EXPECT_FALSE(readFrameHeader(fds[1], got, err));
    EXPECT_NE(err.find("type"), std::string::npos) << err;
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, JobOptionsValidation)
{
    std::string err;
    JobOptions ok;
    EXPECT_TRUE(validateJobOptions(ok, err)) << err;

    JobOptions bad = ok;
    bad.version = 2;
    EXPECT_FALSE(validateJobOptions(bad, err));

    bad = ok;
    bad.mode = 3;
    EXPECT_FALSE(validateJobOptions(bad, err));

    bad = ok;
    bad.detector = 9;
    EXPECT_FALSE(validateJobOptions(bad, err));

    bad = ok;
    bad.granule_shift = 40;
    EXPECT_FALSE(validateJobOptions(bad, err));

    bad = ok;
    bad.cores = 0;
    EXPECT_FALSE(validateJobOptions(bad, err));

    bad = ok;
    bad.sav = 0;
    EXPECT_FALSE(validateJobOptions(bad, err));

    bad = ok;
    // Not NUL-terminated.
    bad.fault_spec.fill('x');
    EXPECT_FALSE(validateJobOptions(bad, err));

    bad = ok;
    const char *bogus = "frobnicate=1";
    std::memcpy(bad.fault_spec.data(), bogus, std::strlen(bogus));
    EXPECT_FALSE(validateJobOptions(bad, err));

    JobOptions faulty = ok;
    const char *mild = "mild";
    std::memcpy(faulty.fault_spec.data(), mild, std::strlen(mild));
    EXPECT_TRUE(validateJobOptions(faulty, err)) << err;
}

TEST(Protocol, StreamOpenRoundTrips)
{
    JobOptions options;
    options.detector = 2;
    options.seed = 99;
    const std::string payload =
        streamOpenPayload(42, "session-a", options);

    std::uint64_t job_id = 0;
    std::string name, err;
    JobOptions got;
    ASSERT_TRUE(parseStreamOpen(payload, job_id, name, got, err))
        << err;
    EXPECT_EQ(job_id, 42u);
    EXPECT_EQ(name, "session-a");
    EXPECT_EQ(got.detector, 2u);
    EXPECT_EQ(got.seed, 99u);

    // Malformed: short, oversized name, truncated options.
    EXPECT_FALSE(parseStreamOpen("abc", job_id, name, got, err));
    const std::string huge(kMaxSessionName + 1, 'x');
    EXPECT_FALSE(parseStreamOpen(
        streamOpenPayload(1, huge, options), job_id, name, got,
        err));
    EXPECT_FALSE(parseStreamOpen(
        payload.substr(0, payload.size() - 4), job_id, name, got,
        err));
}

TEST(Protocol, AttachAndCreditRoundTrip)
{
    const std::string payload = attachPayload(7, "live");
    std::uint64_t follow_id = 0;
    std::string name, err;
    ASSERT_TRUE(parseAttach(payload, follow_id, name, err)) << err;
    EXPECT_EQ(follow_id, 7u);
    EXPECT_EQ(name, "live");
    EXPECT_FALSE(parseAttach("x", follow_id, name, err));

    std::uint64_t grant = 0;
    ASSERT_TRUE(parseCreditBody(creditBody(1u << 20), grant));
    EXPECT_EQ(grant, 1u << 20);
    EXPECT_FALSE(parseCreditBody("sevenbyte", grant));
}

TEST(Protocol, JobPayloadSplitRoundTrips)
{
    const std::string payload = jobPayload(11, "{\"a\": 1}");
    std::uint64_t job_id = 0;
    std::string body;
    ASSERT_TRUE(splitJobPayload(payload, job_id, body));
    EXPECT_EQ(job_id, 11u);
    EXPECT_EQ(body, "{\"a\": 1}");
    EXPECT_FALSE(splitJobPayload("1234567", job_id, body));
}

// ---------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------

TEST(Client, ServerStateLineRendersDraining)
{
    const std::string draining =
        "{\n  \"gauges\": {\n    \"server.draining\": 1\n  }\n}\n";
    EXPECT_EQ(serverStateLine(draining), "state: DRAINING\n");

    const std::string running =
        "{\n  \"gauges\": {\n    \"server.draining\": 0\n  }\n}\n";
    EXPECT_EQ(serverStateLine(running), "state: RUNNING\n");

    // Older daemons (no such gauge) print nothing extra.
    EXPECT_EQ(serverStateLine("{\"gauges\": {}}"), "");
}

// ---------------------------------------------------------------------
// Report JSON
// ---------------------------------------------------------------------

namespace
{

/** Tiny racy program for end-to-end runs. */
trace::TraceData
tinyTrace()
{
    using runtime::Op;
    std::vector<std::vector<Op>> per_thread(2);
    for (int i = 0; i < 50; ++i) {
        per_thread[0].push_back(Op::write(0x1000, 1));
        per_thread[1].push_back(Op::write(0x1000, 2));
        per_thread[0].push_back(Op::work(3));
        per_thread[1].push_back(Op::work(4));
    }
    return trace::TraceData::fromOps("tiny", std::move(per_thread));
}

} // namespace

TEST(ReportJson, DeterministicAndWellFormed)
{
    trace::TraceData data = tinyTrace();
    trace::TraceProgram program(data);
    runtime::SimConfig config;
    const runtime::RunResult result =
        runtime::Simulator::runWith(program, config);

    JobReport report;
    report.trace = "tiny";
    report.nthreads = 2;
    report.result = &result;
    const std::string a = jobReportJson(report);
    const std::string b = jobReportJson(report);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema\": \"hdrd-report-v1\""),
              std::string::npos);
    EXPECT_NE(a.find("\"trace\": \"tiny\""), std::string::npos);
    EXPECT_NE(a.find("\"detector\": \"fasttrack\""),
              std::string::npos);
    EXPECT_NE(a.find("\"races\""), std::string::npos);
    // No host block unless asked for.
    EXPECT_EQ(a.find("\"host\""), std::string::npos);

    report.include_host_timing = true;
    report.host_ms = 1.25;
    const std::string timed = jobReportJson(report);
    EXPECT_NE(timed.find("\"wall_ms\": 1.250"), std::string::npos);
}

TEST(ReportJson, DetectorNames)
{
    EXPECT_STREQ(detectorName(0), "fasttrack");
    EXPECT_STREQ(detectorName(1), "naive");
    EXPECT_STREQ(detectorName(2), "lockset");
    EXPECT_STREQ(detectorName(7), "unknown");
}

// ---------------------------------------------------------------------
// Server end-to-end (in-process)
// ---------------------------------------------------------------------

namespace
{

std::string
traceBytes(const trace::TraceData &data, const char *tag)
{
    const std::string path = std::string(::testing::TempDir())
        + "hdrd_svc_" + tag + ".trc";
    EXPECT_TRUE(data.save(path));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    std::remove(path.c_str());
    return os.str();
}

} // namespace

TEST(ServerEndToEnd, SubmitStatsPingAndRejects)
{
    ServerConfig config;
    config.unix_path = std::string(::testing::TempDir())
        + "hdrd_svc_e2e.sock";
    config.workers = 2;
    config.queue_capacity = 8;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const std::string image = traceBytes(tinyTrace(), "e2e");

    Client client;
    ASSERT_TRUE(client.connectUnix(
        std::string(::testing::TempDir()) + "hdrd_svc_e2e.sock",
        err))
        << err;

    // PING.
    const Response pong = client.ping();
    ASSERT_TRUE(pong.transport_ok);
    EXPECT_EQ(pong.type, FrameType::kPong);

    // SUBMIT_JOB twice: byte-identical deterministic reports.
    JobOptions options;
    options.flags = kJobOmitHostTiming;
    const Response first = client.submit(options, image);
    ASSERT_TRUE(first.isReport()) << first.payload;
    EXPECT_NE(first.payload.find("\"trace\": \"tiny\""),
              std::string::npos);
    const Response second = client.submit(options, image);
    ASSERT_TRUE(second.isReport());
    EXPECT_EQ(first.payload, second.payload);

    // A garbage trace is refused with a pointed error and the
    // connection survives for the next request.
    const Response bad =
        client.submit(options, "this is not a trace image");
    ASSERT_TRUE(bad.transport_ok);
    EXPECT_EQ(bad.type, FrameType::kJobError);
    EXPECT_NE(bad.payload.find("truncated header"),
              std::string::npos)
        << bad.payload;

    // Bad options are refused too.
    JobOptions bad_options;
    bad_options.mode = 77;
    const Response invalid = client.submit(bad_options, image);
    ASSERT_TRUE(invalid.transport_ok);
    EXPECT_EQ(invalid.type, FrameType::kJobError);

    // STATS reflects the completed jobs.
    const Response stats = client.stats();
    ASSERT_TRUE(stats.transport_ok);
    EXPECT_EQ(stats.type, FrameType::kStatsReply);
    EXPECT_NE(stats.payload.find("\"schema\": \"hdrd-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(stats.payload.find("\"server.jobs_completed\": 2"),
              std::string::npos)
        << stats.payload;

    server.stop();
    // Socket removed on stop.
    Client after;
    EXPECT_FALSE(after.connectUnix(
        std::string(::testing::TempDir()) + "hdrd_svc_e2e.sock",
        err));
}

TEST(ServerEndToEnd, ConcurrentClientsGetConsistentReports)
{
    ServerConfig config;
    config.unix_path = std::string(::testing::TempDir())
        + "hdrd_svc_conc.sock";
    config.workers = 4;
    config.queue_capacity = 16;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const std::string image = traceBytes(tinyTrace(), "conc");
    const std::string path = std::string(::testing::TempDir())
        + "hdrd_svc_conc.sock";

    std::vector<std::string> payloads(8);
    std::vector<std::thread> clients;
    for (int i = 0; i < 8; ++i) {
        clients.emplace_back([&, i] {
            Client client;
            std::string cerr;
            if (!client.connectUnix(path, cerr))
                return;
            JobOptions options;
            options.flags = kJobOmitHostTiming;
            const Response r = client.submit(options, image);
            if (r.isReport())
                payloads[static_cast<std::size_t>(i)] = r.payload;
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int i = 0; i < 8; ++i) {
        ASSERT_FALSE(payloads[static_cast<std::size_t>(i)].empty())
            << "client " << i << " got no report";
        EXPECT_EQ(payloads[static_cast<std::size_t>(i)],
                  payloads[0]);
    }

    server.stop();
}
