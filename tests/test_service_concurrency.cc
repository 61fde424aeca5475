/**
 * @file
 * Concurrency tests for the epoll service plane: slow-loris partial
 * writes must not stall other clients, pipelined jobs interleave
 * correctly on one socket, mid-job disconnects leave the daemon
 * healthy, BUSY storms recover, nothing leaks file descriptors, a
 * PING behind a full pipeline is answered, and a draining daemon
 * refuses new connections at once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "trace/trace_io.hh"

using namespace hdrd;
using namespace hdrd::service;

namespace
{

// Abrupt-disconnect tests make the server (and these clients) write
// into dead sockets; the library answers with EPIPE, never SIGPIPE,
// but ignore it here too so a regression fails the assertion instead
// of killing the whole test binary.
struct IgnoreSigpipe
{
    IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
};
const IgnoreSigpipe kIgnoreSigpipe;

/** A tiny racy trace whose report is distinguishable by name. */
std::string
traceImage(const std::string &name, int salt)
{
    using runtime::Op;
    std::vector<std::vector<Op>> per_thread(2);
    for (int i = 0; i < 50; ++i) {
        per_thread[0].push_back(
            Op::write(0x1000 + 8 * static_cast<std::uint64_t>(salt),
                      1));
        per_thread[1].push_back(
            Op::write(0x1000 + 8 * static_cast<std::uint64_t>(salt),
                      2));
        per_thread[0].push_back(Op::work(3 + salt));
        per_thread[1].push_back(Op::work(4));
    }
    const trace::TraceData data =
        trace::TraceData::fromOps(name, std::move(per_thread));
    const std::string path = std::string(::testing::TempDir())
        + "hdrd_conc_" + name + ".trc";
    EXPECT_TRUE(data.save(path));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    std::remove(path.c_str());
    return os.str();
}

std::string
sockPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "hdrd_conc_" + tag
        + ".sock";
}

int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    // Reads in these tests must fail loudly, never hang the binary.
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

/** Serialize one SUBMIT_JOB frame into a byte string. */
std::string
submitFrameBytes(const JobOptions &options, const std::string &image,
                 std::uint64_t job_id = 1)
{
    FrameHeader header;
    header.type = static_cast<std::uint32_t>(FrameType::kSubmitJob);
    header.length = sizeof(job_id) + sizeof(options) + image.size();
    std::string bytes(reinterpret_cast<const char *>(&header),
                      sizeof(header));
    bytes.append(reinterpret_cast<const char *>(&job_id),
                 sizeof(job_id));
    bytes.append(reinterpret_cast<const char *>(&options),
                 sizeof(options));
    bytes.append(image);
    return bytes;
}

int
countOpenFds()
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return -1;
    int n = 0;
    while (::readdir(dir) != nullptr)
        ++n;
    ::closedir(dir);
    return n;
}

JobOptions
quietOptions()
{
    JobOptions options;
    options.flags = kJobOmitHostTiming;
    return options;
}

} // namespace

TEST(ServiceConcurrency, SlowLorisDoesNotStallOtherClients)
{
    ServerConfig config;
    config.unix_path = sockPath("loris");
    config.workers = 2;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    const std::string path = sockPath("loris");

    const std::string image = traceImage("loris", 0);
    const std::string frame = submitFrameBytes(quietOptions(), image);

    // The loris trickles a valid SUBMIT_JOB frame out in small chunks
    // over a couple of seconds, then expects its report like any
    // other client.
    std::atomic<bool> loris_done{false};
    std::atomic<bool> loris_ok{false};
    std::thread loris([&]() {
        const int fd = rawConnect(path);
        if (fd < 0)
            return;
        const std::size_t chunk = 64;
        bool sent = true;
        for (std::size_t off = 0; off < frame.size() && sent;
             off += chunk) {
            const std::size_t n =
                std::min(chunk, frame.size() - off);
            sent = writeAllFd(fd, frame.data() + off, n);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(15));
        }
        loris_done.store(true);
        FrameHeader header;
        std::string herr, payload;
        if (sent && readFrameHeader(fd, header, herr)
            && readPayload(fd, header.length, payload))
            loris_ok.store(header.type
                           == static_cast<std::uint32_t>(
                               FrameType::kJobReport));
        ::close(fd);
    });

    // While the loris is still mid-frame, a normal client gets full
    // service on a parallel connection.
    Client fast;
    ASSERT_TRUE(fast.connectUnix(path, err)) << err;
    const Response quick = fast.submit(quietOptions(), image);
    ASSERT_TRUE(quick.isReport()) << quick.payload;
    EXPECT_FALSE(loris_done.load())
        << "the fast client should finish while the loris is still "
           "dribbling its frame";
    const Response again = fast.submit(quietOptions(), image);
    ASSERT_TRUE(again.isReport());
    EXPECT_EQ(quick.payload, again.payload);

    loris.join();
    EXPECT_TRUE(loris_ok.load())
        << "the loris still deserves its report";
    server.stop();
}

TEST(ServiceConcurrency, PipelinedJobsInterleaveOnOneSocket)
{
    ServerConfig config;
    config.unix_path = sockPath("pipe");
    config.workers = 4;
    config.queue_capacity = 32;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    const std::string path = sockPath("pipe");

    const std::string alpha = traceImage("alpha", 1);
    const std::string beta = traceImage("beta", 2);

    // Golden per-trace reports, one window-1 submit at a time.
    Client seq;
    ASSERT_TRUE(seq.connectUnix(path, err)) << err;
    const Response golden_alpha = seq.submit(quietOptions(), alpha);
    const Response golden_beta = seq.submit(quietOptions(), beta);
    ASSERT_TRUE(golden_alpha.isReport());
    ASSERT_TRUE(golden_beta.isReport());
    ASSERT_NE(golden_alpha.payload, golden_beta.payload);

    // The same connection then pipelines an interleaved batch; each
    // out-of-order response must land on the right job.
    std::vector<PipelineSubmission> jobs(12);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].options = quietOptions();
        jobs[i].trace_bytes = i % 2 == 0 ? &alpha : &beta;
    }
    const std::vector<Response> responses =
        seq.submitPipelined(jobs, 6);
    ASSERT_EQ(responses.size(), jobs.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
        ASSERT_TRUE(responses[i].isReport())
            << "job " << i << ": " << responses[i].payload;
        EXPECT_EQ(responses[i].payload,
                  i % 2 == 0 ? golden_alpha.payload
                             : golden_beta.payload)
            << "job " << i << " got the other trace's report";
    }

    // Hand-rolled interleaving with sparse ids: four SUBMIT_JOB
    // frames up front, then four keyed responses in whatever order.
    const int fd = rawConnect(path);
    ASSERT_GE(fd, 0);
    const JobOptions options = quietOptions();
    for (const std::uint64_t id : {107u, 205u, 311u, 409u}) {
        const std::string &image = id % 2 == 1 ? alpha : beta;
        std::string payload;
        payload.append(reinterpret_cast<const char *>(&id),
                       sizeof(id));
        payload.append(reinterpret_cast<const char *>(&options),
                       sizeof(options));
        payload.append(image);
        ASSERT_TRUE(
            writeFrame(fd, FrameType::kSubmitJob, payload));
    }
    std::vector<std::uint64_t> seen;
    for (int i = 0; i < 4; ++i) {
        FrameHeader header;
        std::string herr, payload, body;
        ASSERT_TRUE(readFrameHeader(fd, header, herr)) << herr;
        ASSERT_TRUE(readPayload(fd, header.length, payload));
        ASSERT_EQ(header.type,
                  static_cast<std::uint32_t>(FrameType::kJobReport));
        std::uint64_t id = 0;
        ASSERT_TRUE(splitJobPayload(payload, id, body));
        seen.push_back(id);
        EXPECT_EQ(body,
                  id % 2 == 1 ? golden_alpha.payload
                              : golden_beta.payload)
            << "job " << id;
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen,
              (std::vector<std::uint64_t>{107, 205, 311, 409}));
    ::close(fd);
    server.stop();
}

TEST(ServiceConcurrency, MidJobDisconnectLeavesServerHealthy)
{
    ServerConfig config;
    config.unix_path = sockPath("drop");
    config.workers = 1;
    config.min_job_ms = 150;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    const std::string path = sockPath("drop");

    const std::string image = traceImage("drop", 3);
    const std::string frame = submitFrameBytes(quietOptions(), image);

    // Submit a full job, then vanish before the report exists; do it
    // a few times so abandoned completions pile up if mishandled.
    for (int i = 0; i < 3; ++i) {
        const int fd = rawConnect(path);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ::close(fd);
    }

    // A half-written frame dropped mid-payload must clean up too.
    const int torn = rawConnect(path);
    ASSERT_GE(torn, 0);
    ASSERT_TRUE(writeAllFd(torn, frame.data(), frame.size() / 2));
    ::close(torn);

    // The daemon keeps serving, and its accounting still adds up.
    Client after;
    ASSERT_TRUE(after.connectUnix(path, err)) << err;
    const Response report = after.submit(quietOptions(), image);
    ASSERT_TRUE(report.isReport()) << report.payload;
    const Response stats = after.stats();
    ASSERT_TRUE(stats.transport_ok);
    EXPECT_NE(
        stats.payload.find("\"schema\": \"hdrd-metrics-v1\""),
        std::string::npos);
    EXPECT_NE(stats.payload.find("\"server.jobs_accepted\": 4"),
              std::string::npos)
        << stats.payload;
    server.stop();
}

TEST(ServiceConcurrency, BusyStormThenRecovery)
{
    ServerConfig config;
    config.unix_path = sockPath("storm");
    config.workers = 1;
    config.queue_capacity = 1;
    config.min_job_ms = 100;
    config.max_pipeline = 16;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    const std::string path = sockPath("storm");

    const std::string image = traceImage("storm", 4);

    // One connection pipelines 12 jobs into a queue of 1: most get a
    // keyed BUSY with a usable retry hint, none get lost or stall.
    Client client;
    ASSERT_TRUE(client.connectUnix(path, err)) << err;
    std::vector<PipelineSubmission> jobs(12);
    for (auto &job : jobs) {
        job.options = quietOptions();
        job.trace_bytes = &image;
    }
    std::vector<Response> responses =
        client.submitPipelined(jobs, 12);
    std::size_t busy = 0;
    std::string report_payload;
    for (const auto &resp : responses) {
        ASSERT_TRUE(resp.transport_ok);
        if (resp.isBusy()) {
            ++busy;
            EXPECT_GT(resp.retry_after_ms, 0u);
        } else {
            ASSERT_TRUE(resp.isReport()) << resp.payload;
            report_payload = resp.payload;
        }
    }
    EXPECT_GE(busy, 1u) << "a 12-deep burst into a queue of 1 must "
                           "trip backpressure";
    ASSERT_FALSE(report_payload.empty());

    // After the storm the same connection recovers: retry every
    // rejected job one at a time until it lands.
    for (std::size_t i = 0; i < busy; ++i) {
        Response resp;
        for (int attempt = 0; attempt < 200; ++attempt) {
            resp = client.submit(quietOptions(), image);
            if (!resp.isBusy())
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                resp.retry_after_ms ? resp.retry_after_ms : 1));
        }
        ASSERT_TRUE(resp.isReport()) << resp.payload;
        EXPECT_EQ(resp.payload, report_payload);
    }
    server.stop();
}

TEST(ServiceConcurrency, ConnectionLimitAnswersBusyNotDead)
{
    ServerConfig config;
    config.unix_path = sockPath("maxconns");
    config.workers = 1;
    config.max_connections = 1;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    const std::string path = sockPath("maxconns");
    const std::string image = traceImage("maxconns", 6);

    // Hold the only slot; the round trip proves it was accepted.
    Client holder;
    ASSERT_TRUE(holder.connectUnix(path, err)) << err;
    ASSERT_TRUE(holder.ping().transport_ok);

    // The acceptor answers BUSY with a retry hint and closes. The
    // client must surface that answer whether its submit frame went
    // out before the close or hit the closed socket (EPIPE).
    for (const int settle_ms : {0, 100}) {
        Client late;
        ASSERT_TRUE(late.connectUnix(path, err)) << err;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(settle_ms));
        const Response resp = late.submit(quietOptions(), image);
        ASSERT_TRUE(resp.isBusy())
            << "settle " << settle_ms << " ms: " << resp.payload;
        EXPECT_GT(resp.retry_after_ms, 0u);
        EXPECT_NE(resp.payload.find("connection limit"),
                  std::string::npos)
            << resp.payload;
    }

    // A pipelined batch is refused as a whole.
    Client batch;
    ASSERT_TRUE(batch.connectUnix(path, err)) << err;
    std::vector<PipelineSubmission> jobs(3);
    for (auto &job : jobs) {
        job.options = quietOptions();
        job.trace_bytes = &image;
    }
    for (const Response &resp : batch.submitPipelined(jobs, 2)) {
        EXPECT_TRUE(resp.isBusy()) << resp.payload;
        EXPECT_GT(resp.retry_after_ms, 0u);
    }

    // The held connection still gets full service.
    EXPECT_TRUE(holder.submit(quietOptions(), image).isReport());
    server.stop();
}

TEST(ServiceConcurrency, NoFdLeaksAcrossConnectionChurn)
{
    const int before = countOpenFds();
    ASSERT_GT(before, 0);
    {
        ServerConfig config;
        config.unix_path = sockPath("fds");
        config.workers = 2;
        Server server(std::move(config));
        std::string err;
        ASSERT_TRUE(server.start(err)) << err;
        const std::string path = sockPath("fds");

        const std::string image = traceImage("fds", 5);
        const std::string frame =
            submitFrameBytes(quietOptions(), image);
        for (int i = 0; i < 20; ++i) {
            switch (i % 3) {
            case 0: { // polite client
                Client client;
                ASSERT_TRUE(client.connectUnix(path, err)) << err;
                ASSERT_TRUE(
                    client.submit(quietOptions(), image).isReport());
                break;
            }
            case 1: { // vanishes mid-frame
                const int fd = rawConnect(path);
                ASSERT_GE(fd, 0);
                writeAllFd(fd, frame.data(), frame.size() / 3);
                ::close(fd);
                break;
            }
            default: { // speaks garbage
                const int fd = rawConnect(path);
                ASSERT_GE(fd, 0);
                writeAllFd(fd, "not a frame at all!!", 20);
                ::close(fd);
                break;
            }
            }
        }
        server.stop();
    }
    // Give the kernel a beat, then demand every descriptor back.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(countOpenFds(), before);
}

TEST(ServiceConcurrency, PingAtThePipelineCapIsAnswered)
{
    // A connection at --max-pipeline stops reading its next job, not
    // a PING behind the full window: a client tells a long job from
    // a hung daemon that way. A job past the cap still waits, and so
    // does a PING sent behind it.
    ServerConfig config;
    config.unix_path = sockPath("pingcap");
    config.workers = 3;
    config.max_pipeline = 2;
    config.min_job_ms = 400;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const std::string image = traceImage("pingcap", 8);
    const int fd = rawConnect(sockPath("pingcap"));
    ASSERT_GE(fd, 0);
    const std::string frames = submitFrameBytes(quietOptions(), image, 1)
        + submitFrameBytes(quietOptions(), image, 2);
    ASSERT_TRUE(writeAllFd(fd, frames.data(), frames.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto sent = std::chrono::steady_clock::now();
    ASSERT_TRUE(writeFrame(fd, FrameType::kPing, ""));

    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(readFrameHeader(fd, header, err)) << err;
    ASSERT_TRUE(readPayload(fd, header.length, payload));
    EXPECT_EQ(header.type, static_cast<std::uint32_t>(FrameType::kPong))
        << "the PING waited behind the jobs: " << payload;
    EXPECT_LT(std::chrono::steady_clock::now() - sent,
              std::chrono::milliseconds(200));

    // A third job, then a PING behind it: the job is held back while
    // the first two run (a third worker stands idle), and the PING
    // with it.
    const std::string third = submitFrameBytes(quietOptions(), image, 3);
    ASSERT_TRUE(writeAllFd(fd, third.data(), third.size()));
    ASSERT_TRUE(writeFrame(fd, FrameType::kPing, ""));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Client observer;
    ASSERT_TRUE(observer.connectUnix(sockPath("pingcap"), err)) << err;
    const Response stats = observer.stats();
    ASSERT_TRUE(stats.transport_ok);
    EXPECT_NE(stats.payload.find("\"server.jobs_accepted\": 2"),
              std::string::npos)
        << stats.payload;

    std::vector<std::uint64_t> reports_before_pong;
    for (;;) {
        ASSERT_TRUE(readFrameHeader(fd, header, err)) << err;
        ASSERT_TRUE(readPayload(fd, header.length, payload));
        if (header.type == static_cast<std::uint32_t>(FrameType::kPong))
            break;
        std::uint64_t id = 0;
        std::string json;
        ASSERT_EQ(header.type,
                  static_cast<std::uint32_t>(FrameType::kJobReport))
            << payload;
        ASSERT_TRUE(splitJobPayload(payload, id, json));
        reports_before_pong.push_back(id);
    }
    ASSERT_FALSE(reports_before_pong.empty())
        << "the PING behind the held-back job was answered at once";
    for (const std::uint64_t id : reports_before_pong)
        EXPECT_NE(id, 3u) << "the PING waited for the third job";
    ::close(fd);
    server.stop();
}

TEST(ServiceConcurrency, DrainRefusesNewConnectionsAtOnce)
{
    // A draining daemon closes its listener as soon as the acceptor
    // stops, so a fresh connect fails fast instead of waiting in a
    // backlog nobody serves; the job in flight still gets its report.
    ServerConfig config;
    config.unix_path = sockPath("drain");
    config.workers = 1;
    config.min_job_ms = 600;
    Server server(std::move(config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    const std::string path = sockPath("drain");
    const std::string image = traceImage("drain", 9);

    Client client;
    ASSERT_TRUE(client.connectUnix(path, err)) << err;
    Response report;
    std::thread submitter(
        [&] { report = client.submit(quietOptions(), image); });
    // Let the job reach its worker, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto stopped = std::chrono::steady_clock::now();
    std::thread stopper([&] { server.stop(); });
    bool refused = false;
    while (!refused
           && std::chrono::steady_clock::now() - stopped
               < std::chrono::milliseconds(100)) {
        Client fresh;
        std::string connect_err;
        refused = !fresh.connectUnix(path, connect_err);
        if (!refused)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(refused) << "a draining daemon still takes connects";
    submitter.join();
    stopper.join();
    EXPECT_TRUE(report.isReport()) << report.payload;
}
