/**
 * @file
 * Tests for the streaming analysis subsystem: StreamSession chunked
 * ingestion (final reports independent of chunk boundaries, and of
 * sized vs streamed submission for a job whose op queues span many
 * blocks), partial report byte-stability, credit flow control
 * (including the emergency-grant escape from skewed traces),
 * abort/truncation handling, and the server plane end to end —
 * streamed finals byte-identical to SUBMIT_JOB reports, exactly one
 * reply per SUBMIT_JOB, ATTACH fanout (including an ATTACH racing
 * the final), client-kill session recovery with gauges settling back
 * to zero, a source slower than the client's I/O timeout, and
 * wire-level edge cases: credit overrun, data for an unknown id, a
 * duplicate SUBMIT_END, and a frame cut mid-payload.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "runtime/op.hh"
#include "runtime/simulator.hh"
#include "service/client.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "stream/stream_session.hh"
#include "trace/trace_io.hh"

using namespace hdrd;
using namespace hdrd::service;
using namespace std::chrono_literals;

namespace
{

/** A racy two-thread trace, sized so partials actually fire. */
trace::TraceData
racyTrace(int iterations)
{
    using runtime::Op;
    std::vector<std::vector<Op>> per_thread(2);
    for (int i = 0; i < iterations; ++i) {
        per_thread[0].push_back(Op::write(0x1000, 1));
        per_thread[1].push_back(Op::write(0x1000, 2));
        per_thread[0].push_back(Op::work(3));
        per_thread[1].push_back(Op::work(4));
    }
    return trace::TraceData::fromOps("racy", std::move(per_thread));
}

/** Serialized TRC2 image of @p data. */
std::string
traceImage(const trace::TraceData &data, const char *tag)
{
    const std::string path = std::string(::testing::TempDir())
        + "hdrd_stream_" + tag + ".trc";
    EXPECT_TRUE(data.save(path));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    std::remove(path.c_str());
    return os.str();
}

/** Thread-safe capture of a session's terminal event and partials. */
struct Capture
{
    std::mutex m;
    bool fired = false;
    bool ok = false;
    std::string final_json;
    std::vector<std::string> partials;

    stream::StreamCallbacks callbacks()
    {
        stream::StreamCallbacks cb;
        cb.on_partial = [this](std::uint64_t,
                               const std::string &json) {
            std::lock_guard<std::mutex> lock(m);
            partials.push_back(json);
        };
        cb.on_done = [this](bool done_ok, const std::string &json) {
            std::lock_guard<std::mutex> lock(m);
            fired = true;
            ok = done_ok;
            final_json = json;
        };
        return cb;
    }
};

stream::StreamConfig
sessionConfig(const char *name, std::uint64_t buffer_cap,
              std::uint64_t partial_interval)
{
    stream::StreamConfig config;
    config.job_id = 1;
    config.name = name;
    config.options.flags = kJobOmitHostTiming;
    config.buffer_cap = buffer_cap;
    config.credit_quantum = 4096;
    config.partial_interval = partial_interval;
    return config;
}

/**
 * Feed @p image in @p chunk-byte pieces, honouring the cumulative
 * credit grant (the client contract), then end() and join.
 */
void
feedAll(stream::StreamSession &session, const std::string &image,
        std::size_t chunk)
{
    std::size_t sent = 0;
    while (sent < image.size()) {
        const std::uint64_t granted = session.grantedBytes();
        if (granted > sent) {
            const std::size_t n = std::min<std::size_t>(
                {chunk, image.size() - sent,
                 static_cast<std::size_t>(granted - sent)});
            std::string err;
            ASSERT_TRUE(session.feed(image.data() + sent, n, err))
                << err;
            sent += n;
        } else {
            std::this_thread::sleep_for(1ms);
        }
    }
    session.end();
    session.joinEngine();
}

/** Run one full streamed job; returns the captured events. */
void
runStreamed(const std::string &image, std::uint64_t buffer_cap,
            std::uint64_t partial_interval, std::size_t chunk,
            Capture &capture, service::Metrics *metrics = nullptr)
{
    stream::StreamConfig config =
        sessionConfig("unit", buffer_cap, partial_interval);
    config.metrics = metrics;
    stream::StreamSession session(std::move(config),
                                  capture.callbacks());
    session.start();
    feedAll(session, image, chunk);
}

/** A STATS value, or -1 while the metric is absent (counters appear
 *  on first use, so awaitGauge waits for them). */
std::int64_t
gaugeValue(Client &client, const char *name)
{
    const Response stats = client.stats();
    EXPECT_TRUE(stats.transport_ok);
    std::int64_t value = -1;
    Router::metricValue(stats.payload, name, value);
    return value;
}

/** Poll @p name until it reads @p want (or ~5 s elapse). */
bool
awaitGauge(Client &client, const char *name, std::int64_t want)
{
    for (int i = 0; i < 500; ++i) {
        if (gaugeValue(client, name) == want)
            return true;
        std::this_thread::sleep_for(10ms);
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// StreamSession: chunk-boundary independence and partial stability
// ---------------------------------------------------------------------

TEST(StreamSession, FinalReportIndependentOfChunking)
{
    const std::string image = traceImage(racyTrace(400), "chunking");

    // One big feed, tiny feeds, and a credit-limited window: all
    // three must produce byte-identical final reports.
    Capture whole, tiny, windowed;
    runStreamed(image, image.size() + 1024, 0, image.size(), whole);
    runStreamed(image, image.size() + 1024, 0, 7, tiny);
    runStreamed(image, 4096, 0, 1024, windowed);

    ASSERT_TRUE(whole.fired);
    ASSERT_TRUE(whole.ok) << whole.final_json;
    EXPECT_NE(whole.final_json.find("\"schema\": \"hdrd-report-v1\""),
              std::string::npos);
    EXPECT_EQ(whole.final_json.find("\"partial\""),
              std::string::npos);
    ASSERT_TRUE(tiny.fired);
    ASSERT_TRUE(tiny.ok) << tiny.final_json;
    EXPECT_EQ(tiny.final_json, whole.final_json);
    ASSERT_TRUE(windowed.fired);
    ASSERT_TRUE(windowed.ok) << windowed.final_json;
    EXPECT_EQ(windowed.final_json, whole.final_json);
}

TEST(StreamSession, PartialsAreByteStableAndMonotone)
{
    const std::string image = traceImage(racyTrace(400), "partials");

    Capture first, second;
    runStreamed(image, image.size() + 1024, 100, 512, first);
    runStreamed(image, 4096, 100, 64, second);

    ASSERT_TRUE(first.ok) << first.final_json;
    ASSERT_GE(first.partials.size(), 3u);
    // Partial emission points are deterministic executed-op counts,
    // so the whole partial sequence is byte-stable across runs with
    // different chunkings and credit windows.
    ASSERT_EQ(second.partials.size(), first.partials.size());
    for (std::size_t i = 0; i < first.partials.size(); ++i)
        EXPECT_EQ(first.partials[i], second.partials[i]) << i;

    std::uint64_t last_seq = 0;
    for (const std::string &partial : first.partials) {
        EXPECT_NE(
            partial.find("\"schema\": \"hdrd-report-partial-v1\""),
            std::string::npos)
            << partial;
        std::int64_t seq = -1;
        ASSERT_TRUE(Router::metricValue(partial, "seq", seq))
            << partial;
        EXPECT_EQ(static_cast<std::uint64_t>(seq), last_seq + 1);
        last_seq = static_cast<std::uint64_t>(seq);
        // Partials never carry host timing: byte-stability demands it.
        EXPECT_EQ(partial.find("\"host\""), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// StreamSession: credit protocol edges
// ---------------------------------------------------------------------

TEST(StreamSession, CreditOverrunIsAProtocolViolation)
{
    const std::string image = traceImage(racyTrace(400), "overrun");
    ASSERT_GT(image.size(), 2 * 4096u + 1);

    Capture capture;
    stream::StreamSession session(
        sessionConfig("overrun", 4096, 0), capture.callbacks());
    session.start();
    // First feed blasts past any grant the session could have issued
    // (initial grant == buffer_cap; nothing consumed yet).
    std::string err;
    EXPECT_FALSE(session.feed(image.data(), image.size(), err));
    EXPECT_NE(err.find("credit"), std::string::npos) << err;
}

TEST(StreamSession, SkewedTraceCompletesViaEmergencyCredit)
{
    // TraceData::save writes thread 0's records before thread 1's,
    // so with a credit window smaller than thread 0's block, the
    // engine starves on thread 1 while the window is exhausted. The
    // session must escape with emergency grants, not deadlock.
    const std::string image = traceImage(racyTrace(400), "skew");

    service::Metrics metrics;
    Capture capture;
    runStreamed(image, 4096, 0, 1024, capture, &metrics);
    ASSERT_TRUE(capture.fired);
    ASSERT_TRUE(capture.ok) << capture.final_json;
    EXPECT_GT(metrics.counter("stream.emergency_credits").value(),
              0u);
    // Gauges settle once the session retires.
    EXPECT_EQ(metrics.gauge("stream.active_sessions").value(), 0);
    EXPECT_EQ(metrics.gauge("stream.buffered_bytes").value(), 0);
}

TEST(StreamSession, QueuesAcrossBlocksGiveOneReportEveryWay)
{
    // 10,000 ops per thread: each thread's queue spans ten 1,024-op
    // blocks, and a streamed run drains and frees blocks while the
    // upload continues.
    const std::string image = traceImage(racyTrace(5000), "blocks");

    // The SUBMIT_JOB path: a sized session, never started, fed in
    // 64 KiB chunks, then run() on the caller's engine.
    stream::StreamConfig config =
        sessionConfig("unit", image.size() + 1024, 0);
    config.trace_bytes = image.size();
    runtime::Simulator engine(config.base);
    stream::StreamSession sized(std::move(config));
    for (std::size_t sent = 0; sent < image.size();) {
        const std::size_t n =
            std::min<std::size_t>(64 * 1024, image.size() - sent);
        std::string err;
        ASSERT_TRUE(sized.feed(image.data() + sent, n, err)) << err;
        sent += n;
    }
    sized.end();
    const stream::StreamFinal buffered = sized.run(engine);
    ASSERT_TRUE(buffered.ok) << buffered.json;
    EXPECT_NE(buffered.json.find("\"schema\": \"hdrd-report-v1\""),
              std::string::npos);

    // Streamed in one piece, in 7-byte pieces, and through a 4 KiB
    // credit window. The last is the skewed-trace case at this size
    // (TraceData::save writes thread 0's records first), so it only
    // completes through emergency grants.
    Capture whole, tiny, windowed;
    runStreamed(image, image.size() + 1024, 0, image.size(), whole);
    runStreamed(image, image.size() + 1024, 0, 7, tiny);
    service::Metrics metrics;
    runStreamed(image, 4096, 0, 1024, windowed, &metrics);
    for (const Capture *run : {&whole, &tiny, &windowed}) {
        ASSERT_TRUE(run->fired);
        ASSERT_TRUE(run->ok) << run->final_json;
        EXPECT_EQ(run->final_json, buffered.json);
    }
    EXPECT_GT(metrics.counter("stream.emergency_credits").value(),
              0u);
    EXPECT_EQ(metrics.gauge("stream.active_sessions").value(), 0);
    EXPECT_EQ(metrics.gauge("stream.buffered_bytes").value(), 0);
}

TEST(StreamSession, OpBlocksGoBackToTheSharedPool)
{
    // Two threads of 10,000 ops: twenty 1,024-op blocks. A sized
    // session holds them all until it is destroyed; a streamed one
    // hands each back once drained. Both borrow from one pool, which
    // ends with every block returned and no more blocks than the
    // buffered job held at once.
    const std::string image = traceImage(racyTrace(5000), "pool");
    stream::OpBlockPool blocks;

    stream::StreamConfig config =
        sessionConfig("unit", image.size() + 1024, 0);
    config.trace_bytes = image.size();
    config.op_blocks = &blocks;
    runtime::Simulator engine(config.base);
    std::string buffered;
    {
        stream::StreamSession sized(std::move(config));
        std::string err;
        ASSERT_TRUE(sized.feed(image.data(), image.size(), err)) << err;
        sized.end();
        EXPECT_EQ(blocks.borrowed(), 20u);
        const stream::StreamFinal final = sized.run(engine);
        ASSERT_TRUE(final.ok) << final.json;
        buffered = final.json;
        EXPECT_EQ(blocks.borrowed(), 20u);
    }
    EXPECT_EQ(blocks.borrowed(), 0u);
    EXPECT_EQ(blocks.pages(), 20u);

    Capture windowed;
    stream::StreamConfig streamed = sessionConfig("unit", 4096, 0);
    streamed.op_blocks = &blocks;
    {
        stream::StreamSession session(std::move(streamed),
                                      windowed.callbacks());
        session.start();
        feedAll(session, image, 1024);
    }
    ASSERT_TRUE(windowed.ok) << windowed.final_json;
    EXPECT_EQ(windowed.final_json, buffered);
    EXPECT_EQ(blocks.borrowed(), 0u);
    EXPECT_EQ(blocks.pages(), 20u);
}

TEST(StreamSession, TrailingBytesAfterLastRecordRejected)
{
    // An open-ended upload learns its length only from the header,
    // so bytes past the last declared record are refused at end():
    // whether they arrive in the feed that completes the trace or
    // in a feed of their own once the reader is done.
    const std::string image = traceImage(racyTrace(50), "trailing");
    const std::string junk = "junk!";
    for (const bool separate : {false, true}) {
        Capture capture;
        stream::StreamSession session(
            sessionConfig("trailing", image.size() + 1024, 0),
            capture.callbacks());
        session.start();
        std::string err;
        if (separate) {
            ASSERT_TRUE(session.feed(image.data(), image.size(), err));
            ASSERT_TRUE(session.feed(junk.data(), junk.size(), err));
        } else {
            const std::string both = image + junk;
            ASSERT_TRUE(session.feed(both.data(), both.size(), err));
        }
        session.end();
        session.joinEngine();
        ASSERT_TRUE(capture.fired) << separate;
        EXPECT_FALSE(capture.ok) << separate;
        EXPECT_NE(capture.final_json.find(
                      "5 bytes of trailing garbage after 200 records"),
                  std::string::npos)
            << capture.final_json;
    }
}

TEST(StreamSession, DataAfterEndRejected)
{
    const std::string image = traceImage(racyTrace(50), "afterend");
    Capture capture;
    stream::StreamSession session(
        sessionConfig("afterend", image.size() + 1024, 0),
        capture.callbacks());
    session.start();
    std::string err;
    ASSERT_TRUE(session.feed(image.data(), image.size(), err));
    session.end();
    EXPECT_FALSE(session.feed("x", 1, err));
    EXPECT_NE(err.find("SUBMIT_END"), std::string::npos) << err;
    session.joinEngine();
    EXPECT_TRUE(capture.ok) << capture.final_json;
}

TEST(StreamSession, TruncatedStreamReportsError)
{
    const std::string image = traceImage(racyTrace(50), "trunc");
    Capture capture;
    stream::StreamSession session(
        sessionConfig("trunc", image.size() + 1024, 0),
        capture.callbacks());
    session.start();
    // Header plus one and a half records, then EOF.
    const std::size_t cut = sizeof(trace::TraceHeader) + 32 + 16;
    std::string err;
    ASSERT_TRUE(session.feed(image.data(), cut, err)) << err;
    session.end();
    session.joinEngine();
    ASSERT_TRUE(capture.fired);
    EXPECT_FALSE(capture.ok);
    EXPECT_NE(capture.final_json.find("truncated"),
              std::string::npos)
        << capture.final_json;
}

TEST(StreamSession, AbortUnwindsAndReportsOnce)
{
    const std::string image = traceImage(racyTrace(400), "abort");
    Capture capture;
    stream::StreamSession session(
        sessionConfig("abort", image.size() + 1024, 0),
        capture.callbacks());
    session.start();
    std::string err;
    ASSERT_TRUE(
        session.feed(image.data(), image.size() / 2, err))
        << err;
    session.abort();
    session.abort();  // idempotent
    session.joinEngine();
    ASSERT_TRUE(capture.fired);
    EXPECT_FALSE(capture.ok);
    EXPECT_NE(capture.final_json.find("abort"), std::string::npos)
        << capture.final_json;
}

// ---------------------------------------------------------------------
// Server end to end: streamed submit, follow, and recovery
// ---------------------------------------------------------------------

namespace
{

struct TestServer
{
    std::string path;
    std::unique_ptr<Server> server;

    explicit TestServer(const char *tag, std::uint32_t max_streams = 8,
                        std::uint64_t partial_interval = 200,
                        std::uint64_t stream_buffer = 64 * 1024)
    {
        path = std::string(::testing::TempDir()) + "hdrd_stream_"
            + tag + ".sock";
        ServerConfig config;
        config.unix_path = path;
        config.workers = 2;
        config.queue_capacity = 8;
        config.max_streams = max_streams;
        config.stream_buffer = stream_buffer;
        config.partial_interval_ops = partial_interval;
        server = std::make_unique<Server>(std::move(config));
        std::string err;
        EXPECT_TRUE(server->start(err)) << err;
    }

    ~TestServer() { server->stop(); }
};

/** StreamSource serving @p image in @p chunk-byte pieces. */
StreamSource
chunkedSource(const std::string &image, std::size_t chunk,
              std::size_t *pos)
{
    return [&image, chunk, pos](char *dst, std::size_t max) {
        const std::size_t n = std::min(
            {chunk, max, image.size() - *pos});
        std::memcpy(dst, image.data() + *pos, n);
        *pos += n;
        return n;
    };
}

/** Raw-socket connect for protocol-level poking. */
int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

/** Bound every read on @p fd so a missing reply fails, not hangs. */
void
readTimeout(int fd)
{
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/** Read one frame; false on timeout or close. */
bool
readFrame(int fd, FrameType &type, std::string &payload)
{
    FrameHeader header;
    std::string err;
    if (!readFrameHeader(fd, header, err)
        || !readPayload(fd, header.length, payload))
        return false;
    type = static_cast<FrameType>(header.type);
    return true;
}

/** Skip frames until a final (JOB_REPORT/JOB_ERROR) keyed @p id. */
bool
readFinal(int fd, std::uint64_t id, FrameType &type, std::string &json)
{
    std::string payload;
    while (readFrame(fd, type, payload)) {
        std::uint64_t got = 0;
        if ((type == FrameType::kJobReport
             || type == FrameType::kJobError)
            && splitJobPayload(payload, got, json) && got == id)
            return true;
    }
    return false;
}

} // namespace

TEST(ServerStream, StreamedFinalMatchesBufferedByteForByte)
{
    TestServer ts("e2e");
    const std::string image = traceImage(racyTrace(400), "e2e");

    JobOptions options;
    options.flags = kJobOmitHostTiming;

    Client buffered;
    std::string err;
    ASSERT_TRUE(buffered.connectUnix(ts.path, err)) << err;
    const Response golden = buffered.submit(options, image);
    ASSERT_TRUE(golden.isReport()) << golden.payload;

    Client streamer;
    ASSERT_TRUE(streamer.connectUnix(ts.path, err)) << err;
    std::size_t pos = 0;
    std::vector<std::string> partials;
    StreamHandlers handlers;
    handlers.on_partial = [&](const std::string &json) {
        partials.push_back(json);
    };
    const Response streamed = streamer.submitStream(
        options, "e2e", chunkedSource(image, 4096, &pos), handlers);
    ASSERT_TRUE(streamed.isReport()) << streamed.payload;
    EXPECT_EQ(streamed.payload, golden.payload);
    EXPECT_GE(partials.size(), 1u);
    for (const std::string &partial : partials)
        EXPECT_NE(
            partial.find("\"schema\": \"hdrd-report-partial-v1\""),
            std::string::npos);

    // The registry retires the session; gauges settle to zero.
    EXPECT_TRUE(awaitGauge(buffered, "stream.active_sessions", 0));
    EXPECT_TRUE(awaitGauge(buffered, "stream.buffered_bytes", 0));
}

TEST(ServerStream, SlowSourceIsNotSilence)
{
    // A producer slower than the I/O timeout (stdin fed by a slow
    // pipe) is the client's own wait, not the daemon's silence.
    TestServer ts("slow");
    const std::string image = traceImage(racyTrace(400), "slow");
    const std::size_t third = (image.size() + 2) / 3;
    std::size_t pos = 0;
    const StreamSource source = [&](char *dst, std::size_t max) {
        const std::size_t n =
            std::min({third, max, image.size() - pos});
        if (n > 0)
            std::this_thread::sleep_for(300ms);
        std::memcpy(dst, image.data() + pos, n);
        pos += n;
        return n;
    };

    JobOptions options;
    options.flags = kJobOmitHostTiming;
    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    client.setTimeouts(100);
    const Response streamed =
        client.submitStream(options, "slow", source);
    EXPECT_TRUE(streamed.isReport())
        << streamed.payload << " errno " << streamed.transport_errno;
    EXPECT_EQ(pos, image.size());
    // No PING on a fresh connection had to vouch for the daemon.
    EXPECT_EQ(ts.server->metrics()
                  .counter("server.connections_accepted")
                  .value(),
              1u);
}

TEST(ServerStream, FollowerTailsPartialsAndFinal)
{
    TestServer ts("follow");
    const std::string image = traceImage(racyTrace(2000), "follow");

    // The source stalls after the first chunk until released, giving
    // the follower a deterministic window to attach.
    std::mutex m;
    std::condition_variable cv;
    bool released = false;
    std::size_t pos = 0;
    StreamSource source = [&](char *dst, std::size_t max) {
        if (pos > 0) {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return released; });
        }
        const std::size_t n =
            std::min({std::size_t{4096}, max, image.size() - pos});
        std::memcpy(dst, image.data() + pos, n);
        pos += n;
        return n;
    };

    JobOptions options;
    options.flags = kJobOmitHostTiming;
    Response streamed;
    std::thread streamer([&] {
        Client client;
        std::string err;
        if (!client.connectUnix(ts.path, err))
            return;
        streamed = client.submitStream(options, "live", source);
    });

    Client poller;
    std::string err;
    ASSERT_TRUE(poller.connectUnix(ts.path, err)) << err;
    ASSERT_TRUE(awaitGauge(poller, "stream.active_sessions", 1));

    std::vector<std::string> follower_partials;
    Response followed;
    std::thread follower([&] {
        Client client;
        std::string ferr;
        if (!client.connectUnix(ts.path, ferr))
            return;
        StreamHandlers handlers;
        handlers.on_partial = [&](const std::string &json) {
            follower_partials.push_back(json);
        };
        followed = client.follow("live", handlers);
    });

    // Give the ATTACH a moment to register, then open the tap.
    std::this_thread::sleep_for(100ms);
    {
        std::lock_guard<std::mutex> lock(m);
        released = true;
    }
    cv.notify_all();
    streamer.join();
    follower.join();

    ASSERT_TRUE(streamed.isReport()) << streamed.payload;
    ASSERT_TRUE(followed.isReport()) << followed.payload;
    EXPECT_EQ(followed.payload, streamed.payload);
    EXPECT_GE(follower_partials.size(), 1u);
}

TEST(ServerStream, FollowUnknownSessionIsRefused)
{
    TestServer ts("noattach");
    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    const Response refusal = client.follow("no-such-session");
    ASSERT_TRUE(refusal.transport_ok);
    EXPECT_EQ(refusal.type, FrameType::kAttachReply);
    EXPECT_NE(refusal.payload.find("no live streaming session"),
              std::string::npos)
        << refusal.payload;
}

TEST(ServerStream, StreamLimitAnswersBusy)
{
    TestServer ts("limit", /*max_streams=*/1);
    const std::string image = traceImage(racyTrace(50), "limit");

    // Occupy the only slot with a raw half-open session.
    const int fd = rawConnect(ts.path);
    JobOptions options;
    options.flags = kJobOmitHostTiming;
    ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitStream,
                           streamOpenPayload(1, "hog", options)));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    ASSERT_TRUE(awaitGauge(client, "stream.active_sessions", 1));

    std::size_t pos = 0;
    const Response busy = client.submitStream(
        options, "late", chunkedSource(image, 4096, &pos));
    ASSERT_TRUE(busy.transport_ok);
    EXPECT_EQ(busy.type, FrameType::kJobBusy);
    EXPECT_NE(busy.payload.find("stream limit"), std::string::npos)
        << busy.payload;
    ::close(fd);
    EXPECT_TRUE(awaitGauge(client, "stream.active_sessions", 0));
}

TEST(ServerStream, ClientKillMidStreamLeaksNothing)
{
    TestServer ts("kill");
    const std::string image = traceImage(racyTrace(400), "kill");

    // Open a stream, push a partial prefix, then vanish without
    // SUBMIT_END — a client crash. The connection teardown must
    // abort the session and settle every gauge back to zero.
    const int fd = rawConnect(ts.path);
    JobOptions options;
    options.flags = kJobOmitHostTiming;
    ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitStream,
                           streamOpenPayload(7, "doomed", options)));
    ASSERT_TRUE(writeJobFrame(
        fd, FrameType::kSubmitData, 7,
        image.substr(0, sizeof(trace::TraceHeader) + 64)));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    ASSERT_TRUE(awaitGauge(client, "stream.active_sessions", 1));
    ::close(fd);

    EXPECT_TRUE(awaitGauge(client, "stream.active_sessions", 0));
    EXPECT_TRUE(awaitGauge(client, "stream.buffered_bytes", 0));

    // The daemon still serves buffered jobs afterwards.
    const Response after = client.submit(options, image);
    EXPECT_TRUE(after.isReport()) << after.payload;
}

TEST(ServerStream, SubmitJobGetsExactlyOneReply)
{
    // The stream buffer (64 KiB) is smaller than the trace and the
    // partial interval (200 ops) below its op count: a streamed
    // session would send CREDIT and JOB_PARTIAL frames here. A
    // SUBMIT_JOB gets its JOB_REPORT and nothing else.
    TestServer ts("onereply");
    const std::string image = traceImage(racyTrace(2000), "onereply");
    ASSERT_GT(image.size(), 64u * 1024);

    const int fd = rawConnect(ts.path);
    readTimeout(fd);
    JobOptions options;
    options.flags = kJobOmitHostTiming;
    std::string body(reinterpret_cast<const char *>(&options),
                     sizeof(options));
    body.append(image);
    ASSERT_TRUE(writeJobFrame(fd, FrameType::kSubmitJob, 41, body));

    FrameType type = FrameType::kError;
    std::string payload;
    ASSERT_TRUE(readFrame(fd, type, payload));
    ASSERT_EQ(type, FrameType::kJobReport);
    std::uint64_t id = 0;
    std::string json;
    ASSERT_TRUE(splitJobPayload(payload, id, json));
    EXPECT_EQ(id, 41u);
    EXPECT_EQ(json.find("\"partial\""), std::string::npos);

    // Nothing trails the report: the next frame answers a PING.
    ASSERT_TRUE(writeFrame(fd, FrameType::kPing, ""));
    ASSERT_TRUE(readFrame(fd, type, payload));
    EXPECT_EQ(type, FrameType::kPong);
    ::close(fd);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    const Response stats = client.stats();
    ASSERT_TRUE(stats.transport_ok);
    EXPECT_EQ(stats.payload.find("stream.credits_issued"),
              std::string::npos)
        << stats.payload;
    EXPECT_EQ(stats.payload.find("stream.partials_emitted"),
              std::string::npos)
        << stats.payload;
}

TEST(ServerStream, FollowerFinalLeavesSameIdUploadRunning)
{
    TestServer ts("sameid");
    const std::string image_a = traceImage(racyTrace(50), "sameid_a");
    const std::string image_b = traceImage(racyTrace(60), "sameid_b");
    JobOptions options;
    options.flags = kJobOmitHostTiming;

    Client poller;
    std::string err;
    ASSERT_TRUE(poller.connectUnix(ts.path, err)) << err;
    const Response golden_b = poller.submit(options, image_b);
    ASSERT_TRUE(golden_b.isReport()) << golden_b.payload;

    // Session A, uploaded from its own connection.
    const int owner = rawConnect(ts.path);
    readTimeout(owner);
    ASSERT_TRUE(writeFrame(owner, FrameType::kSubmitStream,
                           streamOpenPayload(1, "a", options)));
    ASSERT_TRUE(awaitGauge(poller, "stream.active_sessions", 1));

    // One connection follows A under id 7, then uploads B under the
    // same wire id 7.
    const int fd = rawConnect(ts.path);
    readTimeout(fd);
    ASSERT_TRUE(writeFrame(fd, FrameType::kAttach, attachPayload(7, "a")));
    ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitStream,
                           streamOpenPayload(7, "b", options)));
    ASSERT_TRUE(awaitGauge(poller, "stream.active_sessions", 2));

    // A finishes; its final reaches the follower keyed 7.
    ASSERT_TRUE(writeJobFrame(owner, FrameType::kSubmitData, 1, image_a));
    ASSERT_TRUE(writeJobFrame(owner, FrameType::kSubmitEnd, 1, ""));
    FrameType type = FrameType::kError;
    std::string json;
    ASSERT_TRUE(readFinal(fd, 7, type, json));
    ASSERT_EQ(type, FrameType::kJobReport) << json;
    EXPECT_NE(json, golden_b.payload);

    // B's upload is still live and answers with its own report.
    ASSERT_TRUE(writeJobFrame(fd, FrameType::kSubmitData, 7, image_b));
    ASSERT_TRUE(writeJobFrame(fd, FrameType::kSubmitEnd, 7, ""));
    ASSERT_TRUE(readFinal(fd, 7, type, json))
        << "B's final never arrived";
    ASSERT_EQ(type, FrameType::kJobReport) << json;
    EXPECT_EQ(json, golden_b.payload);

    ::close(fd);
    ::close(owner);
    EXPECT_TRUE(awaitGauge(poller, "stream.active_sessions", 0));
}

TEST(ServerStream, AttachRacingTheFinalGetsRefusalOrFinal)
{
    // The follower sends ATTACH the moment the uploader has read its
    // final. The session posts that final and retires in one step, so
    // the ATTACH is refused, or answered ok and then sent the final;
    // an ok followed by nothing would leave a follower waiting
    // forever.
    TestServer ts("attachrace");
    const std::string image = traceImage(racyTrace(50), "attachrace");
    JobOptions options;
    options.flags = kJobOmitHostTiming;

    for (int round = 0; round < 25; ++round) {
        const std::string name = "race" + std::to_string(round);
        const int follower = rawConnect(ts.path);
        readTimeout(follower);
        const int uploader = rawConnect(ts.path);
        readTimeout(uploader);
        ASSERT_TRUE(writeFrame(uploader, FrameType::kSubmitStream,
                               streamOpenPayload(1, name, options)));
        ASSERT_TRUE(
            writeJobFrame(uploader, FrameType::kSubmitData, 1, image));
        ASSERT_TRUE(
            writeJobFrame(uploader, FrameType::kSubmitEnd, 1, ""));
        FrameType type = FrameType::kError;
        std::string report;
        ASSERT_TRUE(readFinal(uploader, 1, type, report));
        ASSERT_EQ(type, FrameType::kJobReport) << report;

        ASSERT_TRUE(writeFrame(follower, FrameType::kAttach,
                               attachPayload(9, name)));
        std::string payload;
        ASSERT_TRUE(readFrame(follower, type, payload));
        ASSERT_EQ(type, FrameType::kAttachReply);
        std::uint64_t id = 0;
        std::string status;
        ASSERT_TRUE(splitJobPayload(payload, id, status));
        EXPECT_EQ(id, 9u);
        if (status.find("\"status\": \"ok\"") != std::string::npos) {
            std::string followed;
            ASSERT_TRUE(readFinal(follower, 9, type, followed))
                << "round " << round
                << ": ATTACH answered ok, then no final";
            EXPECT_EQ(type, FrameType::kJobReport);
            EXPECT_EQ(followed, report);
        } else {
            EXPECT_NE(status.find("no live streaming session"),
                      std::string::npos)
                << status;
        }
        ::close(uploader);
        ::close(follower);
    }
}

TEST(ServerStream, CreditOverrunIsAConnectionError)
{
    // Bytes past the granted credit are a protocol violation: an
    // ERROR frame, then the connection closes. The session aborts
    // without leaking, and a job on another connection is unchanged.
    TestServer ts("overrun", 8, 200, /*stream_buffer=*/4096);
    const std::string image = traceImage(racyTrace(400), "overrun");
    ASSERT_GT(image.size(), 8192u);
    JobOptions options;
    options.flags = kJobOmitHostTiming;

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    const Response golden = client.submit(options, image);
    ASSERT_TRUE(golden.isReport()) << golden.payload;

    const int fd = rawConnect(ts.path);
    readTimeout(fd);
    ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitStream,
                           streamOpenPayload(1, "greedy", options)));
    ASSERT_TRUE(writeJobFrame(fd, FrameType::kSubmitData, 1,
                              image.substr(0, 8192)));
    FrameType type = FrameType::kCredit;
    std::string payload;
    while (type == FrameType::kCredit)
        ASSERT_TRUE(readFrame(fd, type, payload));
    ASSERT_EQ(type, FrameType::kError) << payload;
    EXPECT_NE(payload.find("stream credit exceeded"), std::string::npos)
        << payload;
    EXPECT_FALSE(readFrame(fd, type, payload)) << "connection stayed open";
    ::close(fd);

    EXPECT_TRUE(awaitGauge(client, "stream.aborts", 1));
    EXPECT_TRUE(awaitGauge(client, "stream.active_sessions", 0));
    EXPECT_TRUE(awaitGauge(client, "stream.buffered_bytes", 0));
    const Response after = client.submit(options, image);
    ASSERT_TRUE(after.isReport()) << after.payload;
    EXPECT_EQ(after.payload, golden.payload);
}

TEST(ServerStream, DataForUnknownIdIsDiscarded)
{
    TestServer ts("unknownid");
    const int fd = rawConnect(ts.path);
    readTimeout(fd);
    ASSERT_TRUE(writeJobFrame(fd, FrameType::kSubmitData, 5,
                              std::string(100, 'x')));
    ASSERT_TRUE(writeFrame(fd, FrameType::kPing, ""));
    FrameType type = FrameType::kError;
    std::string payload;
    ASSERT_TRUE(readFrame(fd, type, payload));
    EXPECT_EQ(type, FrameType::kPong) << payload;
    ::close(fd);
}

TEST(ServerStream, DuplicateEndGetsOneReport)
{
    TestServer ts("twoends");
    const std::string image = traceImage(racyTrace(50), "twoends");
    JobOptions options;
    options.flags = kJobOmitHostTiming;

    const int fd = rawConnect(ts.path);
    readTimeout(fd);
    ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitStream,
                           streamOpenPayload(3, "twice", options)));
    ASSERT_TRUE(writeJobFrame(fd, FrameType::kSubmitData, 3, image));
    ASSERT_TRUE(writeJobFrame(fd, FrameType::kSubmitEnd, 3, ""));
    ASSERT_TRUE(writeJobFrame(fd, FrameType::kSubmitEnd, 3, ""));
    FrameType type = FrameType::kError;
    std::string json;
    ASSERT_TRUE(readFinal(fd, 3, type, json));
    EXPECT_EQ(type, FrameType::kJobReport) << json;

    // The second END added nothing: the next frame answers a PING.
    ASSERT_TRUE(writeFrame(fd, FrameType::kPing, ""));
    std::string payload;
    ASSERT_TRUE(readFrame(fd, type, payload));
    EXPECT_EQ(type, FrameType::kPong) << payload;
    ::close(fd);
}

TEST(ServerStream, DataCutMidPayloadThenHangupLeaksNothing)
{
    TestServer ts("cut");
    const std::string image = traceImage(racyTrace(400), "cut");
    JobOptions options;
    options.flags = kJobOmitHostTiming;

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;

    // A SUBMIT_DATA header promising 1000 trace bytes, then 500 of
    // them, then a hangup.
    const int fd = rawConnect(ts.path);
    ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitStream,
                           streamOpenPayload(4, "cut", options)));
    FrameHeader header;
    header.type = static_cast<std::uint32_t>(FrameType::kSubmitData);
    header.length = sizeof(std::uint64_t) + 1000;
    const std::uint64_t id = 4;
    ASSERT_TRUE(writeAllFd(fd, &header, sizeof(header)));
    ASSERT_TRUE(writeAllFd(fd, &id, sizeof(id)));
    ASSERT_TRUE(writeAllFd(fd, image.data(), 500));
    ASSERT_TRUE(awaitGauge(client, "server.trace_bytes_received", 500));
    ::close(fd);

    EXPECT_TRUE(awaitGauge(client, "stream.active_sessions", 0));
    EXPECT_TRUE(awaitGauge(client, "stream.buffered_bytes", 0));
    EXPECT_TRUE(awaitGauge(client, "stream.aborts", 1));
}
