#include "service/connection.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/metrics.hh"
#include "service/server.hh"
#include "stream/stream_session.hh"

namespace hdrd::service
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Largest rejected-payload remainder worth discarding to keep the
 * connection; anything bigger closes it.
 */
constexpr std::uint64_t kDrainCap = 16ULL << 20;

/** Socket bytes pulled per readiness event. */
constexpr std::size_t kReadChunk = 64 * 1024;

/** SUBMIT_JOB's fixed prefix: job id + JobOptions. */
constexpr std::size_t kJobPrefix =
    sizeof(std::uint64_t) + sizeof(JobOptions);

std::uint64_t
usSince(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
}

} // namespace

Connection::Connection(int fd, std::uint64_t id, Server &server)
    : fd_(fd), id_(id), server_(server),
      token_(std::make_shared<std::atomic<bool>>(true))
{
}

Connection::~Connection()
{
    token_->store(false, std::memory_order_release);
    // Streaming uploads die with their uploader: the engine unwinds
    // through the simulator's cancellation path and the session's
    // buffered bytes are released.
    for (auto &entry : streams_)
        entry.second->abort();
    if (fd_ >= 0)
        ::close(fd_);
}

void
Connection::rxConsume(std::size_t n)
{
    rx_pos_ += n;
    if (rx_pos_ == rx_end_) {
        rx_pos_ = 0;
        rx_end_ = 0;
    } else if (rx_pos_ >= 256 * 1024 && rx_pos_ >= rx_end_ / 2) {
        // Compact once the dead prefix dominates the buffered bytes.
        std::memmove(rx_.data(), rx_.data() + rx_pos_, rx_end_ - rx_pos_);
        rx_end_ -= rx_pos_;
        rx_pos_ = 0;
    }
}

bool
Connection::rxPaused() const
{
    const std::uint32_t cap =
        std::max<std::uint32_t>(1, server_.config().max_pipeline);
    // Unflushed responses count against the cap: a client that
    // pipelines (or pings) but never reads stalls its own connection
    // instead of growing the daemon's outbound queue without bound.
    if (outbox_.size() >= cap)
        return true;
    if (in_flight_ + outbox_.size() < cap)
        return false;
    // At the cap only the next job waits. A PING or STATS behind a
    // full window is still answered, which is how a client tells a
    // long job from a hung daemon; at most one read chunk is
    // buffered past the cap.
    FrameHeader next;
    if (state_ != RxState::kFrameHeader
        || rxAvailable() < sizeof(next))
        return false;
    std::memcpy(&next, rxData(), sizeof(next));
    return next.type == static_cast<std::uint32_t>(FrameType::kSubmitJob);
}

std::uint32_t
Connection::interest() const
{
    std::uint32_t mask = 0;
    if (!closing_ && !rxPaused())
        mask |= EPOLLIN;
    if (!outbox_.empty())
        mask |= EPOLLOUT;
    // A zero mask is legal: EPOLLHUP/EPOLLERR still get reported, so
    // a fully flow-paused connection cannot wedge its shard.
    return mask;
}

bool
Connection::onReadable()
{
    if (dead_)
        return false;
    if (closing_ || rxPaused())
        return true;

    // The buffer grows (and zero-fills) only when a read chunk no
    // longer fits past the buffered bytes; otherwise the read lands
    // in storage an earlier read already paid for.
    if (rx_.size() - rx_end_ < kReadChunk)
        rx_.resize(rx_end_ + kReadChunk);
    ssize_t got;
    do {
        got = ::read(fd_, rx_.data() + rx_end_, kReadChunk);
    } while (got < 0 && errno == EINTR);
    if (got < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK;
    rx_end_ += static_cast<std::size_t>(got);
    if (got == 0)
        return false;  // peer closed
    return pump();
}

bool
Connection::onWritable()
{
    return flushOut();
}

bool
Connection::deliver(bool counted, std::uint64_t job_id, FrameType type,
                    std::string body)
{
    if (counted && in_flight_ > 0)
        --in_flight_;
    queueFrame(type, jobPayload(job_id, body));
    if (!counted
        && (type == FrameType::kJobReport
            || type == FrameType::kJobError)) {
        // Only an upload's own final retires its id: a follower's
        // final mirrored under the same wire id finds the upload
        // still running and leaves it alone.
        const auto it = streams_.find(job_id);
        if (it != streams_.end() && it->second->finished())
            streams_.erase(it);
    }
    if (dead_)
        return false;
    // The response may have unpaused reading; frames the client sent
    // ahead can already be buffered.
    return pump();
}

bool
Connection::pump()
{
    for (;;) {
        if (dead_)
            return false;
        if (closing_ || rxPaused())
            return true;
        Step step = Step::kBlocked;
        switch (state_) {
          case RxState::kFrameHeader:
            step = handleFrameHeader();
            break;
          case RxState::kControl:
            step = handleControl();
            break;
          case RxState::kPrefix:
            step = handlePrefix();
            break;
          case RxState::kData:
            step = handleData();
            break;
          case RxState::kDrain:
            step = handleDrain();
            break;
        }
        if (step == Step::kFatal)
            return false;
        if (step == Step::kBlocked)
            return true;
    }
}

Connection::Step
Connection::handleFrameHeader()
{
    if (rxAvailable() < sizeof(FrameHeader))
        return Step::kBlocked;
    std::memcpy(&header_, rxData(), sizeof(header_));
    rxConsume(sizeof(header_));

    if (header_.magic != kFrameMagic) {
        // "HDS" plus another version digit is a client of another
        // protocol generation, not noise: say which.
        if (std::memcmp(header_.magic.data(), kFrameMagic.data(), 3)
                == 0
            && std::isdigit(static_cast<unsigned char>(
                header_.magic[3])))
            protocolError("unsupported protocol version "
                          + std::string(header_.magic.data(), 4)
                          + " (this daemon speaks HDS2)");
        else
            protocolError("bad frame magic");
        return Step::kMore;
    }
    if (!validFrameType(header_.type)) {
        protocolError("unknown frame type "
                      + std::to_string(header_.type));
        return Step::kMore;
    }
    if (header_.length > kMaxFrameLength) {
        protocolError("frame length " + std::to_string(header_.length)
                      + " exceeds protocol limit");
        return Step::kMore;
    }
    server_.metrics().counter("server.frames_received").add();

    switch (static_cast<FrameType>(header_.type)) {
      case FrameType::kPing:
      case FrameType::kStats:
        // Empty requests; any payload is tolerated and discarded.
        need_ = 0;
        state_ = RxState::kControl;
        return Step::kMore;

      case FrameType::kSubmitJob:
        if (header_.length < sizeof(job_id_)) {
            // No id to key the refusal with: a connection-level ERROR.
            server_.metrics().counter("server.jobs_invalid").add();
            queueFrame(FrameType::kError,
                       jsonError("submit payload too short for its "
                                 "job id"));
            return nextFrame(header_.length);
        }
        job_started_ = Clock::now();
        need_ = static_cast<std::size_t>(
            std::min<std::uint64_t>(header_.length, kJobPrefix));
        state_ = RxState::kPrefix;
        return Step::kMore;

      case FrameType::kSubmitStream:
      case FrameType::kAttach: {
        // Small fixed-shape control frames; the trace itself arrives
        // later as SUBMIT_DATA, so an oversized payload here is a
        // protocol violation, not a big upload.
        constexpr std::uint64_t cap = sizeof(std::uint64_t)
            + sizeof(std::uint32_t) + kMaxSessionName
            + sizeof(JobOptions);
        if (header_.length > cap) {
            protocolError("oversized stream control frame");
            return Step::kMore;
        }
        need_ = static_cast<std::size_t>(header_.length);
        state_ = RxState::kControl;
        return Step::kMore;
      }

      case FrameType::kSubmitEnd:
        if (header_.length < sizeof(std::uint64_t)) {
            protocolError("short SUBMIT_END frame");
            return Step::kMore;
        }
        need_ = sizeof(std::uint64_t);
        state_ = RxState::kControl;
        return Step::kMore;

      case FrameType::kSubmitData:
        if (header_.length < sizeof(std::uint64_t)) {
            protocolError("short SUBMIT_DATA frame");
            return Step::kMore;
        }
        need_ = sizeof(std::uint64_t);
        state_ = RxState::kPrefix;
        return Step::kMore;

      default:
        // A response frame type from a client is a protocol
        // violation; drop the connection once the error flushes.
        protocolError("unexpected response-type frame");
        return Step::kMore;
    }
}

Connection::Step
Connection::handleControl()
{
    if (rxAvailable() < need_)
        return Step::kBlocked;
    const std::string payload(rxData(), need_);
    rxConsume(need_);
    const std::uint64_t leftover = header_.length - need_;

    switch (static_cast<FrameType>(header_.type)) {
      case FrameType::kPing:
        queueFrame(FrameType::kPong,
                   std::string("{\"status\": \"ok\"}\n"));
        break;

      case FrameType::kStats:
        server_.metrics().counter("server.stats_requests").add();
        queueFrame(FrameType::kStatsReply, server_.metrics().toJson());
        break;

      case FrameType::kSubmitStream: {
        std::uint64_t job_id = 0;
        std::string name;
        JobOptions options;
        std::string err;
        if (!parseStreamOpen(payload, job_id, name, options, err)) {
            protocolError(err);
            return Step::kMore;
        }
        if (!validateJobOptions(options, err)) {
            server_.metrics().counter("server.jobs_invalid").add();
            queueFrame(FrameType::kJobError,
                       jobPayload(job_id, jsonError(err)));
        } else if (streams_.count(job_id) != 0) {
            queueFrame(FrameType::kJobError,
                       jobPayload(job_id,
                                  jsonError("stream job id already "
                                            "active on this "
                                            "connection")));
        } else {
            StreamOpenOutcome outcome =
                server_.streamOpen(*this, job_id, name, options);
            if (outcome.session == nullptr)
                queueFrame(outcome.busy ? FrameType::kJobBusy
                                        : FrameType::kJobError,
                           jobPayload(job_id, outcome.refusal_json));
            else
                streams_.emplace(job_id,
                                 std::move(outcome.session));
        }
        break;
      }

      case FrameType::kSubmitEnd: {
        std::uint64_t job_id = 0;
        std::memcpy(&job_id, payload.data(), sizeof(job_id));
        const auto it = streams_.find(job_id);
        // An unknown id is tolerated: the session may already have
        // answered (a rejected trace) and retired while the END was
        // in flight.
        if (it != streams_.end())
            it->second->end();
        break;
      }

      case FrameType::kAttach: {
        std::uint64_t follow_id = 0;
        std::string name;
        std::string err;
        if (!parseAttach(payload, follow_id, name, err)) {
            protocolError(err);
            return Step::kMore;
        }
        queueFrame(FrameType::kAttachReply,
                   jobPayload(follow_id,
                              server_.streamAttach(*this, follow_id,
                                                   name)));
        break;
      }

      default:
        break;
    }
    if (dead_)
        return Step::kFatal;
    return nextFrame(leftover);
}

Connection::Step
Connection::handlePrefix()
{
    if (rxAvailable() < need_)
        return Step::kBlocked;
    std::memcpy(&job_id_, rxData(), sizeof(job_id_));

    if (static_cast<FrameType>(header_.type) == FrameType::kSubmitData) {
        rxConsume(sizeof(job_id_));
        const std::uint64_t left = header_.length - sizeof(job_id_);
        const auto it = streams_.find(job_id_);
        if (it == streams_.end()) {
            // The session already answered and retired (e.g. a
            // rejected trace) while the client kept uploading within
            // its credit; discard the remainder to keep framing.
            return nextFrame(left);
        }
        session_ = it->second;
        data_left_ = left;
        state_ = RxState::kData;
        return Step::kMore;
    }

    if (header_.length < kJobPrefix) {
        rxConsume(need_);
        return invalidJob("submit payload too short for job options",
                          0);
    }
    JobOptions options;
    std::memcpy(&options, rxData() + sizeof(job_id_), sizeof(options));
    rxConsume(kJobPrefix);
    const std::uint64_t trace_bytes = header_.length - kJobPrefix;

    std::string err;
    if (!validateJobOptions(options, err))
        return invalidJob(err, trace_bytes);
    if (trace_bytes > server_.config().max_trace_bytes) {
        server_.metrics().counter("server.jobs_invalid").add();
        // A body past the server limit is never worth draining.
        protocolError("trace exceeds server limit of "
                      + std::to_string(server_.config().max_trace_bytes)
                      + " bytes");
        return Step::kMore;
    }
    session_ = server_.openJob(job_id_, options, trace_bytes);
    data_left_ = trace_bytes;
    state_ = RxState::kData;
    return Step::kMore;
}

Connection::Step
Connection::handleData()
{
    const bool job =
        static_cast<FrameType>(header_.type) == FrameType::kSubmitJob;
    while (data_left_ > 0) {
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(rxAvailable(), data_left_));
        if (take == 0)
            return Step::kBlocked;
        std::string err;
        if (!session_->feed(rxData(), take, err)) {
            protocolError(err);
            return Step::kMore;
        }
        server_.metrics().counter("server.trace_bytes_received")
            .add(take);
        rxConsume(take);
        data_left_ -= take;
        if (job) {
            // A bad trace is refused the moment it shows, before the
            // rest of its body is buffered.
            const std::string error = session_->error();
            if (!error.empty())
                return rejectJob(error, data_left_);
        }
    }
    return job ? finishJob() : nextFrame(0);
}

Connection::Step
Connection::finishJob()
{
    session_->end();
    const std::string error = session_->error();
    if (!error.empty())
        return rejectJob(error, 0);
    server_.metrics().histogram("job.trace_read_us")
        .record(usSince(job_started_, Clock::now()));

    const std::string busy =
        server_.dispatchJob(*this, job_id_, std::move(session_));
    if (busy.empty())
        ++in_flight_;
    else
        queueFrame(FrameType::kJobBusy, jobPayload(job_id_, busy));
    if (dead_)
        return Step::kFatal;
    return nextFrame(0);
}

Connection::Step
Connection::handleDrain()
{
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(drain_left_, rxAvailable()));
    rxConsume(take);
    drain_left_ -= take;
    if (drain_left_ > 0)
        return Step::kBlocked;
    state_ = RxState::kFrameHeader;
    return Step::kMore;
}

Connection::Step
Connection::rejectJob(const std::string &message,
                      std::uint64_t leftover)
{
    if (leftover > kDrainCap) {
        // Too much unread payload to be worth discarding.
        protocolError(message);
        return Step::kMore;
    }
    queueFrame(FrameType::kJobError,
               jobPayload(job_id_, jsonError(message)));
    if (dead_)
        return Step::kFatal;
    return nextFrame(leftover);
}

Connection::Step
Connection::invalidJob(const std::string &message,
                       std::uint64_t leftover)
{
    server_.metrics().counter("server.jobs_invalid").add();
    return rejectJob(message, leftover);
}

Connection::Step
Connection::nextFrame(std::uint64_t leftover)
{
    session_.reset();
    data_left_ = 0;
    if (leftover > kDrainCap) {
        // Implausible payload: answer, then hang up.
        closing_ = true;
        return Step::kMore;
    }
    drain_left_ = leftover;
    state_ = leftover > 0 ? RxState::kDrain : RxState::kFrameHeader;
    return Step::kMore;
}

void
Connection::protocolError(const std::string &message)
{
    queueFrame(FrameType::kError, jsonError(message));
    closing_ = true;
}

void
Connection::queueFrame(FrameType type, const std::string &payload)
{
    FrameHeader header;
    header.type = static_cast<std::uint32_t>(type);
    header.length = payload.size();
    OutBuf buf;
    buf.bytes.reserve(sizeof(header) + payload.size());
    buf.bytes.append(reinterpret_cast<const char *>(&header),
                     sizeof(header));
    buf.bytes.append(payload);
    outbox_.push_back(std::move(buf));
    flushOut();
}

bool
Connection::flushOut()
{
    if (dead_)
        return false;
    while (!outbox_.empty()) {
        OutBuf &front = outbox_.front();
        const std::size_t left = front.bytes.size() - front.off;
        ssize_t put;
        do {
            // MSG_NOSIGNAL: a peer that vanished mid-response must
            // surface as EPIPE, not kill the embedding process.
            put = ::send(fd_, front.bytes.data() + front.off, left,
                         MSG_NOSIGNAL);
        } while (put < 0 && errno == EINTR);
        if (put < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            dead_ = true;
            return false;
        }
        front.off += static_cast<std::size_t>(put);
        if (front.off == front.bytes.size())
            outbox_.pop_front();
    }
    return true;
}

} // namespace hdrd::service
