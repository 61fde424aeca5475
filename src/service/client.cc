#include "service/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string_view>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace hdrd::service
{

namespace
{

/** Socket bytes per read, and the stream upload chunk. */
constexpr std::size_t kChunk = 64 * 1024;

/** Append one frame whose payload is @p parts, in order. */
void
appendFrame(std::string &tx, FrameType type,
            std::initializer_list<std::string_view> parts = {})
{
    FrameHeader header;
    header.type = static_cast<std::uint32_t>(type);
    for (const std::string_view part : parts)
        header.length += part.size();
    tx.append(reinterpret_cast<const char *>(&header), sizeof(header));
    for (const std::string_view part : parts)
        tx.append(part);
}

/** The bytes of a fixed-layout value, as the protocol sends them. */
template <typename T>
std::string_view
wire(const T &value)
{
    return {reinterpret_cast<const char *>(&value), sizeof(value)};
}

/** A job's final answer, or an unkeyed refusal standing for one. */
bool
isAnswer(FrameType type)
{
    return type == FrameType::kJobReport || type == FrameType::kJobBusy
        || type == FrameType::kJobError || type == FrameType::kBusy
        || type == FrameType::kError;
}

/** Minimal field extraction: "retry_after_ms": N. */
std::uint64_t
parseRetryAfter(const std::string &json)
{
    const std::string key = "\"retry_after_ms\": ";
    const std::size_t at = json.find(key);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(json.c_str() + at + key.size(), nullptr,
                         10);
}

/**
 * Store a job-keyed answer; an unkeyed BUSY or ERROR refuses the
 * whole connection and stands for the keyed answer of every job.
 */
void
setAnswer(Response &response, FrameType type, std::string payload)
{
    response.transport_ok = true;
    response.type = type == FrameType::kBusy    ? FrameType::kJobBusy
                  : type == FrameType::kError ? FrameType::kJobError
                                              : type;
    response.payload = std::move(payload);
    if (response.isBusy())
        response.retry_after_ms = parseRetryAfter(response.payload);
}

/** Give every job still without an answer @p answer. */
void
answerRest(std::vector<Response> &responses, const Response &answer)
{
    for (Response &response : responses) {
        if (!response.transport_ok)
            response = answer;
    }
}

} // namespace

std::string
serverStateLine(const std::string &stats_json)
{
    const std::string key = "\"server.draining\": ";
    const std::size_t at = stats_json.find(key);
    if (at == std::string::npos)
        return "";
    const long long value = std::strtoll(
        stats_json.c_str() + at + key.size(), nullptr, 10);
    return value != 0 ? "state: DRAINING\n" : "state: RUNNING\n";
}

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    rx_.clear();
    tx_.clear();
    tx_pos_ = 0;
    pings_ = 0;
}

bool
Client::connectTo(int family, const void *addr, unsigned len,
                  const std::string &what, std::string &err)
{
    fd_ = ::socket(family, SOCK_STREAM, 0);
    if (fd_ < 0) {
        last_errno_ = errno;
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // Non-blocking once, for good: every exchange polls.
    if (::connect(fd_, static_cast<const sockaddr *>(addr), len) != 0
        || ::fcntl(fd_, F_SETFL, O_NONBLOCK) != 0) {
        last_errno_ = errno;
        err = "cannot connect to " + what + ": " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
Client::connectUnix(const std::string &path, std::string &err)
{
    close();
    last_errno_ = 0;
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: " + path;
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    return connectTo(AF_UNIX, &addr, sizeof(addr), path, err);
}

bool
Client::connectTcp(const std::string &host, std::uint16_t port,
                   std::string &err)
{
    close();
    last_errno_ = 0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string numeric =
        host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
        err = "not a numeric IPv4 host: " + host;
        return false;
    }
    return connectTo(AF_INET, &addr, sizeof(addr),
                     numeric + ":" + std::to_string(port), err);
}

bool
Client::peerAnswersPing() const
{
    sockaddr_storage peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(fd_, reinterpret_cast<sockaddr *>(&peer), &len)
        != 0)
        return false;
    Client probe;
    probe.setTimeouts(io_timeout_ms_);
    std::string err;
    // Any answer will do: a daemon at its connection limit refuses
    // with BUSY, which still proves it alive.
    return probe.connectTo(peer.ss_family, &peer, len, "peer", err)
        && probe.ping().transport_ok;
}

int
Client::exchange(const Refill &refill, const OnFrame &on_frame,
                 bool owes_jobs)
{
    using Clock = std::chrono::steady_clock;
    const auto fail = [this](int err) {
        last_errno_ = err;
        close();
        return err;
    };
    if (fd_ < 0)
        return fail(ENOTCONN);
    const std::chrono::milliseconds timeout(io_timeout_ms_);
    auto quiet_since = Clock::now();
    bool pinged = false;    // a liveness PING awaits any byte back
    bool writable = true;   // until the daemon hangs up on a write

    for (;;) {
        // Hand over every complete frame buffered so far.
        std::size_t pos = 0;
        Verdict verdict = Verdict::kMore;
        while (verdict == Verdict::kMore
               && rx_.size() - pos >= sizeof(FrameHeader)) {
            FrameHeader header;
            std::memcpy(&header, rx_.data() + pos, sizeof(header));
            const auto type = static_cast<FrameType>(header.type);
            const std::size_t skip =
                isJobKeyed(type) ? sizeof(std::uint64_t) : 0;
            if (header.magic != kFrameMagic
                || !validFrameType(header.type)
                || header.length > kMaxFrameLength
                || header.length < skip)
                return fail(EPROTO);
            if (rx_.size() - pos - sizeof(header) < header.length)
                break;
            const char *payload = rx_.data() + pos + sizeof(header);
            pos += sizeof(header) + header.length;
            std::uint64_t id = 0;
            std::memcpy(&id, payload, skip);
            std::string body(payload + skip, header.length - skip);
            if (type == FrameType::kPong && pings_ > 0)
                --pings_;  // a PONG this exchange did not ask for
            else
                verdict = on_frame(type, id, body);
        }
        rx_.erase(0, pos);
        if (verdict == Verdict::kBad)
            return fail(EPROTO);
        if (verdict == Verdict::kDone)
            return 0;

        if (tx_pos_ == tx_.size()) {
            tx_.clear();
            tx_pos_ = 0;
            if (writable && refill) {
                // Time spent in the caller's source (a slow producer
                // on a pipe) is not the daemon's silence.
                const auto entered = Clock::now();
                refill(tx_);
                quiet_since += Clock::now() - entered;
            }
        }
        int wait_ms = -1;
        if (timeout.count() > 0) {
            const auto quiet = Clock::now() - quiet_since;
            if (quiet >= timeout) {
                // A job may just be long: ask the daemon, on this
                // connection, whether its I/O plane is alive. If that
                // PING goes unanswered too, this connection may only
                // be parked behind a window above --max-pipeline: a
                // PING on a fresh connection decides.
                if (!owes_jobs || (pinged && !peerAnswersPing()))
                    return fail(ETIMEDOUT);
                if (!pinged) {
                    appendFrame(tx_, FrameType::kPing);
                    ++pings_;
                    pinged = true;
                }
                quiet_since = Clock::now();
                continue;
            }
            wait_ms = static_cast<int>(
                std::chrono::ceil<std::chrono::milliseconds>(
                    timeout - quiet)
                    .count());
        }

        pollfd pfd{fd_, POLLIN, 0};
        if (writable && tx_pos_ < tx_.size())
            pfd.events |= POLLOUT;
        if (::poll(&pfd, 1, wait_ms) < 0) {
            if (errno == EINTR)
                continue;
            return fail(errno);
        }
        if (pfd.revents & POLLOUT) {
            const ssize_t n = ::send(fd_, tx_.data() + tx_pos_,
                                     tx_.size() - tx_pos_,
                                     MSG_NOSIGNAL);
            if (n >= 0) {
                tx_pos_ += static_cast<std::size_t>(n);
                quiet_since = Clock::now();
            } else if (errno == EPIPE || errno == ECONNRESET) {
                // The daemon hung up, maybe after answering (BUSY at
                // its connection limit): read what it sent.
                writable = false;
            } else if (errno != EAGAIN && errno != EINTR) {
                return fail(errno);
            }
        }
        if (pfd.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) {
            char buf[kChunk];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0)
                return fail(ECONNRESET);
            if (n > 0) {
                rx_.append(buf, static_cast<std::size_t>(n));
                quiet_since = Clock::now();
                pinged = false;
            } else if (errno != EAGAIN && errno != EINTR) {
                return fail(errno);
            }
        }
    }
}

Response
Client::control(FrameType request)
{
    Response response;
    appendFrame(tx_, request);
    response.transport_errno = exchange(
        nullptr,
        [&](FrameType type, std::uint64_t, std::string &body) {
            if (isJobKeyed(type))
                return Verdict::kMore;
            response.transport_ok = true;
            response.type = type;
            response.payload = std::move(body);
            return Verdict::kDone;
        },
        false);
    return response;
}

Response
Client::submit(const JobOptions &options,
               const std::string &trace_bytes)
{
    return submitPipelined({{options, &trace_bytes}}, 1).front();
}

Response
Client::stats()
{
    return control(FrameType::kStats);
}

Response
Client::ping()
{
    return control(FrameType::kPing);
}

std::vector<Response>
Client::submitPipelined(const std::vector<PipelineSubmission> &jobs,
                        std::size_t window)
{
    std::vector<Response> responses(jobs.size());
    if (jobs.empty())
        return responses;
    window = std::max<std::size_t>(1, window);
    std::size_t sent = 0;
    std::size_t answered = 0;
    // Fill the window; a small job rides along with the one before
    // it, a large one goes out alone.
    const auto refill = [&](std::string &tx) {
        for (; sent < jobs.size() && sent - answered < window
               && tx.size() < kChunk;
             ++sent) {
            const std::uint64_t id = sent;
            const PipelineSubmission &job = jobs[sent];
            appendFrame(tx, FrameType::kSubmitJob,
                        {wire(id), wire(job.options),
                         job.trace_bytes
                             ? std::string_view(*job.trace_bytes)
                             : std::string_view()});
        }
    };
    const int err = exchange(
        refill,
        [&](FrameType type, std::uint64_t id, std::string &body) {
            if (!isAnswer(type))
                return Verdict::kBad;
            if (!isJobKeyed(type)) {
                Response refusal;
                setAnswer(refusal, type, std::move(body));
                answerRest(responses, refusal);
                return Verdict::kDone;
            }
            if (id >= sent || responses[id].transport_ok)
                return Verdict::kBad;
            setAnswer(responses[id], type, std::move(body));
            return ++answered == jobs.size() ? Verdict::kDone
                                             : Verdict::kMore;
        },
        true);
    if (err != 0) {
        Response lost;
        lost.transport_errno = err;
        answerRest(responses, lost);
    }
    return responses;
}

Response
Client::submitStream(const JobOptions &options,
                     const std::string &name,
                     const StreamSource &source,
                     const StreamHandlers &handlers)
{
    Response response;
    if (!source)
        return response;
    // One stream per exchange; the wire id only has to be unique on
    // this connection.
    const std::uint64_t job_id = 1;
    std::uint64_t granted = 0;
    std::uint64_t sent = 0;
    bool eof = false;
    std::vector<char> chunk(kChunk);
    appendFrame(tx_, FrameType::kSubmitStream,
                {streamOpenPayload(job_id, name, options)});
    const auto refill = [&](std::string &tx) {
        if (eof || sent == granted)
            return;
        const std::uint64_t room =
            std::min<std::uint64_t>(kChunk, granted - sent);
        const std::size_t got =
            source(chunk.data(), static_cast<std::size_t>(room));
        sent += got;
        eof = got == 0;
        appendFrame(tx,
                    eof ? FrameType::kSubmitEnd : FrameType::kSubmitData,
                    {wire(job_id), std::string_view(chunk.data(), got)});
    };
    response.transport_errno = exchange(
        refill,
        [&](FrameType type, std::uint64_t, std::string &body) {
            std::uint64_t grant = 0;
            switch (type) {
              case FrameType::kCredit:
                if (!parseCreditBody(body, grant))
                    return Verdict::kBad;
                granted = std::max(granted, grant);
                if (handlers.on_credit)
                    handlers.on_credit(granted);
                return Verdict::kMore;
              case FrameType::kJobPartial:
                if (handlers.on_partial)
                    handlers.on_partial(body);
                return Verdict::kMore;
              default:
                if (!isAnswer(type))
                    return Verdict::kBad;
                setAnswer(response, type, std::move(body));
                return Verdict::kDone;
            }
        },
        true);
    return response;
}

Response
Client::follow(const std::string &name,
               const StreamHandlers &handlers)
{
    Response response;
    const std::uint64_t follow_id = 1;
    appendFrame(tx_, FrameType::kAttach,
                {attachPayload(follow_id, name)});
    response.transport_errno = exchange(
        nullptr,
        [&](FrameType type, std::uint64_t, std::string &body) {
            switch (type) {
              case FrameType::kJobPartial:
                if (handlers.on_partial)
                    handlers.on_partial(body);
                return Verdict::kMore;
              case FrameType::kAttachReply:
                if (body.find("\"status\": \"ok\"") != std::string::npos)
                    return Verdict::kMore;
                [[fallthrough]];
              case FrameType::kBusy:
              case FrameType::kError:
                // A refused attach or connection, as is.
                response.transport_ok = true;
                response.type = type;
                response.payload = std::move(body);
                return Verdict::kDone;
              default:
                if (!isAnswer(type))
                    return Verdict::kBad;
                setAnswer(response, type, std::move(body));
                return Verdict::kDone;
            }
        },
        true);
    return response;
}

} // namespace hdrd::service
