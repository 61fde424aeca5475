#include "service/client.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

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
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        last_errno_ = errno;
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        last_errno_ = errno;
        err = "cannot connect to " + path + ": "
            + std::strerror(errno);
        close();
        return false;
    }
    return true;
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
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        last_errno_ = errno;
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        last_errno_ = errno;
        err = "cannot connect to " + numeric + ":"
            + std::to_string(port) + ": " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
Client::setTimeouts(std::uint64_t timeout_ms)
{
    if (fd_ < 0)
        return false;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                        sizeof(tv)) == 0
        && ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv,
                        sizeof(tv)) == 0;
}

Response
Client::roundTrip(FrameType type, const std::string &payload)
{
    Response response;
    if (fd_ < 0)
        return response;
    errno = 0;
    if (!writeFrame(fd_, type, payload)) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }

    FrameHeader header;
    std::string err;
    if (!readFrameHeader(fd_, header, err)) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }
    if (!readPayload(fd_, header.length, response.payload)) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }
    response.transport_ok = true;
    response.type = static_cast<FrameType>(header.type);
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
    return roundTrip(FrameType::kStats, "");
}

Response
Client::ping()
{
    return roundTrip(FrameType::kPing, "");
}

bool
Client::sendJob(std::uint64_t job_id, const JobOptions &options,
                const std::string &trace_bytes)
{
    std::string payload;
    payload.reserve(sizeof(job_id) + sizeof(options)
                    + trace_bytes.size());
    payload.append(reinterpret_cast<const char *>(&job_id),
                   sizeof(job_id));
    payload.append(reinterpret_cast<const char *>(&options),
                   sizeof(options));
    payload.append(trace_bytes);
    return writeFrame(fd_, FrameType::kSubmitJob, payload);
}

bool
Client::readJobResponse(std::uint64_t &job_id, Response &response)
{
    FrameHeader header;
    std::string err;
    errno = 0;
    if (!readFrameHeader(fd_, header, err)) {
        last_errno_ = response.transport_errno = errno;
        return false;
    }
    std::string payload;
    if (!readPayload(fd_, header.length, payload)) {
        last_errno_ = response.transport_errno = errno;
        return false;
    }
    const auto type = static_cast<FrameType>(header.type);
    if (!isJobKeyed(type)) {
        setAnswer(response, type, std::move(payload));
        return false;
    }
    std::string body;
    if (!splitJobPayload(payload, job_id, body)) {
        last_errno_ = response.transport_errno = EPROTO;
        return false;
    }
    setAnswer(response, type, std::move(body));
    return true;
}

bool
Client::setNonBlocking(bool on)
{
    if (fd_ < 0)
        return false;
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0)
        return false;
    const int want = on ? (flags | O_NONBLOCK)
                        : (flags & ~O_NONBLOCK);
    return ::fcntl(fd_, F_SETFL, want) == 0;
}

Response
Client::submitStream(const JobOptions &options,
                     const std::string &name,
                     const StreamSource &source,
                     const StreamHandlers &handlers)
{
    Response response;
    if (fd_ < 0 || !source)
        return response;
    // One stream per exchange; the wire id only has to be unique on
    // this connection.
    const std::uint64_t job_id = 1;

    errno = 0;
    if (!writeFrame(fd_, FrameType::kSubmitStream,
                    streamOpenPayload(job_id, name, options))) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }
    if (!setNonBlocking(true)) {
        last_errno_ = response.transport_errno = errno;
        close();
        return response;
    }

    // From here both directions are non-blocking: the server may
    // stall its reads (credit spent, a partial still unflushed to
    // us) at any moment, so the client must keep consuming frames
    // while it has data queued — a blocking write here is how the
    // classic two-sided pipe deadlock happens.
    constexpr std::size_t kChunk = 64 * 1024;
    std::string rx;
    std::size_t rx_pos = 0;
    std::string tx;
    std::size_t tx_pos = 0;
    std::uint64_t granted = 0;
    std::uint64_t sent = 0;
    bool eof = false;
    bool done = false;
    bool failed = false;
    std::vector<char> chunk(kChunk);

    const auto fail = [&](int err) {
        last_errno_ = response.transport_errno = err;
        failed = done = true;
    };
    const auto appendFrame = [&tx](FrameType type,
                                   std::uint64_t id,
                                   const char *data,
                                   std::size_t n) {
        FrameHeader header;
        header.type = static_cast<std::uint32_t>(type);
        header.length = sizeof(id) + n;
        tx.append(reinterpret_cast<const char *>(&header),
                  sizeof(header));
        tx.append(reinterpret_cast<const char *>(&id), sizeof(id));
        if (n > 0)
            tx.append(data, n);
    };
    const auto handleFrame = [&](FrameType type,
                                 std::string payload) {
        std::uint64_t id = 0;
        std::string body;
        if (isJobKeyed(type)
            && !splitJobPayload(payload, id, body)) {
            fail(EPROTO);
            return;
        }
        switch (type) {
        case FrameType::kCredit: {
            std::uint64_t grant = 0;
            if (!parseCreditBody(body, grant)) {
                fail(EPROTO);
                return;
            }
            granted = std::max(granted, grant);
            if (handlers.on_credit)
                handlers.on_credit(granted);
            return;
        }
        case FrameType::kJobPartial:
            if (handlers.on_partial)
                handlers.on_partial(body);
            return;
        case FrameType::kJobReport:
        case FrameType::kJobBusy:
        case FrameType::kJobError:
            setAnswer(response, type, std::move(body));
            done = true;
            return;
        case FrameType::kBusy:
        case FrameType::kError:
            // The daemon refused the connection or a frame.
            setAnswer(response, type, std::move(payload));
            done = true;
            return;
        default:
            fail(EPROTO);
        }
    };

    while (!done) {
        // Top up the outbound buffer within the credit window.
        if (tx_pos == tx.size() && !eof) {
            tx.clear();
            tx_pos = 0;
            if (sent < granted) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(kChunk,
                                            granted - sent));
                const std::size_t got =
                    source(chunk.data(), want);
                if (got == 0) {
                    eof = true;
                    appendFrame(FrameType::kSubmitEnd, job_id,
                                nullptr, 0);
                } else {
                    sent += got;
                    appendFrame(FrameType::kSubmitData, job_id,
                                chunk.data(), got);
                }
            }
        }

        pollfd pfd{fd_, POLLIN, 0};
        if (tx_pos < tx.size())
            pfd.events |= POLLOUT;
        const int rc = ::poll(&pfd, 1, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fail(errno);
            break;
        }
        if (pfd.revents & (POLLERR | POLLNVAL)) {
            fail(ECONNRESET);
            break;
        }

        if ((pfd.revents & POLLOUT) && tx_pos < tx.size()) {
            const ssize_t n = ::send(fd_, tx.data() + tx_pos,
                                     tx.size() - tx_pos,
                                     MSG_NOSIGNAL);
            if (n < 0) {
                if (errno != EAGAIN && errno != EWOULDBLOCK
                    && errno != EINTR) {
                    fail(errno);
                    break;
                }
            } else {
                tx_pos += static_cast<std::size_t>(n);
            }
        }

        if (pfd.revents & (POLLIN | POLLHUP)) {
            char buf[64 * 1024];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0) {
                fail(ECONNRESET);
                break;
            }
            if (n < 0) {
                if (errno != EAGAIN && errno != EWOULDBLOCK
                    && errno != EINTR) {
                    fail(errno);
                    break;
                }
            } else {
                rx.append(buf, static_cast<std::size_t>(n));
            }

            // Parse every complete frame buffered so far.
            while (!done
                   && rx.size() - rx_pos >= sizeof(FrameHeader)) {
                FrameHeader header;
                std::memcpy(&header, rx.data() + rx_pos,
                            sizeof(header));
                if (header.magic != kFrameMagic
                    || !validFrameType(header.type)
                    || header.length > kMaxFrameLength) {
                    fail(EPROTO);
                    break;
                }
                if (rx.size() - rx_pos
                    < sizeof(header) + header.length)
                    break;
                std::string payload(
                    rx.data() + rx_pos + sizeof(header),
                    static_cast<std::size_t>(header.length));
                rx_pos += sizeof(header)
                    + static_cast<std::size_t>(header.length);
                handleFrame(static_cast<FrameType>(header.type),
                            std::move(payload));
            }
            if (rx_pos > 0 && rx_pos == rx.size()) {
                rx.clear();
                rx_pos = 0;
            }
        }
    }

    setNonBlocking(false);
    if (failed || !response.transport_ok)
        close();
    return response;
}

Response
Client::follow(const std::string &name,
               const StreamHandlers &handlers)
{
    Response response;
    if (fd_ < 0)
        return response;
    const std::uint64_t follow_id = 1;

    errno = 0;
    if (!writeFrame(fd_, FrameType::kAttach,
                    attachPayload(follow_id, name))) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }

    // Attach-side is read-only, so plain blocking reads suffice.
    for (;;) {
        FrameHeader header;
        std::string err;
        errno = 0;
        if (!readFrameHeader(fd_, header, err)) {
            last_errno_ = response.transport_errno = errno;
            return response;
        }
        std::string payload;
        if (!readPayload(fd_, header.length, payload)) {
            last_errno_ = response.transport_errno = errno;
            return response;
        }
        const auto type = static_cast<FrameType>(header.type);
        if (!isJobKeyed(type)) {
            // A connection-level refusal (plain BUSY or ERROR);
            // surface it verbatim.
            response.transport_ok = true;
            response.type = type;
            response.payload = std::move(payload);
            return response;
        }
        std::uint64_t id = 0;
        std::string body;
        if (!splitJobPayload(payload, id, body))
            return response;
        switch (type) {
        case FrameType::kAttachReply:
            if (body.find("\"status\": \"ok\"")
                == std::string::npos) {
                response.transport_ok = true;
                response.type = type;
                response.payload = std::move(body);
                return response;
            }
            break;
        case FrameType::kJobPartial:
            if (handlers.on_partial)
                handlers.on_partial(body);
            break;
        default:
            setAnswer(response, type, std::move(body));
            return response;
        }
    }
}

std::vector<Response>
Client::submitPipelined(const std::vector<PipelineSubmission> &jobs,
                        std::size_t window)
{
    std::vector<Response> responses(jobs.size());
    if (fd_ < 0 || jobs.empty())
        return responses;
    window = std::max<std::size_t>(1, window);

    std::size_t next_send = 0;
    std::size_t outstanding = 0;
    bool writable = true;
    while (next_send < jobs.size() || outstanding > 0) {
        // Fill the window, then trade one response per new frame.
        while (writable && next_send < jobs.size()
               && outstanding < window) {
            const PipelineSubmission &job = jobs[next_send];
            errno = 0;
            if (sendJob(next_send, job.options,
                        job.trace_bytes ? *job.trace_bytes
                                        : std::string())) {
                ++next_send;
                ++outstanding;
                continue;
            }
            last_errno_ = errno;
            if (errno != EPIPE && errno != ECONNRESET) {
                Response lost;
                lost.transport_errno = last_errno_;
                answerRest(responses, lost);
                close();
                return responses;
            }
            // The daemon closed on us, maybe after answering (BUSY
            // at its connection limit): read what it sent.
            writable = false;
        }
        std::uint64_t job_id = 0;
        Response response;
        if (!readJobResponse(job_id, response)) {
            answerRest(responses, response);
            close();
            return responses;
        }
        if (job_id >= jobs.size() || responses[job_id].transport_ok) {
            Response bad;
            bad.transport_errno = last_errno_ = EPROTO;
            answerRest(responses, bad);
            close();
            return responses;
        }
        responses[job_id] = std::move(response);
        --outstanding;
    }
    return responses;
}

} // namespace hdrd::service
