#include "service/protocol.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "pmu/faults.hh"

namespace hdrd::service
{

bool
validFrameType(std::uint32_t type)
{
    switch (static_cast<FrameType>(type)) {
      case FrameType::kStats:
      case FrameType::kPing:
      case FrameType::kSubmitJob:
      case FrameType::kSubmitStream:
      case FrameType::kSubmitData:
      case FrameType::kSubmitEnd:
      case FrameType::kAttach:
      case FrameType::kBusy:
      case FrameType::kError:
      case FrameType::kStatsReply:
      case FrameType::kPong:
      case FrameType::kJobReport:
      case FrameType::kJobBusy:
      case FrameType::kJobError:
      case FrameType::kCredit:
      case FrameType::kJobPartial:
      case FrameType::kAttachReply:
        return true;
    }
    return false;
}

bool
validateJobOptions(const JobOptions &options, std::string &err)
{
    if (options.version != 1) {
        err = "unsupported job options version "
            + std::to_string(options.version);
        return false;
    }
    if (options.mode > 2) {
        err = "invalid mode " + std::to_string(options.mode);
        return false;
    }
    if (options.detector > 2) {
        err = "invalid detector " + std::to_string(options.detector);
        return false;
    }
    if (options.granule_shift > 16) {
        err = "invalid granule_shift "
            + std::to_string(options.granule_shift);
        return false;
    }
    if (options.cores == 0 || options.cores > 1024) {
        err = "invalid core count " + std::to_string(options.cores);
        return false;
    }
    if (options.sav == 0) {
        err = "invalid sample-after value 0";
        return false;
    }
    // The spec must be NUL-terminated within the field and parse.
    if (options.fault_spec.back() != '\0') {
        err = "unterminated fault spec";
        return false;
    }
    const std::string spec(options.fault_spec.data());
    if (!spec.empty()) {
        pmu::FaultConfig config;
        std::string spec_err;
        if (!pmu::resolveFaultSpec(spec, config, spec_err)) {
            err = "bad fault spec: " + spec_err;
            return false;
        }
    }
    return true;
}

bool
readAllFd(int fd, void *buf, std::size_t n)
{
    char *dst = static_cast<char *>(buf);
    std::size_t have = 0;
    while (have < n) {
        const ssize_t got = ::read(fd, dst + have, n - have);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0) {
            // A peer close mid-exchange is a connection loss to the
            // caller; surface it as ECONNRESET so transport errors
            // classify uniformly (a clean read(2) EOF leaves errno
            // untouched, which would report whatever was stale).
            errno = ECONNRESET;
            return false;
        }
        have += static_cast<std::size_t>(got);
    }
    return true;
}

bool
writeAllFd(int fd, const void *buf, std::size_t n)
{
    const char *src = static_cast<const char *>(buf);
    std::size_t sent = 0;
    while (sent < n) {
        // Always a socket here; MSG_NOSIGNAL turns a dead peer into
        // EPIPE instead of a process-wide SIGPIPE.
        const ssize_t put =
            ::send(fd, src + sent, n - sent, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(put);
    }
    return true;
}

bool
readFrameHeader(int fd, FrameHeader &header, std::string &err)
{
    if (!readAllFd(fd, &header, sizeof(header))) {
        err = "connection closed";
        return false;
    }
    if (header.magic != kFrameMagic) {
        err = "bad frame magic";
        return false;
    }
    if (!validFrameType(header.type)) {
        err = "unknown frame type " + std::to_string(header.type);
        return false;
    }
    if (header.length > kMaxFrameLength) {
        err = "frame length " + std::to_string(header.length)
            + " exceeds protocol limit";
        return false;
    }
    return true;
}

bool
writeFrame(int fd, FrameType type, const void *payload,
           std::size_t length)
{
    FrameHeader header;
    header.type = static_cast<std::uint32_t>(type);
    header.length = length;
    if (!writeAllFd(fd, &header, sizeof(header)))
        return false;
    return length == 0 || writeAllFd(fd, payload, length);
}

bool
writeFrame(int fd, FrameType type, const std::string &payload)
{
    return writeFrame(fd, type, payload.data(), payload.size());
}

bool
readPayload(int fd, std::uint64_t length, std::string &out)
{
    out.resize(static_cast<std::size_t>(length));
    return length == 0 || readAllFd(fd, out.data(), out.size());
}

bool
writeJobFrame(int fd, FrameType type, std::uint64_t job_id,
              const std::string &payload)
{
    return writeFrame(fd, type, jobPayload(job_id, payload));
}

bool
splitJobPayload(const std::string &payload, std::uint64_t &job_id,
                std::string &body)
{
    if (payload.size() < sizeof(job_id))
        return false;
    std::memcpy(&job_id, payload.data(), sizeof(job_id));
    body.assign(payload, sizeof(job_id),
                payload.size() - sizeof(job_id));
    return true;
}

std::string
jobPayload(std::uint64_t job_id, const std::string &body)
{
    std::string out;
    out.reserve(sizeof(job_id) + body.size());
    out.append(reinterpret_cast<const char *>(&job_id),
               sizeof(job_id));
    out.append(body);
    return out;
}

namespace
{

/** Shared body of the id + name payloads (SUBMIT_STREAM, ATTACH). */
std::string
idNamePayload(std::uint64_t id, const std::string &name)
{
    std::string out;
    const auto len = static_cast<std::uint32_t>(name.size());
    out.reserve(sizeof(id) + sizeof(len) + name.size());
    out.append(reinterpret_cast<const char *>(&id), sizeof(id));
    out.append(reinterpret_cast<const char *>(&len), sizeof(len));
    out.append(name);
    return out;
}

/**
 * Parse the id + name prefix; @p tail_len bytes must remain after
 * the name (the JobOptions for SUBMIT_STREAM, nothing for ATTACH).
 * @return offset of the tail, or 0 with @p err set.
 */
std::size_t
parseIdName(const std::string &payload, std::size_t tail_len,
            std::uint64_t &id, std::string &name, std::string &err)
{
    std::uint32_t len = 0;
    if (payload.size() < sizeof(id) + sizeof(len)) {
        err = "short stream payload";
        return 0;
    }
    std::memcpy(&id, payload.data(), sizeof(id));
    std::memcpy(&len, payload.data() + sizeof(id), sizeof(len));
    if (len == 0 || len > kMaxSessionName) {
        err = "bad session name length " + std::to_string(len);
        return 0;
    }
    const std::size_t tail = sizeof(id) + sizeof(len) + len;
    if (payload.size() != tail + tail_len) {
        err = "stream payload size mismatch";
        return 0;
    }
    name.assign(payload, sizeof(id) + sizeof(len), len);
    return tail;
}

} // namespace

std::string
streamOpenPayload(std::uint64_t job_id, const std::string &name,
                  const JobOptions &options)
{
    std::string out = idNamePayload(job_id, name);
    out.append(reinterpret_cast<const char *>(&options),
               sizeof(options));
    return out;
}

bool
parseStreamOpen(const std::string &payload, std::uint64_t &job_id,
                std::string &name, JobOptions &options,
                std::string &err)
{
    const std::size_t tail = parseIdName(payload, sizeof(options),
                                         job_id, name, err);
    if (tail == 0)
        return false;
    std::memcpy(&options, payload.data() + tail, sizeof(options));
    return true;
}

std::string
attachPayload(std::uint64_t follow_id, const std::string &name)
{
    return idNamePayload(follow_id, name);
}

bool
parseAttach(const std::string &payload, std::uint64_t &follow_id,
            std::string &name, std::string &err)
{
    return parseIdName(payload, 0, follow_id, name, err) != 0;
}

std::string
creditBody(std::uint64_t granted_bytes)
{
    return std::string(
        reinterpret_cast<const char *>(&granted_bytes),
        sizeof(granted_bytes));
}

bool
parseCreditBody(const std::string &body, std::uint64_t &granted_bytes)
{
    if (body.size() != sizeof(granted_bytes))
        return false;
    std::memcpy(&granted_bytes, body.data(), sizeof(granted_bytes));
    return true;
}

std::string
jsonError(const std::string &message)
{
    std::string out = "{\"status\": \"error\", \"error\": \"";
    // The error strings are ASCII diagnostics; escape the JSON
    // specials that could plausibly appear in them.
    for (char c : message) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += "\"}\n";
    return out;
}

} // namespace hdrd::service
