/**
 * @file
 * The hdrd service wire protocol: length-prefixed frames over a
 * stream socket (unix-domain or TCP).
 *
 * Every message is one frame:
 *
 *     +--------+--------+----------------+----------------------+
 *     | magic  | type   | payload length | payload (length B)   |
 *     | 4 B    | u32 LE | u64 LE         |                      |
 *     +--------+--------+----------------+----------------------+
 *
 * Requests:
 *   SUBMIT_JOB  payload = u64 job id + JobOptions (fixed 168 bytes)
 *               + a complete TRC2 trace image. The server validates
 *               the trace header as soon as its bytes arrive and
 *               rejects a bad trace before buffering its body. A
 *               client may keep many SUBMIT_JOB frames in flight on
 *               one connection; each gets exactly one keyed answer
 *               (JOB_REPORT, JOB_BUSY or JOB_ERROR), in completion
 *               order, not submission order.
 *   STATS       empty payload; answered with STATS_REPLY.
 *   PING        empty payload; answered with PONG.
 *   SUBMIT_STREAM payload = u64 job id + u32 session-name length +
 *               name bytes + JobOptions. Opens a streaming
 *               submission: the trace image follows as SUBMIT_DATA
 *               chunks instead of riding in one frame. Answered
 *               immediately with CREDIT granting the initial upload
 *               window; analysis runs concurrently with ingestion
 *               and emits JOB_PARTIAL reports, then the final
 *               JOB_REPORT (byte-identical to SUBMIT_JOB's).
 *   SUBMIT_DATA payload = u64 job id + raw trace bytes. A client
 *               must not exceed its granted credit; chunk boundaries
 *               are arbitrary (they may split the trace header or a
 *               record anywhere).
 *   SUBMIT_END  payload = u64 job id. No further data; the final
 *               JOB_REPORT (or JOB_ERROR) follows once the engine
 *               drains the session.
 *   ATTACH      payload = u64 follow id + u32 session-name length +
 *               name bytes. Follows a live streaming session
 *               read-only: answered with ATTACH_REPLY, then every
 *               subsequent JOB_PARTIAL and the final JOB_REPORT are
 *               mirrored to this connection keyed by the follow id.
 *
 * Responses (JSON payloads, job-keyed ones behind a u64 id):
 *   BUSY / ERROR connection-level answers, never about one job: the
 *                connection limit ({"status":"busy",
 *                "retry_after_ms":N,...}, then a close), a malformed
 *                frame ({"status":"error","error":"..."}, then a
 *                close), or a SUBMIT_JOB too short to carry its id.
 *   STATS_REPLY  the hdrd-metrics-v1 snapshot.
 *   PONG         {"status":"ok"}.
 *   JOB_REPORT   the deterministic race report (hdrd-report-v1).
 *   JOB_BUSY     bounded backpressure: the queue was full, retry
 *                after retry_after_ms.
 *   JOB_ERROR    the job was refused (bad options, bad trace).
 *   CREDIT       u64 granted bytes. Flow control for SUBMIT_DATA:
 *                grants are cumulative and sized so a session's
 *                buffered-but-unanalyzed bytes stay under the
 *                server's per-session cap.
 *   JOB_PARTIAL  hdrd-report-partial-v1 JSON: a byte-stable
 *                prefix-consistent snapshot of the final report,
 *                emitted every partial-interval ops.
 *   ATTACH_REPLY status JSON.
 *
 * All integers little-endian, matching the TRC2 trace format. A
 * frame carrying the retired HDS1 magic is answered with an ERROR
 * naming the version, then the connection closes.
 */

#ifndef HDRD_SERVICE_PROTOCOL_HH
#define HDRD_SERVICE_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <string>

namespace hdrd::service
{

/** Frame magic: "HDS" plus the protocol version byte. */
constexpr std::array<char, 4> kFrameMagic = {'H', 'D', 'S', '2'};

/** Frame types. Requests below 100, responses at or above. */
enum class FrameType : std::uint32_t
{
    kStats = 2,
    kPing = 3,
    kSubmitJob = 4,     ///< u64 job id + JobOptions + trace
    kSubmitStream = 6,  ///< u64 id + name + JobOptions
    kSubmitData = 7,    ///< u64 id + raw trace bytes
    kSubmitEnd = 8,     ///< u64 id
    kAttach = 9,        ///< u64 follow id + session name

    kBusy = 101,        ///< connection-level refusal
    kError = 102,       ///< connection-level error
    kStatsReply = 103,
    kPong = 104,
    kJobReport = 106,   ///< u64 job id + hdrd-report-v1
    kJobBusy = 107,     ///< u64 job id + busy JSON
    kJobError = 108,    ///< u64 job id + error JSON
    kCredit = 109,      ///< u64 id + u64 granted bytes
    kJobPartial = 110,  ///< u64 id + partial-report JSON
    kAttachReply = 111, ///< u64 follow id + status JSON
};

/** True for frame type values this protocol version defines. */
bool validFrameType(std::uint32_t type);

/** Fixed frame prefix. */
struct FrameHeader
{
    std::array<char, 4> magic = kFrameMagic;
    std::uint32_t type = 0;
    std::uint64_t length = 0;  ///< payload bytes that follow
};

static_assert(sizeof(FrameHeader) == 16, "frame layout drifted");

/**
 * Protocol-level hard cap on one frame's payload. Servers may (and
 * hdrd_served does) enforce a smaller --max-trace limit.
 */
constexpr std::uint64_t kMaxFrameLength = 1ULL << 32;

/** JobOptions::flags bits. */
enum : std::uint32_t
{
    /** Omit the nondeterministic host timing block from the report. */
    kJobOmitHostTiming = 1u << 0,

    /**
     * Ignore the fault spec recorded in the trace header (by default
     * a trace recorded under faults replays under them, exactly like
     * `hdrd_sim --replay`).
     */
    kJobIgnoreTraceFaults = 1u << 1,
};

/**
 * Fixed-width analysis configuration preceding the trace bytes in a
 * SUBMIT_JOB payload. Defaults mirror hdrd_sim's, so a report from the
 * daemon diffs byte-identical against `hdrd_sim --replay
 * --report-json` golden output.
 */
struct JobOptions
{
    std::uint32_t version = 1;
    std::uint32_t flags = 0;

    /** instr::ToolMode value (0 native, 1 continuous, 2 demand). */
    std::uint32_t mode = 2;

    /** runtime::DetectorKind value. */
    std::uint32_t detector = 0;

    std::uint64_t seed = 1;
    std::uint32_t granule_shift = 3;
    std::uint32_t cores = 4;

    /** PMU sample-after value for the demand regime. */
    std::uint64_t sav = 1;

    /**
     * Fault spec override, NUL-padded ("" = honour the trace's own
     * recorded spec unless kJobIgnoreTraceFaults is set).
     */
    std::array<char, 128> fault_spec{};
};

static_assert(sizeof(JobOptions) == 168, "job options layout drifted");

/**
 * Validate a received JobOptions.
 * @return false with @p err set when any field is outside the range
 *         the engine accepts.
 */
bool validateJobOptions(const JobOptions &options, std::string &err);

/**
 * Exact-count EINTR-safe socket I/O.
 * @return false on EOF, error, or (readAllFd) peer close.
 */
bool readAllFd(int fd, void *buf, std::size_t n);
bool writeAllFd(int fd, const void *buf, std::size_t n);

/**
 * Read and validate one frame header.
 * @return false with @p err set on short read, bad magic, unknown
 *         type, or an over-limit length.
 */
bool readFrameHeader(int fd, FrameHeader &header, std::string &err);

/** Write one frame (header + payload). @return false on I/O error. */
bool writeFrame(int fd, FrameType type, const void *payload,
                std::size_t length);

/** writeFrame for string payloads (the JSON responses). */
bool writeFrame(int fd, FrameType type, const std::string &payload);

/**
 * Read a whole frame payload of @p length bytes into @p out.
 * @return false on short read.
 */
bool readPayload(int fd, std::uint64_t length, std::string &out);

/** True for the job-keyed response types. */
inline bool
isJobKeyed(FrameType type)
{
    return type == FrameType::kJobReport
        || type == FrameType::kJobBusy
        || type == FrameType::kJobError
        || type == FrameType::kCredit
        || type == FrameType::kJobPartial
        || type == FrameType::kAttachReply;
}

/** Longest session name SUBMIT_STREAM/ATTACH accepts. */
constexpr std::uint32_t kMaxSessionName = 256;

/**
 * Serialize a SUBMIT_STREAM payload: u64 job id, u32 name length,
 * name bytes, JobOptions.
 */
std::string streamOpenPayload(std::uint64_t job_id,
                              const std::string &name,
                              const JobOptions &options);

/**
 * Parse a SUBMIT_STREAM payload.
 * @return false with @p err set on a malformed payload (short, bad
 *         name length, name over kMaxSessionName).
 */
bool parseStreamOpen(const std::string &payload, std::uint64_t &job_id,
                     std::string &name, JobOptions &options,
                     std::string &err);

/** Serialize an ATTACH payload: u64 follow id + u32 len + name. */
std::string attachPayload(std::uint64_t follow_id,
                          const std::string &name);

/** Parse an ATTACH payload (same validation as parseStreamOpen). */
bool parseAttach(const std::string &payload, std::uint64_t &follow_id,
                 std::string &name, std::string &err);

/** Serialize a CREDIT body (the u64 grant after the job id). */
std::string creditBody(std::uint64_t granted_bytes);

/**
 * Parse a CREDIT body (payload after splitJobPayload).
 * @return false when the body is not exactly a u64.
 */
bool parseCreditBody(const std::string &body,
                     std::uint64_t &granted_bytes);

/**
 * Write one job-keyed frame: u64 LE job id, then @p payload.
 * @return false on I/O error.
 */
bool writeJobFrame(int fd, FrameType type, std::uint64_t job_id,
                   const std::string &payload);

/**
 * Split a received job-keyed payload into (job id, JSON body).
 * @return false when the payload is shorter than the 8-byte id.
 */
bool splitJobPayload(const std::string &payload,
                     std::uint64_t &job_id, std::string &body);

/** Serialize a job-keyed response payload (id prefix + body). */
std::string jobPayload(std::uint64_t job_id,
                       const std::string &body);

/**
 * The ERROR response payload:
 * {"status": "error", "error": "<message>"} with the JSON specials
 * escaped.
 */
std::string jsonError(const std::string &message);

} // namespace hdrd::service

#endif // HDRD_SERVICE_PROTOCOL_HH
