/**
 * @file
 * Client side of the hdrd service protocol: connect, submit traces
 * (pipelined over one kept-alive connection, or streamed), fetch
 * stats. Used by tools/hdrd_client, the service tests, and the
 * service benchmarks.
 */

#ifndef HDRD_SERVICE_CLIENT_HH
#define HDRD_SERVICE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace hdrd::service
{

/** Outcome of one request/response exchange. */
struct Response
{
    /** Transport and framing succeeded. */
    bool transport_ok = false;

    /** Response frame type (valid when transport_ok). */
    FrameType type = FrameType::kError;

    /** Response payload (JSON; job-id prefix already stripped). */
    std::string payload;

    /** Parsed retry hint from a BUSY reply (0 otherwise). */
    std::uint64_t retry_after_ms = 0;

    /**
     * errno captured at the failing syscall when transport_ok is
     * false (0 when unknown — e.g. the response never started).
     * EOF mid-frame reports as ECONNRESET.
     */
    int transport_errno = 0;

    bool isReport() const
    {
        return transport_ok && type == FrameType::kJobReport;
    }

    bool isBusy() const
    {
        return transport_ok && type == FrameType::kJobBusy;
    }
};

/**
 * Render a daemon's lifecycle state from its hdrd-metrics-v1 STATS
 * snapshot: "state: DRAINING\n" when the server.draining gauge is
 * up, "state: RUNNING\n" when it is present and down, "" when the
 * snapshot has no such gauge (older daemons, merged documents).
 * hdrd_client --stats prints this to stderr ahead of the raw
 * snapshot so a draining daemon is explicit instead of a buried
 * gauge (stderr so piped JSON stays machine-parseable).
 */
std::string serverStateLine(const std::string &stats_json);

/** One pipelined submission (trace bytes are borrowed, not copied). */
struct PipelineSubmission
{
    JobOptions options;
    const std::string *trace_bytes = nullptr;
};

/**
 * Pull-based byte source for a streaming submission: fill up to
 * @p max bytes into @p dst, return the count, 0 at end of input.
 * Called only when the credit window has room, so a pipe or stdin
 * source is read no faster than the server can analyze.
 */
using StreamSource =
    std::function<std::size_t(char *dst, std::size_t max)>;

/** Live-event callbacks for submitStream()/follow(). */
struct StreamHandlers
{
    /** Each JOB_PARTIAL's hdrd-report-partial-v1 JSON, in order. */
    std::function<void(const std::string &json)> on_partial;

    /** Each cumulative CREDIT grant (submitStream only). */
    std::function<void(std::uint64_t granted_bytes)> on_credit;
};

/**
 * One connection to an hdrd_served instance.
 *
 * submitPipelined() keeps a bounded window of SUBMIT_JOB frames in
 * flight and correlates the out-of-order responses by job id;
 * submit() is the window-1 case. stats()/ping() are request/response.
 * The connection stays usable across calls (keep-alive).
 */
class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect over a unix-domain socket. */
    bool connectUnix(const std::string &path, std::string &err);

    /**
     * Connect over TCP to @p host:@p port. @p host must be a numeric
     * IPv4 address or "localhost" (fleet daemons are addressed
     * explicitly; no resolver dependency on the submission path).
     */
    bool connectTcp(const std::string &host, std::uint16_t port,
                    std::string &err);

    bool connected() const { return fd_ >= 0; }

    /**
     * errno of the last failed connect or exchange (0 = none).
     * ECONNREFUSED here is how a dead fleet daemon announces itself.
     */
    int lastErrno() const { return last_errno_; }

    /**
     * Bound every subsequent send/recv on this connection to
     * @p timeout_ms (SO_RCVTIMEO/SO_SNDTIMEO). A hung daemon then
     * surfaces as a transport failure (EAGAIN) instead of a stalled
     * client. Call after connect; 0 restores blocking I/O.
     */
    bool setTimeouts(std::uint64_t timeout_ms);

    void close();

    /**
     * Submit a trace image already in memory (one SUBMIT_JOB).
     * @param trace_bytes complete TRC2 file contents
     */
    Response submit(const JobOptions &options,
                    const std::string &trace_bytes);

    /** Request the metrics snapshot (STATS). */
    Response stats();

    /** Liveness probe (PING). */
    Response ping();

    /**
     * Pipeline @p jobs over this connection with at most @p window
     * SUBMIT_JOB frames outstanding, collecting out-of-order
     * responses by job id.
     *
     * The window bound is what makes the exchange deadlock-free
     * against the server's own per-connection in-flight cap: one
     * response is consumed before each new frame past the window.
     *
     * @return one Response per job, in submission order. A transport
     *         failure fails the remaining responses
     *         (transport_ok == false) and closes the connection. An
     *         unkeyed BUSY or ERROR — the daemon refusing the whole
     *         connection, e.g. at its connection limit — becomes
     *         every remaining job's JOB_BUSY/JOB_ERROR answer, also
     *         when it arrives after a failed write.
     */
    std::vector<Response> submitPipelined(
        const std::vector<PipelineSubmission> &jobs,
        std::size_t window);

    /**
     * Stream a trace (SUBMIT_STREAM + SUBMIT_DATA/SUBMIT_END) while
     * concurrently consuming CREDIT grants, JOB_PARTIAL reports, and
     * the final response. The
     * socket runs non-blocking with poll() on both directions for
     * the duration, so a server that pauses reading (credit
     * exhausted, partial unread) can never deadlock against a
     * client blocked writing. Uploads never outrun the cumulative
     * credit and go out in chunks of at most 64 KiB.
     *
     * @param name    session name other clients can ATTACH to
     * @param source  trace bytes, pulled as credit permits
     * @return the final JOB_REPORT/JOB_ERROR/JOB_BUSY response (the
     *         report is byte-identical to a SUBMIT_JOB of the same
     *         bytes and options).
     */
    Response submitStream(const JobOptions &options,
                          const std::string &name,
                          const StreamSource &source,
                          const StreamHandlers &handlers = {});

    /**
     * Follow a live streaming session by name (ATTACH): tail its
     * JOB_PARTIAL reports through @p handlers until the final
     * response, which is returned. An attach refusal returns a
     * Response with type kAttachReply carrying the status JSON.
     */
    Response follow(const std::string &name,
                    const StreamHandlers &handlers = {});

  private:
    Response roundTrip(FrameType type, const std::string &payload);

    /** Write one SUBMIT_JOB frame. */
    bool sendJob(std::uint64_t job_id, const JobOptions &options,
                 const std::string &trace_bytes);

    /**
     * Read one job-keyed response frame.
     * @return false when the exchange is over: @p response then
     *         holds an unkeyed refusal as its keyed equivalent, or a
     *         transport failure.
     */
    bool readJobResponse(std::uint64_t &job_id, Response &response);

    /** Toggle O_NONBLOCK on the connection socket. */
    bool setNonBlocking(bool on);

    int fd_ = -1;
    int last_errno_ = 0;
};

} // namespace hdrd::service

#endif // HDRD_SERVICE_CLIENT_HH
