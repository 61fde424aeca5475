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
 * Every call is one exchange on the connection's single poll loop:
 * the socket is non-blocking from connect on, the loop writes what
 * the call allows next (a pipelined job within the window, a stream
 * chunk within the credit, or one control or ATTACH frame) while it
 * reads, and hands each frame it reads to the call by type and job
 * id. So a daemon that stops reading can never deadlock against a
 * client blocked writing. submit() is submitPipelined() with window
 * 1. The connection stays usable across calls (keep-alive).
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
     * Bound silence on the connection to @p timeout_ms (0, the
     * default, waits forever). Silence is no byte moving in either
     * direction, so a long upload is never silent. A STATS or PING
     * exchange fails after one silent timeout. An exchange still
     * owed a job's answer sends a PING on the same connection
     * instead; after a second silent timeout it PINGs the daemon on
     * a fresh connection and fails only if that goes unanswered too.
     * The daemon's I/O plane answers PING however long the job runs,
     * so a long job is awaited and a hung daemon is not. Time spent
     * in a StreamSource is not silence. A timed-out exchange reports
     * ETIMEDOUT. The setting outlives reconnects.
     */
    void setTimeouts(std::uint64_t timeout_ms)
    {
        io_timeout_ms_ = timeout_ms;
    }

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
     * responses by job id. Above the daemon's --max-pipeline the
     * daemon stops reading at the next job, and a liveness PING
     * queued behind it waits too; the fresh-connection PING then
     * tells the parked connection from a hung daemon.
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
     * consuming CREDIT grants, JOB_PARTIAL reports, and the final
     * response. Uploads never outrun the cumulative credit and go
     * out in chunks of at most 64 KiB.
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
     * Response with type kAttachReply carrying the status JSON; a
     * refused connection returns the unkeyed BUSY or ERROR as is.
     */
    Response follow(const std::string &name,
                    const StreamHandlers &handlers = {});

  private:
    /** What an exchange makes of one frame it read. */
    enum class Verdict
    {
        kMore,  ///< keep reading
        kDone,  ///< the exchange is over
        kBad,   ///< a frame this exchange cannot take (EPROTO)
    };

    /** Append the frames to write next to the drained tx buffer. */
    using Refill = std::function<void(std::string &tx)>;

    /**
     * Take one frame; @p id is the job id of a job-keyed frame
     * (split off @p body), 0 for an unkeyed one.
     */
    using OnFrame = std::function<Verdict(
        FrameType type, std::uint64_t id, std::string &body)>;

    /**
     * The one read loop: write tx_ and whatever @p refill appends
     * each time it drains, and hand every frame read to @p on_frame
     * until it says kDone. @p owes_jobs selects the silence rule of
     * setTimeouts(). After a write the daemon hung up on, the loop
     * still reads what it sent first.
     * @return 0 when on_frame finished the exchange, else the
     *         transport errno (the connection is then closed).
     */
    int exchange(const Refill &refill, const OnFrame &on_frame,
                 bool owes_jobs);

    /** One STATS or PING request and its reply. */
    Response control(FrameType request);

    /** Shared tail of connectUnix()/connectTcp(). */
    bool connectTo(int family, const void *addr, unsigned len,
                   const std::string &what, std::string &err);

    /**
     * Whether a fresh connection to this one's daemon answers PING
     * within the timeout: a hung daemon does not, a healthy one that
     * parked this connection does.
     */
    bool peerAnswersPing() const;

    int fd_ = -1;
    int last_errno_ = 0;
    std::uint64_t io_timeout_ms_ = 0;

    /**
     * Bytes read but not yet handed to an exchange, and frames
     * queued but not yet written. Both outlive an exchange, so a
     * frame is never cut and a reply read early is not lost.
     */
    std::string rx_;
    std::string tx_;
    std::size_t tx_pos_ = 0;

    /** Liveness PINGs queued whose PONG, to be skipped, is owed. */
    std::uint32_t pings_ = 0;
};

} // namespace hdrd::service

#endif // HDRD_SERVICE_CLIENT_HH
