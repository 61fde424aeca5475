/**
 * @file
 * The per-connection protocol state machine of the epoll I/O plane.
 *
 * A Connection owns one non-blocking client socket and parses HDS2
 * frames incrementally from whatever bytes have arrived. Trace bytes
 * never collect in a socket buffer: a SUBMIT_JOB frame's body and
 * each SUBMIT_DATA chunk go straight into a stream::StreamSession,
 * which validates the TRC2 header the moment its bytes are in and
 * decodes records as they land. A SUBMIT_JOB is a session that gets
 * one data chunk and an end; the connection hands it to the worker
 * pool at the frame's last byte.
 *
 * Writes are asymmetric: responses go to an outbound queue flushed
 * opportunistically and on EPOLLOUT, so a slow or stalled reader can
 * never block the shard thread (it just accumulates its own bounded
 * backlog of at most max-pipeline responses).
 *
 * Flow control is interest-mask based, not thread-blocking: SUBMIT_JOB
 * frames keep reading until the per-connection in-flight cap, then
 * reading pauses and TCP backpressure holds the client until
 * completions free slots.
 *
 * The Connection runs entirely on its shard thread; the only
 * cross-thread artifact is the liveness token workers check before
 * running a job whose client has hung up.
 */

#ifndef HDRD_SERVICE_CONNECTION_HH
#define HDRD_SERVICE_CONNECTION_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "service/protocol.hh"

namespace hdrd::stream
{
class StreamSession;
}

namespace hdrd::service
{

class Server;

class Connection
{
  public:
    /**
     * Adopt @p fd (set non-blocking by the caller).
     * @param id the shard-unique tag used in the event loop
     */
    Connection(int fd, std::uint64_t id, Server &server);

    /** Closes the socket and invalidates the liveness token. */
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }
    std::uint64_t id() const { return id_; }

    /**
     * Socket readable: pull one chunk and run the state machine.
     * @return false when the connection must be dropped (peer close
     *         or fatal I/O error).
     */
    bool onReadable();

    /** Socket writable: flush the outbound queue. */
    bool onWritable();

    /**
     * Deliver a job-keyed response (shard thread, from the
     * completion inbox) and resume parsing any already-buffered
     * frames.
     * @param counted true for worker-pool jobs occupying an
     *        in-flight slot; false for streaming-session events
     *        (CREDIT, JOB_PARTIAL, and stream finals)
     * @return false when the connection must be dropped.
     */
    bool deliver(bool counted, std::uint64_t job_id, FrameType type,
                 std::string body);

    /** Current epoll interest mask (EPOLLIN/EPOLLOUT bits). */
    std::uint32_t interest() const;

    /** Interest mask last synced into the event loop (by the shard). */
    std::uint32_t lastInterest() const { return last_interest_; }
    void setLastInterest(std::uint32_t m) { last_interest_ = m; }

    /** A queued protocol error has flushed; time to close. */
    bool wantClose() const
    {
        return closing_ && outbox_.empty();
    }

    /** Nothing in flight, nothing buffered out (drain may close). */
    bool idle() const
    {
        return in_flight_ == 0 && outbox_.empty();
    }

    /**
     * Liveness token shared with dispatched jobs: cleared when the
     * connection dies so workers skip abandoned work.
     */
    std::shared_ptr<std::atomic<bool>> token() const
    {
        return token_;
    }

  private:
    enum class RxState
    {
        kFrameHeader,   ///< accumulating the 16-byte frame header
        kControl,       ///< a small request payload, whole
        kPrefix,        ///< job id (+ JobOptions for SUBMIT_JOB)
        kData,          ///< feeding trace bytes into a session
        kDrain,         ///< discarding a rejected payload remainder
    };

    /** One state-machine step's verdict. */
    enum class Step
    {
        kMore,      ///< progressed; run the machine again
        kBlocked,   ///< needs more input (or is flow-paused)
        kFatal,     ///< unrecoverable; drop the connection now
    };

    /** Bytes buffered but not yet consumed by the state machine. */
    std::size_t rxAvailable() const { return rx_.size() - rx_pos_; }

    const char *rxData() const { return rx_.data() + rx_pos_; }
    void rxConsume(std::size_t n);

    /** True while reading is paused by flow control. */
    bool rxPaused() const;

    /** Run the state machine over the buffered bytes. */
    bool pump();

    Step handleFrameHeader();
    Step handleControl();
    Step handlePrefix();
    Step handleData();
    Step handleDrain();

    /** SUBMIT_JOB's last byte arrived: hand the job to the pool. */
    Step finishJob();

    /**
     * Queue the current job's JOB_ERROR, then discard @p leftover
     * payload bytes to keep framing; an implausibly large leftover
     * closes the connection instead.
     */
    Step rejectJob(const std::string &message, std::uint64_t leftover);

    /** rejectJob() counting a refused submission. */
    Step invalidJob(const std::string &message, std::uint64_t leftover);

    /** Continue with the next frame after @p leftover drain bytes. */
    Step nextFrame(std::uint64_t leftover);

    /** Queue a fatal protocol error and close once it flushes. */
    void protocolError(const std::string &message);

    void queueFrame(FrameType type, const std::string &payload);

    /** Write as much of the outbox as the socket accepts. */
    bool flushOut();

    int fd_;
    std::uint64_t id_;
    Server &server_;
    std::shared_ptr<std::atomic<bool>> token_;

    // --- inbound ---
    std::string rx_;
    std::size_t rx_pos_ = 0;
    RxState state_ = RxState::kFrameHeader;
    FrameHeader header_{};

    /** Bytes the kControl/kPrefix step waits for. */
    std::size_t need_ = 0;

    /** Wire id of the current SUBMIT_JOB / SUBMIT_DATA frame. */
    std::uint64_t job_id_ = 0;
    std::chrono::steady_clock::time_point job_started_{};

    /** Session the current frame's trace bytes feed. */
    std::shared_ptr<stream::StreamSession> session_;
    std::uint64_t data_left_ = 0;

    std::uint64_t drain_left_ = 0;

    /**
     * Live streaming sessions this connection is uploading, keyed by
     * wire job id; an entry retires when its own final delivers.
     * The destructor aborts whatever is still running, so a client
     * that hangs up mid-stream reclaims its session promptly.
     */
    std::map<std::uint64_t,
             std::shared_ptr<stream::StreamSession>> streams_;

    std::uint32_t in_flight_ = 0;
    bool closing_ = false;

    /** A write hit a fatal error; the connection is unusable. */
    bool dead_ = false;

    // --- outbound ---
    struct OutBuf
    {
        std::string bytes;
        std::size_t off = 0;
    };
    std::deque<OutBuf> outbox_;

    std::uint32_t last_interest_ = 0;
};

} // namespace hdrd::service

#endif // HDRD_SERVICE_CONNECTION_HH
