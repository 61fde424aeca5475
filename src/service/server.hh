/**
 * @file
 * The sharded race-analysis daemon core.
 *
 * Connection handling is a non-blocking epoll plane: one acceptor
 * thread distributes sockets round-robin over N I/O shard threads,
 * each running an EventLoop over per-connection state machines
 * (service/connection.hh). Every submission is a
 * stream::StreamSession fed straight from the socket buffer — a bad
 * trace is refused from its header before the body is buffered, and
 * the daemon never parks a thread per connection.
 *
 * A SUBMIT_JOB runs on the bounded WorkerPool: one reused engine per
 * worker, never shared; overload answers JOB_BUSY + a retry-after
 * hint instead of queueing unboundedly. A SUBMIT_STREAM runs on its
 * session's own engine thread, so a slow uploader never holds a
 * worker. Both run through StreamSession::run(). Completions are
 * marshalled back to the owning shard through a wake-pipe inbox,
 * which is what lets one connection carry many jobs with
 * out-of-order, job-id-correlated responses.
 *
 * SIGTERM (via requestStop()) drains gracefully: idle connections
 * close, in-flight and queued jobs complete and get their replies,
 * new connections are refused, then the process exits.
 *
 * Reports are deterministic: a given (trace, JobOptions) pair yields
 * a byte-identical hdrd-report-v1 JSON (modulo the optional host
 * timing block) regardless of worker count, shard count, submission
 * order, pipelining, streaming, or which worker ran it — each job is
 * an independent simulation.
 */

#ifndef HDRD_SERVICE_SERVER_HH
#define HDRD_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/simulator.hh"
#include "service/event_loop.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "service/worker_pool.hh"

namespace hdrd::stream
{
class StreamSession;
}

namespace hdrd::service
{

class Connection;

/** Verdict of a streaming-submission open. */
struct StreamOpenOutcome
{
    /** The live session to feed; null when refused. */
    std::shared_ptr<stream::StreamSession> session;

    /** Refused for capacity (JOB_BUSY) rather than error. */
    bool busy = false;

    /** Refusal payload (busy or error JSON) when session is null. */
    std::string refusal_json;
};

/** Daemon configuration. */
struct ServerConfig
{
    /** Unix-domain socket path (required). */
    std::string unix_path;

    /** TCP listen port on 127.0.0.1 (0 = unix socket only). */
    std::uint16_t tcp_port = 0;

    /** Analysis workers (0 = hardware concurrency). */
    std::uint32_t workers = 0;

    /** Bounded job queue capacity (overflow answers BUSY). */
    std::size_t queue_capacity = 16;

    /** Concurrent connections before refusing with BUSY. */
    std::uint32_t max_connections = 64;

    /** I/O shard threads (0 = derive from hardware concurrency). */
    std::uint32_t io_shards = 0;

    /**
     * Per-connection cap on in-flight pipelined jobs; past it the
     * shard stops reading the socket and TCP backpressure holds the
     * client until completions free slots.
     */
    std::uint32_t max_pipeline = 32;

    /**
     * Per-job timeout: jobs still queued past the deadline are
     * cancelled with an error reply instead of running (0 = none).
     */
    std::uint64_t job_timeout_ms = 0;

    /**
     * Debug/test knob: floor each job's service time by sleeping out
     * the remainder, making backpressure and drain tests timing-
     * robust. 0 in production.
     */
    std::uint64_t min_job_ms = 0;

    /** Largest accepted trace payload in bytes. */
    std::uint64_t max_trace_bytes = 1ULL << 30;

    /**
     * Graceful-drain bound: connections still holding unflushed
     * responses past this are force-closed so stop() terminates even
     * against clients that stopped reading.
     */
    std::uint64_t drain_linger_ms = 5000;

    /** Periodic metrics snapshot file ("" = disabled). */
    std::string metrics_dump;
    std::uint64_t metrics_interval_ms = 1000;

    /** Concurrent streaming sessions before refusing with BUSY. */
    std::uint32_t max_streams = 8;

    /**
     * Per-session cap on buffered-but-unanalyzed stream bytes; the
     * CREDIT window keeps uploads near this instead of BUSY-
     * rejecting whole jobs on memory pressure.
     */
    std::uint64_t stream_buffer = 4ull << 20;

    /** Executed ops between JOB_PARTIAL reports (0 = none). */
    std::uint64_t partial_interval_ops = 1ull << 20;

    /** Baseline platform/cost config jobs start from. */
    runtime::SimConfig base;
};

class Server
{
  public:
    explicit Server(ServerConfig config);

    /** Stops and joins everything (stop()). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the listeners and spawn the acceptor, I/O shards,
     * workers, and metrics dumper.
     * @return false with @p err set when a socket could not be set
     *         up.
     */
    bool start(std::string &err);

    /**
     * Graceful shutdown: refuse new connections, close idle ones,
     * let in-flight jobs finish and their replies flush, drain the
     * queue, join every thread, write a final metrics snapshot,
     * remove the unix socket. Idempotent.
     */
    void stop();

    /**
     * Async-signal-safe stop trigger (a SIGTERM handler calls this:
     * it only write()s to the wake pipe).
     */
    void requestStop();

    /** Block until requestStop() (or stop()) was invoked. */
    void waitForStopRequest();

    /** The shared observability registry. */
    Metrics &metrics() { return metrics_; }

    /** Resolved worker count. */
    std::uint32_t workers() const { return pool_->workers(); }

    /** Resolved I/O shard count. */
    std::uint32_t ioShards() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    /**
     * The BUSY retry hint as a pure function of observed load:
     * mean service time times (queue depth + 1), clamped to
     * [10 ms, 5 s]. Monotone nondecreasing in both arguments, so a
     * deepening queue never tells clients to come back *sooner* —
     * the property the fleet router's backoff leans on.
     * @param mean_exec_ms observed mean job service time (<= 0 uses
     *        a 50 ms prior, i.e. before any job completed)
     */
    static std::uint64_t retryAfterHintMs(double mean_exec_ms,
                                          std::size_t queue_depth);

    const ServerConfig &config() const { return config_; }

    // --- Connection (shard threads call these) ---

    /**
     * A session for one SUBMIT_JOB: fed the frame's @p trace_bytes,
     * then handed to dispatchJob().
     */
    std::shared_ptr<stream::StreamSession> openJob(
        std::uint64_t job_id, const JobOptions &options,
        std::uint64_t trace_bytes);

    /**
     * Queue a fully received job on the worker pool; its answer
     * reaches @p conn as a counted completion.
     * @return "" when admitted, else the JOB_BUSY payload
     */
    std::string dispatchJob(
        Connection &conn, std::uint64_t job_id,
        std::shared_ptr<stream::StreamSession> session);

    /**
     * Open a streaming submission (SUBMIT_STREAM). On success the
     * returned session is already started (its initial CREDIT is on
     * its way as a completion) and the connection feeds it
     * SUBMIT_DATA bytes directly.
     */
    StreamOpenOutcome streamOpen(Connection &conn,
                                 std::uint64_t job_id,
                                 const std::string &name,
                                 const JobOptions &options);

    /**
     * Follow a live streaming session by name (ATTACH).
     * @return the ATTACH_REPLY status JSON; on success the server
     *         mirrors the session's subsequent partials and final to
     *         this connection keyed by @p follow_id.
     */
    std::string streamAttach(Connection &conn, std::uint64_t follow_id,
                             const std::string &name);

  private:
    class IoShard;
    friend class IoShard;

    /** A job-keyed response on its way back to the shard. */
    struct Completion
    {
        std::uint64_t conn_id = 0;

        /** Occupies an in-flight pipeline slot (worker-pool jobs). */
        bool counted = true;

        std::uint64_t job_id = 0;
        FrameType type = FrameType::kJobError;
        std::string body;
    };

    /** One live streaming session and its subscribers. */
    struct StreamEntry
    {
        std::shared_ptr<stream::StreamSession> session;
        std::uint64_t owner_conn = 0;
        std::uint64_t owner_job = 0;

        /** (conn_id, follow_id) ATTACH subscribers. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>>
            followers;
    };

    void acceptLoop();
    void metricsLoop();

    /** Route a finished job's response to the owning shard. */
    void postCompletion(Completion completion);

    /** Shard bookkeeping when a connection goes away. */
    void connectionClosed(std::uint64_t conn_id = 0);

    /**
     * Mirror a session event to its uploader and every follower.
     * @param type kJobPartial, or kJobReport/kJobError for the final
     */
    void streamFanout(const std::string &name, FrameType type,
                      const std::string &json);

    /** Retire a completed session into the zombie list. */
    void streamFinished(const std::string &name);

    /** Join and free engine threads of completed sessions. */
    void reapStreamZombies();

    /** Suggested client retry delay from current load. */
    std::uint64_t retryAfterMs();

    ServerConfig config_;
    Metrics metrics_;
    std::unique_ptr<WorkerPool> pool_;

    /** One reusable analysis engine per worker, never shared. */
    std::vector<std::unique_ptr<runtime::Simulator>> engines_;

    std::vector<std::unique_ptr<IoShard>> shards_;

    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    WakePipe stop_wake_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> stop_requested_{false};
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;

    std::thread accept_thread_;
    std::thread metrics_thread_;
    std::mutex metrics_cv_mutex_;
    std::condition_variable metrics_cv_;

    std::atomic<std::uint32_t> active_connections_{0};

    /** Live streaming sessions by name, plus finished ones whose
     *  engine threads await joining. Guarded by streams_mutex_;
     *  never held while aborting or joining a session. */
    std::mutex streams_mutex_;
    std::map<std::string, StreamEntry> streams_;
    std::vector<std::shared_ptr<stream::StreamSession>>
        stream_zombies_;

    bool started_ = false;
    bool stopped_ = false;
};

} // namespace hdrd::service

#endif // HDRD_SERVICE_SERVER_HH
