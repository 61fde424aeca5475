/**
 * @file
 * The daemon's job object: incremental trace ingestion and the one
 * run path every submission takes.
 *
 * A StreamSession takes raw TRC2 bytes as they arrive (feed()),
 * parses them incrementally with the resumable trace::TraceReader
 * into per-thread operation queues, and runs the Simulator over them
 * (run()). Both submit kinds are sessions:
 *
 *  - A SUBMIT_JOB frame is a session with a declared size. The
 *    connection feeds it the frame's trace bytes and end(), then a
 *    worker-pool thread calls run() with that worker's reused engine.
 *    The input is complete when run() starts, so the engine replays
 *    the per-thread queues in place: no lock per op, and the
 *    simulator's fetch-ahead prefetch stays on.
 *  - A SUBMIT_STREAM is start()ed: it grants CREDIT, and its own
 *    engine thread calls run() while the upload continues, so a slow
 *    uploader never holds a pool worker. Thread bodies block inside
 *    next() until ingestion catches up, and nextIsPure() == false
 *    keeps the simulator from fetching ahead into a body that may
 *    block. The resident footprint is bounded by the credit window
 *    instead of the trace length.
 *
 * Flow control (started sessions) is cumulative byte credit: the
 * client may have sent at most `granted` bytes in total, and the
 * grant advances as the engine consumes records, keeping
 * buffered-but-unanalyzed bytes near buffer_cap. When the engine
 * starves on a thread whose records the exhausted window is holding
 * back (a heavily skewed thread interleaving in the uploaded image),
 * the session issues an emergency grant beyond the cap rather than
 * deadlocking — the memory cap is firm for well-interleaved traces
 * and soft against adversarial ones. A sized session is granted its
 * whole declared size up front and never sends CREDIT.
 *
 * Determinism: the simulator's schedule is a pure function of
 * (trace, config); blocking inside next() only delays the host, and
 * fetch-ahead is behaviour-neutral, so the final report is the same
 * bytes whichever way the input arrived. Every partial snapshot is
 * emitted at a deterministic executed-op count, so partial N of a
 * job is byte-stable too.
 *
 * Metrics: server.* outcome counters count every session; stream.*
 * counters and gauges count started sessions only.
 *
 * Thread model: feed()/end()/abort() are called by the owning I/O
 * shard thread and never block. Callbacks fire on either the feeding
 * thread (credit) or the engine thread (credit, partials, the final
 * report) and must be non-blocking and thread-safe — hdrd_served's
 * implementations only post completions to a shard inbox.
 */

#ifndef HDRD_STREAM_STREAM_SESSION_HH
#define HDRD_STREAM_STREAM_SESSION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "pmu/faults.hh"
#include "runtime/op.hh"
#include "runtime/simulator.hh"
#include "service/protocol.hh"
#include "trace/trace_io.hh"

namespace hdrd::service
{
class Metrics;
}

namespace hdrd::stream
{

/** Everything a StreamSession is parameterized by. */
struct StreamConfig
{
    /** Wire job id the uploader keyed the submission with. */
    std::uint64_t job_id = 0;

    /** Client-chosen session name (the ATTACH key; "" for jobs). */
    std::string name;

    /** Analysis options from the submit frame. */
    service::JobOptions options;

    /** Daemon-wide base configuration the options overlay. */
    runtime::SimConfig base;

    /**
     * Declared trace size (a SUBMIT_JOB frame's), checked against
     * the trace header; kUnknownSize for an open-ended upload.
     */
    std::uint64_t trace_bytes = trace::TraceReader::kUnknownSize;

    /** Target bound on buffered-but-unanalyzed bytes. */
    std::uint64_t buffer_cap = 4ull << 20;

    /** Granularity of credit advances (bytes per CREDIT frame). */
    std::uint64_t credit_quantum = 256 * 1024;

    /** Executed ops between partial reports (0 = no partials). */
    std::uint64_t partial_interval = 1ull << 20;

    /** Observability registry (nullptr = unmonitored). */
    service::Metrics *metrics = nullptr;
};

/**
 * Session event sinks for started sessions. See the file comment for
 * threading rules; any callback may be empty.
 */
struct StreamCallbacks
{
    /** New cumulative byte grant for the uploader. */
    std::function<void(std::uint64_t granted_total)> on_credit;

    /** A finalized hdrd-report-partial-v1 snapshot. */
    std::function<void(std::uint64_t seq, const std::string &json)>
        on_partial;

    /**
     * Terminal event, fired exactly once by the engine thread with
     * run()'s answer: the final hdrd-report-v1 (ok) or an error JSON
     * (rejected trace, truncation, abort).
     */
    std::function<void(bool ok, const std::string &json)> on_done;
};

/** A session's terminal answer. */
struct StreamFinal
{
    bool ok = false;

    /** hdrd-report-v1 when ok, else the error JSON. */
    std::string json;
};

/**
 * One analysis job. Create, feed bytes until end(), and run() — or
 * start() to have a dedicated engine thread run() it while bytes
 * still arrive. abort() (idempotent) cancels from any state; the
 * destructor aborts and joins the engine thread.
 */
class StreamSession
{
  public:
    explicit StreamSession(StreamConfig config,
                           StreamCallbacks callbacks = {});

    /** Aborts if still running and joins the engine thread. */
    ~StreamSession();

    StreamSession(const StreamSession &) = delete;
    StreamSession &operator=(const StreamSession &) = delete;

    /**
     * Streamed upload: issue the initial credit grant and launch an
     * engine thread that runs the job on a fresh engine and hands
     * the answer to on_done.
     */
    void start();

    /**
     * Ingest @p len trace bytes (chunk boundaries arbitrary). Never
     * blocks: bytes beyond parseable records buffer internally.
     * @return false with @p err set on a protocol violation (credit
     *         overrun, data after end()); trace-level problems show
     *         in error() and in run()'s answer instead.
     */
    bool feed(const char *data, std::size_t len, std::string &err);

    /** No further bytes: finish parsing, let the engine drain. */
    void end();

    /**
     * Cancel from any state (client hangup, daemon shutdown). The
     * engine unwinds through the simulator's cancellation path and
     * run() answers with the abort; safe to call repeatedly and
     * after completion.
     */
    void abort();

    /** Why the session failed so far ("" while healthy). */
    std::string error();

    /**
     * Run the analysis on @p engine (reconfigured for this job):
     * waits for the trace header, then consumes the operations,
     * blocking for bytes still to arrive. Called exactly once, by the
     * engine thread of a started session or by a worker-pool thread.
     * @return the final report, or the error that ended the session
     */
    StreamFinal run(runtime::Simulator &engine);

    /** True once run() has answered (or is about to). */
    bool finished() const
    {
        return finished_.load(std::memory_order_acquire);
    }

    /** Block until the engine thread exits (cheap after finished()). */
    void joinEngine();

    const std::string &name() const { return config_.name; }
    std::uint64_t jobId() const { return config_.job_id; }

    /** Cumulative grant so far (tests; racy snapshot). */
    std::uint64_t grantedBytes();

  private:
    /** trace::ByteSource over buf_; only used under mutex_. */
    class BufSource : public trace::ByteSource
    {
      public:
        explicit BufSource(StreamSession &session)
            : session_(session)
        {
        }

        std::size_t read(char *dst, std::size_t n) override;

        /** Bytes handed to the reader so far. */
        std::uint64_t consumed() const { return consumed_; }

      private:
        StreamSession &session_;
        std::uint64_t consumed_ = 0;
    };

    class EngineProgram;
    class EngineBody;
    class ReplayBody;

    /** Engine-side blocking pop of thread @p tid's next operation. */
    bool popOp(ThreadId tid, runtime::Op &op);

    /** Pump the reader over buffered bytes; mutex_ held. */
    void drainLocked();

    /** Refuse the trace (counted) and fail; mutex_ held. */
    void rejectLocked(const std::string &message);

    /** Poison the session and cancel the engine; mutex_ held. */
    void failLocked(const std::string &message);

    /** Account @p n consumed bytes toward credit; mutex_ held. */
    void noteConsumedLocked(std::uint64_t n);

    /** Advance the grant if a quantum freed up; mutex_ held.
     *  @return the new cumulative grant to announce, or 0. */
    std::uint64_t maybeGrantLocked();

    void fireCredit(std::uint64_t granted_total);

    /** Settle the gauges and mark the session finished. */
    StreamFinal settle(bool ok, std::string json);

    StreamConfig config_;
    StreamCallbacks callbacks_;

    std::mutex mutex_;
    std::condition_variable cv_;

    /** Raw received-but-unparsed bytes (consumed from the front). */
    std::string buf_;
    std::size_t buf_pos_ = 0;

    BufSource source_{*this};
    trace::TraceReader reader_{source_, config_.trace_bytes, true};

    /**
     * Parsed-but-unexecuted operations, per thread. A deque, so a
     * stream's memory follows its credit window as ops are consumed.
     */
    std::vector<std::deque<runtime::Op>> queues_;

    // --- credit accounting (bytes, cumulative) ---
    std::uint64_t received_ = 0;
    std::uint64_t granted_ = 0;
    std::uint64_t consumed_bytes_ = 0;

    /** Net stream.buffered_bytes gauge contribution outstanding. */
    std::int64_t net_gauge_ = 0;
    std::int64_t gauge_pending_ = 0;

    /** Registry for stream.* metrics; set by start(). */
    service::Metrics *stream_metrics_ = nullptr;

    // --- parse / lifecycle state (mutex_) ---
    bool header_ready_ = false;
    bool ended_ = false;

    /** No more operations will ever be queued (end or failure). */
    bool input_done_ = false;

    bool failed_ = false;
    std::string error_;

    std::string trace_name_;
    std::uint32_t nthreads_ = 0;
    pmu::FaultConfig fault_config_;

    std::atomic<bool> cancel_{false};
    std::atomic<bool> finished_{false};

    std::uint64_t partial_seq_ = 0;

    std::thread engine_;
};

} // namespace hdrd::stream

#endif // HDRD_STREAM_STREAM_SESSION_HH
