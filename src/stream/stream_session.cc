#include "stream/stream_session.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "runtime/program.hh"
#include "service/metrics.hh"
#include "service/report_json.hh"
#include "trace/trace_format.hh"

namespace hdrd::stream
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Record-decode batch size for the ingest drain. */
constexpr std::size_t kBatch = 256;

/** Flush the buffered-bytes gauge after this much consumption. */
constexpr std::int64_t kGaugeFlush = 64 * 1024;

} // namespace

std::size_t
StreamSession::BufSource::read(char *dst, std::size_t n)
{
    StreamSession &s = session_;
    n = std::min(n, s.buf_.size() - s.buf_pos_);
    if (n == 0)
        return 0;
    std::memcpy(dst, s.buf_.data() + s.buf_pos_, n);
    s.buf_pos_ += n;
    if (s.buf_pos_ == s.buf_.size()) {
        s.buf_.clear();
        s.buf_pos_ = 0;
    } else if (s.buf_pos_ >= 256 * 1024
               && s.buf_pos_ >= s.buf_.size() / 2) {
        s.buf_.erase(0, s.buf_pos_);
        s.buf_pos_ = 0;
    }
    consumed_ += n;
    return n;
}

/**
 * The session's face to the simulator while its input is still
 * arriving: per-thread bodies that block inside next() until
 * ingestion catches up. nextIsPure() is false so the simulator never
 * fetches ahead — a body must only block when the scheduler
 * genuinely needs its thread's next operation.
 */
class StreamSession::EngineBody : public runtime::ThreadBody
{
  public:
    EngineBody(StreamSession &session, ThreadId tid)
        : session_(session), tid_(tid)
    {
    }

    bool next(runtime::Op &op) override
    {
        return session_.popOp(tid_, op);
    }

    bool nextIsPure() const override { return false; }

  private:
    StreamSession &session_;
    ThreadId tid_;
};

/**
 * The session's face to the simulator once its input is complete:
 * each thread's queue replays in place, with no lock, and pure, so
 * the simulator fetches ahead.
 */
class StreamSession::ReplayBody : public runtime::ThreadBody
{
  public:
    explicit ReplayBody(const std::deque<runtime::Op> &ops)
        : next_(ops.begin()), end_(ops.end())
    {
    }

    bool next(runtime::Op &op) override
    {
        if (next_ == end_)
            return false;
        op = *next_++;
        return true;
    }

  private:
    std::deque<runtime::Op>::const_iterator next_;
    std::deque<runtime::Op>::const_iterator end_;
};

class StreamSession::EngineProgram : public runtime::Program
{
  public:
    EngineProgram(StreamSession &session, bool complete)
        : session_(session), complete_(complete)
    {
    }

    const std::string &name() const override
    {
        return session_.trace_name_;
    }

    std::uint32_t numThreads() const override
    {
        return session_.nthreads_;
    }

    std::unique_ptr<runtime::ThreadBody>
    makeThread(ThreadId tid) override
    {
        if (complete_)
            return std::make_unique<ReplayBody>(session_.queues_[tid]);
        return std::make_unique<EngineBody>(session_, tid);
    }

  private:
    StreamSession &session_;
    bool complete_;
};

StreamSession::StreamSession(StreamConfig config,
                             StreamCallbacks callbacks)
    : config_(std::move(config)), callbacks_(std::move(callbacks))
{
    hdrdAssert(config_.buffer_cap >= sizeof(trace::TraceHeader),
               "stream buffer cap smaller than a trace header");
    config_.credit_quantum = std::max<std::uint64_t>(
        1, std::min(config_.credit_quantum, config_.buffer_cap));
    // A sized upload is granted in full: the frame already bounds it.
    if (config_.trace_bytes != trace::TraceReader::kUnknownSize)
        granted_ = config_.trace_bytes;
}

StreamSession::~StreamSession()
{
    abort();
    joinEngine();
}

void
StreamSession::start()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        granted_ = config_.buffer_cap;
        stream_metrics_ = config_.metrics;
    }
    if (stream_metrics_ != nullptr) {
        stream_metrics_->counter("stream.sessions_opened").add();
        stream_metrics_->gauge("stream.active_sessions").add();
    }
    fireCredit(config_.buffer_cap);
    engine_ = std::thread([this] {
        runtime::Simulator engine(config_.base);
        const StreamFinal final = run(engine);
        if (callbacks_.on_done)
            callbacks_.on_done(final.ok, final.json);
    });
}

bool
StreamSession::feed(const char *data, std::size_t len,
                    std::string &err)
{
    std::uint64_t grant = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failed_) {
            // The session is unwinding; frames already in flight
            // from the client are tolerated and discarded.
            return true;
        }
        if (ended_) {
            err = "stream data after SUBMIT_END";
            return false;
        }
        if (received_ + len > granted_) {
            err = "stream credit exceeded ("
                + std::to_string(received_ + len) + " sent, "
                + std::to_string(granted_) + " granted)";
            return false;
        }
        received_ += len;
        buf_.append(data, len);
        if (stream_metrics_ != nullptr) {
            net_gauge_ += static_cast<std::int64_t>(len);
            stream_metrics_->gauge("stream.buffered_bytes")
                .add(static_cast<std::int64_t>(len));
        }
        drainLocked();
        grant = maybeGrantLocked();
        cv_.notify_all();
    }
    if (grant != 0)
        fireCredit(grant);
    return true;
}

void
StreamSession::end()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_ || ended_)
        return;
    ended_ = true;
    reader_.endOfStream();
    drainLocked();
    cv_.notify_all();
}

void
StreamSession::abort()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_ || finished_.load(std::memory_order_acquire))
        return;
    if (stream_metrics_ != nullptr)
        stream_metrics_->counter("stream.aborts").add();
    failLocked("streaming session aborted");
}

std::string
StreamSession::error()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return error_;
}

void
StreamSession::joinEngine()
{
    if (engine_.joinable())
        engine_.join();
}

std::uint64_t
StreamSession::grantedBytes()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return granted_;
}

void
StreamSession::drainLocked()
{
    if (failed_)
        return;

    if (!header_ready_) {
        if (!reader_.readHeader()) {
            if (!reader_.error().empty())
                rejectLocked("trace rejected: " + reader_.error());
            return;  // starved: resume on the next feed (or end)
        }
        // Header landed: everything the engine needs to configure
        // itself is now known. Resolve the fault spec exactly like
        // `hdrd_sim --replay`: an explicit override wins, else the
        // trace's recorded spec unless the client opted out.
        noteConsumedLocked(source_.consumed());
        trace_name_ = reader_.name();
        nthreads_ = reader_.nthreads();
        std::string spec(config_.options.fault_spec.data());
        if (spec.empty()
            && !(config_.options.flags
                 & service::kJobIgnoreTraceFaults))
            spec = reader_.faultSpec();
        std::string err;
        if (!spec.empty() && spec != "none"
            && !pmu::resolveFaultSpec(spec, fault_config_, err)) {
            rejectLocked("trace carries unusable fault spec: " + err);
            return;
        }
        queues_.resize(nthreads_);
        header_ready_ = true;
        cv_.notify_all();
    }

    trace::TraceRecord batch[kBatch];
    while (!reader_.done()) {
        const std::size_t got = reader_.next(batch, kBatch);
        for (std::size_t i = 0; i < got; ++i)
            queues_[batch[i].tid].push_back(batch[i].toOp());
        if (!reader_.error().empty()) {
            rejectLocked("trace rejected: " + reader_.error());
            return;
        }
        if (got == 0)
            break;  // starved mid-record
    }

    if (reader_.done() && ended_ && !input_done_) {
        const std::size_t leftover = buf_.size() - buf_pos_;
        if (leftover > 0) {
            rejectLocked(std::to_string(leftover)
                         + " bytes of trailing garbage after "
                         + std::to_string(reader_.recordCount())
                         + " records");
            return;
        }
        input_done_ = true;
        cv_.notify_all();
    }
}

void
StreamSession::rejectLocked(const std::string &message)
{
    if (config_.metrics != nullptr) {
        config_.metrics->counter("server.traces_rejected").add();
        config_.metrics->counter("server.jobs_invalid").add();
    }
    failLocked(message);
}

void
StreamSession::failLocked(const std::string &message)
{
    if (failed_)
        return;
    failed_ = true;
    error_ = message;
    input_done_ = true;
    cancel_.store(true, std::memory_order_release);
    cv_.notify_all();
}

void
StreamSession::noteConsumedLocked(std::uint64_t n)
{
    consumed_bytes_ += n;
    if (stream_metrics_ == nullptr)
        return;
    gauge_pending_ += static_cast<std::int64_t>(n);
    if (gauge_pending_ >= kGaugeFlush) {
        stream_metrics_->gauge("stream.buffered_bytes")
            .sub(gauge_pending_);
        net_gauge_ -= gauge_pending_;
        gauge_pending_ = 0;
    }
}

std::uint64_t
StreamSession::maybeGrantLocked()
{
    if (ended_ || failed_
        || config_.trace_bytes != trace::TraceReader::kUnknownSize)
        return 0;
    const std::uint64_t want = consumed_bytes_ + config_.buffer_cap;
    if (want >= granted_ + config_.credit_quantum) {
        granted_ = want;
        return granted_;
    }
    return 0;
}

void
StreamSession::fireCredit(std::uint64_t granted_total)
{
    if (stream_metrics_ != nullptr)
        stream_metrics_->counter("stream.credits_issued").add();
    if (callbacks_.on_credit)
        callbacks_.on_credit(granted_total);
}

bool
StreamSession::popOp(ThreadId tid, runtime::Op &op)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (cancel_.load(std::memory_order_relaxed))
            return false;
        std::deque<runtime::Op> &queue = queues_[tid];
        if (!queue.empty()) {
            op = queue.front();
            queue.pop_front();
            noteConsumedLocked(sizeof(trace::TraceRecord));
            const std::uint64_t grant = maybeGrantLocked();
            lock.unlock();
            if (grant != 0)
                fireCredit(grant);
            return true;
        }
        if (input_done_)
            return false;
        if (received_ >= granted_ && !ended_) {
            // The engine needs this thread's next record but the
            // client's window is exhausted — every buffered byte
            // belongs to other threads. Grant past the cap rather
            // than deadlock (see the file comment; the cap is soft
            // against adversarially skewed interleavings).
            granted_ += config_.credit_quantum;
            const std::uint64_t grant = granted_;
            if (stream_metrics_ != nullptr)
                stream_metrics_->counter("stream.emergency_credits")
                    .add();
            lock.unlock();
            fireCredit(grant);
            lock.lock();
            continue;
        }
        cv_.wait(lock);
    }
}

StreamFinal
StreamSession::run(runtime::Simulator &engine)
{
    std::string message;
    bool complete = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock,
                 [this] { return header_ready_ || failed_; });
        if (failed_)
            message = error_;
        complete = input_done_;
    }
    if (!message.empty())
        return settle(false, service::jsonError(message));
    // Complete input never changes again: the engine replays it in
    // place, lock-free and with fetch-ahead on.
    EngineProgram program(*this, complete);

    // The one options-to-engine mapping: the same job configures the
    // same engine whichever way its bytes arrived.
    const service::JobOptions &o = config_.options;
    runtime::SimConfig sim_config = config_.base;
    sim_config.mode = static_cast<instr::ToolMode>(o.mode);
    sim_config.detector =
        static_cast<runtime::DetectorKind>(o.detector);
    sim_config.gating.hitm_counter.sample_after = o.sav;
    sim_config.granule_shift = o.granule_shift;
    sim_config.mem.ncores = o.cores;
    sim_config.seed = o.seed;
    sim_config.faults = fault_config_;
    engine.reconfigure(sim_config);

    service::JobReport report;
    report.trace = trace_name_;
    report.nthreads = nthreads_;
    report.options = o;
    report.fault_spec = pmu::faultSpec(sim_config.faults);

    // Observe only when there is something to observe: partials, or
    // an input that may never finish arriving (cancellation).
    runtime::RunObserver observer;
    observer.interval_ops = config_.partial_interval;
    observer.cancel = &cancel_;
    observer.on_partial = [&](const runtime::RunResult &snapshot) {
        service::JobReport partial = report;
        partial.result = &snapshot;
        partial.partial_seq = ++partial_seq_;
        if (stream_metrics_ != nullptr)
            stream_metrics_->counter("stream.partials_emitted").add();
        if (callbacks_.on_partial)
            callbacks_.on_partial(partial_seq_,
                                  service::jobReportJson(partial));
    };
    const bool observe = !complete || config_.partial_interval > 0;

    const auto t_start = Clock::now();
    runtime::RunResult result;
    try {
        const PanicTrap trap;
        result = engine.run(program, observe ? &observer : nullptr);
    } catch (const PanicError &e) {
        // Operations the engine cannot run (an unlock of a lock never
        // taken, a deadlock) make a bad trace, not a dead daemon.
        std::lock_guard<std::mutex> lock(mutex_);
        rejectLocked(std::string("trace rejected: ") + e.what());
    }
    const auto t_done = Clock::now();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failed_)
            message = error_;
        else if (observer.cancelled
                 || cancel_.load(std::memory_order_acquire))
            message = "streaming session aborted";
    }
    if (!message.empty())
        return settle(false, service::jsonError(message));

    report.result = &result;
    report.include_host_timing =
        !(o.flags & service::kJobOmitHostTiming);
    report.host_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                t_done - t_start)
                .count())
        / 1000.0;
    return settle(true, service::jobReportJson(report));
}

StreamFinal
StreamSession::settle(bool ok, std::string json)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        input_done_ = true;
        if (stream_metrics_ != nullptr && net_gauge_ != 0)
            stream_metrics_->gauge("stream.buffered_bytes")
                .sub(net_gauge_);
        net_gauge_ = 0;
        gauge_pending_ = 0;
    }
    if (stream_metrics_ != nullptr)
        stream_metrics_->gauge("stream.active_sessions").sub();
    if (ok && config_.metrics != nullptr)
        config_.metrics->counter("server.jobs_completed").add();
    finished_.store(true, std::memory_order_release);
    return {ok, std::move(json)};
}

} // namespace hdrd::stream
