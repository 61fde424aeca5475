#include "service/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "service/connection.hh"
#include "stream/stream_session.hh"

namespace hdrd::service
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
usSince(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0
        && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Shard index encoded in a connection id's top 16 bits. */
constexpr unsigned kShardShift = 48;

} // namespace

/**
 * One I/O shard: an epoll loop over its share of the connections.
 *
 * The acceptor hands sockets in and workers hand completions back
 * through a mutex-guarded inbox + wake pipe; everything else —
 * reading, parsing, dispatching, writing — happens on the shard
 * thread, so Connection needs no locks.
 */
class Server::IoShard
{
  public:
    IoShard(Server &server, std::uint32_t index)
        : server_(server), index_(index)
    {
    }

    bool ok() const { return loop_.ok() && wake_.ok(); }

    void start()
    {
        thread_ = std::thread([this] { loop(); });
    }

    /** Acceptor thread: transfer ownership of @p fd to this shard. */
    void adopt(int fd)
    {
        {
            std::lock_guard<std::mutex> lock(inbox_mutex_);
            pending_fds_.push_back(fd);
        }
        wake_.post();
    }

    /** Worker threads: queue a finished job's response. */
    void post(Completion completion)
    {
        {
            std::lock_guard<std::mutex> lock(inbox_mutex_);
            completions_.push_back(std::move(completion));
        }
        wake_.post();
    }

    /** Begin graceful drain; the shard thread exits once empty. */
    void beginDrain()
    {
        drain_deadline_.store(
            Clock::now().time_since_epoch().count()
                + std::chrono::nanoseconds(
                      std::chrono::milliseconds(
                          server_.config_.drain_linger_ms))
                      .count(),
            std::memory_order_relaxed);
        draining_.store(true, std::memory_order_release);
        wake_.post();
    }

    void join()
    {
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void loop()
    {
        loop_.add(wake_.readFd(), EPOLLIN, 0);
        for (;;) {
            const std::vector<LoopEvent> &events = loop_.wait(100);
            wake_.drain();

            std::vector<int> fds;
            std::vector<Completion> completions;
            {
                std::lock_guard<std::mutex> lock(inbox_mutex_);
                fds.swap(pending_fds_);
                completions.swap(completions_);
            }
            const bool draining =
                draining_.load(std::memory_order_acquire);

            for (int fd : fds) {
                if (draining) {
                    ::close(fd);
                    server_.connectionClosed();
                    continue;
                }
                const std::uint64_t id =
                    (static_cast<std::uint64_t>(index_)
                     << kShardShift)
                    | next_id_++;
                auto conn =
                    std::make_unique<Connection>(fd, id, server_);
                Connection *raw = conn.get();
                conns_.emplace(id, std::move(conn));
                const std::uint32_t mask = raw->interest();
                loop_.add(fd, mask, id);
                raw->setLastInterest(mask);
            }

            for (Completion &completion : completions) {
                auto it = conns_.find(completion.conn_id);
                if (it == conns_.end()) {
                    // The client hung up while its job ran.
                    server_.metrics_
                        .counter("server.responses_dropped")
                        .add();
                    continue;
                }
                if (!it->second->deliver(
                        completion.counted, completion.job_id,
                        completion.type, std::move(completion.body)))
                    closeConnection(it);
                else
                    syncInterest(*it->second);
            }

            for (const LoopEvent &event : events) {
                if (event.tag == 0)
                    continue;
                auto it = conns_.find(event.tag);
                if (it == conns_.end())
                    continue;  // closed earlier this round
                Connection &conn = *it->second;
                bool alive = true;
                if (event.events & (EPOLLHUP | EPOLLERR))
                    alive = false;
                if (alive && (event.events & EPOLLOUT))
                    alive = conn.onWritable();
                if (alive && (event.events & EPOLLIN))
                    alive = conn.onReadable();
                if (!alive || conn.wantClose())
                    closeConnection(it);
                else
                    syncInterest(conn);
            }

            if (draining) {
                const bool linger_expired =
                    Clock::now().time_since_epoch().count()
                    > drain_deadline_.load(
                          std::memory_order_relaxed);
                for (auto it = conns_.begin();
                     it != conns_.end();) {
                    if (it->second->idle() || linger_expired) {
                        auto victim = it++;
                        closeConnection(victim);
                    } else {
                        ++it;
                    }
                }
                if (conns_.empty())
                    return;
            }
        }
    }

    void syncInterest(Connection &conn)
    {
        const std::uint32_t want = conn.interest();
        if (want != conn.lastInterest()) {
            loop_.mod(conn.fd(), want, conn.id());
            conn.setLastInterest(want);
        }
    }

    void closeConnection(
        std::map<std::uint64_t,
                 std::unique_ptr<Connection>>::iterator it)
    {
        const std::uint64_t conn_id = it->first;
        loop_.del(it->second->fd());
        conns_.erase(it);
        server_.connectionClosed(conn_id);
    }

    Server &server_;
    std::uint32_t index_;
    EventLoop loop_;
    WakePipe wake_;

    std::mutex inbox_mutex_;
    std::vector<int> pending_fds_;
    std::vector<Completion> completions_;

    std::atomic<bool> draining_{false};
    std::atomic<long long> drain_deadline_{0};

    std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
    std::uint64_t next_id_ = 1;
    std::thread thread_;
};

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string &err)
{
    hdrdAssert(!started_, "server started twice");
    if (config_.unix_path.empty()) {
        err = "unix socket path required";
        return false;
    }
    sockaddr_un addr{};
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
        err = "unix socket path too long: " + config_.unix_path;
        return false;
    }
    if (!stop_wake_.ok()) {
        err = "cannot create wake pipe";
        return false;
    }

    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());
    if (::bind(unix_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0
        || ::listen(unix_fd_, 128) != 0
        || !setNonBlocking(unix_fd_)) {
        err = "cannot listen on " + config_.unix_path + ": "
            + std::strerror(errno);
        return false;
    }

    if (config_.tcp_port != 0) {
        tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcp_fd_ < 0) {
            err = std::string("tcp socket: ") + std::strerror(errno);
            return false;
        }
        const int one = 1;
        ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in tcp_addr{};
        tcp_addr.sin_family = AF_INET;
        tcp_addr.sin_port = htons(config_.tcp_port);
        tcp_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(tcp_fd_, reinterpret_cast<sockaddr *>(&tcp_addr),
                   sizeof(tcp_addr)) != 0
            || ::listen(tcp_fd_, 128) != 0
            || !setNonBlocking(tcp_fd_)) {
            err = "cannot listen on tcp port "
                + std::to_string(config_.tcp_port) + ": "
                + std::strerror(errno);
            return false;
        }
    }

    WorkerPoolConfig pool_config;
    pool_config.workers = config_.workers;
    pool_config.queue_capacity = config_.queue_capacity;
    pool_ = std::make_unique<WorkerPool>(pool_config, &metrics_);

    engines_.reserve(pool_->workers());
    for (std::uint32_t w = 0; w < pool_->workers(); ++w)
        engines_.push_back(std::make_unique<runtime::Simulator>(
            config_.base, &shadow_pool_));

    std::uint32_t nshards = config_.io_shards;
    if (nshards == 0) {
        const std::uint32_t hw = std::thread::hardware_concurrency();
        nshards = std::clamp<std::uint32_t>(hw / 2, 1, 4);
    }
    nshards = std::min<std::uint32_t>(nshards, 64);
    for (std::uint32_t s = 0; s < nshards; ++s) {
        auto shard = std::make_unique<IoShard>(*this, s);
        if (!shard->ok()) {
            err = "cannot create I/O shard event loop";
            return false;
        }
        shards_.push_back(std::move(shard));
    }
    for (auto &shard : shards_)
        shard->start();

    metrics_.gauge("server.max_connections")
        .set(config_.max_connections);
    metrics_.gauge("server.io_shards").set(nshards);
    metrics_.gauge("server.max_pipeline").set(config_.max_pipeline);
    // STATS doubles as the fleet health/load probe: routers read
    // pool.queue_depth / pool.active_workers / pool.workers for
    // least-loaded placement and skip daemons whose server.draining
    // gauge flipped (a draining daemon refuses new connections, but
    // answers STATS on the ones it already holds).
    metrics_.gauge("server.draining").set(0);
    metrics_.gauge("server.max_streams").set(config_.max_streams);
    // Pre-register the streaming gauges so a metrics snapshot shows
    // them at 0 before (and after) any session runs — the CI
    // kill-recovery gate greps for exactly that.
    metrics_.gauge("stream.active_sessions").set(0);
    metrics_.gauge("stream.buffered_bytes").set(0);

    accept_thread_ = std::thread([this] { acceptLoop(); });
    if (!config_.metrics_dump.empty())
        metrics_thread_ = std::thread([this] { metricsLoop(); });
    started_ = true;
    return true;
}

void
Server::requestStop()
{
    stop_requested_.store(true, std::memory_order_release);
    stop_wake_.post();
}

void
Server::waitForStopRequest()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] {
        return stop_requested_.load(std::memory_order_acquire)
            || stopping_.load(std::memory_order_acquire);
    });
}

void
Server::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    stopping_.store(true, std::memory_order_release);
    metrics_.gauge("server.draining").set(1);
    requestStop();
    stop_cv_.notify_all();

    if (accept_thread_.joinable())
        accept_thread_.join();
    // Refuse new connections at once: a listener left open through
    // the drain would let the kernel complete connects into its
    // backlog that nobody serves or refuses.
    if (unix_fd_ >= 0)
        ::close(unix_fd_);
    if (tcp_fd_ >= 0)
        ::close(tcp_fd_);
    if (!config_.unix_path.empty())
        ::unlink(config_.unix_path.c_str());

    // Abort live streaming sessions; each engine unwinds through the
    // simulator's cancellation path and posts an error final to its
    // shard (still running below).
    std::vector<std::shared_ptr<stream::StreamSession>> sessions;
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        for (auto &entry : streams_)
            sessions.push_back(entry.second.session);
    }
    for (auto &session : sessions)
        session->abort();

    // Drain: shards close idle connections immediately but keep the
    // ones with jobs in flight so their replies can be delivered.
    for (auto &shard : shards_)
        shard->beginDrain();

    // Run out every queued job (each posts its completion to its
    // shard) and stop the workers.
    if (pool_)
        pool_->shutdown();

    // Park every stream engine before the shards go away — a late
    // completion must never target a destroyed shard.
    for (auto &session : sessions)
        session->joinEngine();
    reapStreamZombies();
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        streams_.clear();
    }

    // Shard threads exit once every connection flushed and closed
    // (bounded by drain_linger_ms against stuck clients).
    for (auto &shard : shards_)
        shard->join();
    shards_.clear();

    {
        std::lock_guard<std::mutex> lock(metrics_cv_mutex_);
        metrics_cv_.notify_all();
    }
    if (metrics_thread_.joinable())
        metrics_thread_.join();
    if (!config_.metrics_dump.empty())
        metrics_.dumpToFile(config_.metrics_dump);
}

void
Server::acceptLoop()
{
    EventLoop loop;
    if (!loop.ok())
        return;
    loop.add(stop_wake_.readFd(), EPOLLIN, 0);
    loop.add(unix_fd_, EPOLLIN, 1);
    if (tcp_fd_ >= 0)
        loop.add(tcp_fd_, EPOLLIN, 2);

    std::uint64_t next_shard = 0;
    for (;;) {
        const std::vector<LoopEvent> &events = loop.wait(200);
        if (stop_requested_.load(std::memory_order_acquire)
            || stopping_.load(std::memory_order_acquire)) {
            // Propagate a signal-initiated stop to
            // waitForStopRequest.
            std::lock_guard<std::mutex> lock(stop_mutex_);
            stop_cv_.notify_all();
            return;
        }
        for (const LoopEvent &event : events) {
            if (event.tag == 0)
                continue;
            const int listen_fd =
                event.tag == 1 ? unix_fd_ : tcp_fd_;
            for (;;) {
                const int client =
                    ::accept(listen_fd, nullptr, nullptr);
                if (client < 0)
                    break;  // EAGAIN or transient
                if (active_connections_.load(
                        std::memory_order_relaxed)
                    >= config_.max_connections) {
                    metrics_.counter("server.connections_rejected")
                        .add();
                    std::string busy =
                        "{\"status\": \"busy\", "
                        "\"retry_after_ms\": "
                        + std::to_string(retryAfterMs())
                        + ", \"reason\": \"connection limit\"}\n";
                    // Still blocking here, so this write completes
                    // unless the peer is already gone.
                    writeFrame(client, FrameType::kBusy, busy);
                    ::close(client);
                    continue;
                }
                if (!setNonBlocking(client)) {
                    ::close(client);
                    continue;
                }
                metrics_.counter("server.connections_accepted")
                    .add();
                active_connections_.fetch_add(
                    1, std::memory_order_relaxed);
                metrics_.gauge("server.active_connections").add();
                shards_[next_shard++ % shards_.size()]->adopt(
                    client);
            }
        }
    }
}

void
Server::connectionClosed(std::uint64_t conn_id)
{
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.gauge("server.active_connections").sub();
    if (conn_id == 0)
        return;  // refused at accept; never owned state

    // The Connection's destructor aborts sessions it was uploading;
    // here we forget the closed connection's ATTACH subscriptions so
    // fan-out stops posting into the void.
    std::lock_guard<std::mutex> lock(streams_mutex_);
    for (auto &entry : streams_) {
        auto &followers = entry.second.followers;
        followers.erase(
            std::remove_if(followers.begin(), followers.end(),
                           [conn_id](const auto &f) {
                               return f.first == conn_id;
                           }),
            followers.end());
    }
}

StreamOpenOutcome
Server::streamOpen(Connection &conn, std::uint64_t job_id,
                   const std::string &name,
                   const JobOptions &options)
{
    reapStreamZombies();

    StreamOpenOutcome outcome;
    const std::string key = name;
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        if (stopping_.load(std::memory_order_acquire)) {
            outcome.refusal_json = jsonError("server is draining");
            return outcome;
        }
        if (streams_.size() >= config_.max_streams) {
            metrics_.counter("stream.sessions_rejected").add();
            outcome.busy = true;
            outcome.refusal_json =
                "{\"status\": \"busy\", \"retry_after_ms\": "
                + std::to_string(retryAfterMs())
                + ", \"reason\": \"stream limit\", "
                  "\"max_streams\": "
                + std::to_string(config_.max_streams) + "}\n";
            return outcome;
        }
        if (streams_.count(key) != 0) {
            outcome.refusal_json = jsonError(
                "streaming session name already in use: " + key);
            return outcome;
        }

        stream::StreamConfig stream_config;
        stream_config.job_id = job_id;
        stream_config.name = key;
        stream_config.options = options;
        stream_config.base = config_.base;
        stream_config.buffer_cap = config_.stream_buffer;
        stream_config.partial_interval =
            config_.partial_interval_ops;
        stream_config.metrics = &metrics_;
        stream_config.op_blocks = &op_blocks_;
        stream_config.shadow_pool = &shadow_pool_;

        const std::uint64_t conn_id = conn.id();
        stream::StreamCallbacks callbacks;
        callbacks.on_credit = [this, conn_id,
                               job_id](std::uint64_t granted) {
            Completion completion;
            completion.conn_id = conn_id;
            completion.counted = false;
            completion.job_id = job_id;
            completion.type = FrameType::kCredit;
            completion.body = creditBody(granted);
            postCompletion(std::move(completion));
        };
        callbacks.on_partial = [this, key](std::uint64_t,
                                           const std::string &json) {
            streamFanout(key, json);
        };
        callbacks.on_done = [this, key](bool ok,
                                        const std::string &json) {
            streamFinished(key,
                           ok ? FrameType::kJobReport
                              : FrameType::kJobError,
                           json);
        };

        StreamEntry entry;
        entry.session = std::make_shared<stream::StreamSession>(
            std::move(stream_config), std::move(callbacks));
        entry.owner_conn = conn_id;
        entry.owner_job = job_id;
        outcome.session = entry.session;
        streams_.emplace(key, std::move(entry));
    }
    // start() outside the registry lock: it issues the initial
    // credit and spawns the engine thread.
    outcome.session->start();
    metrics_.counter("server.jobs_accepted").add();
    return outcome;
}

std::string
Server::streamAttach(Connection &conn, std::uint64_t follow_id,
                     const std::string &name)
{
    std::lock_guard<std::mutex> lock(streams_mutex_);
    const auto it = streams_.find(name);
    if (it == streams_.end())
        return jsonError("no live streaming session named " + name);
    it->second.followers.emplace_back(conn.id(), follow_id);
    metrics_.counter("stream.attaches").add();
    return "{\"status\": \"ok\", \"session\": \"" + name
        + "\", \"job_id\": "
        + std::to_string(it->second.owner_job) + "}\n";
}

void
Server::postToSubscribers(const StreamEntry &entry, FrameType type,
                          const std::string &json)
{
    Completion completion;
    completion.counted = false;
    completion.type = type;
    completion.body = json;

    completion.conn_id = entry.owner_conn;
    completion.job_id = entry.owner_job;
    postCompletion(completion);

    for (const auto &[conn_id, follow_id] : entry.followers) {
        completion.conn_id = conn_id;
        completion.job_id = follow_id;
        postCompletion(completion);
    }
}

void
Server::streamFanout(const std::string &name, const std::string &json)
{
    std::lock_guard<std::mutex> lock(streams_mutex_);
    const auto it = streams_.find(name);
    if (it != streams_.end())
        postToSubscribers(it->second, FrameType::kJobPartial, json);
}

void
Server::streamFinished(const std::string &name, FrameType type,
                       const std::string &json)
{
    std::lock_guard<std::mutex> lock(streams_mutex_);
    const auto it = streams_.find(name);
    if (it == streams_.end())
        return;
    // One hold posts the final and retires the entry, so an ATTACH
    // either joins before the final (and receives it) or finds no
    // session (and is refused); none is accepted into silence.
    postToSubscribers(it->second, type, json);
    // Runs on the session's own engine thread, so the join happens
    // later (reapStreamZombies) from a shard thread or stop().
    stream_zombies_.push_back(std::move(it->second.session));
    streams_.erase(it);
}

void
Server::reapStreamZombies()
{
    std::vector<std::shared_ptr<stream::StreamSession>> zombies;
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        zombies.swap(stream_zombies_);
    }
    for (auto &session : zombies)
        session->joinEngine();
}

void
Server::postCompletion(Completion completion)
{
    const std::size_t shard =
        static_cast<std::size_t>(completion.conn_id >> kShardShift);
    hdrdAssert(shard < shards_.size(), "completion for shard ",
               shard, " of ", shards_.size());
    shards_[shard]->post(std::move(completion));
}

std::shared_ptr<stream::StreamSession>
Server::openJob(std::uint64_t job_id, const JobOptions &options,
                std::uint64_t trace_bytes)
{
    stream::StreamConfig job;
    job.job_id = job_id;
    job.options = options;
    job.base = config_.base;
    job.trace_bytes = trace_bytes;
    job.partial_interval = 0;
    job.metrics = &metrics_;
    job.op_blocks = &op_blocks_;
    return std::make_shared<stream::StreamSession>(std::move(job));
}

std::string
Server::dispatchJob(Connection &conn, std::uint64_t job_id,
                    std::shared_ptr<stream::StreamSession> session)
{
    const std::uint64_t conn_id = conn.id();
    auto token = conn.token();
    const auto enqueued = Clock::now();
    const bool has_deadline = config_.job_timeout_ms > 0;
    const auto deadline = enqueued
        + std::chrono::milliseconds(config_.job_timeout_ms);
    const std::uint64_t min_job_ms = config_.min_job_ms;

    auto job = [this, token, conn_id, job_id, session, min_job_ms,
                enqueued, deadline, has_deadline](std::uint32_t worker) {
        if (!token->load(std::memory_order_acquire)) {
            metrics_.counter("server.jobs_abandoned").add();
            return;
        }
        const auto t_start = Clock::now();
        metrics_.histogram("job.queue_wait_us")
            .record(usSince(enqueued, t_start));
        stream::StreamFinal final;
        if (has_deadline && t_start > deadline) {
            metrics_.counter("server.jobs_timeout").add();
            final.json = jsonError("job timed out waiting in queue");
        } else {
            final = session->run(*engines_[worker]);
        }
        if (min_job_ms > 0) {
            const auto floor_until = t_start
                + std::chrono::milliseconds(min_job_ms);
            std::this_thread::sleep_until(floor_until);
        }
        // Recorded after the --min-job-ms floor: exec_us feeds the
        // BUSY retry hint, which must reflect observed service time.
        if (final.ok)
            metrics_.histogram("job.exec_us")
                .record(usSince(t_start, Clock::now()));
        metrics_.histogram("job.total_us")
            .record(usSince(enqueued, Clock::now()));

        Completion completion;
        completion.conn_id = conn_id;
        completion.job_id = job_id;
        completion.type =
            final.ok ? FrameType::kJobReport : FrameType::kJobError;
        completion.body = std::move(final.json);
        postCompletion(std::move(completion));
    };

    if (!pool_->trySubmit(std::move(job))) {
        metrics_.counter("server.jobs_rejected_busy").add();
        return "{\"status\": \"busy\", \"retry_after_ms\": "
            + std::to_string(retryAfterMs())
            + ", \"queue_depth\": "
            + std::to_string(pool_->queueDepth())
            + ", \"queue_capacity\": "
            + std::to_string(pool_->queueCapacity()) + "}\n";
    }
    metrics_.counter("server.jobs_accepted").add();
    return "";
}

void
Server::metricsLoop()
{
    std::unique_lock<std::mutex> lock(metrics_cv_mutex_);
    for (;;) {
        metrics_cv_.wait_for(
            lock,
            std::chrono::milliseconds(config_.metrics_interval_ms));
        if (stopping_.load(std::memory_order_acquire))
            return;
        metrics_.dumpToFile(config_.metrics_dump);
    }
}

std::uint64_t
Server::retryAfterHintMs(double mean_exec_ms,
                         std::size_t queue_depth)
{
    const double mean_ms =
        mean_exec_ms > 0.0 ? mean_exec_ms : 50.0;
    const double hint =
        mean_ms * static_cast<double>(queue_depth + 1);
    return static_cast<std::uint64_t>(
        std::clamp(hint, 10.0, 5000.0));
}

std::uint64_t
Server::retryAfterMs()
{
    const Log2Histogram exec =
        metrics_.histogram("job.exec_us").snapshot();
    return retryAfterHintMs(
        exec.count() > 0 ? exec.mean() / 1000.0 : 0.0,
        pool_ ? pool_->queueDepth() : 0);
}

} // namespace hdrd::service
