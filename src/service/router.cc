#include "service/router.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <thread>

namespace hdrd::service
{

namespace
{

constexpr std::int64_t kUnplaceableLoad = INT64_MAX;

/** Ring virtual nodes per endpoint (placement smoothness). */
constexpr std::uint32_t kVirtualNodes = 64;

/**
 * Ceiling on the dead-daemon re-probe backoff, well above the retry
 * cap: under the retry cap every dead daemon would be re-probed — a
 * fresh connect each time — every couple of seconds forever.
 */
constexpr std::uint64_t kDeadRetryCapMs = 10000;

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/** splitmix64 finalizer: spreads ring nodes uniformly. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
xorshift64(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

} // namespace

bool
Endpoint::parse(const std::string &text, Endpoint &out,
                std::string &err)
{
    out = Endpoint{};
    out.spec = text;
    if (text.empty()) {
        err = "empty daemon spec";
        return false;
    }
    if (text.rfind("unix:", 0) == 0) {
        out.unix_path = text.substr(5);
        if (out.unix_path.empty()) {
            err = "empty path in '" + text + "'";
            return false;
        }
        return true;
    }
    if (text.find('/') != std::string::npos) {
        out.unix_path = text;
        return true;
    }
    const std::size_t colon = text.rfind(':');
    const std::string host =
        colon == std::string::npos ? "" : text.substr(0, colon);
    const std::string port_text = colon == std::string::npos
        ? text
        : text.substr(colon + 1);
    const bool numeric_port = !port_text.empty()
        && std::all_of(port_text.begin(), port_text.end(),
                       [](unsigned char c) {
                           return std::isdigit(c) != 0;
                       });
    if (!numeric_port) {
        // No colon and not a port number: a bare socket filename
        // ("a.sock") in the current directory.
        if (colon == std::string::npos) {
            out.unix_path = text;
            return true;
        }
        err = "bad daemon spec '" + text
            + "' (want unix:PATH, HOST:PORT, or PORT)";
        return false;
    }
    const unsigned long port =
        std::strtoul(port_text.c_str(), nullptr, 10);
    if (port == 0 || port > 65535) {
        err = "port out of range in '" + text + "'";
        return false;
    }
    out.port = static_cast<std::uint16_t>(port);
    out.host = host.empty() ? "127.0.0.1" : host;
    return true;
}

std::string
Endpoint::name() const
{
    return unix_path.empty() ? host + ":" + std::to_string(port)
                             : "unix:" + unix_path;
}

Router::Router(std::vector<Endpoint> endpoints, RouterConfig config)
    : endpoints_(std::move(endpoints)),
      config_(config),
      health_(endpoints_.size()),
      rng_state_(mix64(config.retry_seed) | 1)
{
    ring_.reserve(static_cast<std::size_t>(kVirtualNodes)
                  * endpoints_.size());
    for (std::uint32_t i = 0; i < endpoints_.size(); ++i) {
        const std::uint64_t base = fnv1a(endpoints_[i].name());
        for (std::uint32_t v = 0; v < kVirtualNodes; ++v)
            ring_.push_back({mix64(base ^ v), i});
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const RingNode &a, const RingNode &b) {
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.index < b.index;
              });
    live_ring_ = ring_;
}

bool
Router::metricValue(const std::string &json, const std::string &name,
                    std::int64_t &out)
{
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = json.find(key);
    if (at == std::string::npos)
        return false;
    out = std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
    return true;
}

std::int64_t
Router::loadScore(const std::string &stats_json)
{
    std::int64_t draining = 0;
    if (metricValue(stats_json, "server.draining", draining)
        && draining != 0)
        return kUnplaceableLoad;
    std::int64_t depth = 0, active = 0, workers = 1;
    if (!metricValue(stats_json, "pool.queue_depth", depth))
        return kUnplaceableLoad;
    metricValue(stats_json, "pool.active_workers", active);
    metricValue(stats_json, "pool.workers", workers);
    return (depth + active) * 1000 / std::max<std::int64_t>(1, workers);
}

int
Router::placeStatic(const std::string &key) const
{
    if (ring_.empty())
        return -1;
    const std::uint64_t hash = mix64(fnv1a(key));
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), hash,
        [](const RingNode &node, std::uint64_t h) {
            return node.hash < h;
        });
    if (it == ring_.end())
        it = ring_.begin();
    return static_cast<int>(it->index);
}

bool
Router::eligibleLocked(std::size_t index, Clock::time_point now)
{
    const Health &h = health_[index];
    if (h.evicted)
        return false;
    return h.alive || now >= h.retry_at;
}

int
Router::place(const std::string &key)
{
    const std::uint64_t hash = mix64(fnv1a(key));
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    if (live_ring_.empty())
        return -1;
    auto it = std::lower_bound(
        live_ring_.begin(), live_ring_.end(), hash,
        [](const RingNode &node, std::uint64_t h) {
            return node.hash < h;
        });
    // Walk the ring once; virtual nodes repeat endpoints, so the
    // walk visits every endpoint within |ring| steps.
    for (std::size_t step = 0; step < live_ring_.size();
         ++step, ++it) {
        if (it == live_ring_.end())
            it = live_ring_.begin();
        if (eligibleLocked(it->index, now))
            return static_cast<int>(it->index);
    }
    return -1;
}

bool
Router::alive(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return health_[index].alive;
}

bool
Router::evicted(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return health_[index].evicted;
}

std::uint64_t
Router::reroutedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rerouted_jobs_;
}

std::uint64_t
Router::jittered(std::uint64_t ms)
{
    if (ms <= 1)
        return ms;
    std::lock_guard<std::mutex> lock(mutex_);
    return ms / 2 + xorshift64(rng_state_) % (ms / 2 + 1);
}

void
Router::rebuildLiveRingLocked()
{
    live_ring_.clear();
    live_ring_.reserve(ring_.size());
    for (const RingNode &node : ring_) {
        if (!health_[node.index].evicted)
            live_ring_.push_back(node);
    }
}

void
Router::markDead(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Health &h = health_[index];
    h.alive = false;
    h.failures = std::min<std::uint32_t>(h.failures + 1, 16);
    std::uint64_t backoff = config_.dead_retry_ms
        << std::min<std::uint32_t>(h.failures - 1, 6);
    backoff = std::min(backoff, kDeadRetryCapMs);
    if (backoff > 1)
        backoff = backoff / 2 + xorshift64(rng_state_) % (backoff / 2 + 1);
    h.retry_at =
        Clock::now() + std::chrono::milliseconds(backoff);

    if (config_.evict_after > 0 && !h.evicted
        && h.failures >= config_.evict_after) {
        // Never evict the last live endpoint: a fully evicted ring
        // would turn a transient full-fleet outage permanent.
        std::size_t survivors = 0;
        for (std::size_t i = 0; i < health_.size(); ++i) {
            if (i != index && !health_[i].evicted)
                ++survivors;
        }
        if (survivors > 0) {
            h.evicted = true;
            rebuildLiveRingLocked();
        }
    }
}

void
Router::markAlive(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Health &h = health_[index];
    h.alive = true;
    h.failures = 0;
    if (h.evicted) {
        h.evicted = false;
        rebuildLiveRingLocked();
    }
}

bool
Endpoint::connect(Client &client, std::string &err) const
{
    return unix_path.empty() ? client.connectTcp(host, port, err)
                             : client.connectUnix(unix_path, err);
}

Response
Router::request(std::size_t index, FrameType type)
{
    Client client;
    Response response;
    if (!endpoints_[index].connect(client, response.payload)) {
        response.transport_errno = client.lastErrno();
    } else {
        if (config_.io_timeout_ms > 0)
            client.setTimeouts(config_.io_timeout_ms);
        response = type == FrameType::kStats ? client.stats()
                                             : client.ping();
    }
    if (response.transport_ok)
        markAlive(index);
    else
        markDead(index);
    return response;
}

bool
Router::probe(std::size_t index)
{
    return request(index, FrameType::kPing).transport_ok;
}

int
Router::leastLoaded(int exclude)
{
    int best = -1;
    std::int64_t best_load = kUnplaceableLoad;
    const auto now = Clock::now();
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        if (static_cast<int>(i) == exclude)
            continue;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!eligibleLocked(i, now))
                continue;
        }
        const Response stats = request(i, FrameType::kStats);
        if (!stats.transport_ok)
            continue;
        const std::int64_t load = loadScore(stats.payload);
        if (load < best_load) {
            best_load = load;
            best = static_cast<int>(i);
        }
    }
    return best;
}

SubmitResult
Router::submit(const std::string &key, const JobOptions &options,
               const std::string &trace_bytes)
{
    return submitBatch({{key, options, &trace_bytes}}, 1).front();
}

std::vector<SubmitResult>
Router::submitBatch(const std::vector<BatchJob> &jobs,
                    std::size_t window)
{
    std::vector<SubmitResult> results(jobs.size());
    if (endpoints_.empty())
        return results;
    window = std::max<std::size_t>(1, window);

    // One attempt at a group: pipeline it over one connection to its
    // daemon, classify each answer, then update that daemon's health.
    auto runGroup = [&](std::size_t ep,
                        const std::vector<std::size_t> &group) {
        Client client;
        std::vector<Response> responses(group.size());
        std::string err;
        if (endpoints_[ep].connect(client, err)) {
            std::vector<PipelineSubmission> subs;
            subs.reserve(group.size());
            for (std::size_t i : group)
                subs.push_back({jobs[i].options, jobs[i].trace});
            responses = client.submitPipelined(subs, window);
        } else {
            for (Response &response : responses) {
                response.payload = err;
                response.transport_errno = client.lastErrno();
            }
        }
        bool transport_lost = false;
        std::uint64_t rerouted = 0;
        for (std::size_t k = 0; k < group.size(); ++k) {
            Response &response = responses[k];
            SubmitResult &result = results[group[k]];
            result.endpoint = static_cast<int>(ep);
            result.payload = std::move(response.payload);
            if (!response.transport_ok) {
                transport_lost = true;
                result.status = SubmitStatus::kTransport;
                result.transport_errno = response.transport_errno;
            } else if (response.isBusy()) {
                result.status = SubmitStatus::kBusy;
                result.retry_after_ms = response.retry_after_ms;
            } else if (!response.isReport()) {
                // ERROR is a deterministic rejection (bad options,
                // bad trace): every daemon would answer the same, so
                // don't burn attempts re-asking.
                result.status = SubmitStatus::kRejected;
            } else {
                result.status = SubmitStatus::kOk;
                result.rerouted = placeStatic(jobs[group[k]].key)
                    != static_cast<int>(ep);
                rerouted += result.rerouted ? 1 : 0;
            }
        }
        if (rerouted > 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            rerouted_jobs_ += rerouted;
        }
        if (transport_lost)
            markDead(ep);
        else
            markAlive(ep);
    };

    const bool bounded = config_.job_deadline_ms > 0;
    Clock::time_point deadline{};
    std::uint64_t wait_ms = 0;
    for (std::uint32_t attempt = 0; attempt < config_.max_attempts;
         ++attempt) {
        std::vector<std::size_t> pending;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (results[i].status != SubmitStatus::kOk
                && results[i].status != SubmitStatus::kRejected)
                pending.push_back(i);
        }
        if (pending.empty())
            break;
        // The deadline bounds the retries: a first attempt may sit
        // behind a long pipelined batch or run a long job.
        if (attempt == 1)
            deadline = Clock::now()
                + std::chrono::milliseconds(config_.job_deadline_ms);
        if (wait_ms > 0) {
            auto until = Clock::now()
                + std::chrono::milliseconds(jittered(wait_ms));
            if (bounded && until > deadline)
                until = deadline;
            std::this_thread::sleep_until(until);
            wait_ms = 0;
        }
        if (attempt > 0 && bounded && Clock::now() >= deadline) {
            for (std::size_t i : pending)
                results[i].status = SubmitStatus::kDeadline;
            break;
        }

        // Place the round. A job that was just BUSY tries the
        // least-loaded other daemon; every other job walks the ring
        // from its key, so a dead daemon's jobs fail over to its
        // ring successor at once.
        const std::uint64_t floor_ms = std::min(
            config_.backoff_base_ms << std::min<std::uint32_t>(
                attempt, 10),
            config_.backoff_cap_ms);
        std::vector<std::vector<std::size_t>> groups(
            endpoints_.size());
        // Per BUSY daemon, its least-loaded peer (-2: not asked yet).
        std::vector<int> least_loaded(endpoints_.size(), -2);
        for (std::size_t i : pending) {
            SubmitResult &result = results[i];
            ++result.attempts;
            int index = -1;
            if (result.status == SubmitStatus::kBusy) {
                int &alt = least_loaded[static_cast<std::size_t>(
                    result.endpoint)];
                if (alt == -2)
                    alt = leastLoaded(result.endpoint);
                index = alt;
            }
            if (index < 0)
                index = place(jobs[i].key);
            if (index < 0) {
                // Whole fleet dead or backing off: wait out a
                // re-probe window before the next round.
                result.status = SubmitStatus::kTransport;
                if (result.payload.empty())
                    result.payload = "no reachable daemon";
                wait_ms = std::max(wait_ms, floor_ms);
                continue;
            }
            groups[static_cast<std::size_t>(index)].push_back(i);
        }

        // One pipelining thread per daemon with work; the fleet is
        // small, so thread-per-endpoint is the right grain.
        std::vector<std::thread> threads;
        for (std::size_t ep = 0; ep < groups.size(); ++ep) {
            if (!groups[ep].empty())
                threads.emplace_back(runGroup, ep,
                                     std::cref(groups[ep]));
        }
        for (std::thread &t : threads)
            t.join();

        // Pace the next round with the largest BUSY hint, never
        // below the exponential floor.
        for (std::size_t i : pending) {
            if (results[i].status == SubmitStatus::kBusy)
                wait_ms = std::max(
                    wait_ms,
                    std::max(results[i].retry_after_ms, floor_ms));
        }
    }
    return results;
}

} // namespace hdrd::service
