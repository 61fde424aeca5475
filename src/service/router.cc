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
    ring_.reserve(static_cast<std::size_t>(config_.virtual_nodes)
                  * endpoints_.size());
    for (std::uint32_t i = 0; i < endpoints_.size(); ++i) {
        const std::uint64_t base = fnv1a(endpoints_[i].name());
        for (std::uint32_t v = 0; v < config_.virtual_nodes; ++v)
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
Router::placeFrom(const std::string &key, int exclude)
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
        const auto index = static_cast<int>(it->index);
        if (index == exclude)
            continue;
        if (eligibleLocked(it->index, now))
            return index;
    }
    return -1;
}

int
Router::place(const std::string &key)
{
    return placeFrom(key, -1);
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
    backoff = std::min(backoff, config_.dead_retry_cap_ms);
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
Router::connectEndpoint(std::size_t index, Client &client,
                        std::string &err)
{
    const Endpoint &ep = endpoints_[index];
    const bool ok = ep.unix_path.empty()
        ? client.connectTcp(ep.host, ep.port, err)
        : client.connectUnix(ep.unix_path, err);
    if (ok && config_.io_timeout_ms > 0)
        client.setTimeouts(config_.io_timeout_ms);
    return ok;
}

bool
Router::probe(std::size_t index)
{
    Client client;
    std::string err;
    if (!connectEndpoint(index, client, err)) {
        markDead(index);
        return false;
    }
    const Response pong = client.ping();
    if (!pong.transport_ok) {
        markDead(index);
        return false;
    }
    markAlive(index);
    return true;
}

std::vector<std::pair<bool, std::string>>
Router::statsAll()
{
    std::vector<std::pair<bool, std::string>> out(endpoints_.size());
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        Client client;
        std::string err;
        if (!connectEndpoint(i, client, err)) {
            markDead(i);
            out[i] = {false, err};
            continue;
        }
        const Response stats = client.stats();
        if (!stats.transport_ok) {
            markDead(i);
            out[i] = {false, "connection lost"};
            continue;
        }
        markAlive(i);
        out[i] = {true, stats.payload};
    }
    return out;
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
        Client client;
        std::string err;
        if (!connectEndpoint(i, client, err)) {
            markDead(i);
            continue;
        }
        const Response stats = client.stats();
        if (!stats.transport_ok) {
            markDead(i);
            continue;
        }
        markAlive(i);
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
    SubmitResult result;
    if (endpoints_.empty())
        return result;

    const int primary = placeStatic(key);
    const auto start = Clock::now();
    const bool bounded = config_.job_deadline_ms > 0;
    const auto deadline =
        start + std::chrono::milliseconds(config_.job_deadline_ms);

    auto backoffFor = [&](std::uint32_t attempt) {
        const std::uint64_t raw = config_.backoff_base_ms
            << std::min<std::uint32_t>(attempt, 10);
        return std::min(raw, config_.backoff_cap_ms);
    };
    auto sleepBounded = [&](std::uint64_t ms) {
        auto until = Clock::now() + std::chrono::milliseconds(ms);
        if (bounded && until > deadline)
            until = deadline;
        std::this_thread::sleep_until(until);
    };

    int prefer = -1;  // least-loaded override after a BUSY
    int avoid = -1;   // the endpoint that just answered BUSY
    for (std::uint32_t attempt = 0; attempt < config_.max_attempts;
         ++attempt) {
        if (bounded && Clock::now() >= deadline) {
            result.status = SubmitStatus::kDeadline;
            return result;
        }
        const int index = prefer >= 0 ? prefer
                                      : placeFrom(key, avoid);
        prefer = -1;
        avoid = -1;
        if (index < 0) {
            // Whole fleet dead or backing off: wait out a re-probe
            // window, then the ring walk will try again.
            result.status = SubmitStatus::kTransport;
            if (result.payload.empty())
                result.payload = "no reachable daemon";
            ++result.attempts;
            sleepBounded(jittered(backoffFor(attempt)));
            continue;
        }

        ++result.attempts;
        Client client;
        std::string err;
        if (!connectEndpoint(static_cast<std::size_t>(index), client,
                             err)) {
            // Refused/unreachable: mark dead and fail over to the
            // ring successor immediately (refusal is fast).
            markDead(static_cast<std::size_t>(index));
            result.status = SubmitStatus::kTransport;
            result.transport_errno = client.lastErrno();
            result.endpoint = index;
            continue;
        }
        Response response = client.submit(options, trace_bytes);
        if (!response.transport_ok) {
            markDead(static_cast<std::size_t>(index));
            result.status = SubmitStatus::kTransport;
            result.transport_errno = response.transport_errno;
            result.endpoint = index;
            continue;
        }
        markAlive(static_cast<std::size_t>(index));

        if (response.isReport()) {
            result.status = SubmitStatus::kOk;
            result.payload = std::move(response.payload);
            result.endpoint = index;
            result.rerouted = index != primary;
            if (result.rerouted) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++rerouted_jobs_;
            }
            return result;
        }
        if (response.isBusy()) {
            result.status = SubmitStatus::kBusy;
            result.payload = response.payload;
            result.endpoint = index;
            // Least-loaded fallback: pace with the server's hint
            // (never below the exponential floor), then try the
            // least busy peer instead of hammering the same queue.
            const std::uint64_t wait = std::max(
                response.retry_after_ms, backoffFor(attempt));
            sleepBounded(jittered(wait));
            const int alt = leastLoaded(index);
            if (alt >= 0) {
                prefer = alt;
                avoid = index;
            }
            continue;
        }
        // ERROR is a deterministic rejection (bad options, bad
        // trace): every daemon would answer the same, so don't
        // burn attempts re-asking.
        result.status = SubmitStatus::kRejected;
        result.payload = std::move(response.payload);
        result.endpoint = index;
        return result;
    }
    return result;
}

std::vector<SubmitResult>
Router::submitBatch(const std::vector<BatchJob> &jobs,
                    std::size_t window)
{
    std::vector<SubmitResult> results(jobs.size());
    if (jobs.empty() || endpoints_.empty())
        return results;
    window = std::max<std::size_t>(1, window);

    // Group by current placement; unplaceable jobs go straight to
    // the failover pass.
    std::vector<std::vector<std::size_t>> groups(endpoints_.size());
    std::vector<std::size_t> stragglers;
    std::mutex straggler_mutex;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const int index = place(jobs[i].key);
        if (index < 0)
            stragglers.push_back(i);
        else
            groups[static_cast<std::size_t>(index)].push_back(i);
    }

    auto runGroup = [&](std::size_t ep) {
        const std::vector<std::size_t> &group = groups[ep];
        auto spill = [&]() {
            std::lock_guard<std::mutex> lock(straggler_mutex);
            for (std::size_t i : group) {
                if (results[i].status != SubmitStatus::kOk)
                    stragglers.push_back(i);
            }
        };
        Client client;
        std::string err;
        if (!connectEndpoint(ep, client, err)) {
            markDead(ep);
            spill();
            return;
        }
        std::vector<PipelineSubmission> subs;
        subs.reserve(group.size());
        for (std::size_t i : group) {
            PipelineSubmission sub;
            sub.options = jobs[i].options;
            sub.trace_bytes = jobs[i].trace;
            subs.push_back(sub);
        }
        const std::vector<Response> responses =
            client.submitPipelined(subs, window);
        bool transport_lost = false;
        std::uint64_t rerouted_here = 0;
        for (std::size_t k = 0; k < group.size(); ++k) {
            const Response &response = responses[k];
            const std::size_t i = group[k];
            if (response.isReport()) {
                results[i].status = SubmitStatus::kOk;
                results[i].payload = response.payload;
                results[i].endpoint = static_cast<int>(ep);
                results[i].attempts = 1;
                results[i].rerouted = placeStatic(jobs[i].key)
                    != static_cast<int>(ep);
                if (results[i].rerouted)
                    ++rerouted_here;
            } else if (!response.transport_ok) {
                transport_lost = true;
            }
        }
        if (rerouted_here > 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            rerouted_jobs_ += rerouted_here;
        }
        if (transport_lost)
            markDead(ep);
        else
            markAlive(ep);
        spill();
    };

    // One pipelining thread per daemon with work; the fleet is
    // small, so thread-per-endpoint is the right grain.
    std::vector<std::thread> threads;
    for (std::size_t ep = 0; ep < groups.size(); ++ep) {
        if (!groups[ep].empty())
            threads.emplace_back(runGroup, ep);
    }
    for (std::thread &t : threads)
        t.join();

    // Failover pass: everything without a report goes through the
    // full per-job retry machinery, in input order so the schedule
    // is reproducible for a fixed seed.
    std::sort(stragglers.begin(), stragglers.end());
    for (std::size_t i : stragglers) {
        results[i] = submit(jobs[i].key, jobs[i].options,
                            jobs[i].trace ? *jobs[i].trace
                                          : std::string());
    }
    return results;
}

} // namespace hdrd::service
