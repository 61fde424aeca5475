/**
 * @file
 * Fleet shard router: places jobs across a set of hdrd_served
 * daemons and makes submissions survive daemon death.
 *
 * Placement is a consistent-hash ring (virtual nodes per daemon), so
 * a fixed job key lands on the same daemon for any client, and a
 * daemon joining or leaving only moves the keys that hashed to it —
 * the property that keeps per-daemon trace caches warm across fleet
 * reconfigurations. When the placed daemon answers BUSY, the router
 * falls back to the least-loaded peer as observed through STATS
 * (pool.queue_depth / pool.active_workers normalized by
 * pool.workers, skipping daemons whose server.draining gauge is up).
 *
 * Failure handling is a per-endpoint health state machine: a refused
 * connect or a mid-exchange transport loss marks the daemon dead and
 * schedules a re-probe after a jittered exponential backoff; until
 * then the ring walks past it. The first job routed to a daemon
 * whose backoff expired doubles as the probe — success revives it,
 * failure re-doubles the backoff. All jitter comes from one seeded
 * xorshift generator, so a fixed seed yields a reproducible failover
 * schedule (the determinism the fleet fault tests pin down).
 *
 * Exactly-once lands at the result layer: every submitted job gets
 * exactly one final SubmitResult, and a report is accepted from
 * exactly one daemon. A job whose response was lost in transit may
 * have *executed* on the dying daemon before being re-run elsewhere,
 * but jobs are pure — byte-identical report for a given
 * (trace, JobOptions) — so re-execution is unobservable in the
 * output.
 */

#ifndef HDRD_SERVICE_ROUTER_HH
#define HDRD_SERVICE_ROUTER_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/client.hh"
#include "service/protocol.hh"

namespace hdrd::service
{

/** One addressable daemon in the fleet. */
struct Endpoint
{
    /** The spec text this endpoint was parsed from. */
    std::string spec;

    /** Unix-domain socket path (non-empty = unix transport). */
    std::string unix_path;

    /** TCP host (numeric IPv4 or "localhost") and port. */
    std::string host;
    std::uint16_t port = 0;

    /**
     * Parse one --daemons list element:
     *   "unix:PATH" or any text containing '/'  → unix socket
     *   "HOST:PORT"                             → TCP
     *   "PORT" (all digits)                     → TCP to 127.0.0.1
     * @return false with @p err set on malformed text.
     */
    static bool parse(const std::string &text, Endpoint &out,
                      std::string &err);

    /** Canonical display name ("unix:PATH" or "HOST:PORT"). */
    std::string name() const;

    /** Connect @p client to this daemon over its transport. */
    bool connect(Client &client, std::string &err) const;
};

/** Router tuning. Defaults suit tests; the client exposes flags. */
struct RouterConfig
{
    /**
     * Seed for every jitter draw (backoff, re-probe spread). A fixed
     * seed makes the failover schedule reproducible run to run.
     */
    std::uint64_t retry_seed = 1;

    /** Attempts per job before giving up (1 = no retry). */
    std::uint32_t max_attempts = 8;

    /**
     * Wall-clock budget for a job's retries and their backoff
     * sleeps, counted from the end of its first attempt, which may
     * queue behind a long pipeline (0 = unbounded).
     */
    std::uint64_t job_deadline_ms = 30000;

    /** First retry backoff; doubles per attempt up to the cap. */
    std::uint64_t backoff_base_ms = 10;
    std::uint64_t backoff_cap_ms = 2000;

    /**
     * SO_RCVTIMEO/SO_SNDTIMEO on control connections (PING probes,
     * STATS reads) so a hung daemon becomes a transport failure
     * there, not a stalled client (0 = none). Connections that
     * carry jobs get no timeout: a job's answer is awaited for as
     * long as the job runs.
     */
    std::uint64_t io_timeout_ms = 10000;

    /** First dead-daemon re-probe delay; doubles up to 10 s. */
    std::uint64_t dead_retry_ms = 100;

    /**
     * Evict an endpoint from the placement ring after this many
     * consecutive failures (0 = never). An evicted daemon's virtual
     * nodes leave the live ring, so its keys rebalance to the
     * survivors and it is no longer re-probed on the submission
     * path; an explicit probe() that succeeds re-admits it. The
     * last live endpoint is never evicted.
     */
    std::uint32_t evict_after = 0;
};

/** Final disposition of one routed job. */
enum class SubmitStatus
{
    kOk,          ///< report received
    kBusy,        ///< still BUSY after every attempt
    kTransport,   ///< no daemon reachable within the attempt budget
    kRejected,    ///< daemon rejected the job (protocol ERROR)
    kDeadline,    ///< per-job deadline expired mid-failover
    kNoEndpoints, ///< router has no endpoints at all
};

/** One routed job's outcome. */
struct SubmitResult
{
    SubmitStatus status = SubmitStatus::kNoEndpoints;

    /** Report JSON (kOk) or the last error/busy body seen. */
    std::string payload;

    /** Endpoint index that produced the final outcome (-1 = none). */
    int endpoint = -1;

    /** Attempts consumed (connects + submissions). */
    std::uint32_t attempts = 0;

    /** errno of the last transport failure (0 = none). */
    int transport_errno = 0;

    /** The server's retry hint when the last answer was BUSY. */
    std::uint64_t retry_after_ms = 0;

    /** True when the report came from a non-primary endpoint. */
    bool rerouted = false;
};

/**
 * Routes jobs across a daemon fleet with failover. Thread-safe: any
 * number of submitter threads may call submit(), submitBatch() and
 * place() on one Router concurrently (shared state is the health
 * table and the jitter RNG, both under one lock; connections are
 * per-call).
 */
class Router
{
  public:
    Router(std::vector<Endpoint> endpoints, RouterConfig config);

    std::size_t size() const { return endpoints_.size(); }
    const Endpoint &endpoint(std::size_t i) const
    {
        return endpoints_[i];
    }
    const RouterConfig &config() const { return config_; }

    /**
     * Consistent-hash placement for @p key over currently eligible
     * endpoints (alive, or dead with an expired re-probe backoff).
     * @return endpoint index, or -1 when nothing is eligible.
     */
    int place(const std::string &key);

    /**
     * Placement ignoring health — where @p key lands on the full
     * ring. Exposed for placement-stability tests.
     */
    int placeStatic(const std::string &key) const;

    /** Submit one job with failover: a submitBatch() of one. */
    SubmitResult submit(const std::string &key,
                        const JobOptions &options,
                        const std::string &trace_bytes);

    /** One job in a batch. Trace bytes are borrowed, not copied. */
    struct BatchJob
    {
        std::string key;
        JobOptions options;
        const std::string *trace = nullptr;
    };

    /**
     * Submit a batch with failover, in rounds. Each round is one
     * attempt for every job still without a report or rejection:
     * jobs are grouped by placement, each group is pipelined over
     * one connection to its daemon (window bounded by @p window),
     * and groups run concurrently. A transport failure marks the
     * daemon dead and its jobs fall over to ring successors in the
     * next round at once; a BUSY job waits out the largest hint
     * (never below the seeded jittered exponential backoff) and
     * tries the least-loaded peer. Rounds stop when every job is
     * settled, the attempt budget is spent, or the deadline passes.
     * One final result per job, in input order.
     */
    std::vector<SubmitResult> submitBatch(
        const std::vector<BatchJob> &jobs, std::size_t window);

    /**
     * One control exchange with daemon @p index over a fresh
     * connection bounded by io_timeout_ms; updates the health
     * table. @p type is FrameType::kPing or FrameType::kStats.
     * @return the answer; a failed connect has transport_ok false,
     *         the connect error as payload, and its errno.
     */
    Response request(std::size_t index, FrameType type);

    /**
     * Active health probe: a PING request().
     * @return true when the daemon answered.
     */
    bool probe(std::size_t index);

    /** True when the health table currently believes @p i is alive. */
    bool alive(std::size_t index);

    /** True when @p index has been evicted from the live ring. */
    bool evicted(std::size_t index);

    /** Jobs that completed away from their static placement. */
    std::uint64_t reroutedJobs() const;

    /**
     * Extract an integer metric ("name": N) from an hdrd-metrics-v1
     * document. @return false when the name is absent.
     */
    static bool metricValue(const std::string &json,
                            const std::string &name,
                            std::int64_t &out);

    /**
     * Queue-pressure load score from a STATS snapshot:
     * (queue_depth + active_workers) scaled by 1000 / workers.
     * Draining daemons score unplaceable.
     * @return the score, or a huge sentinel for draining/unparseable
     *         snapshots.
     */
    static std::int64_t loadScore(const std::string &stats_json);

  private:
    using Clock = std::chrono::steady_clock;

    /** Per-endpoint health (guarded by mutex_). */
    struct Health
    {
        bool alive = true;
        std::uint32_t failures = 0;
        Clock::time_point retry_at{};  ///< dead: next probe time

        /** Off the live ring until an explicit probe revives it. */
        bool evicted = false;
    };

    /** One ring slot: (hash, endpoint index), sorted by hash. */
    struct RingNode
    {
        std::uint64_t hash;
        std::uint32_t index;
    };

    /** Next jitter draw in [ms/2, ms]. */
    std::uint64_t jittered(std::uint64_t ms);

    void markDead(std::size_t index);
    void markAlive(std::size_t index);

    /** Recompute live_ring_ from the eviction flags (mutex_ held). */
    void rebuildLiveRingLocked();

    /** Eligible = alive, or dead with the re-probe backoff expired. */
    bool eligibleLocked(std::size_t index, Clock::time_point now);

    /** STATS-probe eligible endpoints; lowest load, or -1. */
    int leastLoaded(int exclude);

    std::vector<Endpoint> endpoints_;
    RouterConfig config_;

    /** The full static ring (placeStatic; never changes). */
    std::vector<RingNode> ring_;

    /** ring_ minus evicted endpoints (guarded by mutex_). */
    std::vector<RingNode> live_ring_;

    mutable std::mutex mutex_;
    std::vector<Health> health_;
    std::uint64_t rng_state_;
    std::uint64_t rerouted_jobs_ = 0;
};

} // namespace hdrd::service

#endif // HDRD_SERVICE_ROUTER_HH
