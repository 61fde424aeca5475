#include "runtime/simulator.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/radix_table.hh"
#include "common/rng.hh"
#include "demand/cold_region.hh"
#include "detect/fasttrack.hh"
#include "detect/lockset.hh"
#include "detect/naive_hb.hh"
#include "detect/sync_state.hh"
#include "pmu/pmu.hh"
#include "runtime/program.hh"
#include "runtime/scheduler.hh"
#include "runtime/sync.hh"
#include "runtime/thread_context.hh"

namespace hdrd::runtime
{

namespace
{

/** Per-granule ground-truth sharing state. */
struct GtState
{
    ThreadId last_writer = kInvalidThread;

    /** Bitmask of threads that read since the last write. */
    std::uint64_t readers_since_write = 0;
};

} // namespace

Simulator::Simulator(const SimConfig &config,
                     detect::ShadowPool *shadow_pool)
    : config_(config), ft_shadow_(3, shadow_pool)
{
    if (config_.threads_per_core == 0)
        fatal("threads_per_core must be positive");
}

void
Simulator::reconfigure(const SimConfig &config)
{
    if (config.threads_per_core == 0)
        fatal("threads_per_core must be positive");
    config_ = config;
}

mem::Hierarchy &
Simulator::resetHierarchy()
{
    if (hier_ && hier_->config() == config_.mem) {
        hier_->reset();
    } else {
        // Free the old platform before building the new one, so the
        // two never coexist.
        hier_.reset();
        hier_.emplace(config_.mem);
        ++hierarchy_builds_;
    }
    return *hier_;
}

RunResult
Simulator::run(Program &program, RunObserver *observer)
{
    using instr::ToolMode;
    switch (config_.mode) {
      case ToolMode::kNative:
        return runImpl<ToolMode::kNative>(program, observer);
      case ToolMode::kContinuous:
        return runImpl<ToolMode::kContinuous>(program, observer);
      case ToolMode::kDemand:
        return runImpl<ToolMode::kDemand>(program, observer);
    }
    fatal("unknown tool mode ", static_cast<int>(config_.mode));
}

template <instr::ToolMode kMode>
RunResult
Simulator::runImpl(Program &program, RunObserver *observer)
{
    using instr::ToolMode;
    using demand::Strategy;

    const std::uint32_t nthreads = program.numThreads();
    hdrdAssert(nthreads > 0, "program has no threads");
    const std::uint32_t ncores = config_.mem.ncores;
    const instr::CostModel &cost = config_.cost;
    constexpr bool tool = kMode != ToolMode::kNative;
    constexpr bool demand_mode = kMode == ToolMode::kDemand;
    const Strategy strategy = config_.gating.strategy;
    const bool need_gt = config_.track_ground_truth
        || (demand_mode && strategy == Strategy::kDemandOracle);
    if (need_gt && nthreads > 64)
        fatal("ground-truth tracking supports at most 64 threads");
    const std::uint32_t granule_shift = config_.granule_shift;

    // Platform.
    mem::Hierarchy &hier = resetHierarchy();
    pmu::Pmu pmu(ncores);
    // Hardware-signal fault injection. The model owns a private Rng
    // (seeded from run seed + fault seed), so the main rng stream —
    // and with it every schedule — is untouched; when no fault is
    // configured the null pointer keeps the PMU paths pass-through.
    pmu::FaultModel faults(config_.faults, ncores, config_.seed);
    pmu::FaultModel *const fault_ptr =
        faults.enabled() ? &faults : nullptr;
    Rng rng(config_.seed);
    Scheduler sched(config_.sched_jitter, rng.split(),
                    config_.sched_policy);
    std::vector<Cycle> core_cycles(ncores, 0);

    // Detection machinery. Sync clocks are always maintained when a
    // tool is attached; per-access analysis is what gets gated.
    detect::SyncClocks clocks(nthreads);
    RunResult result;
    std::unique_ptr<detect::Detector> detector;
    if (config_.detector == DetectorKind::kNaiveHb) {
        detector = std::make_unique<detect::NaiveHbDetector>(
            clocks, result.reports, granule_shift);
    } else if (config_.detector == DetectorKind::kLockset) {
        detector = std::make_unique<detect::LocksetDetector>(
            result.reports, granule_shift);
    } else {
        // Borrow the engine's kept shadow; its chunk pages come from
        // the shadow pool as this run touches them.
        detector = std::make_unique<detect::FastTrackDetector>(
            clocks, result.reports, ft_shadow_, granule_shift);
    }
    // Hand the chunks back when the run ends, by return or by panic,
    // so a pool shared by several engines holds only runs in flight.
    struct ShadowReturn
    {
        Simulator &sim;
        ~ShadowReturn()
        {
            sim.last_run_chunks_ = sim.ft_shadow_.chunks();
            sim.ft_shadow_.clear();
        }
    };
    const ShadowReturn shadow_return{*this};
    // Devirtualized fast path: FastTrackDetector is final, so calls
    // through this pointer bind directly (no vtable dispatch on the
    // default detector's per-access path).
    detect::FastTrackDetector *const ft =
        config_.detector == DetectorKind::kFastTrack
            ? static_cast<detect::FastTrackDetector *>(detector.get())
            : nullptr;
    demand::DemandController controller(config_.gating, rng.split());
    demand::ColdRegionSampler cold_sampler(
        config_.gating.cold_decay, config_.gating.cold_floor,
        rng.split());
    std::vector<std::uint64_t> watchlist(
        config_.gating.watchlist.begin(),
        config_.gating.watchlist.end());
    std::sort(watchlist.begin(), watchlist.end());

    // Threads.
    std::vector<ThreadContext> ctxs;
    ctxs.reserve(nthreads);
    const bool implicit = program.implicitStart();
    for (ThreadId t = 0; t < nthreads; ++t) {
        const CoreId core =
            (t / config_.threads_per_core) % ncores;
        const ThreadState initial = (t == 0 || implicit)
            ? ThreadState::kRunnable
            : ThreadState::kNotStarted;
        ctxs.emplace_back(t, core, program.makeThread(t), initial);
    }
    if (tool && implicit) {
        // pthread_create-at-top-of-main: fork edges from thread 0.
        for (ThreadId t = 1; t < nthreads; ++t)
            clocks.fork(0, t);
    }
    SyncObjects sync;
    sched.attach(ctxs, ncores);

    /** A thread left the blocked/not-started state. */
    const auto wake = [&](const Wakeup &w) {
        ctxs[w.tid].setState(ThreadState::kRunnable);
        ctxs[w.tid].setResumeTime(w.when);
        sched.onRunnable(w.tid, w.when);
    };

    // PEBS sample latches: the access description a precise sampling
    // facility would deliver with the overflow record, one per core.
    struct PebsLatch
    {
        ThreadId tid = kInvalidThread;
        Addr addr = 0;
        SiteId site = kInvalidSite;
        bool valid = false;

        /** Access-count timestamp, for the staleness bound. */
        std::uint64_t at_access = 0;
    };
    std::vector<PebsLatch> pebs(ncores);

    // Thread currently executing (for interrupt attribution).
    ThreadId current_tid = kInvalidThread;

    // PMU overflow handling: an interrupt is the paper's cue to turn
    // the detector on. The handler charges interrupt cost where it
    // lands and disarms the covered core(s) while analysis is on.
    pmu.setOverflowHandler([&](CoreId core, pmu::EventType) {
        if (!demand_mode)
            return;
        core_cycles[core] += cost.pmu_interrupt;
        ++result.interrupts;
        if (!controller.onInterrupt(current_tid))
            return;
        core_cycles[core] += cost.transition;
        if (controller.failsafeMode()
            == demand::FailsafeMode::kDemand) {
            if (config_.gating.scope == demand::EnableScope::kGlobal)
                pmu.disarmAll();
            else
                pmu.disarm(core);
        }
        // else: escalated failsafe keeps the indicator armed as a
        // canary so signal recovery stays observable.
        if (config_.gating.pebs_precise_capture && pebs[core].valid) {
            const PebsLatch &latch = pebs[core];
            if (config_.gating.pebs_staleness != 0
                && result.mem_accesses - latch.at_access
                       > config_.gating.pebs_staleness) {
                // The latched address is too old to still describe
                // the sharing that raised this interrupt.
                ++result.pebs_stale;
                pebs[core].valid = false;
            } else {
                // Extension: analyze the sampled load retroactively,
                // so the triggering W->R pair itself is visible.
                const auto outcome = ft != nullptr
                    ? ft->onAccess(latch.tid, latch.addr, false,
                                   latch.site)
                    : detector->onAccess(latch.tid, latch.addr, false,
                                         latch.site);
                controller.onAnalyzedAccess(outcome);
                core_cycles[core] += cost.analysisCost(false);
                ++result.pebs_captures;
                ++result.analyzed_accesses;
                pebs[core].valid = false;
            }
        }
    });
    if (demand_mode && strategy == Strategy::kDemandHitm)
        pmu.armAll(config_.gating.hitm_counter);

    RadixTable<GtState> gt_map;

    // Invariant-check countdown: fires exactly when mem_accesses is
    // a multiple of the interval, without a per-access modulo.
    const std::uint64_t inv_interval = config_.invariant_check_interval;
    std::uint64_t inv_countdown = inv_interval;

    // Failsafe health windows: every health_window data accesses the
    // controller gets a fresh view of the signal's health, computed
    // from fault-model and PMU deltas over the window.
    const std::uint64_t health_interval =
        demand_mode && config_.gating.failsafe.escalation
            ? config_.gating.failsafe.health_window
            : 0;
    std::uint64_t health_countdown = health_interval;
    pmu::FaultStats health_prev;

    // Barrier-release scratch, reserved once per run.
    std::vector<ThreadId> barrier_participants;
    barrier_participants.reserve(nthreads);

    // Finalization, shared by the end-of-run result and every
    // observer partial snapshot: assignments only, so applying it to
    // a mid-run copy yields a prefix-consistent view and applying it
    // again later stays correct. Reads engine state, mutates nothing.
    const auto finalize_into = [&](RunResult &r) {
        r.total_ops = 0;
        for (const ThreadContext &tc : ctxs)
            r.total_ops += tc.opsExecuted();
        r.wall_cycles =
            *std::max_element(core_cycles.begin(), core_cycles.end());
        r.enables = controller.enables();
        r.disables = controller.disables();
        r.transitions = controller.transitions();
        r.hitm_loads = hier.stats().counter("hitm_loads");
        r.hitm_transfers = hier.stats().counter("hitm_transfers");
        r.private_writebacks =
            hier.stats().counter("private_writebacks");
        r.mem_latency = hier.latencyHistogram();
        for (std::size_t e = 0; e < pmu::kNumEventTypes; ++e) {
            r.pmu_totals[e] =
                pmu.totalCount(static_cast<pmu::EventType>(e));
        }
        if (faults.enabled()) {
            r.faults_active = true;
            r.faults = faults.stats();
            r.interrupts_suppressed = pmu.interruptsSuppressed();
        }
        if (demand_mode
            && (config_.gating.failsafe.any()
                || config_.gating.pebs_staleness > 0)) {
            r.failsafe_active = true;
            r.failsafe_mode = controller.failsafeMode();
            r.escalations = controller.escalations();
            r.deescalations = controller.deescalations();
            r.ignored_interrupts = controller.ignoredInterrupts();
        }
    };

    // Observer partial cadence: counts executed ops, so the trigger
    // points are a pure function of (program, config) and partial N
    // is byte-stable across runs.
    std::uint64_t partial_countdown =
        observer != nullptr ? observer->interval_ops : 0;

    // Main loop: one operation per iteration, earliest core first.
    for (;;) {
        if (observer != nullptr && observer->cancel != nullptr
            && observer->cancel->load(std::memory_order_relaxed)) {
            observer->cancelled = true;
            break;
        }
        const ThreadId tid = sched.pick(ctxs, core_cycles);
        if (tid == kInvalidThread) {
            const bool all_done = std::all_of(
                ctxs.begin(), ctxs.end(), [](const ThreadContext &tc) {
                    return tc.state() == ThreadState::kFinished;
                });
            if (all_done)
                break;
            if (observer != nullptr && observer->cancel != nullptr
                && observer->cancel->load()) {
                // A cancelled program's blocked threads will never be
                // woken (their feeder is gone); unwind, don't panic.
                observer->cancelled = true;
                break;
            }
            panic("deadlock: no runnable thread in '", program.name(),
                  "' but not all threads finished");
        }
        ThreadContext &tc = ctxs[tid];
        current_tid = tid;
        const CoreId core = tc.core();
        core_cycles[core] =
            std::max(core_cycles[core], tc.resumeTime());

        if (!tc.fetch()) {
            tc.setState(ThreadState::kFinished);
            sched.onNotRunnable(tid);
            for (const Wakeup &w :
                 sync.onThreadFinished(tid, core_cycles[core])) {
                wake(w);
                if (tool)
                    clocks.join(w.tid, tid);
            }
            continue;
        }

        // Reference, not copy: consume() only clears the fetched
        // flag, the op storage stays intact until the next fetch.
        const Op &op = tc.current();
        const Cycle now = core_cycles[core];

        switch (op.type) {
          case OpType::kWork: {
            double dilation = 1.0;
            if (tool) {
                const bool analysis_on =
                    kMode == ToolMode::kContinuous
                    || (demand_mode && controller.shouldAnalyze(tid));
                dilation = analysis_on
                    ? cost.work_dilation_enabled
                    : cost.work_dilation_disabled;
            }
            core_cycles[core] += static_cast<Cycle>(
                static_cast<double>(op.arg * cost.base_work)
                * dilation);
            ++result.work_ops;
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            break;
          }

          case OpType::kRead:
          case OpType::kWrite: {
            const bool write = op.type == OpType::kWrite;
            // Start the detector's shadow-word fetch early: the hint
            // overlaps the cache/PMU modelling below, so the analysis
            // path finds its VarState already in host cache. Purely
            // a performance hint — no simulated state changes.
            if (tool && ft != nullptr)
                ft->shadow().prefetch(op.addr);
            const auto res = hier.access(core, op.addr, write);
            Cycle charge = cost.base_mem_op + res.latency;

            ++result.mem_accesses;
            if (write)
                ++result.writes;
            else
                ++result.reads;

            // Feed the PMU's free-running and sampling counters:
            // the access's whole event set in one batched call. The
            // service point's miss events come from a lookup table
            // instead of a branch per level.
            static constexpr pmu::EventMask kMissEvents[] = {
                /* kL1 */ 0,
                /* kL2 */ pmu::eventBit(pmu::EventType::kL1Miss),
                /* kL3 */ pmu::eventBit(pmu::EventType::kL1Miss)
                    | pmu::eventBit(pmu::EventType::kL2Miss),
                /* kRemoteCache */
                pmu::eventBit(pmu::EventType::kL1Miss)
                    | pmu::eventBit(pmu::EventType::kL2Miss),
                /* kMemory */ pmu::eventBit(pmu::EventType::kL1Miss)
                    | pmu::eventBit(pmu::EventType::kL2Miss)
                    | pmu::eventBit(pmu::EventType::kL3Miss),
            };
            pmu::EventMask events = pmu::eventBit(
                write ? pmu::EventType::kStores
                      : pmu::EventType::kLoads)
                | kMissEvents[static_cast<std::size_t>(res.where)];
            if (res.hitm_load)
                events |= pmu::eventBit(pmu::EventType::kHitmLoad);
            if (res.hitm) {
                // kHitmAny models hypothetical hardware that also
                // exposes store-side HITMs (the W->W sharing real
                // load-only events miss).
                events |= pmu::eventBit(pmu::EventType::kHitmAny);
            }
            if (res.invalidations > 0) {
                events |= pmu::eventBit(
                    pmu::EventType::kInvalidationsSent);
            }
            const bool sampled = pmu.recordAccess(
                core, events, res.invalidations, fault_ptr);
            if (sampled) {
                // This access is the sampled event: latch its PEBS
                // record for possible precise capture at delivery.
                const Addr latched = fault_ptr != nullptr
                    ? faults.filterAddr(core, op.addr)
                    : op.addr;
                pebs[core] = PebsLatch{tid, latched, op.site, true,
                                       result.mem_accesses};
            }

            // Ground-truth sharing classification (word granules).
            bool gt_shared = false;
            if (need_gt) {
                GtState &g = gt_map.get(op.addr >> granule_shift);
                if (write) {
                    if (g.last_writer != kInvalidThread
                        && g.last_writer != tid) {
                        ++result.gt.ww;
                        gt_shared = true;
                    }
                    if ((g.readers_since_write
                         & ~(std::uint64_t{1} << tid)) != 0) {
                        ++result.gt.rw;
                        gt_shared = true;
                    }
                    g.last_writer = tid;
                    g.readers_since_write = 0;
                } else {
                    if (g.last_writer != kInvalidThread
                        && g.last_writer != tid) {
                        ++result.gt.wr;
                        gt_shared = true;
                    }
                    g.readers_since_write |= std::uint64_t{1} << tid;
                }
                if (gt_shared)
                    ++result.gt.shared_accesses;
            }

            // Gating decision.
            bool analyze = false;
            if constexpr (kMode == ToolMode::kContinuous) {
                analyze = true;
            } else if constexpr (demand_mode) {
                if (controller.onAccessBoundary()) {
                    // A sampling-window boundary toggled the state.
                    core_cycles[core] += cost.transition;
                }
                if (strategy == Strategy::kColdRegion) {
                    // Per-site adaptive sampling: no global state.
                    analyze = cold_sampler.shouldAnalyze(op.site);
                } else if (strategy == Strategy::kWatchlist) {
                    analyze = std::binary_search(
                        watchlist.begin(), watchlist.end(),
                        op.addr >> granule_shift);
                } else {
                    if (strategy == Strategy::kDemandOracle
                        && gt_shared && !controller.enabledFor(tid)
                        && controller.onOracleSharing(tid)) {
                        core_cycles[core] += cost.transition;
                    }
                    analyze = controller.shouldAnalyze(tid);
                }
            }

            if (tool && !analyze)
                charge += cost.gate_check;
            if (analyze) {
                charge += cost.analysisCost(write);
                // Continuous mode discards the outcome (only demand
                // gating consumes it), so the typed entry statically
                // skips the sharing classification there.
                const auto outcome = ft != nullptr
                    ? ft->onAccessTyped<demand_mode>(tid, op.addr,
                                                     write, op.site)
                    : detector->onAccess(tid, op.addr, write,
                                         op.site);
                ++result.analyzed_accesses;
                if (demand_mode
                    && controller.onAnalyzedAccess(outcome)) {
                    // Watchdog switched analysis off: re-arm the
                    // hardware indicator.
                    core_cycles[core] += cost.transition;
                    if (strategy == Strategy::kDemandHitm)
                        pmu.armAll(config_.gating.hitm_counter);
                }
            }

            core_cycles[core] += charge;
            tc.consume();
            pmu.retireOp(core, fault_ptr);

            if (inv_interval != 0 && --inv_countdown == 0) {
                hier.checkInvariants();
                inv_countdown = inv_interval;
            }

            if (health_interval != 0 && --health_countdown == 0) {
                health_countdown = health_interval;
                const pmu::FaultStats &fs = faults.stats();
                demand::SignalHealth health;
                const std::uint64_t seen =
                    fs.samples_seen - health_prev.samples_seen;
                const std::uint64_t dropped =
                    fs.dropped() - health_prev.dropped();
                health.drop_ratio = seen == 0
                    ? 0.0
                    : static_cast<double>(dropped)
                        / static_cast<double>(seen);
                const std::uint64_t skid_ev =
                    fs.skid_events - health_prev.skid_events;
                const std::uint64_t skid_sq =
                    fs.skid_added_sq - health_prev.skid_added_sq;
                health.skid_rms = skid_ev == 0
                    ? 0.0
                    : std::sqrt(static_cast<double>(skid_sq)
                                / static_cast<double>(skid_ev));
                health.suppressed = (fs.coalesced + fs.throttled)
                    - (health_prev.coalesced + health_prev.throttled);
                health_prev = fs;
                if (controller.onSignalHealth(health)) {
                    core_cycles[core] += cost.transition;
                    if (strategy == Strategy::kDemandHitm) {
                        // Escalated rungs keep the indicator armed
                        // as a canary; back on the demand rung the
                        // arming follows the enable state again.
                        if (controller.failsafeMode()
                                != demand::FailsafeMode::kDemand
                            || !controller.enabled()) {
                            pmu.armAll(config_.gating.hitm_counter);
                        } else {
                            pmu.disarmAll();
                        }
                    }
                }
            }
            break;
          }

          case OpType::kAtomicRmw: {
            // A seq_cst atomic read-modify-write: a store at the
            // protocol level, an acquire+release pair at the
            // happens-before level, and never a *data* access for the
            // detector (real tools intercept atomics as sync).
            const auto res = hier.access(core, op.addr, true);
            Cycle charge = cost.base_mem_op + res.latency;
            pmu::EventMask events =
                pmu::eventBit(pmu::EventType::kStores);
            if (res.hitm) {
                // Visible to the hypothetical any-access event only:
                // locked RMWs don't retire as ordinary loads.
                events |= pmu::eventBit(pmu::EventType::kHitmAny);
            }
            pmu.recordAccess(core, events, 0, fault_ptr);
            if (need_gt) {
                GtState &g = gt_map.get(op.addr >> granule_shift);
                g.last_writer = tid;
                g.readers_since_write = 0;
            }
            if (tool) {
                // Each atomic address is its own synchronization
                // object; the high tag bit keeps the key space
                // disjoint from workload-chosen lock ids.
                const std::uint64_t key = (1ULL << 63)
                    | (op.addr >> granule_shift);
                clocks.acquire(tid, key);
                clocks.release(tid, key);
                charge += cost.analysis_sync;
            }
            core_cycles[core] += charge;
            ++result.atomic_ops;
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            // Wake futex-style waiters whose threshold is now met.
            for (const Wakeup &w : sync.onAtomicRmw(
                     op.addr >> granule_shift, core_cycles[core])) {
                wake(w);
            }
            break;
          }

          case OpType::kAtomicWait: {
            const std::uint64_t cell = op.addr >> granule_shift;
            if (!sync.atomicSatisfied(cell, op.arg)) {
                sync.addAtomicWaiter(tid, cell, op.arg);
                tc.setState(ThreadState::kBlocked);
                sched.onNotRunnable(tid);
                break;  // op stays pending; retried after wake
            }
            // Acquire-ordering against the releasing RMW chain.
            if (tool) {
                const std::uint64_t key = (1ULL << 63) | cell;
                clocks.acquire(tid, key);
            }
            core_cycles[core] +=
                cost.base_sync + (tool ? cost.analysis_sync : 0);
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            break;
          }

          case OpType::kLock: {
            if (!sync.tryLock(tid, op.arg, now)) {
                tc.setState(ThreadState::kBlocked);
                sched.onNotRunnable(tid);
                break;  // op stays pending; retried after wake
            }
            if (tool) {
                clocks.acquire(tid, op.arg);
                detector->onLock(tid, op.arg);
            }
            core_cycles[core] +=
                cost.base_sync + (tool ? cost.analysis_sync : 0);
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            break;
          }

          case OpType::kUnlock: {
            if (tool) {
                clocks.release(tid, op.arg);
                detector->onUnlock(tid, op.arg);
            }
            core_cycles[core] +=
                cost.base_sync + (tool ? cost.analysis_sync : 0);
            if (auto w = sync.unlock(tid, op.arg, core_cycles[core]))
                wake(*w);
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            break;
          }

          case OpType::kRdLock:
          case OpType::kWrLock: {
            const bool wants_write = op.type == OpType::kWrLock;
            const bool granted = wants_write
                ? sync.tryWrLock(tid, op.arg, now)
                : sync.tryRdLock(tid, op.arg, now);
            if (!granted) {
                tc.setState(ThreadState::kBlocked);
                sched.onNotRunnable(tid);
                break;  // retried after handoff wake
            }
            if (tool) {
                if (wants_write)
                    clocks.wrAcquire(tid, op.arg);
                else
                    clocks.rdAcquire(tid, op.arg);
                // Lockset sees rwlocks in a tagged key space so
                // workload lock/rwlock ids never collide; read-mode
                // holds protect reads only (Eraser's rwlock rule).
                detector->onLock(tid, (1ULL << 62) | op.arg,
                                 wants_write);
            }
            core_cycles[core] +=
                cost.base_sync + (tool ? cost.analysis_sync : 0);
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            break;
          }

          case OpType::kRdUnlock:
          case OpType::kWrUnlock: {
            const bool was_write = op.type == OpType::kWrUnlock;
            if (tool) {
                if (was_write)
                    clocks.wrRelease(tid, op.arg);
                else
                    clocks.rdRelease(tid, op.arg);
                detector->onUnlock(tid, (1ULL << 62) | op.arg);
            }
            core_cycles[core] +=
                cost.base_sync + (tool ? cost.analysis_sync : 0);
            const auto woken = was_write
                ? sync.wrUnlock(tid, op.arg, core_cycles[core])
                : sync.rdUnlock(tid, op.arg, core_cycles[core]);
            for (const Wakeup &w : woken)
                wake(w);
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            break;
          }

          case OpType::kBarrier: {
            core_cycles[core] +=
                cost.base_sync + (tool ? cost.analysis_sync : 0);
            const std::uint32_t expected =
                op.arg2 != 0 ? op.arg2 : nthreads;
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            auto released = sync.arriveBarrier(tid, op.arg, expected,
                                               core_cycles[core]);
            if (!released) {
                tc.setState(ThreadState::kBlocked);
                sched.onNotRunnable(tid);
                break;
            }
            // Last arriver: all-to-all happens-before, wake everyone.
            if (tool) {
                barrier_participants.clear();
                for (const Wakeup &w : *released)
                    barrier_participants.push_back(w.tid);
                clocks.barrier(barrier_participants);
            }
            for (const Wakeup &w : *released) {
                if (w.tid == tid) {
                    core_cycles[core] =
                        std::max(core_cycles[core], w.when);
                } else {
                    wake(w);
                }
            }
            break;
          }

          case OpType::kThreadCreate: {
            const auto child = static_cast<ThreadId>(op.arg);
            hdrdAssert(child < nthreads && child != tid,
                       "create of invalid thread ", child);
            ThreadContext &cc = ctxs[child];
            hdrdAssert(cc.state() == ThreadState::kNotStarted,
                       "thread ", child, " created twice");
            core_cycles[core] +=
                cost.base_sync + (tool ? cost.analysis_sync : 0);
            if (tool)
                clocks.fork(tid, child);
            cc.setState(ThreadState::kRunnable);
            cc.setResumeTime(core_cycles[core]);
            sched.onRunnable(child, core_cycles[core]);
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            break;
          }

          case OpType::kThreadJoin: {
            const auto target = static_cast<ThreadId>(op.arg);
            hdrdAssert(target < nthreads && target != tid,
                       "join of invalid thread ", target);
            core_cycles[core] +=
                cost.base_sync + (tool ? cost.analysis_sync : 0);
            ++result.sync_ops;
            pmu.recordEvent(core, pmu::EventType::kSyncOps);
            tc.consume();
            pmu.retireOp(core, fault_ptr);
            if (ctxs[target].state() == ThreadState::kFinished) {
                if (tool)
                    clocks.join(tid, target);
            } else {
                sync.addJoinWaiter(tid, target);
                tc.setState(ThreadState::kBlocked);
                sched.onNotRunnable(tid);
            }
            break;
          }
        }

        // Cross-op prefetch: per-thread op streams are thread-local,
        // so this thread's *next* op can be generated now — several
        // scheduler picks before it executes — and its shadow word
        // and private tag sets started toward host cache while other
        // threads' ops run in between. fetch() is idempotent and all
        // stock bodies tolerate early calls; bodies with call-order-
        // sensitive side effects opt out via nextIsPure(). Pure host
        // hints — no simulated state moves.
        if (tc.fetchAhead()) {
            // Staged ops were already hinted with two ops of lead
            // when fetchAhead2() generated them; re-hinting here
            // doubles prefetch traffic per op for no extra lead.
            const Op &nx = tc.current();
            if (!tc.currentWasStaged()
                && (nx.type == OpType::kRead
                    || nx.type == OpType::kWrite
                    || nx.type == OpType::kAtomicRmw)) {
                if (tool && ft != nullptr)
                    ft->shadow().prefetch(nx.addr);
                hier.prefetchAccess(core, nx.addr);
            }
            // Depth 2: with op n+1 staged, generate op n+2 as well.
            // At --scale>=4 working sets a shadow miss costs more
            // than a whole op executes, so one op of lead time is
            // not enough to hide it; two is. Same purity rules and
            // pure-host-hint guarantees as depth 1.
            if (tc.fetchAhead2()) {
                const Op &nx2 = tc.nextOp();
                if (nx2.type == OpType::kRead
                    || nx2.type == OpType::kWrite
                    || nx2.type == OpType::kAtomicRmw) {
                    if (tool && ft != nullptr)
                        ft->shadow().prefetch(nx2.addr);
                    hier.prefetchAccess(core, nx2.addr);
                }
            }
        }

        if (partial_countdown != 0 && --partial_countdown == 0) {
            partial_countdown = observer->interval_ops;
            if (observer->on_partial) {
                RunResult snapshot = result;
                finalize_into(snapshot);
                observer->on_partial(snapshot);
            }
        }
    }

    finalize_into(result);
    return result;
}

void
RunResult::dump(std::ostream &os) const
{
    os << "run.wall_cycles " << wall_cycles << '\n'
       << "run.total_ops " << total_ops << '\n'
       << "run.mem_accesses " << mem_accesses << '\n'
       << "run.reads " << reads << '\n'
       << "run.writes " << writes << '\n'
       << "run.sync_ops " << sync_ops << '\n'
       << "run.atomic_ops " << atomic_ops << '\n'
       << "run.work_ops " << work_ops << '\n'
       << "run.analyzed_accesses " << analyzed_accesses << '\n'
       << "run.analyzed_fraction " << analyzedFraction() << '\n'
       << "run.enables " << enables << '\n'
       << "run.disables " << disables << '\n'
       << "run.interrupts " << interrupts << '\n'
       << "run.pebs_captures " << pebs_captures << '\n'
       << "run.hitm_loads " << hitm_loads << '\n'
       << "run.hitm_transfers " << hitm_transfers << '\n'
       << "run.private_writebacks " << private_writebacks << '\n'
       << "run.gt_wr " << gt.wr << '\n'
       << "run.gt_ww " << gt.ww << '\n'
       << "run.gt_rw " << gt.rw << '\n'
       << "run.gt_shared_accesses " << gt.shared_accesses << '\n'
       << "run.races_unique " << reports.uniqueCount() << '\n'
       << "run.races_dynamic " << reports.dynamicCount() << '\n'
       << "run.mem_latency_mean " << mem_latency.mean() << '\n'
       << "run.mem_latency_p50 " << mem_latency.percentile(50)
       << '\n'
       << "run.mem_latency_p99 " << mem_latency.percentile(99)
       << '\n';
    for (std::size_t e = 0; e < pmu::kNumEventTypes; ++e) {
        os << "run.pmu." << pmu::eventName(
                static_cast<pmu::EventType>(e))
           << ' ' << pmu_totals[e] << '\n';
    }
    // Fault / failsafe blocks are emitted only when the features are
    // in use, so fault-free runs keep the frozen golden dump format.
    if (faults_active) {
        os << "run.fault.samples_seen " << faults.samples_seen << '\n'
           << "run.fault.dropped " << faults.dropped() << '\n'
           << "run.fault.drop_ratio " << faults.dropRatio() << '\n'
           << "run.fault.skid_added " << faults.skid_added << '\n'
           << "run.fault.skid_rms " << faults.skidRms() << '\n'
           << "run.fault.coalesced " << faults.coalesced << '\n'
           << "run.fault.throttled " << faults.throttled << '\n'
           << "run.fault.throttle_trips " << faults.throttle_trips
           << '\n'
           << "run.fault.corrupted_addrs " << faults.corrupted_addrs
           << '\n'
           << "run.fault.delivered " << faults.delivered << '\n'
           << "run.fault.suppressed_interrupts "
           << interrupts_suppressed << '\n';
    }
    if (failsafe_active) {
        os << "run.failsafe.mode "
           << demand::failsafeModeName(failsafe_mode) << '\n'
           << "run.failsafe.escalations " << escalations << '\n'
           << "run.failsafe.deescalations " << deescalations << '\n'
           << "run.failsafe.ignored_interrupts " << ignored_interrupts
           << '\n'
           << "run.failsafe.pebs_stale " << pebs_stale << '\n';
    }
}

} // namespace hdrd::runtime
