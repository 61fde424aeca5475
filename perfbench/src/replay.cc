#include "replay.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "common/alloc_stats.hh"
#include "common/rng.hh"
#include "demand/controller.hh"
#include "detect/fasttrack.hh"
#include "detect/lockset.hh"
#include "detect/report.hh"
#include "detect/sync_state.hh"
#include "mem/hierarchy.hh"
#include "pmu/pmu.hh"
#include "runtime/sync.hh"
#include "trace/trace_io.hh"

namespace perfbench
{

using namespace hdrd;
using runtime::Op;
using runtime::OpType;

void
LayerCosts::add(const LayerCosts &o)
{
    window_ops += o.window_ops;
    mem_ns += o.mem_ns;
    mem_calls += o.mem_calls;
    l1_hits += o.l1_hits;
    pmu_ns += o.pmu_ns;
    pmu_calls += o.pmu_calls;
    demand_ns += o.demand_ns;
    demand_calls += o.demand_calls;
    detect_ns += o.detect_ns;
    detect_calls += o.detect_calls;
    detect_rss_mb += o.detect_rss_mb;
    windows += o.windows;
    decode_ns += o.decode_ns;
    decode_records += o.decode_records;
}

namespace
{

// The engine's key spaces for sync objects (runtime/simulator.cc):
// atomic cells and reader-writer locks are tagged apart from the
// workload's mutex ids.
constexpr std::uint64_t kAtomicKeyTag = 1ULL << 63;
constexpr std::uint64_t kRwLockKeyTag = 1ULL << 62;

struct MemCall
{
    Addr addr = 0;
    CoreId core = 0;
    bool write = false;
};

enum class PmuOp : std::uint8_t
{
    kAccess,
    kSyncEvent,
    kRetire,
    kArmAll,
    kDisarmAll,
    kDisarm,
};

struct PmuCall
{
    PmuOp op = PmuOp::kRetire;
    CoreId core = 0;
    pmu::EventMask mask = 0;
    std::uint32_t invalidations = 0;
};

enum class DemandOp : std::uint8_t
{
    kBoundary,
    kShouldAnalyze,
    kInterrupt,
    kAnalyzed,
};

struct DemandCall
{
    DemandOp op = DemandOp::kBoundary;
    ThreadId tid = 0;
    detect::AccessOutcome outcome;
};

enum class DetectOp : std::uint8_t
{
    kRead,
    kWrite,
    kAcquire,
    kRelease,
    kRdAcquire,
    kRdRelease,
    kWrAcquire,
    kWrRelease,
    kFork,
    kJoin,
    kBarrier,
    kLock,
    kUnlock,
};

struct DetectCall
{
    DetectOp op = DetectOp::kRead;
    bool write_mode = true;  ///< kLock: write-mode hold
    ThreadId tid = 0;
    SiteId site = kInvalidSite;
    /** Address, sync key, other thread, or participant offset. */
    std::uint64_t arg = 0;
    std::uint32_t count = 0;  ///< kBarrier: participants
};

/** The controller's RNG stream, split exactly as the engine does. */
Rng
controllerRng(std::uint64_t seed)
{
    Rng rng(seed);
    (void)rng.split();  // the scheduler's stream
    return rng.split();
}

/** The detect layer: always-on sync clocks plus the detector. */
class DetectLayer
{
  public:
    DetectLayer(const runtime::SimConfig &config, std::uint32_t nthreads)
        : clocks_(nthreads),
          need_sharing_(config.mode == instr::ToolMode::kDemand)
    {
        if (config.detector == runtime::DetectorKind::kFastTrack)
            ft_ = std::make_unique<detect::FastTrackDetector>(
                clocks_, reports_, config.granule_shift);
        else if (config.detector == runtime::DetectorKind::kLockset)
            other_ = std::make_unique<detect::LocksetDetector>(
                reports_, config.granule_shift);
        else
            die("replay supports the fasttrack and lockset detectors");
    }

    detect::AccessOutcome apply(const DetectCall &c,
                                const std::vector<ThreadId> &parts)
    {
        switch (c.op) {
          case DetectOp::kRead:
          case DetectOp::kWrite: {
            const bool write = c.op == DetectOp::kWrite;
            if (!ft_)
                return other_->onAccess(c.tid, c.arg, write, c.site);
            return need_sharing_
                ? ft_->onAccessTyped<true>(c.tid, c.arg, write, c.site)
                : ft_->onAccessTyped<false>(c.tid, c.arg, write,
                                            c.site);
          }
          case DetectOp::kAcquire:
            clocks_.acquire(c.tid, c.arg);
            break;
          case DetectOp::kRelease:
            clocks_.release(c.tid, c.arg);
            break;
          case DetectOp::kRdAcquire:
            clocks_.rdAcquire(c.tid, c.arg);
            break;
          case DetectOp::kRdRelease:
            clocks_.rdRelease(c.tid, c.arg);
            break;
          case DetectOp::kWrAcquire:
            clocks_.wrAcquire(c.tid, c.arg);
            break;
          case DetectOp::kWrRelease:
            clocks_.wrRelease(c.tid, c.arg);
            break;
          case DetectOp::kFork:
            clocks_.fork(c.tid, static_cast<ThreadId>(c.arg));
            break;
          case DetectOp::kJoin:
            clocks_.join(c.tid, static_cast<ThreadId>(c.arg));
            break;
          case DetectOp::kBarrier:
            clocks_.barrier(std::span<const ThreadId>(
                parts.data() + c.arg, c.count));
            break;
          case DetectOp::kLock:
            detector().onLock(c.tid, c.arg, c.write_mode);
            break;
          case DetectOp::kUnlock:
            detector().onUnlock(c.tid, c.arg);
            break;
        }
        return {};
    }

    std::size_t races() const { return reports_.uniqueCount(); }

  private:
    detect::Detector &detector()
    {
        return ft_ ? static_cast<detect::Detector &>(*ft_) : *other_;
    }

    detect::SyncClocks clocks_;
    detect::ReportSink reports_;
    bool need_sharing_;
    std::unique_ptr<detect::FastTrackDetector> ft_;
    std::unique_ptr<detect::Detector> other_;
};

/**
 * Every layer driven together, in captured order, each call logged
 * for the per-layer passes. Mirrors the engine's per-op sequence
 * (runtime/simulator.cc) minus scheduling and cycle accounting,
 * which decide the order the capture already fixed.
 */
class CoupledReplay
{
  public:
    explicit CoupledReplay(const CellCapture &cap)
        : cap_(cap), config_(cap.config),
          demand_(cap.config.mode == instr::ToolMode::kDemand),
          hier_(cap.config.mem), pmu_(cap.config.mem.ncores),
          detect_(cap.config, cap.nthreads),
          controller_(cap.config.gating, controllerRng(cap.config.seed)),
          finished_(cap.nthreads, false), pending_(cap.nthreads)
    {
        const runtime::SimConfig &c = config_;
        if (c.mode == instr::ToolMode::kNative || c.faults.any()
            || c.gating.failsafe.any() || c.gating.pebs_precise_capture
            || c.gating.pebs_staleness != 0 || c.track_ground_truth
            || (demand_
                && c.gating.strategy != demand::Strategy::kDemandHitm))
            die("replay supports continuous and demand-hitm cells "
                "without faults, failsafe, PEBS capture or ground "
                "truth");
        for (ThreadId t = 0; t < cap.nthreads; ++t)
            core_of_.push_back((t / c.threads_per_core) % c.mem.ncores);

        pmu_.setOverflowHandler([this](CoreId core, pmu::EventType) {
            if (!demand_)
                return;
            ++interrupts_;
            demand_log.push_back(
                {DemandOp::kInterrupt, current_tid_, {}});
            if (!controller_.onInterrupt(current_tid_))
                return;
            if (controller_.failsafeMode()
                != demand::FailsafeMode::kDemand)
                return;
            if (config_.gating.scope == demand::EnableScope::kGlobal) {
                pmu_log.push_back({PmuOp::kDisarmAll, 0, 0, 0});
                pmu_.disarmAll();
            } else {
                pmu_log.push_back({PmuOp::kDisarm, core, 0, 0});
                pmu_.disarm(core);
            }
        });
        if (cap.implicit_start) {
            for (ThreadId t = 1; t < cap.nthreads; ++t)
                detectCall({DetectOp::kFork, true, 0, kInvalidSite, t});
        }
        if (demand_)
            armAll();
    }

    void run()
    {
        for (const CapturedOp &e : cap_.ops)
            step(e);
    }

    std::uint64_t hitmLoads() const
    {
        return hier_.stats().counter("hitm_loads");
    }

    std::size_t races() const { return detect_.races(); }
    std::uint64_t interrupts() const { return interrupts_; }
    std::uint64_t enables() const { return controller_.enables(); }

    std::vector<MemCall> mem_log;
    std::vector<PmuCall> pmu_log;
    std::vector<DemandCall> demand_log;
    std::vector<DetectCall> detect_log;
    std::vector<ThreadId> participants;

  private:
    mem::AccessResult access(CoreId core, Addr addr, bool write)
    {
        mem_log.push_back({addr, core, write});
        return hier_.access(core, addr, write);
    }

    void recordAccess(CoreId core, pmu::EventMask mask,
                      std::uint32_t invalidations)
    {
        pmu_log.push_back({PmuOp::kAccess, core, mask, invalidations});
        pmu_.recordAccess(core, mask, invalidations);
    }

    void retire(ThreadId tid, bool sync_op)
    {
        const CoreId core = core_of_[tid];
        if (sync_op) {
            pmu_log.push_back({PmuOp::kSyncEvent, core, 0, 0});
            pmu_.recordEvent(core, pmu::EventType::kSyncOps);
        }
        current_tid_ = tid;
        pmu_log.push_back({PmuOp::kRetire, core, 0, 0});
        pmu_.retireOp(core);
    }

    void armAll()
    {
        pmu_log.push_back({PmuOp::kArmAll, 0, 0, 0});
        pmu_.armAll(config_.gating.hitm_counter);
    }

    bool demandCall(DemandOp op, ThreadId tid,
                    detect::AccessOutcome outcome = {})
    {
        demand_log.push_back({op, tid, outcome});
        switch (op) {
          case DemandOp::kBoundary:
            return controller_.onAccessBoundary();
          case DemandOp::kShouldAnalyze:
            return controller_.shouldAnalyze(tid);
          case DemandOp::kAnalyzed:
            return controller_.onAnalyzedAccess(outcome);
          case DemandOp::kInterrupt:
            break;
        }
        return false;
    }

    detect::AccessOutcome detectCall(const DetectCall &c)
    {
        detect_log.push_back(c);
        return detect_.apply(c, participants);
    }

    void step(const CapturedOp &e)
    {
        const ThreadId tid = e.tid;
        if (e.finish) {
            finished_[tid] = true;
            for (const runtime::Wakeup &w : sync_.onThreadFinished(tid, 0))
                detectCall({DetectOp::kJoin, true, w.tid, kInvalidSite,
                            tid});
            return;
        }
        if (!granted(tid, e.op, true)) {
            pending_[tid] = e.op;  // retried when a release wakes it
            return;
        }
        execute(tid, e.op);
    }

    /** The engine's try-acquire for blocking ops (true otherwise). */
    bool granted(ThreadId tid, const Op &op, bool first_try)
    {
        switch (op.type) {
          case OpType::kLock:
            return sync_.tryLock(tid, op.arg, 0);
          case OpType::kRdLock:
            return sync_.tryRdLock(tid, op.arg, 0);
          case OpType::kWrLock:
            return sync_.tryWrLock(tid, op.arg, 0);
          case OpType::kAtomicWait: {
            const std::uint64_t cell = op.addr >> config_.granule_shift;
            if (sync_.atomicSatisfied(cell, op.arg))
                return true;
            if (first_try)
                sync_.addAtomicWaiter(tid, cell, op.arg);
            return false;
          }
          default:
            return true;
        }
    }

    void execute(ThreadId tid, const Op &op)
    {
        const CoreId core = core_of_[tid];
        const std::uint32_t gshift = config_.granule_shift;
        std::vector<runtime::Wakeup> woken;
        switch (op.type) {
          case OpType::kWork:
            if (demand_)
                demandCall(DemandOp::kShouldAnalyze, tid);
            retire(tid, false);
            break;

          case OpType::kRead:
          case OpType::kWrite: {
            const bool write = op.type == OpType::kWrite;
            const mem::AccessResult res = access(core, op.addr, write);
            static constexpr pmu::EventMask kMissEvents[] = {
                0,
                pmu::eventBit(pmu::EventType::kL1Miss),
                pmu::eventBit(pmu::EventType::kL1Miss)
                    | pmu::eventBit(pmu::EventType::kL2Miss),
                pmu::eventBit(pmu::EventType::kL1Miss)
                    | pmu::eventBit(pmu::EventType::kL2Miss),
                pmu::eventBit(pmu::EventType::kL1Miss)
                    | pmu::eventBit(pmu::EventType::kL2Miss)
                    | pmu::eventBit(pmu::EventType::kL3Miss),
            };
            pmu::EventMask events =
                pmu::eventBit(write ? pmu::EventType::kStores
                                    : pmu::EventType::kLoads)
                | kMissEvents[static_cast<std::size_t>(res.where)];
            if (res.hitm_load)
                events |= pmu::eventBit(pmu::EventType::kHitmLoad);
            if (res.hitm)
                events |= pmu::eventBit(pmu::EventType::kHitmAny);
            if (res.invalidations > 0)
                events |=
                    pmu::eventBit(pmu::EventType::kInvalidationsSent);
            recordAccess(core, events, res.invalidations);

            bool analyze = true;
            if (demand_) {
                demandCall(DemandOp::kBoundary, tid);
                analyze = demandCall(DemandOp::kShouldAnalyze, tid);
            }
            if (analyze) {
                const detect::AccessOutcome outcome = detectCall(
                    {write ? DetectOp::kWrite : DetectOp::kRead, true,
                     tid, op.site, op.addr});
                if (demand_
                    && demandCall(DemandOp::kAnalyzed, tid, outcome))
                    armAll();  // watchdog disabled analysis
            }
            retire(tid, false);
            break;
          }

          case OpType::kAtomicRmw: {
            const mem::AccessResult res = access(core, op.addr, true);
            pmu::EventMask events =
                pmu::eventBit(pmu::EventType::kStores);
            if (res.hitm)
                events |= pmu::eventBit(pmu::EventType::kHitmAny);
            recordAccess(core, events, 0);
            const std::uint64_t key = kAtomicKeyTag | (op.addr >> gshift);
            detectCall({DetectOp::kAcquire, true, tid, kInvalidSite, key});
            detectCall({DetectOp::kRelease, true, tid, kInvalidSite, key});
            retire(tid, true);
            woken = sync_.onAtomicRmw(op.addr >> gshift, 0);
            break;
          }

          case OpType::kAtomicWait:
            detectCall({DetectOp::kAcquire, true, tid, kInvalidSite,
                        kAtomicKeyTag | (op.addr >> gshift)});
            retire(tid, true);
            break;

          case OpType::kLock:
            detectCall({DetectOp::kAcquire, true, tid, kInvalidSite,
                        op.arg});
            detectCall({DetectOp::kLock, true, tid, kInvalidSite, op.arg});
            retire(tid, true);
            break;

          case OpType::kUnlock:
            detectCall({DetectOp::kRelease, true, tid, kInvalidSite,
                        op.arg});
            detectCall({DetectOp::kUnlock, true, tid, kInvalidSite,
                        op.arg});
            if (auto w = sync_.unlock(tid, op.arg, 0))
                woken.push_back(*w);
            retire(tid, true);
            break;

          case OpType::kRdLock:
          case OpType::kWrLock: {
            const bool wants_write = op.type == OpType::kWrLock;
            detectCall({wants_write ? DetectOp::kWrAcquire
                                    : DetectOp::kRdAcquire,
                        true, tid, kInvalidSite, op.arg});
            detectCall({DetectOp::kLock, wants_write, tid, kInvalidSite,
                        kRwLockKeyTag | op.arg});
            retire(tid, true);
            break;
          }

          case OpType::kRdUnlock:
          case OpType::kWrUnlock: {
            const bool was_write = op.type == OpType::kWrUnlock;
            detectCall({was_write ? DetectOp::kWrRelease
                                  : DetectOp::kRdRelease,
                        true, tid, kInvalidSite, op.arg});
            detectCall({DetectOp::kUnlock, true, tid, kInvalidSite,
                        kRwLockKeyTag | op.arg});
            woken = was_write ? sync_.wrUnlock(tid, op.arg, 0)
                              : sync_.rdUnlock(tid, op.arg, 0);
            retire(tid, true);
            break;
          }

          case OpType::kBarrier: {
            retire(tid, true);
            const std::uint32_t expected =
                op.arg2 != 0 ? op.arg2 : cap_.nthreads;
            const auto released =
                sync_.arriveBarrier(tid, op.arg, expected, 0);
            if (released) {
                DetectCall c{DetectOp::kBarrier, true, tid, kInvalidSite,
                             participants.size()};
                for (const runtime::Wakeup &w : *released)
                    participants.push_back(w.tid);
                c.count = static_cast<std::uint32_t>(released->size());
                detectCall(c);
            }
            break;
          }

          case OpType::kThreadCreate:
            detectCall({DetectOp::kFork, true, tid, kInvalidSite, op.arg});
            retire(tid, true);
            break;

          case OpType::kThreadJoin: {
            retire(tid, true);
            const auto target = static_cast<ThreadId>(op.arg);
            if (finished_[target])
                detectCall({DetectOp::kJoin, true, tid, kInvalidSite,
                            target});
            else
                sync_.addJoinWaiter(tid, target);
            break;
          }
        }
        // Woken threads retry their blocked op after this one.
        for (const runtime::Wakeup &w : woken) {
            if (!pending_[w.tid])
                continue;
            const Op retry = *pending_[w.tid];
            pending_[w.tid].reset();
            if (!granted(w.tid, retry, false))
                die("replay: a woken thread's retry was refused");
            execute(w.tid, retry);
        }
    }

    const CellCapture &cap_;
    const runtime::SimConfig &config_;
    bool demand_;
    mem::Hierarchy hier_;
    pmu::Pmu pmu_;
    DetectLayer detect_;
    demand::DemandController controller_;
    runtime::SyncObjects sync_;
    std::vector<CoreId> core_of_;
    std::vector<bool> finished_;
    std::vector<std::optional<Op>> pending_;
    ThreadId current_tid_ = 0;
    std::uint64_t interrupts_ = 0;
};

/**
 * Replay calls [0, n) through @p fn under spans of up to 64Ki calls.
 * @return total nanoseconds inside the spans.
 */
template <typename Fn>
double
timedPass(SpanLog &spans, const char *layer, const char *what,
          const std::string &owner, std::size_t n, Fn &&fn)
{
    constexpr std::size_t kChunk = std::size_t{1} << 16;
    double total_ns = 0.0;
    for (std::size_t i = 0; i < n; i += kChunk) {
        const std::size_t end = std::min(n, i + kChunk);
        Span span{layer, what, owner, spans.nowUs(), 0.0, end - i};
        const auto t0 = Clock::now();
        for (std::size_t j = i; j < end; ++j)
            fn(j);
        const auto t1 = Clock::now();
        span.end_us = spans.nowUs();
        total_ns += seconds(t0, t1) * 1e9;
        spans.add(std::move(span));
    }
    return total_ns;
}

/** ByteSource over an in-memory trace image. */
class StringSource final : public trace::ByteSource
{
  public:
    explicit StringSource(const std::string &bytes) : bytes_(bytes) {}

    std::size_t read(char *dst, std::size_t n) override
    {
        const std::size_t take = std::min(n, bytes_.size() - pos_);
        std::memcpy(dst, bytes_.data() + pos_, take);
        pos_ += take;
        return take;
    }

  private:
    const std::string &bytes_;
    std::size_t pos_ = 0;
};

} // namespace

double
decodeNs(const std::string &bytes, SpanLog &spans,
         const std::string &owner, std::uint64_t &records)
{
    std::vector<trace::TraceRecord> batch(4096);
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
        StringSource source(bytes);
        trace::TraceReader reader(source, bytes.size());
        Span span{"trace", "TraceReader::next", owner, spans.nowUs(), 0.0,
                  0};
        const auto t0 = Clock::now();
        if (!reader.readHeader())
            die("decode of " + owner + ": " + reader.error());
        std::uint64_t n = 0;
        while (const std::size_t got =
                   reader.next(batch.data(), batch.size()))
            n += got;
        const auto t1 = Clock::now();
        if (!reader.done())
            die("decode of " + owner + ": " + reader.error());
        span.end_us = spans.nowUs();
        span.calls = n;
        spans.add(std::move(span));
        reps.push_back(seconds(t0, t1) * 1e9);
        records = n;
    }
    return median(reps);
}

bool
replayWindow(const CellCapture &capture, const std::string &scratch_trace,
             SpanLog &spans, LayerCosts &costs, std::string &err)
{
    const runtime::SimConfig &config = capture.config;
    const std::string &owner = capture.owner;
    const std::uint64_t want_hitm = capture.window.hitm_loads;
    const std::uint64_t want_races = capture.window.reports.uniqueCount();

    auto coupled = std::make_unique<CoupledReplay>(capture);
    coupled->run();
    if (coupled->hitmLoads() != want_hitm
        || coupled->races() != want_races) {
        err = owner + ": coupled replay gave hitm_loads "
            + std::to_string(coupled->hitmLoads()) + ", races_unique "
            + std::to_string(coupled->races()) + "; the engine gave "
            + std::to_string(want_hitm) + ", "
            + std::to_string(want_races);
        return false;
    }
    const std::uint64_t want_interrupts = coupled->interrupts();
    const std::uint64_t want_enables = coupled->enables();
    // Keep the logs, drop the coupled layers before the timed passes.
    const std::vector<MemCall> mem_log = std::move(coupled->mem_log);
    const std::vector<PmuCall> pmu_log = std::move(coupled->pmu_log);
    const std::vector<DemandCall> demand_log =
        std::move(coupled->demand_log);
    const std::vector<DetectCall> detect_log =
        std::move(coupled->detect_log);
    const std::vector<ThreadId> participants =
        std::move(coupled->participants);
    coupled.reset();

    LayerCosts c;
    c.window_ops = capture.window.total_ops;
    c.windows = 1;

    {
        mem::Hierarchy hier(config.mem);
        c.mem_calls = mem_log.size();
        c.mem_ns = timedPass(spans, "mem", "Hierarchy::access", owner,
                             mem_log.size(), [&](std::size_t i) {
                                 const MemCall &m = mem_log[i];
                                 hier.access(m.core, m.addr, m.write);
                             });
        c.l1_hits = hier.stats().counter("l1_hits");
        if (hier.stats().counter("hitm_loads") != want_hitm) {
            err = owner + ": Hierarchy replay did not reproduce "
                "hitm_loads";
            return false;
        }
    }

    {
        pmu::Pmu pmu(config.mem.ncores);
        std::uint64_t interrupts = 0;
        pmu.setOverflowHandler(
            [&](CoreId, pmu::EventType) { ++interrupts; });
        c.pmu_calls = pmu_log.size();
        c.pmu_ns = timedPass(
            spans, "pmu", "recordAccess/retireOp", owner, pmu_log.size(),
            [&](std::size_t i) {
                const PmuCall &p = pmu_log[i];
                switch (p.op) {
                  case PmuOp::kAccess:
                    pmu.recordAccess(p.core, p.mask, p.invalidations);
                    break;
                  case PmuOp::kSyncEvent:
                    pmu.recordEvent(p.core, pmu::EventType::kSyncOps);
                    break;
                  case PmuOp::kRetire:
                    pmu.retireOp(p.core);
                    break;
                  case PmuOp::kArmAll:
                    pmu.armAll(config.gating.hitm_counter);
                    break;
                  case PmuOp::kDisarmAll:
                    pmu.disarmAll();
                    break;
                  case PmuOp::kDisarm:
                    pmu.disarm(p.core);
                    break;
                }
            });
        if (config.mode == instr::ToolMode::kDemand
            && interrupts != want_interrupts) {
            err = owner + ": PMU replay did not reproduce the interrupts";
            return false;
        }
    }

    {
        demand::DemandController controller(config.gating,
                                            controllerRng(config.seed));
        // Used in the error text below, so the pure shouldAnalyze()
        // queries cannot be optimized out of the timed loop.
        std::uint64_t answers = 0;
        c.demand_calls = demand_log.size();
        c.demand_ns = timedPass(
            spans, "demand", "DemandController", owner, demand_log.size(),
            [&](std::size_t i) {
                const DemandCall &d = demand_log[i];
                switch (d.op) {
                  case DemandOp::kBoundary:
                    answers += controller.onAccessBoundary();
                    break;
                  case DemandOp::kShouldAnalyze:
                    answers += controller.shouldAnalyze(d.tid);
                    break;
                  case DemandOp::kInterrupt:
                    answers += controller.onInterrupt(d.tid);
                    break;
                  case DemandOp::kAnalyzed:
                    answers += controller.onAnalyzedAccess(d.outcome);
                    break;
                }
            });
        if (controller.enables() != want_enables) {
            err = owner + ": controller replay did not reproduce the "
                "enables (" + std::to_string(answers) + " answers)";
            return false;
        }
    }

    {
        resetPeakRssWatermark();
        const std::uint64_t base_kb = peakRssKb();
        DetectLayer detect(config, capture.nthreads);
        c.detect_calls = detect_log.size();
        c.detect_ns = timedPass(spans, "detect", "onAccess+SyncClocks",
                                owner, detect_log.size(),
                                [&](std::size_t i) {
                                    detect.apply(detect_log[i],
                                                 participants);
                                });
        c.detect_rss_mb =
            static_cast<double>(peakRssKb() - base_kb) / 1024.0;
        if (detect.races() != want_races) {
            err = owner + ": detector replay did not reproduce "
                "races_unique";
            return false;
        }
    }

    {
        trace::TraceWriter writer(scratch_trace, owner, capture.nthreads);
        if (!writer.ok())
            die("cannot write " + scratch_trace);
        for (const CapturedOp &e : capture.ops) {
            if (!e.finish)
                writer.record(e.tid, e.op);
        }
        if (!writer.finalize())
            die("cannot write " + scratch_trace);
        std::ifstream in(scratch_trace, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        std::remove(scratch_trace.c_str());
        c.decode_ns = decodeNs(bytes.str(), spans, owner, c.decode_records);
    }

    costs.add(c);
    return true;
}

} // namespace perfbench
