/**
 * @file
 * Integration tests for the Simulator: whole-platform behaviour under
 * the native / continuous / demand-driven regimes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "instr/cost_model.hh"
#include "runtime/simulator.hh"
#include "workloads/synthetic.hh"

using namespace hdrd;
using namespace hdrd::runtime;
using namespace hdrd::workloads;
using instr::ToolMode;
using demand::Strategy;

namespace
{

/** Two threads hammer an unlocked word amid private noise. */
std::unique_ptr<SyntheticProgram>
racyProgram(std::uint64_t private_n = 20000, std::uint64_t racy_n = 300)
{
    Builder b("racy", 2);
    const Region scratch = b.alloc(256 * 1024);
    const Region word = b.alloc(8);
    for (ThreadId t = 0; t < 2; ++t) {
        b.sweep(t, scratch.slice(t, 2), private_n, 0.3);
        b.sweep(t, word, racy_n, 0.5);
        b.sweep(t, scratch.slice(t, 2), private_n, 0.3);
    }
    return b.build();
}

/** Same traffic, but the shared word is lock-protected. */
std::unique_ptr<SyntheticProgram>
cleanProgram(std::uint64_t private_n = 20000)
{
    Builder b("clean", 2);
    const Region scratch = b.alloc(256 * 1024);
    const Region word = b.alloc(8);
    const std::uint64_t lock = b.newLock();
    for (ThreadId t = 0; t < 2; ++t) {
        b.sweep(t, scratch.slice(t, 2), private_n, 0.3);
        b.lockedRmw(t, word, 150, lock);
        b.sweep(t, scratch.slice(t, 2), private_n, 0.3);
    }
    return b.build();
}

SimConfig
demandConfig()
{
    SimConfig config;
    config.mode = ToolMode::kDemand;
    return config;
}

} // namespace

TEST(Simulator, NativeModeAnalyzesNothing)
{
    auto prog = racyProgram();
    SimConfig config;
    config.mode = ToolMode::kNative;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.analyzed_accesses, 0u);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
    EXPECT_GT(result.wall_cycles, 0u);
    EXPECT_GT(result.mem_accesses, 40000u);
}

TEST(Simulator, ContinuousAnalyzesEveryAccess)
{
    auto prog = racyProgram();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.analyzed_accesses, result.mem_accesses);
    EXPECT_GT(result.reports.uniqueCount(), 0u);
}

TEST(Simulator, ContinuousIsCleanOnRaceFreeProgram)
{
    auto prog = cleanProgram();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
    EXPECT_GT(result.sync_ops, 0u);
}

TEST(Simulator, DemandFindsRepeatingRaces)
{
    auto prog = racyProgram();
    const auto result = Simulator::runWith(*prog, demandConfig());
    EXPECT_GT(result.reports.uniqueCount(), 0u);
    EXPECT_GT(result.enables, 0u);
    EXPECT_GT(result.interrupts, 0u);
    // Far fewer accesses analyzed than continuous would.
    EXPECT_LT(result.analyzed_accesses, result.mem_accesses);
}

TEST(Simulator, DemandIsCleanOnRaceFreeProgram)
{
    auto prog = cleanProgram();
    const auto result = Simulator::runWith(*prog, demandConfig());
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
}

TEST(Simulator, WallCycleOrderingAcrossModes)
{
    SimConfig native, demand_cfg, continuous;
    native.mode = ToolMode::kNative;
    demand_cfg.mode = ToolMode::kDemand;
    continuous.mode = ToolMode::kContinuous;

    auto p1 = racyProgram();
    auto p2 = racyProgram();
    auto p3 = racyProgram();
    const auto rn = Simulator::runWith(*p1, native);
    const auto rd = Simulator::runWith(*p2, demand_cfg);
    const auto rc = Simulator::runWith(*p3, continuous);
    EXPECT_LT(rn.wall_cycles, rd.wall_cycles);
    EXPECT_LT(rd.wall_cycles, rc.wall_cycles);
}

TEST(Simulator, MutualExclusionNeverDeadlocks)
{
    // Heavy lock contention across 4 threads on 2 cores.
    Builder b("contended", 4);
    const Region word = b.alloc(8);
    const std::uint64_t lock = b.newLock();
    for (ThreadId t = 0; t < 4; ++t)
        b.lockedRmw(t, word, 500, lock);
    auto prog = b.build();

    SimConfig config;
    config.mode = ToolMode::kContinuous;
    config.mem.ncores = 2;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
    EXPECT_EQ(result.sync_ops, 4u * 500u * 2u);
}

TEST(Simulator, BarrierPhasesOrderAllThreads)
{
    // Threads write a shared region in turns separated by barriers:
    // race-free by construction, validating barrier HB plumbing.
    Builder b("phased", 3);
    const Region shared = b.alloc(512);
    for (ThreadId t = 0; t < 3; ++t) {
        for (ThreadId writer = 0; writer < 3; ++writer) {
            if (writer == t)
                b.sweep(t, shared, 64, 1.0);
            b.barrierAll(100 + writer);
        }
    }
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
}

TEST(SimulatorDeath, DeadlockPanics)
{
    Builder b("deadlock", 2);
    b.lockOp(0, 1);
    b.lockOp(0, 2);
    b.unlockOp(0, 2);
    b.unlockOp(0, 1);
    b.lockOp(1, 2);
    b.lockOp(1, 1);
    b.unlockOp(1, 1);
    b.unlockOp(1, 2);
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kNative;
    EXPECT_DEATH(Simulator::runWith(*prog, config), "deadlock");
}

TEST(Simulator, SmtSiblingsShareCachesNoHitm)
{
    // Producer/consumer pair placed on the SAME core: the modified
    // lines never leave the shared private cache, so the hardware
    // indicator is blind — the paper's SMT caveat.
    Builder b("smt", 2);
    const Region word = b.alloc(8);
    b.sweep(0, word, 500, 1.0);
    b.sweep(1, word, 500, 0.5);
    auto prog = b.build();

    auto config = demandConfig();
    config.threads_per_core = 2;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.hitm_loads, 0u);
    EXPECT_EQ(result.interrupts, 0u);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);  // race missed!

    // Identical program with threads on distinct cores: detected.
    Builder b2("smt2", 2);
    const Region w2 = b2.alloc(8);
    b2.sweep(0, w2, 500, 1.0);
    b2.sweep(1, w2, 500, 0.5);
    auto prog3 = b2.build();
    auto config2 = demandConfig();
    config2.threads_per_core = 1;
    const auto result2 = Simulator::runWith(*prog3, config2);
    EXPECT_GT(result2.hitm_loads, 0u);
    EXPECT_GT(result2.reports.uniqueCount(), 0u);
}

TEST(Simulator, OracleStrategyCatchesRaces)
{
    auto prog = racyProgram();
    auto config = demandConfig();
    config.gating.strategy = Strategy::kDemandOracle;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.reports.uniqueCount(), 0u);
    EXPECT_GT(result.enables, 0u);
    EXPECT_EQ(result.interrupts, 0u);  // no PMU involved
}

TEST(Simulator, SamplingStrategyTogglesWithoutPmu)
{
    auto prog = racyProgram();
    auto config = demandConfig();
    config.gating.strategy = Strategy::kRandomSampling;
    config.gating.sampling_rate = 0.5;
    config.gating.sampling_window = 1000;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.interrupts, 0u);
    EXPECT_GT(result.enables + result.disables, 5u);
    EXPECT_GT(result.analyzed_accesses, 0u);
}

TEST(Simulator, GroundTruthSharingTracked)
{
    auto prog = racyProgram();
    SimConfig config;
    config.mode = ToolMode::kNative;
    config.track_ground_truth = true;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.gt.shared_accesses, 0u);
    EXPECT_GT(result.gt.wr, 0u);
    EXPECT_GT(result.gt.ww, 0u);
    EXPECT_GT(result.sharingFraction(), 0.0);
    EXPECT_LT(result.sharingFraction(), 0.2);
}

TEST(Simulator, PrivateProgramHasNoGroundTruthSharing)
{
    Builder b("private", 2);
    const Region scratch = b.alloc(64 * 1024);
    b.sweep(0, scratch.slice(0, 2), 5000, 0.5);
    b.sweep(1, scratch.slice(1, 2), 5000, 0.5);
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kNative;
    config.track_ground_truth = true;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.gt.shared_accesses, 0u);
}

TEST(Simulator, InvariantChecksPassDuringRun)
{
    auto prog = racyProgram(5000, 100);
    SimConfig config;
    config.mode = ToolMode::kDemand;
    config.invariant_check_interval = 1000;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.mem_accesses, 0u);
}

TEST(Simulator, TransitionTimelineAlternates)
{
    auto prog = racyProgram();
    const auto result = Simulator::runWith(*prog, demandConfig());
    ASSERT_FALSE(result.transitions.empty());
    bool expect_enable = true;
    for (const auto &tr : result.transitions) {
        EXPECT_EQ(tr.to_enabled, expect_enable);
        expect_enable = !expect_enable;
    }
}

TEST(Simulator, PmuTotalsConsistent)
{
    auto prog = racyProgram();
    SimConfig config;
    config.mode = ToolMode::kNative;
    const auto result = Simulator::runWith(*prog, config);
    const auto loads = result.pmu_totals[static_cast<std::size_t>(
        pmu::EventType::kLoads)];
    const auto stores = result.pmu_totals[static_cast<std::size_t>(
        pmu::EventType::kStores)];
    EXPECT_EQ(loads, result.reads);
    EXPECT_EQ(stores, result.writes);
    EXPECT_EQ(loads + stores, result.mem_accesses);
    const auto retired = result.pmu_totals[static_cast<std::size_t>(
        pmu::EventType::kRetiredOps)];
    EXPECT_EQ(retired, result.total_ops);
}

TEST(Simulator, ExplicitCreateJoinProgram)
{
    /** A program with explicit thread management. */
    class ExplicitProgram : public Program
    {
      public:
        const std::string &
        name() const override
        {
            static const std::string n = "explicit";
            return n;
        }

        std::uint32_t numThreads() const override { return 2; }
        bool implicitStart() const override { return false; }

        std::unique_ptr<ThreadBody>
        makeThread(ThreadId tid) override
        {
            class MainBody : public ThreadBody
            {
              public:
                bool
                next(Op &op) override
                {
                    switch (step_++) {
                      case 0:
                        op = Op::write(0x100, 1);
                        return true;
                      case 1:
                        op = Op::threadCreate(1);
                        return true;
                      case 2:
                        op = Op::threadJoin(1);
                        return true;
                      case 3:
                        // Reads what the child wrote: ordered by join.
                        op = Op::read(0x200, 2);
                        return true;
                      default:
                        return false;
                    }
                }

              private:
                int step_ = 0;
            };
            class ChildBody : public ThreadBody
            {
              public:
                bool
                next(Op &op) override
                {
                    switch (step_++) {
                      case 0:
                        // Reads what main wrote: ordered by create.
                        op = Op::read(0x100, 3);
                        return true;
                      case 1:
                        op = Op::write(0x200, 4);
                        return true;
                      default:
                        return false;
                    }
                }

              private:
                int step_ = 0;
            };
            if (tid == 0)
                return std::make_unique<MainBody>();
            return std::make_unique<ChildBody>();
        }
    };

    ExplicitProgram prog;
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
    EXPECT_EQ(result.mem_accesses, 4u);
    EXPECT_GE(result.sync_ops, 2u);
}

TEST(Simulator, MoreThreadsThanCores)
{
    Builder b("oversubscribed", 8);
    const Region scratch = b.alloc(1 << 20);
    for (ThreadId t = 0; t < 8; ++t)
        b.sweep(t, scratch.slice(t, 8), 2000, 0.4);
    b.barrierAll(b.newBarrier());
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    config.mem.ncores = 4;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
    EXPECT_EQ(result.mem_accesses, 16000u);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto p1 = racyProgram();
    auto p2 = racyProgram();
    const auto a = Simulator::runWith(*p1, demandConfig());
    const auto b = Simulator::runWith(*p2, demandConfig());
    EXPECT_EQ(a.wall_cycles, b.wall_cycles);
    EXPECT_EQ(a.analyzed_accesses, b.analyzed_accesses);
    EXPECT_EQ(a.reports.uniqueCount(), b.reports.uniqueCount());
    EXPECT_EQ(a.enables, b.enables);
}

TEST(Simulator, ReusedEngineMatchesFreshInstance)
{
    // The engine keeps its FastTrack shadow memory across run() calls
    // and recycles its pages and pooled read clocks.  That reuse must
    // be invisible: every measurement a reused engine dumps has to be
    // byte-identical to a fresh engine's, racy and clean alike.
    const auto dumpOf = [](const RunResult &r) {
        std::ostringstream os;
        r.dump(os);
        return os.str();
    };

    Simulator engine(demandConfig());
    const std::string racy_reused = dumpOf(engine.run(*racyProgram()));
    const std::string clean_reused =
        dumpOf(engine.run(*cleanProgram()));
    const std::string racy_again = dumpOf(engine.run(*racyProgram()));

    EXPECT_EQ(racy_reused,
              dumpOf(Simulator::runWith(*racyProgram(),
                                        demandConfig())));
    EXPECT_EQ(clean_reused,
              dumpOf(Simulator::runWith(*cleanProgram(),
                                        demandConfig())));
    // A recycled shadow must not leak state between jobs.
    EXPECT_EQ(racy_reused, racy_again);
}

TEST(Simulator, KeptHierarchyIsRebuiltOnlyWhenItsConfigChanges)
{
    // One engine runs a sparse large-footprint job, a tiny job, a job
    // on fewer cores, and the first job again. Each dump must be
    // byte-identical to a fresh engine's, and the kept hierarchy is
    // rebuilt only when the core count (SimConfig::mem) changes.
    const auto dumpOf = [](const RunResult &r) {
        std::ostringstream os;
        r.dump(os);
        return os.str();
    };
    // Lines 4 KiB apart over 32 MiB: every access its own shadow
    // chunk, and enough lines to spill the L2s and fill L3 sets.
    const auto sparse = [] {
        Builder b("sparse", 2);
        const Region span = b.alloc(32u << 20);
        for (ThreadId t = 0; t < 2; ++t)
            b.sweep(t, span, 4096, 0.5, /*random=*/true, 4096);
        return b.build();
    };
    SimConfig continuous;
    continuous.mode = ToolMode::kContinuous;
    SimConfig two_cores = demandConfig();
    two_cores.mem.ncores = 2;

    Simulator engine(continuous);
    EXPECT_EQ(engine.hierarchyBuilds(), 0u);
    const std::string sparse_kept = dumpOf(engine.run(*sparse()));
    EXPECT_EQ(engine.hierarchyBuilds(), 1u);

    engine.reconfigure(demandConfig());
    const std::string tiny_kept =
        dumpOf(engine.run(*racyProgram(200, 20)));
    EXPECT_EQ(engine.hierarchyBuilds(), 1u);

    engine.reconfigure(two_cores);
    const std::string cores_kept = dumpOf(engine.run(*racyProgram()));
    EXPECT_EQ(engine.hierarchyBuilds(), 2u);

    engine.reconfigure(continuous);
    const std::string sparse_again = dumpOf(engine.run(*sparse()));
    EXPECT_EQ(engine.hierarchyBuilds(), 3u);

    EXPECT_EQ(sparse_kept,
              dumpOf(Simulator::runWith(*sparse(), continuous)));
    EXPECT_EQ(tiny_kept, dumpOf(Simulator::runWith(*racyProgram(200, 20),
                                                   demandConfig())));
    EXPECT_EQ(cores_kept,
              dumpOf(Simulator::runWith(*racyProgram(), two_cores)));
    EXPECT_EQ(sparse_again, sparse_kept);

    // A regime, seed or schedule change keeps the hierarchy.
    SimConfig reseeded = continuous;
    reseeded.seed = 99;
    reseeded.sched_jitter = 0.1;
    engine.reconfigure(reseeded);
    const std::string reseeded_kept = dumpOf(engine.run(*sparse()));
    EXPECT_EQ(engine.hierarchyBuilds(), 3u);
    EXPECT_EQ(reseeded_kept,
              dumpOf(Simulator::runWith(*sparse(), reseeded)));
}

TEST(Simulator, KeptShadowFollowsTheLargestRunNotTheUnion)
{
    // One engine runs a sparse large job, a small racy job at
    // addresses the large one never touched, and the large job again.
    // Each dump and report list must equal a fresh engine's. Every
    // run hands all its shadow chunks back to the engine's private
    // pool when it ends, and the pool holds the large job's count:
    // the small job re-takes pooled chunks instead of adding its own.
    const auto dumpOf = [](const RunResult &r) {
        std::ostringstream os;
        r.dump(os);
        for (const detect::RaceReport &report : r.reports.reports())
            os << report << '\n';
        return os.str();
    };
    // Lines 4 KiB apart over 8 MiB: about one shadow chunk per access.
    const auto sparse = [] {
        Builder b("sparse", 2);
        const Region span = b.alloc(8u << 20);
        for (ThreadId t = 0; t < 2; ++t)
            b.sweep(t, span, 2048, 0.5, /*random=*/true, 4096);
        return b.build();
    };
    const auto small = [] {
        Builder b("small", 2);
        b.alloc(16u << 20);  // never touched: past the sparse span
        const Region scratch = b.alloc(16 * 1024);
        const Region word = b.alloc(8);
        for (ThreadId t = 0; t < 2; ++t) {
            b.sweep(t, scratch.slice(t, 2), 2000, 0.3);
            b.sweep(t, word, 50, 0.5);
        }
        return b.build();
    };
    SimConfig continuous;
    continuous.mode = ToolMode::kContinuous;

    Simulator engine(continuous);
    const std::string sparse_kept = dumpOf(engine.run(*sparse()));
    const std::size_t large = engine.lastRunShadowChunks();
    EXPECT_GT(large, 1000u);
    EXPECT_EQ(engine.keptShadow().chunks(), 0u);
    EXPECT_EQ(engine.keptShadow().allocatedChunks(), large);
    EXPECT_EQ(engine.keptShadow().recycledChunks(), 0u);

    const RunResult small_result = engine.run(*small());
    EXPECT_GT(small_result.reports.uniqueCount(), 0u);
    const std::string small_kept = dumpOf(small_result);
    const std::size_t small_chunks = engine.lastRunShadowChunks();
    EXPECT_GT(small_chunks, 0u);
    EXPECT_LT(small_chunks, large);
    EXPECT_EQ(engine.keptShadow().chunks(), 0u);
    EXPECT_EQ(engine.keptShadow().allocatedChunks(), large);
    EXPECT_EQ(engine.keptShadow().recycledChunks(), small_chunks);

    const std::string sparse_again = dumpOf(engine.run(*sparse()));
    EXPECT_EQ(engine.lastRunShadowChunks(), large);
    EXPECT_EQ(engine.keptShadow().chunks(), 0u);
    EXPECT_EQ(engine.keptShadow().allocatedChunks(), large);
    EXPECT_EQ(engine.keptShadow().recycledChunks(),
              small_chunks + large);

    EXPECT_EQ(sparse_kept,
              dumpOf(Simulator::runWith(*sparse(), continuous)));
    EXPECT_EQ(small_kept,
              dumpOf(Simulator::runWith(*small(), continuous)));
    EXPECT_EQ(sparse_again, sparse_kept);
}
