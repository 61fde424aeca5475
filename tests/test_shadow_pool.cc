/**
 * @file
 * Tests for the page pools engines borrow from: PagePool itself,
 * several kept engines on separate host threads sharing one
 * detect::ShadowPool (every dump equal to a private-pool engine's,
 * the pool no larger than the chunks borrowed at once), a panicking
 * run handing its chunks back, and a standalone engine freeing its
 * private pools when destroyed.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/page_pool.hh"
#include "detect/shadow.hh"
#include "runtime/op.hh"
#include "runtime/simulator.hh"
#include "trace/trace_io.hh"
#include "trace/trace_program.hh"
#include "workloads/registry.hh"

using namespace hdrd;
using runtime::Op;
using runtime::RunResult;
using runtime::SimConfig;
using runtime::Simulator;

namespace
{

struct TestPage
{
    std::array<std::uint64_t, 8> words{};
};

using TestPool = PagePool<TestPage, 4>;

/** One service-style job: a registry workload under one regime. */
struct Job
{
    const workloads::WorkloadInfo *info;
    instr::ToolMode mode;
};

/** The 33 registry workloads, continuous then demand-hitm. */
std::vector<Job>
registryJobs()
{
    std::vector<Job> jobs;
    for (instr::ToolMode mode :
         {instr::ToolMode::kContinuous, instr::ToolMode::kDemand}) {
        for (const workloads::WorkloadInfo &info :
             workloads::allWorkloads())
            jobs.push_back({&info, mode});
    }
    return jobs;
}

std::string
dumpOf(const RunResult &r)
{
    std::ostringstream os;
    r.dump(os);
    for (const detect::RaceReport &report : r.reports.reports())
        os << report << '\n';
    return os.str();
}

/** Run @p job on @p engine, reconfigured for it. */
std::string
runJob(Simulator &engine, const Job &job)
{
    SimConfig config;
    config.mode = job.mode;
    config.gating.strategy = demand::Strategy::kDemandHitm;
    engine.reconfigure(config);
    workloads::WorkloadParams params;
    params.nthreads = 4;
    params.scale = 0.05;
    auto program = job.info->factory(params);
    return dumpOf(engine.run(*program));
}

/** One thread writing @p lines words 4 KiB apart: a chunk each. */
std::vector<Op>
sparseWrites(std::size_t lines)
{
    std::vector<Op> ops;
    for (std::size_t i = 0; i < lines; ++i)
        ops.push_back(Op::write(0x100000 + i * 4096, 1));
    return ops;
}

/** Heap bytes in use, as glibc's allocator counts them. */
std::size_t
heapInUse()
{
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
}

} // namespace

TEST(PagePool, HoldsTheMostPagesBorrowedAtOnce)
{
    TestPool pool;
    const TestPool::Taken a = pool.take();
    const TestPool::Taken b = pool.take();
    const TestPool::Taken c = pool.take();
    EXPECT_FALSE(a.recycled || b.recycled || c.recycled);
    EXPECT_EQ(pool.pages(), 3u);
    c.page->words.fill(7);
    pool.give(b.page);
    pool.give(c.page);
    EXPECT_EQ(pool.borrowed(), 1u);
    // Returned pages are taken before any new one is carved, the
    // latest returned first, and keep their last borrower's bytes
    // past the free-list link in the first word.
    const TestPool::Taken again = pool.take();
    EXPECT_EQ(again.page, c.page);
    EXPECT_TRUE(again.recycled);
    EXPECT_EQ(again.page->words[1], 7u);
    EXPECT_EQ(again.page->words[7], 7u);
    EXPECT_EQ(pool.take().page, b.page);
    EXPECT_EQ(pool.pages(), 3u);
    const TestPool::Taken fresh = pool.take();
    EXPECT_FALSE(fresh.recycled);
    EXPECT_EQ(fresh.page->words[0], 0u);
    EXPECT_EQ(pool.pages(), 4u);
    EXPECT_EQ(pool.borrowed(), 4u);
}

TEST(PagePool, BatchReturnIsRetakenInTakeOrder)
{
    TestPool pool;
    std::vector<TestPage *> taken;
    for (int i = 0; i < 6; ++i)
        taken.push_back(pool.take().page);
    pool.give(taken.size(), [&](std::size_t i) { return taken[i]; });
    EXPECT_EQ(pool.borrowed(), 0u);
    for (TestPage *page : taken) {
        const TestPool::Taken again = pool.take();
        EXPECT_EQ(again.page, page);
        EXPECT_TRUE(again.recycled);
    }
    EXPECT_EQ(pool.pages(), 6u);
}

TEST(PagePool, ConcurrentBorrowersNeverShareAPage)
{
    TestPool pool;
    constexpr int kThreads = 4;
    constexpr std::size_t kHeld = 5;
    std::vector<std::thread> threads;
    std::vector<int> clashes(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<TestPage *> held;
            for (int round = 0; round < 200; ++round) {
                const std::size_t n = 1 + (round + t) % kHeld;
                for (std::size_t i = 0; i < n; ++i) {
                    TestPage *page = pool.take().page;
                    page->words.fill(static_cast<std::uint64_t>(t));
                    held.push_back(page);
                }
                for (TestPage *page : held) {
                    for (std::uint64_t w : page->words)
                        clashes[t] += w != static_cast<std::uint64_t>(t);
                }
                pool.give(held.size(),
                          [&](std::size_t i) { return held[i]; });
                held.clear();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(clashes[t], 0) << "thread " << t;
    EXPECT_EQ(pool.borrowed(), 0u);
    EXPECT_LE(pool.pages(), kThreads * kHeld);
}

TEST(ShadowPool, KeptEnginesOnOneSharedPoolMatchPrivateEngines)
{
    const std::vector<Job> jobs = registryJobs();
    const std::size_t njobs = jobs.size();

    // The reference: one kept engine with private pools.
    std::vector<std::string> expected;
    {
        Simulator engine{SimConfig{}};
        for (const Job &job : jobs)
            expected.push_back(runJob(engine, job));
    }

    // Four kept engines share one pool. Each runs every job, in its
    // own order (a rotation, reversed on odd threads), in lock step:
    // round r runs each engine's r-th job at once, so the chunks
    // borrowed at once never exceed round r's run chunks summed.
    constexpr std::size_t kEngines = 4;
    detect::ShadowPool pool;
    std::vector<std::vector<std::size_t>> order(kEngines);
    std::vector<std::vector<std::string>> dumps(
        kEngines, std::vector<std::string>(njobs));
    std::vector<std::vector<std::size_t>> run_chunks(
        kEngines, std::vector<std::size_t>(njobs));
    std::barrier round(static_cast<std::ptrdiff_t>(kEngines));
    std::vector<std::thread> threads;
    for (std::size_t e = 0; e < kEngines; ++e) {
        for (std::size_t r = 0; r < njobs; ++r)
            order[e].push_back((r + e * njobs / kEngines) % njobs);
        if (e % 2 == 1)
            std::reverse(order[e].begin(), order[e].end());
        threads.emplace_back([&, e] {
            Simulator engine(SimConfig{}, &pool);
            for (std::size_t r = 0; r < njobs; ++r) {
                const std::size_t j = order[e][r];
                dumps[e][j] = runJob(engine, jobs[j]);
                run_chunks[e][r] = engine.lastRunShadowChunks();
                EXPECT_EQ(engine.keptShadow().chunks(), 0u);
                round.arrive_and_wait();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t e = 0; e < kEngines; ++e) {
        for (std::size_t j = 0; j < njobs; ++j) {
            EXPECT_EQ(dumps[e][j], expected[j])
                << "engine " << e << ": " << jobs[j].info->name;
        }
    }

    std::size_t largest_run = 0;
    std::size_t most_at_once = 0;
    for (std::size_t r = 0; r < njobs; ++r) {
        std::size_t in_round = 0;
        for (std::size_t e = 0; e < kEngines; ++e) {
            in_round += run_chunks[e][r];
            largest_run = std::max(largest_run, run_chunks[e][r]);
        }
        most_at_once = std::max(most_at_once, in_round);
    }
    // Every engine's largest run is the same job, in different rounds.
    const std::size_t largest_summed = kEngines * largest_run;
    EXPECT_GT(largest_run, 1000u);
    EXPECT_LT(most_at_once, largest_summed);

    EXPECT_EQ(pool.borrowed(), 0u);
    EXPECT_EQ(pool.sites.borrowed(), 0u);
    EXPECT_GE(pool.chunks(), largest_run);
    EXPECT_LE(pool.chunks(), most_at_once);
}

TEST(ShadowPool, PanickingRunHandsItsChunksBack)
{
    // 64 writes, a chunk each, then an unlock of a lock never taken:
    // the engine panics mid-run.
    std::vector<Op> ops = sparseWrites(64);
    ops.push_back(Op::unlock(7));
    trace::TraceProgram bad(
        trace::TraceData::fromOps("bad_unlock", {ops}));
    SimConfig config;
    config.mode = instr::ToolMode::kContinuous;

    detect::ShadowPool pool;
    Simulator engine(config, &pool);
    {
        const PanicTrap trap;
        EXPECT_THROW(engine.run(bad), PanicError);
    }
    EXPECT_EQ(engine.lastRunShadowChunks(), 64u);
    EXPECT_EQ(engine.keptShadow().chunks(), 0u);
    EXPECT_EQ(pool.borrowed(), 0u);
    EXPECT_EQ(pool.sites.borrowed(), 0u);
    EXPECT_EQ(pool.chunks(), 64u);

    // The engine stays sound: its next run matches a fresh one's and
    // re-takes the chunks the panicking run handed back.
    trace::TraceProgram good(trace::TraceData::fromOps(
        "good", {sparseWrites(64), sparseWrites(64)}));
    trace::TraceProgram fresh(trace::TraceData::fromOps(
        "good", {sparseWrites(64), sparseWrites(64)}));
    EXPECT_EQ(dumpOf(engine.run(good)),
              dumpOf(Simulator::runWith(fresh, config)));
    EXPECT_EQ(engine.lastRunShadowChunks(), 64u);
    EXPECT_EQ(pool.chunks(), 64u);
    EXPECT_EQ(pool.borrowed(), 0u);
}

TEST(ShadowPool, DestroyedStandaloneEngineFreesItsStorage)
{
    {
        // A sanitizer's allocator is invisible to mallinfo2.
        const std::size_t before = heapInUse();
        const auto probe = std::make_unique<char[]>(4 << 20);
        if (heapInUse() < before + (4 << 20))
            GTEST_SKIP() << "mallinfo2 does not see this allocator";
    }
    constexpr std::size_t kLines = 4096;
    constexpr std::size_t kChunkBytes =
        detect::ShadowMemory::kChunkGranules * sizeof(detect::VarState);
    SimConfig config;
    config.mode = instr::ToolMode::kContinuous;

    const std::size_t before = heapInUse();
    {
        trace::TraceProgram program(
            trace::TraceData::fromOps("sparse", {sparseWrites(kLines)}));
        Simulator engine(config);
        engine.run(program);
        EXPECT_EQ(engine.lastRunShadowChunks(), kLines);
        EXPECT_EQ(engine.keptShadow().allocatedChunks(), kLines);
        EXPECT_GE(heapInUse(), before + kLines * kChunkBytes);
    }
    // The engine's private pools, hierarchy and directory are gone.
    EXPECT_LT(heapInUse(), before + 64 * 1024);

    // So for a bare shadow whose chunks were handed back but not
    // freed: its private pool goes with it.
    {
        detect::ShadowMemory shadow;
        for (std::size_t i = 0; i < kLines; ++i)
            shadow.state(i * 4096).w = detect::Epoch(0, 1);
        shadow.clear();
        EXPECT_EQ(shadow.allocatedChunks(), kLines);
        EXPECT_GE(heapInUse(), before + kLines * kChunkBytes);
    }
    EXPECT_LT(heapInUse(), before + 64 * 1024);
}
