/**
 * @file
 * Tests for every registered workload model: they must build, run to
 * completion in every regime, be race-free unless designed racy, and
 * carry correct injected-race ground truth.
 */

#include <gtest/gtest.h>

#include <set>

#include "runtime/simulator.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

using namespace hdrd;
using namespace hdrd::runtime;
using namespace hdrd::workloads;
using instr::ToolMode;

namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams params;
    params.nthreads = 4;
    params.scale = 0.02;  // keep per-test runtime small
    return params;
}

SimConfig
continuousConfig()
{
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    return config;
}

/** Micro workloads that intentionally contain races. */
const std::set<std::string> kRacyByDesign = {
    "micro.racy_counter",
    "micro.racy_once",
    "micro.racy_burst",
    "micro.unsafe_publish",
    "micro.rw_buggy",
};

} // namespace

TEST(Registry, HasAllThreeSuites)
{
    EXPECT_EQ(suiteWorkloads("phoenix").size(), 8u);
    EXPECT_EQ(suiteWorkloads("parsec").size(), 13u);
    EXPECT_EQ(suiteWorkloads("micro").size(), 12u);
    EXPECT_EQ(allWorkloads().size(), 33u);
}

TEST(Registry, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &info : allWorkloads())
        EXPECT_TRUE(names.insert(info.name).second)
            << "duplicate " << info.name;
}

TEST(Registry, FindByName)
{
    ASSERT_NE(findWorkload("phoenix.kmeans"), nullptr);
    EXPECT_EQ(findWorkload("phoenix.kmeans")->suite, "phoenix");
    EXPECT_EQ(findWorkload("no.such.thing"), nullptr);
}

/** Parameterized over every registered workload. */
class EveryWorkload
    : public ::testing::TestWithParam<std::string>
{
  protected:
    const WorkloadInfo &
    info() const
    {
        const auto *found = findWorkload(GetParam());
        EXPECT_NE(found, nullptr);
        return *found;
    }
};

TEST_P(EveryWorkload, BuildsAndRunsNative)
{
    auto prog = info().factory(tinyParams());
    ASSERT_NE(prog, nullptr);
    EXPECT_EQ(prog->name(), GetParam());
    EXPECT_EQ(prog->numThreads(), 4u);
    SimConfig config;
    config.mode = ToolMode::kNative;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.total_ops, 0u);
    EXPECT_GT(result.wall_cycles, 0u);
}

TEST_P(EveryWorkload, RaceReportsMatchDesign)
{
    auto prog = info().factory(tinyParams());
    const auto result = Simulator::runWith(*prog, continuousConfig());
    if (kRacyByDesign.count(GetParam())) {
        EXPECT_GT(result.reports.uniqueCount(), 0u)
            << GetParam() << " is racy by design";
    } else {
        EXPECT_EQ(result.reports.uniqueCount(), 0u)
            << GetParam() << " must be race-free; first report: "
            << (result.reports.reports().empty()
                    ? detect::RaceReport{}
                    : result.reports.reports()[0]);
    }
}

TEST_P(EveryWorkload, RunsUnderDemandWithoutCrashing)
{
    auto prog = info().factory(tinyParams());
    SimConfig config;
    config.mode = ToolMode::kDemand;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.total_ops, 0u);
}

TEST_P(EveryWorkload, DeterministicOpCount)
{
    auto p1 = info().factory(tinyParams());
    auto p2 = info().factory(tinyParams());
    SimConfig config;
    config.mode = ToolMode::kNative;
    const auto a = Simulator::runWith(*p1, config);
    const auto b = Simulator::runWith(*p2, config);
    EXPECT_EQ(a.total_ops, b.total_ops);
    EXPECT_EQ(a.wall_cycles, b.wall_cycles);
}

TEST_P(EveryWorkload, HierarchyInvariantsHoldThroughout)
{
    // Inclusion, single-writer, L1/L2 agreement and the L3 presence
    // bits against every core's L2 state, checked all along a run in
    // the paper's regime.
    auto prog = info().factory(tinyParams());
    SimConfig config;
    config.mode = ToolMode::kDemand;
    config.invariant_check_interval = 499;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.mem_accesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, EveryWorkload,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &info : allWorkloads())
            names.push_back(info.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

/** Injection behaviour across representative suite workloads. */
class InjectedWorkload
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(InjectedWorkload, InjectedRacesFoundByContinuous)
{
    auto params = tinyParams();
    params.injected_races = 4;
    params.race_repeats = 300;
    const auto *info = findWorkload(GetParam());
    ASSERT_NE(info, nullptr);
    auto prog = info->factory(params);
    const auto injected = prog->injectedRaces();
    ASSERT_EQ(injected.size(), 4u);
    const auto result = Simulator::runWith(*prog, continuousConfig());
    EXPECT_DOUBLE_EQ(detectedFraction(injected, result.reports), 1.0)
        << GetParam();
}

TEST_P(InjectedWorkload, InjectionPreservesCompletion)
{
    auto params = tinyParams();
    params.injected_races = 2;
    const auto *info = findWorkload(GetParam());
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kDemand;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.total_ops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Representative, InjectedWorkload,
    ::testing::Values("phoenix.histogram", "phoenix.kmeans",
                      "phoenix.linear_regression", "parsec.dedup",
                      "parsec.streamcluster", "parsec.blackscholes",
                      "parsec.canneal"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

TEST(Workloads, RacyOnceGroundTruthSingleShot)
{
    WorkloadParams params = tinyParams();
    const auto *info = findWorkload("micro.racy_once");
    auto prog = info->factory(params);
    ASSERT_EQ(prog->injectedRaces().size(), 1u);
    // Continuous analysis must find the one-shot race.
    const auto result = Simulator::runWith(*prog, continuousConfig());
    EXPECT_DOUBLE_EQ(
        detectedFraction(prog->injectedRaces(), result.reports), 1.0);
}

TEST(Workloads, FalseSharingHitmsButNoRaces)
{
    const auto *info = findWorkload("micro.false_sharing");
    auto prog = info->factory(tinyParams());
    SimConfig config;
    config.mode = ToolMode::kDemand;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.hitm_loads, 0u);       // indicator fires...
    EXPECT_GT(result.enables, 0u);          // ...analysis turns on...
    EXPECT_EQ(result.reports.uniqueCount(), 0u);  // ...no races.
}

TEST(Workloads, LinearRegressionSharesAlmostNothing)
{
    const auto *info = findWorkload("phoenix.linear_regression");
    WorkloadParams params = tinyParams();
    params.scale = 0.1;
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = instr::ToolMode::kNative;
    config.track_ground_truth = true;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_LT(result.sharingFraction(), 0.01);
}

TEST(Workloads, StreamclusterSharesPlenty)
{
    const auto *info = findWorkload("parsec.streamcluster");
    WorkloadParams params = tinyParams();
    params.scale = 0.1;
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = instr::ToolMode::kNative;
    config.track_ground_truth = true;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.sharingFraction(),
              5 * 0.01);  // well above linear_regression
}
