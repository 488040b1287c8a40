/**
 * @file
 * Unit tests for the synthetic workload generators, including the
 * Table 2 imbalance regression on the full 64-node machine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "workloads/app_profile.hh"
#include "workloads/synthetic_program.hh"

namespace tb {
namespace {

using harness::ConfigKind;
using harness::SystemConfig;
using harness::runExperiment;
using workloads::AppProfile;
using workloads::appByName;
using workloads::paperApps;

TEST(AppProfiles, TenAppsInTable2Order)
{
    auto apps = paperApps();
    ASSERT_EQ(apps.size(), 10u);
    // Descending paper imbalance, like Table 2.
    for (std::size_t i = 1; i < apps.size(); ++i)
        EXPECT_GE(apps[i - 1].paperImbalance, apps[i].paperImbalance);
    EXPECT_EQ(apps.front().name, "Volrend");
    EXPECT_EQ(apps.back().name, "Radiosity");
}

TEST(AppProfiles, UniqueBarrierPcsWithinAndAcrossApps)
{
    std::set<thrifty::BarrierPc> pcs;
    for (const auto& a : paperApps()) {
        for (const auto& p : a.prologue)
            EXPECT_TRUE(pcs.insert(p.pc).second) << a.name;
        for (const auto& p : a.loop)
            EXPECT_TRUE(pcs.insert(p.pc).second) << a.name;
    }
}

TEST(AppProfiles, FftAndCholeskyAreNonRepeating)
{
    for (const char* name : {"FFT", "Cholesky"}) {
        AppProfile a = appByName(name);
        EXPECT_TRUE(a.loop.empty()) << name;
        EXPECT_GT(a.prologue.size(), 4u) << name;
        EXPECT_EQ(a.iterations, 0u) << name;
    }
}

TEST(AppProfiles, OceanSwings)
{
    AppProfile a = appByName("Ocean");
    bool any_swing = false;
    for (const auto& p : a.loop)
        any_swing |= p.swingProbability > 0.0;
    EXPECT_TRUE(any_swing);
    EXPECT_GE(a.loop.size(), 4u);
}

TEST(AppProfiles, UnknownNameFatal)
{
    EXPECT_THROW(appByName("Raytrace"), FatalError);
}

TEST(AppProfiles, TargetAppsHaveHighImbalance)
{
    for (const auto& name : workloads::targetAppNames())
        EXPECT_GE(appByName(name).paperImbalance, 0.10);
}

TEST(SyntheticProgram, StepCountMatchesProfile)
{
    harness::SystemConfig sys = SystemConfig::small(2);
    harness::Machine m(sys);
    AppProfile a = appByName("Radiosity");
    thrifty::SyncStats stats;
    harness::ConfigBarrierProvider prov(m, ConfigKind::Baseline,
                                        nullptr, stats);
    workloads::SyntheticProgram prog(m.eventQueue(), m.memory(),
                                     m.threadPtrs(), a, prov, 1);
    EXPECT_EQ(prog.totalSteps(), a.totalInstances());
}

TEST(SyntheticProgram, IdenticalSeedsIdenticalPrograms)
{
    // The same (seed, app) must produce the same execution under the
    // same configuration — the cross-configuration comparison depends
    // on workload determinism.
    harness::SystemConfig sys = SystemConfig::small(2);
    sys.seed = 77;
    AppProfile a = appByName("Radiosity");
    a.iterations = 3;
    auto r1 = runExperiment(sys, a, ConfigKind::Baseline);
    auto r2 = runExperiment(sys, a, ConfigKind::Baseline);
    EXPECT_EQ(r1.execTime, r2.execTime);
    EXPECT_DOUBLE_EQ(r1.sync.totalStallTicks, r2.sync.totalStallTicks);
}

TEST(SyntheticProgram, DifferentSeedsDiffer)
{
    harness::SystemConfig sys = SystemConfig::small(2);
    AppProfile a = appByName("Radiosity");
    a.iterations = 3;
    sys.seed = 1;
    auto r1 = runExperiment(sys, a, ConfigKind::Baseline);
    sys.seed = 2;
    auto r2 = runExperiment(sys, a, ConfigKind::Baseline);
    EXPECT_NE(r1.execTime, r2.execTime);
}

/**
 * Table 2 regression: measured Baseline imbalance on the paper's
 * 64-node machine must land near the published value for every app.
 * The app name is a std::string so gtest prints its value rather than
 * a pointer, keeping the discovered test names identical across builds.
 */
class Table2Regression
    : public ::testing::TestWithParam<std::pair<std::string, double>>
{};

TEST_P(Table2Regression, ImbalanceNearPaper)
{
    const auto& [name, tolerance_pp] = GetParam();
    SystemConfig sys = SystemConfig::paperDefault();
    AppProfile app = appByName(name);
    auto r = runExperiment(sys, app, ConfigKind::Baseline);
    EXPECT_NEAR(100.0 * r.imbalance(), 100.0 * app.paperImbalance,
                tolerance_pp)
        << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, Table2Regression,
    ::testing::Values(
        // (app, tolerance in percentage points). The near-balanced
        // apps carry a floor from check-in serialization that the
        // paper's testbed also has but in different magnitude.
        std::make_pair("Volrend", 2.5), std::make_pair("Radix", 2.0),
        std::make_pair("FMM", 2.0), std::make_pair("Barnes", 2.0),
        std::make_pair("Water-Nsq", 2.0),
        std::make_pair("Water-Sp", 2.0), std::make_pair("Ocean", 2.0),
        std::make_pair("FFT", 1.5), std::make_pair("Cholesky", 1.5),
        std::make_pair("Radiosity", 1.5)),
    [](const auto& info) {
        std::string n = info.param.first;
        for (auto& c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST(Workloads, ImbalanceOrderingPreserved)
{
    // The measured ordering must match Table 2's ordering for the
    // well-separated apps.
    SystemConfig sys = SystemConfig::paperDefault();
    double volrend = 0, radix = 0, ocean = 0, radiosity = 0;
    for (const auto& [name, out] :
         std::initializer_list<std::pair<const char*, double*>>{
             {"Volrend", &volrend},
             {"Radix", &radix},
             {"Ocean", &ocean},
             {"Radiosity", &radiosity}}) {
        auto r =
            runExperiment(sys, appByName(name), ConfigKind::Baseline);
        *out = r.imbalance();
    }
    EXPECT_GT(volrend, radix);
    EXPECT_GT(radix, ocean);
    EXPECT_GT(ocean, radiosity);
}

} // namespace
} // namespace tb
