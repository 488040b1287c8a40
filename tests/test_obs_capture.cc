/**
 * @file
 * Integration tests for campaign-level observability capture: the
 * per-episode prediction ledger and the determinism of `--trace` /
 * `--stats-json` artifacts when ParallelCampaignRunner shards the
 * points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "harness/campaign_cli.hh"
#include "harness/experiment.hh"
#include "harness/obs_capture.hh"
#include "harness/parallel_runner.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace {

harness::SystemConfig
smallSys(std::uint64_t seed)
{
    harness::SystemConfig sys = harness::SystemConfig::small(3);
    sys.seed = seed;
    return sys;
}

/** Imbalanced enough that Thrifty actually sleeps on the 8-node
 *  test machine (same shape as the integration suite's miniApp). */
workloads::AppProfile
smallApp()
{
    workloads::AppProfile a;
    a.name = "mini";
    a.paperImbalance = 0.0;
    for (unsigned i = 0; i < 2; ++i) {
        workloads::PhaseSpec p;
        p.pc = 0x1000 + i;
        p.meanCompute = 600 * kMicrosecond;
        p.imbalanceCv = 0.5;
        p.memAccesses = 8;
        a.loop.push_back(p);
    }
    a.iterations = 6;
    a.sharedBytes = 64 * 1024;
    a.privateBytes = 16 * 1024;
    return a;
}

TEST(EpisodeLedger, OffByDefault)
{
    const auto r = harness::runExperiment(
        smallSys(5), smallApp(), harness::ConfigKind::Thrifty);
    EXPECT_GT(r.sync.sleeps, 0u);
    EXPECT_TRUE(r.sync.episodes.empty());
}

TEST(EpisodeLedger, OneEpisodePerSleepWithSaneBounds)
{
    harness::RunOptions ro;
    ro.episodeLedger = true;
    const auto r = harness::runExperiment(
        smallSys(5), smallApp(), harness::ConfigKind::Thrifty, ro);
    ASSERT_FALSE(r.sync.episodes.empty());
    EXPECT_EQ(r.sync.episodes.size(), r.sync.sleeps);
    for (const auto& ep : r.sync.episodes) {
        EXPECT_LE(ep.sleepTick, ep.wakeTick);
        EXPECT_FALSE(ep.sleepState.empty());
        EXPECT_FALSE(ep.wakeReason.empty());
        // A wake is early or late (or exact), never both.
        EXPECT_FALSE(ep.earlyWake() && ep.lateWake());
    }
}

TEST(TraceDeterminism, SameSeedSameConfigSameBytes)
{
    auto run = [] {
        obs::TraceSink sink(obs::kAllTraceCategories, 0);
        harness::RunOptions ro;
        ro.traceSink = &sink;
        harness::runExperiment(smallSys(9), smallApp(),
                               harness::ConfigKind::Thrifty, ro);
        return std::string(sink.events());
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

/**
 * Run a three-point campaign through ParallelCampaignRunner with
 * @p jobs worker threads, capturing trace + stats, and return the
 * rendered artifacts.
 */
std::pair<std::string, std::string>
runCapturedCampaign(unsigned jobs)
{
    harness::CampaignOptions opts;
    opts.tracePath = "unused-trace.json";
    opts.statsJsonPath = "unused-stats.json";
    harness::ObsCapture capture(opts, "test", 3);

    static const harness::ConfigKind kinds[3] = {
        harness::ConfigKind::Baseline,
        harness::ConfigKind::ThriftyHalt,
        harness::ConfigKind::Thrifty,
    };

    harness::ParallelCampaignRunner(jobs).run(3, [&](std::size_t i) {
        harness::RunOptions ro;
        harness::ObsCapture::PointScope scope;
        capture.arm(i, &ro, &scope);
        const auto r = harness::runExperiment(smallSys(7), smallApp(),
                                              kinds[i], ro);
        capture.deposit(i, r, &scope, harness::configName(kinds[i]));
    });
    return {capture.renderTraceFile(), capture.renderStatsFile()};
}

TEST(ObsCapture, ArtifactsByteIdenticalAcrossJobs)
{
    const auto serial = runCapturedCampaign(1);
    const auto parallel = runCapturedCampaign(2);
    EXPECT_FALSE(serial.first.empty());
    EXPECT_FALSE(serial.second.empty());
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
}

TEST(ObsCapture, StatsLinesCarryLedgerAndMachineStats)
{
    const auto [trace, stats] = runCapturedCampaign(1);
    // One JSONL stats line per point.
    EXPECT_EQ(std::count(stats.begin(), stats.end(), '\n'), 3);
    EXPECT_NE(stats.find("\"kind\": \"stats\""), std::string::npos);
    EXPECT_NE(stats.find("\"episodes\": ["), std::string::npos);
    EXPECT_NE(stats.find("\"predicted_bit\""), std::string::npos);
    EXPECT_NE(stats.find("\"machine\""), std::string::npos);
    // The trace document names every point's process.
    EXPECT_NE(trace.find("Baseline"), std::string::npos);
    EXPECT_NE(trace.find("Thrifty"), std::string::npos);
    EXPECT_NE(trace.find("\"arrive\""), std::string::npos);
}

} // namespace
} // namespace tb
