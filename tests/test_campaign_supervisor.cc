/**
 * @file
 * superviseCampaign tests: one run per point, continue-on-error
 * outcome classification, no return before every point has finished,
 * and the failure manifest / counter surfaces.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/campaign_supervisor.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

using harness::PointOutcome;
using harness::PointTask;
using harness::SupervisorReport;
using harness::superviseCampaign;

TEST(Supervisor, FailedPointRunsOnceAndOthersComplete)
{
    // Simulations are deterministic, so the supervisor never reruns a
    // failed point: it is classified after one run and the campaign
    // carries on with the rest.
    std::array<std::atomic<int>, 8> calls{};
    std::array<std::string, 8> results;
    PointTask task;
    task.run = [&](std::size_t i) {
        ++calls[i];
        if (i == 5)
            throw std::runtime_error("always broken");
        results[i] = "ok:" + std::to_string(i);
    };
    task.repro = [](std::size_t i) {
        return "bench --only-point " + std::to_string(i);
    };

    const SupervisorReport r = superviseCampaign(2, 8, task);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(calls[i].load(), 1) << "point " << i;
    EXPECT_EQ(r.points[5].outcome, PointOutcome::Exception);
    EXPECT_EQ(r.points[5].message, "always broken");
    EXPECT_EQ(r.points[5].repro, "bench --only-point 5");
    EXPECT_EQ(r.failures(), 1u);
    EXPECT_FALSE(r.ok());
    for (std::size_t i = 0; i < 8; ++i) {
        if (i != 5) {
            EXPECT_EQ(r.points[i].outcome, PointOutcome::Ok);
            EXPECT_EQ(results[i], "ok:" + std::to_string(i));
        }
    }
}

TEST(Supervisor, ClassifiesPanicAsCheckerViolation)
{
    PointTask task;
    task.run = [](std::size_t i) {
        if (i == 1)
            panic("SWMR violated on line 0x40");
        if (i == 2)
            fatal("bad configuration");
    };
    const SupervisorReport r = superviseCampaign(1, 3, task);
    EXPECT_EQ(r.points[0].outcome, PointOutcome::Ok);
    EXPECT_EQ(r.points[1].outcome, PointOutcome::CheckerViolation);
    EXPECT_NE(r.points[1].message.find("SWMR"), std::string::npos);
    EXPECT_EQ(r.points[2].outcome, PointOutcome::Exception);
    EXPECT_EQ(r.count(PointOutcome::CheckerViolation), 1u);
    EXPECT_EQ(r.count(PointOutcome::Exception), 1u);
}

TEST(Supervisor, ReturnsOnlyAfterEveryPointFinished)
{
    // A slow point is waited for, never abandoned: once the campaign
    // returns, no point is still running, so every point may write
    // state its caller owns.
    std::array<std::atomic<bool>, 4> done{};
    PointTask task;
    task.run = [&](std::size_t i) {
        if (i == 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        done[i] = true;
    };
    const SupervisorReport r = superviseCampaign(2, 4, task);
    EXPECT_TRUE(r.ok());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(done[i].load()) << "point " << i;
}

TEST(Supervisor, ManifestListsEveryFailureWithRepro)
{
    PointTask task;
    task.run = [](std::size_t i) {
        if (i % 2 == 1)
            throw std::runtime_error("odd point " +
                                     std::to_string(i));
    };
    task.repro = [](std::size_t i) {
        return "bench --only-point " + std::to_string(i);
    };
    const SupervisorReport r = superviseCampaign(1, 6, task);

    std::ostringstream manifest;
    r.writeManifest(manifest, "test");
    const std::string m = manifest.str();
    for (std::size_t i : {1u, 3u, 5u}) {
        EXPECT_NE(m.find("\"point\": " + std::to_string(i)),
                  std::string::npos)
            << m;
        EXPECT_NE(m.find("bench --only-point " + std::to_string(i)),
                  std::string::npos)
            << m;
    }
    EXPECT_EQ(m.find("\"point\": 0"), std::string::npos) << m;
    EXPECT_NE(m.find("\"outcome\": \"exception\""),
              std::string::npos);

    const std::string summary = r.summaryJson("test");
    EXPECT_NE(summary.find("\"kind\": \"supervisor\""),
              std::string::npos);
    EXPECT_NE(summary.find("\"exceptions\": 3"), std::string::npos);
    EXPECT_NE(summary.find("\"ok\": 3"), std::string::npos);
    EXPECT_EQ(summary.find("crashes"), std::string::npos) << summary;
    EXPECT_EQ(summary.find("timeouts"), std::string::npos) << summary;
}

TEST(Supervisor, ZeroPointsIsANoop)
{
    PointTask task;
    task.run = [](std::size_t) { FAIL() << "no point to run"; };
    const SupervisorReport r = superviseCampaign(1, 0, task);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.points.size(), 0u);
}

} // namespace
} // namespace tb
