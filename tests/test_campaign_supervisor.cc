/**
 * @file
 * CampaignSupervisor tests: one run per point, continue-on-error
 * outcome classification, timeout classification of a deliberately
 * hung point, forked-crash containment under isolate mode, and the
 * failure manifest / counter surfaces.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/campaign_supervisor.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

using harness::CampaignSupervisor;
using harness::PointOutcome;
using harness::PointTask;
using harness::SupervisorPolicy;
using harness::SupervisorReport;

TEST(Supervisor, FailedPointRunsOnceAndOthersComplete)
{
    // Simulations are deterministic, so the supervisor never reruns a
    // failed point: it is classified after one run and the campaign
    // carries on with the rest.
    SupervisorPolicy p;
    p.jobs = 2;
    CampaignSupervisor sup(p);

    std::array<std::atomic<int>, 8> calls{};
    PointTask task;
    task.run = [&](std::size_t i) {
        ++calls[i];
        if (i == 5)
            throw std::runtime_error("always broken");
        return "ok:" + std::to_string(i);
    };
    task.repro = [](std::size_t i) {
        return "bench --only-point " + std::to_string(i);
    };

    const SupervisorReport r = sup.run(8, task);
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
            EXPECT_EQ(sup.results()[i], "ok:" + std::to_string(i));
        }
    }
}

TEST(Supervisor, ClassifiesPanicAsCheckerViolation)
{
    CampaignSupervisor sup(SupervisorPolicy{});
    PointTask task;
    task.run = [](std::size_t i) -> std::string {
        if (i == 1)
            panic("SWMR violated on line 0x40");
        if (i == 2)
            fatal("bad configuration");
        return "fine";
    };
    const SupervisorReport r = sup.run(3, task);
    EXPECT_EQ(r.points[0].outcome, PointOutcome::Ok);
    EXPECT_EQ(r.points[1].outcome, PointOutcome::CheckerViolation);
    EXPECT_NE(r.points[1].message.find("SWMR"), std::string::npos);
    EXPECT_EQ(r.points[2].outcome, PointOutcome::Exception);
    EXPECT_EQ(r.count(PointOutcome::CheckerViolation), 1u);
    EXPECT_EQ(r.count(PointOutcome::Exception), 1u);
}

TEST(Supervisor, TimeoutClassifiesHungPoint)
{
    SupervisorPolicy p;
    p.jobs = 2;
    p.deadlineMs = 50;
    CampaignSupervisor sup(p);

    // The hung point blocks on a latch the test releases *after* the
    // supervisor has given up on it, proving the campaign finished
    // around a point that was still running.
    struct Latch
    {
        std::mutex mu;
        std::condition_variable cv;
        bool release = false;
    };
    auto latch = std::make_shared<Latch>();

    PointTask task;
    task.run = [latch](std::size_t i) -> std::string {
        if (i == 1) {
            std::unique_lock<std::mutex> lock(latch->mu);
            latch->cv.wait(lock, [&]() { return latch->release; });
        }
        return "done:" + std::to_string(i);
    };
    const SupervisorReport r = sup.run(4, task);
    EXPECT_EQ(r.points[1].outcome, PointOutcome::Timeout);
    EXPECT_NE(r.points[1].message.find("deadline"),
              std::string::npos);
    EXPECT_EQ(r.count(PointOutcome::Ok), 3u);
    EXPECT_EQ(r.failures(), 1u);

    {
        std::lock_guard<std::mutex> lock(latch->mu);
        latch->release = true;
    }
    latch->cv.notify_all();
    sup.joinAbandonedForTest();
}

TEST(Supervisor, IsolateContainsCrashingPoint)
{
    SupervisorPolicy p;
    p.jobs = 1; // fork from a single-threaded supervisor
    p.isolate = true;
    CampaignSupervisor sup(p);

    PointTask task;
    task.run = [](std::size_t i) -> std::string {
        if (i == 1) {
            // SIGKILL dies identically under every sanitizer — the
            // classifier sees a signaled child either way.
            std::raise(SIGKILL);
        }
        if (i == 2)
            throw std::runtime_error("forked exception");
        return "isolated:" + std::to_string(i);
    };
    const SupervisorReport r = sup.run(4, task);
    EXPECT_EQ(r.points[0].outcome, PointOutcome::Ok);
    EXPECT_EQ(sup.results()[0], "isolated:0");
    EXPECT_EQ(r.points[1].outcome, PointOutcome::Crash);
    EXPECT_NE(r.points[1].message.find("signal"), std::string::npos);
    EXPECT_EQ(r.points[2].outcome, PointOutcome::Exception);
    EXPECT_EQ(r.points[2].message, "forked exception");
    EXPECT_EQ(r.points[3].outcome, PointOutcome::Ok);
    EXPECT_EQ(sup.results()[3], "isolated:3");
    EXPECT_EQ(r.failures(), 2u);
}

TEST(Supervisor, IsolateEnforcesDeadlineWithSigkill)
{
    SupervisorPolicy p;
    p.jobs = 1;
    p.isolate = true;
    p.deadlineMs = 50;
    CampaignSupervisor sup(p);

    PointTask task;
    task.run = [](std::size_t i) -> std::string {
        if (i == 0) {
            for (;;)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        return "quick";
    };
    const SupervisorReport r = sup.run(2, task);
    EXPECT_EQ(r.points[0].outcome, PointOutcome::Timeout);
    EXPECT_NE(r.points[0].message.find("child killed"),
              std::string::npos);
    EXPECT_EQ(r.points[1].outcome, PointOutcome::Ok);
}

TEST(Supervisor, IsolateCarriesLargeArtifactsAcrossThePipe)
{
    SupervisorPolicy p;
    p.isolate = true;
    CampaignSupervisor sup(p);

    // Larger than a pipe buffer (64 KiB on Linux): the parent must
    // drain concurrently or the child deadlocks on write.
    const std::string big(256 * 1024, 'x');
    PointTask task;
    task.run = [&](std::size_t) { return big; };
    const SupervisorReport r = sup.run(1, task);
    ASSERT_EQ(r.points[0].outcome, PointOutcome::Ok);
    EXPECT_EQ(sup.results()[0], big);
}

TEST(Supervisor, ManifestListsEveryFailureWithRepro)
{
    CampaignSupervisor sup(SupervisorPolicy{});
    PointTask task;
    task.run = [](std::size_t i) -> std::string {
        if (i % 2 == 1)
            throw std::runtime_error("odd point " +
                                     std::to_string(i));
        return "even";
    };
    task.repro = [](std::size_t i) {
        return "bench --only-point " + std::to_string(i);
    };
    const SupervisorReport r = sup.run(6, task);

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
    EXPECT_NE(summary.find("\"interrupted\": false"),
              std::string::npos);
}

TEST(Supervisor, InterruptStopsClaimingAndMarksNotRun)
{
    CampaignSupervisor::installSigintHandler();
    CampaignSupervisor::clearInterruptForTest();

    SupervisorPolicy p;
    p.jobs = 1; // deterministic claim order for the assertion below
    CampaignSupervisor sup(p);
    PointTask task;
    task.run = [](std::size_t i) {
        if (i == 2)
            std::raise(SIGINT); // the handler only sets the flag
        return "ran:" + std::to_string(i);
    };
    task.repro = [](std::size_t i) {
        return "bench --only-point " + std::to_string(i);
    };
    const SupervisorReport r = sup.run(6, task);
    CampaignSupervisor::clearInterruptForTest();

    EXPECT_TRUE(r.interrupted);
    // The in-flight point finishes gracefully; nothing after it runs.
    EXPECT_EQ(r.points[2].outcome, PointOutcome::Ok);
    for (std::size_t i = 3; i < 6; ++i) {
        EXPECT_EQ(r.points[i].outcome, PointOutcome::NotRun) << i;
        EXPECT_EQ(r.points[i].repro,
                  "bench --only-point " + std::to_string(i));
    }
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.failures(), 0u); // interrupted != failed

    std::ostringstream manifest;
    r.writeManifest(manifest, "test");
    EXPECT_NE(manifest.str().find("\"outcome\": \"interrupted\""),
              std::string::npos);
    EXPECT_NE(manifest.str().find("\"outcome\": \"not-run\""),
              std::string::npos);
}

TEST(Supervisor, ZeroPointsIsANoop)
{
    CampaignSupervisor sup(SupervisorPolicy{});
    PointTask task;
    task.run = [](std::size_t) { return "never"; };
    const SupervisorReport r = sup.run(0, task);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.points.size(), 0u);
}

} // namespace
} // namespace tb
