/**
 * @file
 * ParallelCampaignRunner tests: serial/parallel equivalence, full
 * coverage of the index space and exception propagation. The
 * end-to-end guarantee — campaign binaries emit byte-identical output
 * under --jobs N — additionally rests on running real experiments
 * here with per-point Machines.
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
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace {

using harness::ParallelCampaignRunner;

TEST(ParallelRunner, EveryIndexRunsExactlyOnce)
{
    const std::size_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    ParallelCampaignRunner runner(8);
    runner.run(count, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelRunner, ZeroCountIsNoop)
{
    ParallelCampaignRunner runner(4);
    bool touched = false;
    runner.run(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelRunner, ZeroJobsClampsToOne)
{
    EXPECT_EQ(ParallelCampaignRunner(0).jobs(), 1u);
    EXPECT_EQ(ParallelCampaignRunner(1).jobs(), 1u);
    EXPECT_EQ(ParallelCampaignRunner(7).jobs(), 7u);
}

TEST(ParallelRunner, SingleFailureRethrowsOriginalException)
{
    ParallelCampaignRunner runner(4);
    try {
        runner.run(100, [](std::size_t i) {
            if (i == 17)
                throw std::runtime_error("point " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        // One failure keeps the concrete exception so callers can
        // still catch the original type and message.
        EXPECT_STREQ(e.what(), "point 17");
    }
}

TEST(ParallelRunner, MultipleFailuresAggregateEveryIndex)
{
    ParallelCampaignRunner runner(4);
    std::vector<std::atomic<int>> hits(100);
    try {
        runner.run(100, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            if (i == 17 || i == 63 || i == 99)
                throw std::runtime_error("broken " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("3 campaign points failed (indices 17 63 "
                            "99); first: broken 17"),
                  std::string::npos)
            << what;
        // Every failure keeps its own diagnostic, one line each.
        EXPECT_NE(what.find("\npoint 17: broken 17"), std::string::npos)
            << what;
        EXPECT_NE(what.find("\npoint 63: broken 63"), std::string::npos)
            << what;
        EXPECT_NE(what.find("\npoint 99: broken 99"), std::string::npos)
            << what;
    }
    // Failed points run once, and they starve none of the others.
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelRunner, ReturnsOnlyAfterEveryPointFinished)
{
    // A slow point is waited for, never abandoned: once run()
    // returns, no point is still running, so every point may write
    // state its caller owns.
    std::array<std::atomic<bool>, 4> done{};
    ParallelCampaignRunner(2).run(4, [&](std::size_t i) {
        if (i == 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        done[i] = true;
    });
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_TRUE(done[i].load()) << "point " << i;
}

TEST(ParallelRunner, SerialPathRunsAllPointsBeforeThrowing)
{
    ParallelCampaignRunner runner(1);
    std::vector<int> hits(10, 0);
    try {
        runner.run(10, [&](std::size_t i) {
            ++hits[i];
            if (i == 3)
                throw std::runtime_error("point 3");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "point 3");
    }
    // A failing point must not starve the ones after it — parallel
    // workers would have run them, so the inline path does too.
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

/**
 * The determinism contract end to end: real experiments sharded over
 * four threads must produce results byte-identical to a serial run.
 * Each point builds its own Machine from (dim, seed), so nothing is
 * shared between workers; serialized summaries are deposited by index
 * and compared after the join.
 */
TEST(ParallelRunner, ExperimentCampaignMatchesSerialByteForByte)
{
    workloads::AppProfile app = workloads::appByName("Radiosity");
    app.iterations = 3;

    struct Point
    {
        unsigned dim;
        std::uint64_t seed;
    };
    std::vector<Point> points;
    for (unsigned dim = 1; dim <= 2; ++dim)
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            points.push_back({dim, seed});

    auto campaign = [&](unsigned jobs) {
        std::vector<std::string> out(points.size());
        ParallelCampaignRunner runner(jobs);
        runner.run(points.size(), [&](std::size_t i) {
            harness::SystemConfig sys =
                harness::SystemConfig::small(points[i].dim);
            sys.seed = points[i].seed;
            const harness::ExperimentResult r = harness::runExperiment(
                sys, app, harness::ConfigKind::Thrifty);
            std::ostringstream os;
            os << r.app << ' ' << r.config << ' ' << r.execTime << ' '
               << r.totalEnergy() << ' ' << r.sync.instances << ' '
               << r.sync.sleeps;
            out[i] = os.str();
        });
        return out;
    };

    const std::vector<std::string> serial = campaign(1);
    const std::vector<std::string> parallel = campaign(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "point " << i;
}

} // namespace
} // namespace tb
