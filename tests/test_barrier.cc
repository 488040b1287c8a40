/**
 * @file
 * Unit tests for the conventional (Baseline) sense-reversal barrier.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "harness/machine.hh"
#include "sim/logging.hh"
#include "thrifty/conventional_barrier.hh"

namespace tb {
namespace {

using harness::Machine;
using harness::SystemConfig;
using thrifty::Barrier;
using thrifty::ConventionalBarrier;
using thrifty::SyncStats;

/** Drive all threads through @p instances rounds of compute+barrier.
 *  @p delay(tid, instance) gives each thread's compute time. */
void
driveRounds(Machine& m, Barrier& barrier, unsigned instances,
            const std::function<Tick(ThreadId, unsigned)>& delay,
            std::vector<Tick>* depart_ticks = nullptr)
{
    const unsigned n = m.config().numNodes();
    std::function<void(ThreadId, unsigned)> round =
        [&](ThreadId tid, unsigned inst) {
            if (inst >= instances)
                return;
            m.thread(tid).compute(delay(tid, inst), [&, tid, inst]() {
                barrier.arrive(m.thread(tid), [&, tid, inst]() {
                    if (depart_ticks)
                        (*depart_ticks)[tid] = m.eventQueue().now();
                    round(tid, inst + 1);
                });
            });
        };
    for (ThreadId t = 0; t < n; ++t)
        round(t, 0);
    m.run();
}

TEST(ConventionalBarrier, ReleasesAllThreadsTogether)
{
    Machine m(SystemConfig::small(2)); // 4 threads
    SyncStats stats;
    ConventionalBarrier b(m.eventQueue(), 0x1, 4, m.memory(), stats,
                          "b");
    std::vector<Tick> departs(4, 0);
    Tick last_arrival = 0;
    driveRounds(
        m, b, 1,
        [&](ThreadId tid, unsigned) {
            const Tick d = (tid + 1) * 100 * kMicrosecond;
            last_arrival = std::max(last_arrival, d);
            return d;
        },
        &departs);
    EXPECT_EQ(stats.instances, 1u);
    EXPECT_EQ(stats.arrivals, 4u);
    // Nobody departs before the last thread arrived.
    for (Tick d : departs)
        EXPECT_GE(d, last_arrival);
    // And everyone departs within a small window of the release.
    const Tick min_d = *std::min_element(departs.begin(), departs.end());
    const Tick max_d = *std::max_element(departs.begin(), departs.end());
    EXPECT_LT(max_d - min_d, 5 * kMicrosecond);
}

TEST(ConventionalBarrier, SenseReversalSurvivesManyInstances)
{
    Machine m(SystemConfig::small(2));
    SyncStats stats;
    ConventionalBarrier b(m.eventQueue(), 0x1, 4, m.memory(), stats,
                          "b");
    driveRounds(m, b, 10, [](ThreadId tid, unsigned inst) {
        // Rotate who is last each instance.
        return (1 + (tid + inst) % 4) * 50 * kMicrosecond;
    });
    EXPECT_EQ(stats.instances, 10u);
    EXPECT_EQ(stats.arrivals, 40u);
}

TEST(ConventionalBarrier, FastThreadCanLapSlowSpinner)
{
    // A thread may depart, compute quickly, and check in for the next
    // instance while stragglers of the previous one are still waking;
    // sense reversal must keep instances separate.
    Machine m(SystemConfig::small(2));
    SyncStats stats;
    ConventionalBarrier b(m.eventQueue(), 0x1, 4, m.memory(), stats,
                          "b");
    driveRounds(m, b, 6, [](ThreadId tid, unsigned) {
        return tid == 0 ? Tick{1 * kMicrosecond}
                        : Tick{400 * kMicrosecond};
    });
    EXPECT_EQ(stats.instances, 6u);
}

TEST(ConventionalBarrier, StallAccountingTracksImbalance)
{
    Machine m(SystemConfig::small(2));
    SyncStats stats;
    ConventionalBarrier b(m.eventQueue(), 0x1, 4, m.memory(), stats,
                          "b");
    // Three threads arrive at t=0-ish, one at 1ms: aggregate stall
    // ~3ms.
    driveRounds(m, b, 1, [](ThreadId tid, unsigned) {
        return tid == 3 ? Tick{kMillisecond} : Tick{1000};
    });
    EXPECT_NEAR(stats.totalStallTicks, 3.0 * kMillisecond,
                0.1 * kMillisecond);
}

TEST(ConventionalBarrier, SpinEnergyAccruedWhileWaiting)
{
    Machine m(SystemConfig::small(2));
    SyncStats stats;
    ConventionalBarrier b(m.eventQueue(), 0x1, 4, m.memory(), stats,
                          "b");
    driveRounds(m, b, 1, [](ThreadId tid, unsigned) {
        return tid == 0 ? Tick{kMillisecond} : Tick{1000};
    });
    // The three early threads spun for ~1ms each.
    power::EnergyAccount total = m.totalEnergy();
    EXPECT_NEAR(static_cast<double>(total.time(power::Bucket::Spin)),
                3.0 * kMillisecond, 0.1 * kMillisecond);
}

TEST(ConventionalBarrier, SingleThreadDegenerate)
{
    Machine m(SystemConfig::small(1)); // 2 nodes, use 1 participant
    SyncStats stats;
    ConventionalBarrier b(m.eventQueue(), 0x1, 1, m.memory(), stats,
                          "b");
    bool done = false;
    b.arrive(m.thread(0), [&]() { done = true; });
    m.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.instances, 1u);
    EXPECT_EQ(stats.spins, 0u);
}

TEST(ConventionalBarrier, OutOfRangeThreadPanics)
{
    Machine m(SystemConfig::small(2));
    SyncStats stats;
    ConventionalBarrier b(m.eventQueue(), 0x1, 2, m.memory(), stats,
                          "b");
    EXPECT_THROW(b.arrive(m.thread(3), []() {}), PanicError);
}

TEST(ConventionalBarrier, ZeroThreadsFatal)
{
    Machine m(SystemConfig::small(1));
    SyncStats stats;
    EXPECT_THROW(ConventionalBarrier(m.eventQueue(), 0x1, 0,
                                     m.memory(), stats, "b"),
                 FatalError);
}

} // namespace
} // namespace tb
