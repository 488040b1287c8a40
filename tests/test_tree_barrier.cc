/**
 * @file
 * Unit + property tests for the combining-tree thrifty barrier.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "harness/machine.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "thrifty/conventional_barrier.hh"
#include "thrifty/tree_barrier.hh"

namespace tb {
namespace {

using harness::Machine;
using harness::SystemConfig;
using thrifty::SyncStats;
using thrifty::ThriftyConfig;
using thrifty::ThriftyRuntime;
using thrifty::TreeBarrier;

struct Rig
{
    Machine m;
    SyncStats stats;
    std::unique_ptr<ThriftyRuntime> rt;
    std::unique_ptr<TreeBarrier> barrier;

    explicit Rig(unsigned dim = 3, unsigned radix = 2,
                 const ThriftyConfig& cfg = ThriftyConfig::thrifty())
        : m(SystemConfig::small(dim))
    {
        rt = std::make_unique<ThriftyRuntime>(m.config().numNodes(),
                                              cfg, stats);
        barrier = std::make_unique<TreeBarrier>(
            m.eventQueue(), 0x42, *rt, m.memory(), radix, "tree");
    }

    void
    drive(unsigned instances,
          const std::function<Tick(ThreadId, unsigned)>& delay,
          std::vector<Tick>* departs = nullptr)
    {
        const unsigned n = m.config().numNodes();
        std::function<void(ThreadId, unsigned)> round =
            [&](ThreadId tid, unsigned inst) {
                if (inst >= instances)
                    return;
                m.thread(tid).compute(delay(tid, inst),
                                      [&, tid, inst]() {
                    barrier->arrive(m.thread(tid), [&, tid, inst]() {
                        if (departs)
                            (*departs)[tid] = m.eventQueue().now();
                        round(tid, inst + 1);
                    });
                });
            };
        for (ThreadId t = 0; t < n; ++t)
            round(t, 0);
        m.run();
    }
};

Tick
imbalanced(ThreadId tid, unsigned)
{
    return tid == 0 ? Tick{kMillisecond} : Tick{20 * kMicrosecond};
}

TEST(TreeBarrier, TreeShapeForEightThreadsRadix2)
{
    Rig r(3, 2);
    EXPECT_EQ(r.barrier->levels(), 3u); // 4 + 2 + 1 groups
}

TEST(TreeBarrier, ReleasesAllNoEarlyPass)
{
    Rig r(3, 2);
    std::vector<Tick> departs(8, 0);
    Tick last_arrival = 0;
    r.drive(
        1,
        [&](ThreadId tid, unsigned) {
            const Tick d = (tid + 1) * 100 * kMicrosecond;
            last_arrival = std::max(last_arrival, d);
            return d;
        },
        &departs);
    EXPECT_EQ(r.stats.instances, 1u);
    for (Tick d : departs)
        EXPECT_GE(d, last_arrival);
}

TEST(TreeBarrier, ManyInstancesRotatingLast)
{
    Rig r(3, 2);
    r.drive(10, [](ThreadId tid, unsigned inst) {
        return (1 + (tid + inst) % 8) * 60 * kMicrosecond;
    });
    EXPECT_EQ(r.stats.instances, 10u);
    EXPECT_EQ(r.stats.arrivals, 80u);
}

TEST(TreeBarrier, NonPowerOfRadixPopulation)
{
    // 8 threads, radix 3: groups of 3/3/2, then 3, then 1.
    Rig r(3, 3);
    r.drive(6, imbalanced);
    EXPECT_EQ(r.stats.instances, 6u);
}

TEST(TreeBarrier, SleepsAfterWarmup)
{
    Rig r(3, 2);
    r.drive(4, imbalanced);
    EXPECT_GT(r.stats.sleeps, 0u);
    EXPECT_EQ(r.stats.instances, 4u);
}

TEST(TreeBarrier, EverySleepEndsInAChargedResidualSpin)
{
    // Like the central barrier, a tree sleeper re-checks its group
    // flag after waking; that residual spin is charged per sleep.
    Rig r(3, 2);
    r.drive(6, imbalanced);
    EXPECT_GT(r.stats.sleeps, 0u);
    EXPECT_EQ(r.stats.residualSpins, r.stats.sleeps);
    EXPECT_GE(r.stats.residualSpinTicks, 0.0);
}

TEST(TreeBarrier, SavesEnergyLikeCentralThrifty)
{
    double base_energy = 0.0, tree_energy = 0.0;
    {
        Machine m(SystemConfig::small(3));
        SyncStats stats;
        thrifty::ConventionalBarrier cb(m.eventQueue(), 0x42, 8,
                                        m.memory(), stats, "cb");
        std::function<void(ThreadId, unsigned)> round =
            [&](ThreadId tid, unsigned inst) {
                if (inst >= 6)
                    return;
                m.thread(tid).compute(imbalanced(tid, inst),
                                      [&, tid, inst]() {
                    cb.arrive(m.thread(tid), [&, tid, inst]() {
                        round(tid, inst + 1);
                    });
                });
            };
        for (ThreadId t = 0; t < 8; ++t)
            round(t, 0);
        m.run();
        base_energy = m.totalEnergy().totalEnergy();
    }
    {
        Rig r(3, 2);
        r.drive(6, imbalanced);
        tree_energy = r.m.totalEnergy().totalEnergy();
    }
    EXPECT_LT(tree_energy, 0.9 * base_energy);
}

TEST(TreeBarrier, BrtsStaysConsistentWithTrace)
{
    Rig r(3, 2);
    r.stats.traceEnabled = true;
    r.drive(5, imbalanced);
    ASSERT_EQ(r.stats.trace.size(), 5u * 8);
    for (const auto& e : r.stats.trace)
        EXPECT_EQ(e.bit, e.compute + e.stall);
}

TEST(TreeBarrier, RandomizedNoEarlyPassProperty)
{
    for (unsigned seed : {3u, 11u}) {
        Rig r(2, 2); // 4 threads
        Random rng(seed);
        const unsigned n = 4, instances = 6;
        std::vector<unsigned> reached(n, 0);
        bool violated = false;
        std::function<void(ThreadId, unsigned)> round =
            [&](ThreadId tid, unsigned inst) {
                if (inst >= instances)
                    return;
                const Tick d =
                    10 * kMicrosecond +
                    rng.uniformInt(1500 * kMicrosecond);
                r.m.thread(tid).compute(d, [&, tid, inst]() {
                    reached[tid] = inst + 1;
                    r.barrier->arrive(r.m.thread(tid),
                                      [&, tid, inst]() {
                        for (unsigned t = 0; t < n; ++t) {
                            if (reached[t] < inst + 1)
                                violated = true;
                        }
                        round(tid, inst + 1);
                    });
                });
            };
        for (ThreadId t = 0; t < n; ++t)
            round(t, 0);
        r.m.run();
        EXPECT_FALSE(violated) << "seed " << seed;
        EXPECT_EQ(r.stats.instances, instances) << "seed " << seed;
    }
}

TEST(TreeBarrier, BadRadixFatal)
{
    Machine m(SystemConfig::small(1));
    SyncStats stats;
    ThriftyRuntime rt(2, ThriftyConfig::thrifty(), stats);
    EXPECT_THROW(TreeBarrier(m.eventQueue(), 0x1, rt, m.memory(), 1,
                             "bad"),
                 FatalError);
}

TEST(TreeBarrier, OracleUnsupported)
{
    Machine m(SystemConfig::small(1));
    SyncStats stats;
    ThriftyRuntime rt(2, ThriftyConfig::oracleHalt(), stats);
    EXPECT_THROW(TreeBarrier(m.eventQueue(), 0x1, rt, m.memory(), 2,
                             "bad"),
                 FatalError);
}

} // namespace
} // namespace tb
