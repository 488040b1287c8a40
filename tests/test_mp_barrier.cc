/**
 * @file
 * Unit tests for the message-passing thrifty barrier (the paper's
 * "other environments" claim, Section 1) and the MP endpoint layer.
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "harness/machine.hh"
#include "mp/mp_barrier.hh"
#include "mp/mp_endpoint.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

using harness::Machine;
using harness::SystemConfig;
using mp::MpBarrier;
using mp::MpFabric;
using mp::MpMessage;
using thrifty::SyncStats;
using thrifty::ThriftyConfig;
using thrifty::ThriftyRuntime;

TEST(MpEndpoint, DeliversMessagesWithPayload)
{
    EventQueue eq;
    noc::NetworkConfig ncfg;
    ncfg.dimension = 2;
    noc::Network net(eq, ncfg);
    MpFabric fabric(eq, net);

    std::optional<MpMessage> got;
    fabric.endpoint(3).setHandler(
        [&](const MpMessage& m) { got = m; });
    MpMessage m;
    m.tag = 7;
    m.a = 0x1234;
    m.b = 99;
    fabric.endpoint(0).send(3, m);
    eq.run();

    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, 7u);
    EXPECT_EQ(got->a, 0x1234u);
    EXPECT_EQ(got->b, 99u);
    EXPECT_EQ(got->src, 0u);
}

TEST(MpEndpoint, MultipleHandlersAllSeeMessages)
{
    EventQueue eq;
    noc::NetworkConfig ncfg;
    ncfg.dimension = 1;
    noc::Network net(eq, ncfg);
    MpFabric fabric(eq, net);

    int a = 0, b = 0;
    fabric.endpoint(1).addHandler([&](const MpMessage&) { ++a; });
    fabric.endpoint(1).addHandler([&](const MpMessage&) { ++b; });
    fabric.endpoint(0).send(1, MpMessage{});
    eq.run();
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);
}

TEST(MpEndpoint, WakeOnMessageIsOneShot)
{
    EventQueue eq;
    noc::NetworkConfig ncfg;
    ncfg.dimension = 1;
    noc::Network net(eq, ncfg);
    MpFabric fabric(eq, net);

    int wakes = 0;
    fabric.endpoint(1).armWakeOnMessage([&]() { ++wakes; });
    fabric.endpoint(0).send(1, MpMessage{});
    fabric.endpoint(0).send(1, MpMessage{});
    eq.run();
    EXPECT_EQ(wakes, 1);
}

// ----------------------------------------------------------------------
// MP barrier rig.
// ----------------------------------------------------------------------

struct Rig
{
    Machine m{SystemConfig::small(2)}; // 4 nodes
    MpFabric fabric;
    SyncStats stats;
    std::unique_ptr<ThriftyRuntime> rt;
    std::unique_ptr<MpBarrier> barrier;

    explicit Rig(ThriftyConfig cfg = ThriftyConfig::thrifty())
        : fabric(m.eventQueue(), m.network())
    {
        rt = std::make_unique<ThriftyRuntime>(4, cfg, stats);
        std::vector<cpu::Cpu*> cpus;
        for (NodeId n = 0; n < 4; ++n)
            cpus.push_back(&m.cpu(n));
        barrier = std::make_unique<MpBarrier>(
            m.eventQueue(), 0x77, *rt, fabric, cpus, 0, "mpb");
    }

    void
    drive(unsigned instances,
          const std::function<Tick(ThreadId, unsigned)>& delay,
          std::vector<Tick>* departs = nullptr)
    {
        std::function<void(ThreadId, unsigned)> round =
            [&](ThreadId tid, unsigned inst) {
                if (inst >= instances)
                    return;
                m.thread(tid).compute(delay(tid, inst),
                                      [&, tid, inst]() {
                    barrier->arrive(tid, [&, tid, inst]() {
                        if (departs)
                            (*departs)[tid] = m.eventQueue().now();
                        round(tid, inst + 1);
                    });
                });
            };
        for (ThreadId t = 0; t < 4; ++t)
            round(t, 0);
        m.run();
    }
};

Tick
imbalanced(ThreadId tid, unsigned)
{
    return tid == 0 ? Tick{kMillisecond} : Tick{20 * kMicrosecond};
}

TEST(MpBarrier, ReleasesEveryoneNoEarlyPass)
{
    Rig r;
    std::vector<Tick> departs(4, 0);
    Tick last_arrival = 0;
    r.drive(
        1,
        [&](ThreadId tid, unsigned) {
            Tick d = (tid + 1) * 150 * kMicrosecond;
            last_arrival = std::max(last_arrival, d);
            return d;
        },
        &departs);
    EXPECT_EQ(r.stats.instances, 1u);
    for (Tick d : departs)
        EXPECT_GE(d, last_arrival);
}

TEST(MpBarrier, ManyInstancesComplete)
{
    Rig r;
    r.drive(8, [](ThreadId tid, unsigned inst) {
        return (1 + (tid + inst) % 4) * 120 * kMicrosecond;
    });
    EXPECT_EQ(r.stats.instances, 8u);
    EXPECT_EQ(r.stats.arrivals, 32u);
}

TEST(MpBarrier, WarmupSpinsThenSleeps)
{
    Rig r;
    r.drive(4, imbalanced);
    EXPECT_EQ(r.stats.instances, 4u);
    // First instance: no history for anyone; later instances: the
    // three early threads sleep.
    EXPECT_GT(r.stats.sleeps, 0u);
    EXPECT_GE(r.stats.spins, 3u);
    double deep = 0.0;
    for (NodeId n = 1; n < 4; ++n) {
        deep += r.m.cpu(n).statistics().scalarValue(
            "sleepEntries.Sleep3");
    }
    EXPECT_GT(deep, 0.0);
}

TEST(MpBarrier, SavesEnergyVersusPollingBaseline)
{
    double poll_energy = 0.0, thrifty_energy = 0.0;
    Tick poll_time = 0, thrifty_time = 0;
    {
        ThriftyConfig cfg = ThriftyConfig::thrifty();
        cfg.states = power::SleepStateTable(); // MP baseline: poll
        Rig r(cfg);
        r.drive(6, imbalanced);
        poll_energy = r.m.totalEnergy().totalEnergy();
        poll_time = r.m.eventQueue().now();
    }
    {
        Rig r;
        r.drive(6, imbalanced);
        thrifty_energy = r.m.totalEnergy().totalEnergy();
        thrifty_time = r.m.eventQueue().now();
    }
    EXPECT_LT(thrifty_energy, 0.9 * poll_energy);
    EXPECT_LT(static_cast<double>(thrifty_time),
              1.03 * static_cast<double>(poll_time));
}

TEST(MpBarrier, InternalOnlyPolicyCompletes)
{
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.wakeup = thrifty::WakeupPolicy::Internal;
    cfg.overpredictionThreshold = -1.0;
    Rig r(cfg);
    r.drive(5, imbalanced);
    EXPECT_EQ(r.stats.instances, 5u);
    EXPECT_GT(r.stats.sleeps, 0u);
}

TEST(MpBarrier, ExternalOnlyPolicyCompletes)
{
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.wakeup = thrifty::WakeupPolicy::External;
    Rig r(cfg);
    r.drive(5, imbalanced);
    EXPECT_EQ(r.stats.instances, 5u);
    EXPECT_GT(r.stats.sleeps, 0u);
}

TEST(MpBarrier, CutoffEngagesOnCrashingIntervals)
{
    Rig r;
    r.drive(8, [](ThreadId tid, unsigned inst) {
        const Tick base = inst < 3 ? Tick{3 * kMillisecond}
                                   : Tick{120 * kMicrosecond};
        return tid == 0 ? base + base / 10 : base;
    });
    EXPECT_GT(r.stats.cutoffs, 0u);
    EXPECT_EQ(r.stats.instances, 8u);
}

TEST(MpBarrier, TwoBarriersDemultiplex)
{
    Rig r;
    std::vector<cpu::Cpu*> cpus;
    for (NodeId n = 0; n < 4; ++n)
        cpus.push_back(&r.m.cpu(n));
    MpBarrier second(r.m.eventQueue(), 0x88, *r.rt, r.fabric, cpus, 1,
                     "mpb2");

    unsigned completed = 0;
    std::function<void(ThreadId, unsigned)> round = [&](ThreadId tid,
                                                        unsigned inst) {
        if (inst >= 6) {
            ++completed;
            return;
        }
        MpBarrier& b = (inst % 2 == 0) ? *r.barrier : second;
        r.m.thread(tid).compute(imbalanced(tid, inst),
                                [&, tid, inst]() {
                                    b.arrive(tid, [&, tid, inst]() {
                                        round(tid, inst + 1);
                                    });
                                });
    };
    for (ThreadId t = 0; t < 4; ++t)
        round(t, 0);
    r.m.run();
    EXPECT_EQ(completed, 4u);
    // Six rounds alternating between the two barriers.
    EXPECT_EQ(r.stats.instances, 6u);
    EXPECT_EQ(r.barrier->instances(), 3u);
    EXPECT_EQ(second.instances(), 3u);
}

TEST(MpBarrier, DoubleArrivalPanics)
{
    Rig r;
    r.barrier->arrive(0, []() {});
    EXPECT_THROW(r.barrier->arrive(0, []() {}), PanicError);
}

TEST(MpBarrier, OracleModeUnsupported)
{
    Machine m(SystemConfig::small(2));
    MpFabric fabric(m.eventQueue(), m.network());
    SyncStats stats;
    ThriftyRuntime rt(4, ThriftyConfig::oracleHalt(), stats);
    std::vector<cpu::Cpu*> cpus;
    for (NodeId n = 0; n < 4; ++n)
        cpus.push_back(&m.cpu(n));
    EXPECT_THROW(
        MpBarrier(m.eventQueue(), 0x77, rt, fabric, cpus, 0, "mpb"),
        FatalError);
}

} // namespace
} // namespace tb
