/**
 * @file
 * Unit tests for the CPU power-state machine and its energy
 * integration.
 */

#include <gtest/gtest.h>

#include <optional>

#include "cpu/cpu.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

using cpu::Cpu;
using cpu::CpuState;
using power::Bucket;

struct Rig
{
    EventQueue eq;
    noc::Network net;
    mem::MemorySystem mem;
    power::PowerParams pp;
    Cpu cpu0;
    Addr shared;

    Rig()
        : net(eq, makeNet()),
          mem(eq, net, mem::MemoryConfig{}),
          cpu0(eq, 0, mem.controller(0), pp, "cpu0")
    {
        shared = mem.addressMap().allocShared(64 * 1024);
    }

    static noc::NetworkConfig
    makeNet()
    {
        noc::NetworkConfig c;
        c.dimension = 1;
        return c;
    }

    const power::SleepState& halt() { return haltTable.at(0); }
    const power::SleepState& sleep3() { return fullTable.at(2); }

    power::SleepStateTable haltTable =
        power::SleepStateTable::haltOnly();
    power::SleepStateTable fullTable =
        power::SleepStateTable::paperDefault();
};

TEST(Cpu, StartsActiveAndAccruesCompute)
{
    Rig r;
    r.eq.schedule(kMillisecond, []() {});
    r.eq.run();
    r.cpu0.finalize(r.eq.now());
    EXPECT_EQ(r.cpu0.state(), CpuState::Active);
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Compute), kMillisecond);
    EXPECT_NEAR(r.cpu0.energy().energy(Bucket::Compute),
                r.pp.activeWatts() * 1e-3, 1e-9);
}

TEST(Cpu, SpinAccruesAtSpinPower)
{
    Rig r;
    r.cpu0.beginSpin();
    r.eq.schedule(kMillisecond, [&]() { r.cpu0.endSpin(); });
    r.eq.run();
    r.cpu0.finalize(r.eq.now());
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Spin), kMillisecond);
    EXPECT_NEAR(r.cpu0.energy().energy(Bucket::Spin),
                r.pp.spinWatts() * 1e-3, 1e-9);
}

TEST(Cpu, SpinStateTransitionsGuarded)
{
    Rig r;
    EXPECT_THROW(r.cpu0.endSpin(), PanicError);
    r.cpu0.beginSpin();
    EXPECT_THROW(r.cpu0.beginSpin(), PanicError);
}

TEST(Cpu, HaltSleepTimerWakeRoundTrip)
{
    Rig r;
    std::optional<mem::WakeReason> woke;
    Tick woke_at = 0;

    r.mem.controller(0).armWakeTimer(200 * kMicrosecond);
    r.cpu0.enterSleep(r.halt(), [&](mem::WakeReason reason) {
        woke = reason;
        woke_at = r.eq.now();
    });
    EXPECT_EQ(r.cpu0.state(), CpuState::TransitionDown);
    r.eq.run();
    r.cpu0.finalize(r.eq.now());

    ASSERT_TRUE(woke.has_value());
    EXPECT_EQ(*woke, mem::WakeReason::Timer);
    // Timer at 200us + 10us transition up.
    EXPECT_EQ(woke_at, 210 * kMicrosecond);
    EXPECT_EQ(r.cpu0.state(), CpuState::Active);

    // Buckets: 10us down + 10us up transitions, 190us sleep.
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Transition),
              20 * kMicrosecond);
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Sleep), 190 * kMicrosecond);
    const double sleep_w = r.pp.sleepWatts(r.halt().powerFraction);
    EXPECT_NEAR(r.cpu0.energy().energy(Bucket::Sleep),
                sleep_w * 190e-6, 1e-9);
    const double trans_w = 0.5 * (r.pp.activeWatts() + sleep_w);
    EXPECT_NEAR(r.cpu0.energy().energy(Bucket::Transition),
                trans_w * 20e-6, 1e-9);
}

TEST(Cpu, DeepSleepFlushesAndGatesSnoop)
{
    Rig r;
    // Make a dirty shared line so the flush has work.
    bool stored = false;
    r.mem.controller(0).store(r.shared, 7, [&]() { stored = true; });
    r.eq.run();
    ASSERT_TRUE(stored);

    r.mem.controller(0).armWakeTimer(500 * kMicrosecond);
    bool woke = false;
    r.cpu0.enterSleep(r.sleep3(), [&](mem::WakeReason) { woke = true; });
    EXPECT_EQ(r.cpu0.state(), CpuState::Flushing);
    r.eq.run();
    EXPECT_TRUE(woke);
    r.cpu0.finalize(r.eq.now());
    // The dirty shared line was flushed.
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared),
              mem::LineState::Invalid);
    // Snoopability restored after wake.
    EXPECT_TRUE(r.mem.controller(0).snoopable());
    EXPECT_GT(r.cpu0.energy().time(Bucket::Sleep), 0u);
}

TEST(Cpu, WakeDuringFlushAbortsEntry)
{
    Rig r;
    // Dirty lines so the flush takes nonzero time.
    for (unsigned i = 0; i < 8; ++i) {
        bool done = false;
        r.mem.controller(0).store(r.shared + i * 64, i,
                                  [&]() { done = true; });
        r.eq.run();
        ASSERT_TRUE(done);
    }
    bool woke = false;
    r.cpu0.enterSleep(r.sleep3(), [&](mem::WakeReason) { woke = true; });
    ASSERT_EQ(r.cpu0.state(), CpuState::Flushing);
    // Trigger a wake while still flushing.
    r.cpu0.wakeRequest(mem::WakeReason::ExternalFlag);
    r.eq.run();
    r.cpu0.finalize(r.eq.now());
    EXPECT_TRUE(woke);
    EXPECT_EQ(r.cpu0.state(), CpuState::Active);
    // Never slept: no Sleep or Transition time.
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Sleep), 0u);
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Transition), 0u);
}

TEST(Cpu, WakeDuringDownTransitionTurnsAround)
{
    Rig r;
    bool woke = false;
    Tick woke_at = 0;
    r.cpu0.enterSleep(r.halt(), [&](mem::WakeReason) {
        woke = true;
        woke_at = r.eq.now();
    });
    ASSERT_EQ(r.cpu0.state(), CpuState::TransitionDown);
    const Tick ready =
        r.cpu0.wakeRequest(mem::WakeReason::ExternalFlag);
    // Must finish the down transition (10us) then come back (10us).
    EXPECT_EQ(ready, 20 * kMicrosecond);
    r.eq.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(woke_at, 20 * kMicrosecond);
    r.cpu0.finalize(r.eq.now());
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Transition),
              20 * kMicrosecond);
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Sleep), 0u);
}

TEST(Cpu, WakeWhileActiveIsNoOp)
{
    Rig r;
    EXPECT_EQ(r.cpu0.wakeRequest(mem::WakeReason::Timer), r.eq.now());
    EXPECT_EQ(r.cpu0.state(), CpuState::Active);
}

TEST(Cpu, SecondWakeDuringTransitionUpReturnsSameTick)
{
    Rig r;
    r.cpu0.enterSleep(r.halt(), [](mem::WakeReason) {});
    r.eq.run(15 * kMicrosecond); // now asleep
    ASSERT_EQ(r.cpu0.state(), CpuState::Sleeping);
    const Tick t1 = r.cpu0.wakeRequest(mem::WakeReason::Timer);
    ASSERT_EQ(r.cpu0.state(), CpuState::TransitionUp);
    const Tick t2 =
        r.cpu0.wakeRequest(mem::WakeReason::ExternalFlag);
    EXPECT_EQ(t1, t2);
    r.eq.run();
}

TEST(Cpu, EnterSleepFromBadStatePanics)
{
    Rig r;
    r.cpu0.enterSleep(r.halt(), [](mem::WakeReason) {});
    EXPECT_THROW(r.cpu0.enterSleep(r.halt(), [](mem::WakeReason) {}),
                 PanicError);
    r.eq.run();
}

TEST(Cpu, SuspendResumeAccounting)
{
    Rig r;
    r.eq.schedule(kMillisecond, [&]() { r.cpu0.suspendAccounting(); });
    r.eq.schedule(3 * kMillisecond,
                  [&]() { r.cpu0.resumeAccounting(); });
    r.eq.schedule(4 * kMillisecond, []() {});
    r.eq.run();
    r.cpu0.finalize(r.eq.now());
    // 2ms of the 4ms were suspended.
    EXPECT_EQ(r.cpu0.energy().totalTime(), 2 * kMillisecond);
}

TEST(Cpu, AccrueManualLandsInBucket)
{
    Rig r;
    r.cpu0.accrueManual(Bucket::Sleep, kMillisecond, 0.66);
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Sleep), kMillisecond);
    EXPECT_NEAR(r.cpu0.energy().energy(Bucket::Sleep), 0.66e-3, 1e-12);
}

TEST(Cpu, EnterSleepFromSpinningIsAllowed)
{
    // A thread may decide to sleep after spinning for a while
    // (spin-then-sleep policies); the FSM must accept the
    // Spinning -> sleep transition and close the Spin interval.
    Rig r;
    r.cpu0.beginSpin();
    r.eq.schedule(100 * kMicrosecond, [&]() {
        r.mem.controller(0).armWakeTimer(300 * kMicrosecond);
        r.cpu0.enterSleep(r.halt(), [](mem::WakeReason) {});
    });
    r.eq.run();
    r.cpu0.finalize(r.eq.now());
    EXPECT_EQ(r.cpu0.state(), CpuState::Active);
    EXPECT_EQ(r.cpu0.energy().time(Bucket::Spin), 100 * kMicrosecond);
    EXPECT_GT(r.cpu0.energy().time(Bucket::Sleep), 0u);
}

TEST(Cpu, SleepEntryStatsPerState)
{
    Rig r;
    bool woke = false;
    r.mem.controller(0).armWakeTimer(100 * kMicrosecond);
    r.cpu0.enterSleep(r.halt(), [&](mem::WakeReason) { woke = true; });
    r.eq.run();
    EXPECT_TRUE(woke);
    EXPECT_DOUBLE_EQ(r.cpu0.statistics().scalarValue(
                         "sleepEntries.Sleep1(Halt)"),
                     1.0);
    EXPECT_DOUBLE_EQ(
        r.cpu0.statistics().scalarValue("wakes.timer"), 1.0);
}

} // namespace
} // namespace tb
