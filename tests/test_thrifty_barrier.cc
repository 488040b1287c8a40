/**
 * @file
 * Unit tests for the thrifty barrier mechanism itself: warm-up,
 * conditional sleep, state selection, wake-up policies, the
 * overprediction cutoff, the underprediction filter, oracle parking,
 * and false wake-ups — plus boundary tests of the policy rules every
 * barrier shares through ThriftyRuntime.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "harness/machine.hh"
#include "sim/logging.hh"
#include "thrifty/conventional_barrier.hh"
#include "thrifty/thrifty_barrier.hh"

namespace tb {
namespace {

using harness::Machine;
using harness::SystemConfig;
using thrifty::SyncStats;
using thrifty::ThriftyBarrier;
using thrifty::ThriftyConfig;
using thrifty::ThriftyRuntime;
using thrifty::WakeupPolicy;

/** Drive all threads through @p instances rounds of compute+barrier. */
void
driveRounds(Machine& m, thrifty::Barrier& barrier, unsigned instances,
            const std::function<Tick(ThreadId, unsigned)>& delay,
            std::vector<Tick>* departs = nullptr)
{
    const unsigned n = m.config().numNodes();
    std::function<void(ThreadId, unsigned)> round =
        [&](ThreadId tid, unsigned inst) {
            if (inst >= instances)
                return;
            m.thread(tid).compute(delay(tid, inst), [&, tid, inst]() {
                barrier.arrive(m.thread(tid), [&, tid, inst]() {
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

/** Imbalanced schedule: thread 0 is always ~1ms late. */
Tick
imbalanced(ThreadId tid, unsigned)
{
    return tid == 0 ? Tick{kMillisecond} : Tick{20 * kMicrosecond};
}

struct Rig
{
    Machine m{SystemConfig::small(2)}; // 4 threads
    SyncStats stats;

    std::unique_ptr<ThriftyRuntime> rt;
    std::unique_ptr<ThriftyBarrier> barrier;

    explicit Rig(const ThriftyConfig& cfg = ThriftyConfig::thrifty())
    {
        rt = std::make_unique<ThriftyRuntime>(4, cfg, stats);
        barrier = std::make_unique<ThriftyBarrier>(
            m.eventQueue(), 0x42, *rt, m.memory(), "tb");
    }
};

TEST(ThriftyBarrier, WarmupInstanceSpins)
{
    Rig r;
    driveRounds(r.m, *r.barrier, 1, imbalanced);
    EXPECT_EQ(r.stats.instances, 1u);
    EXPECT_EQ(r.stats.sleeps, 0u);
    EXPECT_EQ(r.stats.spins, 3u);
}

TEST(ThriftyBarrier, SleepsAfterWarmupAndPicksDeepestState)
{
    Rig r;
    driveRounds(r.m, *r.barrier, 3, imbalanced);
    EXPECT_EQ(r.stats.instances, 3u);
    // Instances 2 and 3: the three early threads sleep.
    EXPECT_EQ(r.stats.sleeps, 6u);
    // Stall ~1ms >> 70us: Sleep3 must be chosen.
    double deep = 0.0;
    for (NodeId n = 1; n < 4; ++n) {
        deep += r.m.cpu(n).statistics().scalarValue(
            "sleepEntries.Sleep3");
    }
    EXPECT_DOUBLE_EQ(deep, 6.0);
}

TEST(ThriftyBarrier, ConditionalSleepRefusesShortStall)
{
    Rig r;
    // Stalls of ~10us: below even Halt's 20us round trip.
    driveRounds(r.m, *r.barrier, 3, [](ThreadId tid, unsigned) {
        return tid == 0 ? Tick{110 * kMicrosecond}
                        : Tick{100 * kMicrosecond};
    });
    EXPECT_EQ(r.stats.sleeps, 0u);
    EXPECT_EQ(r.stats.spins, 9u);
}

TEST(ThriftyBarrier, HaltOnlyTableNeverGoesDeeper)
{
    Rig r(ThriftyConfig::thriftyHalt());
    driveRounds(r.m, *r.barrier, 3, imbalanced);
    EXPECT_GT(r.stats.sleeps, 0u);
    for (NodeId n = 0; n < 4; ++n) {
        EXPECT_FALSE(r.m.cpu(n).statistics().hasScalar(
            "sleepEntries.Sleep3"));
        EXPECT_FALSE(r.m.cpu(n).statistics().hasScalar(
            "sleepEntries.Sleep2"));
    }
}

TEST(ThriftyBarrier, NoPerformanceLossOnSteadyWorkload)
{
    // Same workload, Baseline vs Thrifty: release times must agree
    // within the wake-up tolerance.
    std::vector<Tick> base_departs(4, 0), thrifty_departs(4, 0);
    {
        Machine m(SystemConfig::small(2));
        SyncStats stats;
        thrifty::ConventionalBarrier b(m.eventQueue(), 0x42, 4,
                                       m.memory(), stats, "cb");
        driveRounds(m, b, 5, imbalanced, &base_departs);
    }
    {
        Rig r;
        driveRounds(r.m, *r.barrier, 5, imbalanced, &thrifty_departs);
    }
    for (unsigned t = 0; t < 4; ++t) {
        const double slow =
            static_cast<double>(thrifty_departs[t]) /
            static_cast<double>(base_departs[t]);
        EXPECT_LT(slow, 1.02) << "thread " << t;
    }
}

TEST(ThriftyBarrier, TraceBitMatchesActualInterval)
{
    Rig r;
    r.stats.traceEnabled = true;
    driveRounds(r.m, *r.barrier, 4, imbalanced);
    ASSERT_EQ(r.stats.trace.size(), 16u);
    for (const auto& e : r.stats.trace) {
        if (e.instance == 0)
            continue; // first interval includes program start skew
        // Interval is dominated by the slow thread's 1ms compute.
        EXPECT_NEAR(static_cast<double>(e.bit), 1.0 * kMillisecond,
                    0.1 * kMillisecond);
        EXPECT_EQ(e.bit, e.compute + e.stall);
    }
}

TEST(ThriftyBarrier, ExternalOnlyPolicyWakesLate)
{
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.wakeup = WakeupPolicy::External;
    Rig r(cfg);
    std::vector<Tick> departs(4, 0);
    driveRounds(r.m, *r.barrier, 3, imbalanced, &departs);
    EXPECT_GT(r.stats.sleeps, 0u);
    // Early threads (Sleep3 sleepers) exit a full up-transition after
    // the last thread.
    EXPECT_GE(departs[1], departs[0] + 30 * kMicrosecond);
}

TEST(ThriftyBarrier, InternalOnlyPolicyCompletes)
{
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.wakeup = WakeupPolicy::Internal;
    // Disable the cutoff so mispredictions keep sleeping.
    cfg.overpredictionThreshold = -1.0;
    Rig r(cfg);
    driveRounds(r.m, *r.barrier, 5, imbalanced);
    EXPECT_EQ(r.stats.instances, 5u);
    EXPECT_GT(r.stats.sleeps, 0u);
}

TEST(ThriftyBarrier, HybridBeatsExternalOnWakeTimeliness)
{
    std::vector<Tick> ext_departs(4, 0), hyb_departs(4, 0);
    {
        ThriftyConfig cfg = ThriftyConfig::thrifty();
        cfg.wakeup = WakeupPolicy::External;
        Rig r(cfg);
        driveRounds(r.m, *r.barrier, 5, imbalanced, &ext_departs);
    }
    {
        Rig r; // hybrid default
        driveRounds(r.m, *r.barrier, 5, imbalanced, &hyb_departs);
    }
    // The hybrid's timer anticipates the release; sleepers depart
    // earlier than under external-only wake-up.
    EXPECT_LT(hyb_departs[1], ext_departs[1]);
}

TEST(ThriftyBarrier, OverpredictionCutoffDisablesPrediction)
{
    Rig r;
    // Interval crashes from 2ms to 100us after instance 3: last-value
    // overpredicts, threads oversleep, wake late, and the 10% cutoff
    // fires.
    driveRounds(r.m, *r.barrier, 8, [](ThreadId tid, unsigned inst) {
        const Tick base = inst < 3 ? Tick{2 * kMillisecond}
                                   : Tick{100 * kMicrosecond};
        return tid == 0 ? base + base / 10 : base;
    });
    EXPECT_GT(r.stats.cutoffs, 0u);
    // Once cut off, those threads spin instead of sleeping.
    EXPECT_GT(r.stats.spins, 3u);
    EXPECT_EQ(r.stats.instances, 8u);
}

TEST(ThriftyBarrier, StatsCompleteRightAfterRun)
{
    // examples/prediction_tour's run: thread 0 straggles and the
    // interval crashes at instance 5. Every thread's sleeps, cutoffs
    // and instances are in the SyncStats as soon as the queue drains:
    // the stats are read right after Machine::run(), with no other
    // call in between.
    Rig r;
    const auto delay = [](ThreadId tid, unsigned inst) -> Tick {
        const Tick base = inst < 5 ? Tick{2 * kMillisecond}
                                   : Tick{120 * kMicrosecond};
        return tid == 0 ? base + base / 8 : base;
    };
    std::function<void(ThreadId, unsigned)> round =
        [&](ThreadId tid, unsigned inst) {
            if (inst >= 8)
                return;
            r.m.thread(tid).compute(delay(tid, inst), [&, tid, inst]() {
                r.barrier->arrive(r.m.thread(tid), [&, tid, inst]() {
                    round(tid, inst + 1);
                });
            });
        };
    for (ThreadId t = 0; t < 4; ++t)
        round(t, 0);
    r.m.run();
    EXPECT_EQ(r.stats.arrivals, 32u);
    EXPECT_EQ(r.stats.sleeps, 15u);
    EXPECT_EQ(r.stats.spins, 9u);
    EXPECT_EQ(r.stats.cutoffs, 3u);
    EXPECT_EQ(r.stats.instances, 8u);
}

TEST(ThriftyBarrier, CutoffDisabledWhenThresholdNegative)
{
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.overpredictionThreshold = -1.0;
    Rig r(cfg);
    driveRounds(r.m, *r.barrier, 8, [](ThreadId tid, unsigned inst) {
        const Tick base = inst < 3 ? Tick{2 * kMillisecond}
                                   : Tick{100 * kMicrosecond};
        return tid == 0 ? base + base / 10 : base;
    });
    EXPECT_EQ(r.stats.cutoffs, 0u);
}

TEST(ThriftyBarrier, UnderpredictionFilterSkipsSpikes)
{
    Rig r;
    // Instance 4 is a 30x outlier (models a context switch / page
    // fault); the filter must not feed it to the predictor.
    driveRounds(r.m, *r.barrier, 6, [](ThreadId tid, unsigned inst) {
        Tick base = inst == 3 ? Tick{30 * kMillisecond}
                              : Tick{kMillisecond};
        return tid == 0 ? base + base / 10 : base;
    });
    EXPECT_GE(r.stats.filteredUpdates, 1u);
    // The stored prediction still reflects the normal interval.
    const Tick stored = r.rt->predictor().stored(0x42).value();
    EXPECT_LT(stored, 3 * kMillisecond);
}

TEST(ThriftyBarrier, FilterDisabledAcceptsSpikes)
{
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.underpredictionFilter = 0.0;
    Rig r(cfg);
    driveRounds(r.m, *r.barrier, 5, [](ThreadId tid, unsigned inst) {
        Tick base = inst == 3 ? Tick{30 * kMillisecond}
                              : Tick{kMillisecond};
        return tid == 0 ? base + base / 10 : base;
    });
    EXPECT_EQ(r.stats.filteredUpdates, 0u);
}

TEST(ThriftyBarrier, OracleParksAndResumesAtRelease)
{
    Rig r(ThriftyConfig::oracleHalt());
    std::vector<Tick> departs(4, 0);
    driveRounds(r.m, *r.barrier, 3, imbalanced, &departs);
    EXPECT_EQ(r.stats.instances, 3u);
    EXPECT_GT(r.stats.sleeps, 0u);
    // Parked threads resume exactly at the release: departures of
    // early threads must not lag the releaser's.
    EXPECT_LE(departs[1], departs[0] + kMicrosecond);
    // And energy must include Sleep but (Halt oracle) no Spin beyond
    // zero.
    power::EnergyAccount total = r.m.totalEnergy();
    EXPECT_GT(total.time(power::Bucket::Sleep), 0u);
    EXPECT_EQ(total.time(power::Bucket::Spin), 0u);
}

TEST(ThriftyBarrier, OracleShortStallSpinsAnalytically)
{
    Rig r(ThriftyConfig::oracleHalt());
    driveRounds(r.m, *r.barrier, 2, [](ThreadId tid, unsigned) {
        return tid == 0 ? Tick{105 * kMicrosecond}
                        : Tick{100 * kMicrosecond};
    });
    // ~5us stall < Halt round trip: the oracle spins it.
    EXPECT_EQ(r.stats.sleeps, 0u);
    EXPECT_GT(r.stats.spins, 0u);
    power::EnergyAccount total = r.m.totalEnergy();
    EXPECT_GT(total.time(power::Bucket::Spin), 0u);
    EXPECT_EQ(total.time(power::Bucket::Sleep), 0u);
}

TEST(ThriftyBarrier, IdealUsesDeepStatesWithoutFlushing)
{
    Rig r(ThriftyConfig::idealConfig());
    driveRounds(r.m, *r.barrier, 3, imbalanced);
    power::EnergyAccount total = r.m.totalEnergy();
    EXPECT_GT(total.time(power::Bucket::Sleep), 0u);
    for (NodeId n = 0; n < 4; ++n) {
        EXPECT_DOUBLE_EQ(
            r.m.cpu(n).statistics().scalarValue("flushes"), 0.0);
    }
}

TEST(ThriftyBarrier, FalseWakeupSurvivesViaResidualSpin)
{
    Rig r;
    // Schedule a spurious invalidation of the flag line while the
    // early threads are asleep in instance 2.
    driveRounds(r.m, *r.barrier, 1, imbalanced); // warm-up
    const Addr flag = r.barrier->flagAddress();
    // Re-drive a second instance manually with the injection.
    std::vector<Tick> departs(4, 0);
    const unsigned n = 4;
    for (ThreadId t = 0; t < n; ++t) {
        r.m.thread(t).compute(imbalanced(t, 1), [&, t]() {
            r.barrier->arrive(r.m.thread(t), [&, t]() {
                departs[t] = r.m.eventQueue().now();
            });
        });
    }
    r.m.eventQueue().schedule(
        r.m.eventQueue().now() + 500 * kMicrosecond, [&]() {
            r.m.memory().controller(1).injectSpuriousInvalidation(flag);
        });
    r.m.run();
    // Everyone still departs, and not before the slow thread arrived.
    for (Tick d : departs)
        EXPECT_GE(d, kMillisecond);
    EXPECT_EQ(r.stats.instances, 2u);
    EXPECT_DOUBLE_EQ(r.m.memory()
                         .controller(1)
                         .statistics()
                         .scalarValue("falseWakes"),
                     1.0);
}

TEST(ThriftyBarrier, MixedConventionalAndThriftyCoexist)
{
    // The paper: "thrifty and conventional barriers may co-exist in
    // the same binary."
    Machine m(SystemConfig::small(2));
    SyncStats stats;
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    ThriftyRuntime rt(4, cfg, stats);
    ThriftyBarrier tb(m.eventQueue(), 0x1, rt, m.memory(), "tb");
    thrifty::ConventionalBarrier cb(m.eventQueue(), 0x2, 4, m.memory(),
                                    stats, "cb");

    std::function<void(ThreadId, unsigned)> round =
        [&](ThreadId tid, unsigned inst) {
            if (inst >= 6)
                return;
            thrifty::Barrier& b =
                (inst % 2 == 0) ? static_cast<thrifty::Barrier&>(tb)
                                : static_cast<thrifty::Barrier&>(cb);
            m.thread(tid).compute(imbalanced(tid, inst),
                                  [&, tid, inst]() {
                                      b.arrive(m.thread(tid),
                                               [&, tid, inst]() {
                                                   round(tid, inst + 1);
                                               });
                                  });
        };
    for (ThreadId t = 0; t < 4; ++t)
        round(t, 0);
    m.run();
    // Six rounds, alternating thrifty/conventional: six instances.
    EXPECT_EQ(stats.instances, 6u);
    EXPECT_GT(stats.sleeps, 0u);
}

TEST(ThriftyBarrier, EmptyStateTableAlwaysSpins)
{
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.states = power::SleepStateTable();
    Rig r(cfg);
    driveRounds(r.m, *r.barrier, 4, imbalanced);
    EXPECT_EQ(r.stats.sleeps, 0u);
    EXPECT_EQ(r.stats.spins, 12u);
    EXPECT_EQ(r.stats.instances, 4u);
}

TEST(ThriftyBarrier, IdealRequiresOracle)
{
    SyncStats stats;
    ThriftyConfig cfg;
    cfg.ideal = true;
    cfg.oracle = false;
    EXPECT_THROW(ThriftyRuntime(4, cfg, stats), FatalError);
}

// ----------------------------------------------------------------------
// The shared sleep() policy rules (ThriftyRuntime), at their boundaries.
// ----------------------------------------------------------------------

TEST(ThriftyRuntime, FilterRecordsExactlyFilterTimesStored)
{
    SyncStats stats;
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.underpredictionFilter = 10.0;
    ThriftyRuntime rt(4, cfg, stats);
    rt.recordInterval(0x1, 1000);
    rt.recordInterval(0x1, 10001); // one tick over 10 x 1000: filtered
    EXPECT_EQ(stats.filteredUpdates, 1u);
    EXPECT_EQ(rt.predictor().stored(0x1), Tick{1000});
    rt.recordInterval(0x1, 10000); // exactly 10 x 1000: recorded
    EXPECT_EQ(stats.filteredUpdates, 1u);
    EXPECT_EQ(rt.predictor().stored(0x1), Tick{10000});
    EXPECT_EQ(stats.instances, 3u); // filtered samples still count
}

TEST(ThriftyRuntime, FilterZeroRecordsEverything)
{
    SyncStats stats;
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.underpredictionFilter = 0.0;
    ThriftyRuntime rt(4, cfg, stats);
    rt.recordInterval(0x1, 1000);
    rt.recordInterval(0x1, 1000 * 1000);
    EXPECT_EQ(stats.filteredUpdates, 0u);
    EXPECT_EQ(rt.predictor().stored(0x1), Tick{1000 * 1000});
    EXPECT_EQ(stats.instances, 2u);
}

TEST(ThriftyRuntime, CutoffFiresOnlyPastThresholdTimesBit)
{
    SyncStats stats;
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    cfg.overpredictionThreshold = 0.25;
    ThriftyRuntime rt(4, cfg, stats);
    const Tick release = 50000, bit = 4000; // 0.25 x 4000 = 1000
    EXPECT_FALSE(rt.overpredicted(release + 1000, release, bit));
    EXPECT_EQ(stats.cutoffs, 0u);
    EXPECT_TRUE(rt.overpredicted(release + 1001, release, bit));
    EXPECT_EQ(stats.cutoffs, 1u);
}

TEST(ThriftyRuntime, CutoffNeverFiresWhenOffOrOnTime)
{
    SyncStats stats;
    ThriftyConfig cfg = ThriftyConfig::thrifty();
    ThriftyRuntime on(4, cfg, stats);
    const Tick release = 50000, bit = 4000;
    EXPECT_FALSE(on.overpredicted(release, release, bit));
    EXPECT_FALSE(on.overpredicted(release - 1, release, bit));
    EXPECT_FALSE(on.overpredicted(kTickNever, release, bit)); // spun
    cfg.overpredictionThreshold = -1.0;
    ThriftyRuntime off(4, cfg, stats);
    EXPECT_FALSE(off.overpredicted(release + 100 * bit, release, bit));
    EXPECT_EQ(stats.cutoffs, 0u);
}

TEST(ThriftyRuntime, WakeTimerDelayClampsAtZero)
{
    power::SleepState s;
    s.transitionLatency = 300;
    const Tick wake = 10000;
    EXPECT_EQ(thrifty::wakeTimerDelay(wake, 9000, s), Tick{700});
    EXPECT_EQ(thrifty::wakeTimerDelay(wake, wake - 301, s), Tick{1});
    EXPECT_EQ(thrifty::wakeTimerDelay(wake, wake - 300, s), Tick{0});
    EXPECT_EQ(thrifty::wakeTimerDelay(wake, wake - 1, s), Tick{0});
    EXPECT_EQ(thrifty::wakeTimerDelay(wake, wake + 5, s), Tick{0});
}

TEST(ThriftyRuntime, ChooseSleepSpinsWithoutFittingPrediction)
{
    SyncStats stats;
    ThriftyRuntime rt(4, ThriftyConfig::thrifty(), stats);
    rt.advanceBrts(1, 5000);
    // No prediction (warm-up, cutoff in force): spin.
    EXPECT_EQ(rt.chooseSleep(std::nullopt, 1, 5000).state, nullptr);
    // Predicted wake already passed: spin.
    const thrifty::SleepChoice late = rt.chooseSleep(100, 1, 5100);
    EXPECT_EQ(late.state, nullptr);
    EXPECT_EQ(late.predictedWake, Tick{5100});
    // A long stall ahead picks the deepest state.
    const thrifty::SleepChoice deep =
        rt.chooseSleep(Tick{10 * kMillisecond}, 1, 5000);
    ASSERT_NE(deep.state, nullptr);
    EXPECT_EQ(deep.state->name, "Sleep3");
    EXPECT_EQ(deep.predictedWake, 5000 + Tick{10 * kMillisecond});
}

} // namespace
} // namespace tb
