/**
 * @file
 * Conservative PDES engine tests (sim/pdes.hh): channel/lookahead
 * contract enforcement, progress across idle gaps at zero load, the
 * multi-hop distance closure, cross-partition cancel semantics, the
 * deterministic (time, priority, partition, seq) tie-break, and a
 * randomized serial-vs-threaded equivalence stress.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/pdes.hh"
#include "sim/random.hh"

namespace {

using tb::EventQueue;
using tb::Tick;
using tb::pdes::Engine;
using tb::pdes::Partition;
using tb::pdes::PartitionId;
using tb::pdes::RemoteHandle;

Engine::Config
threaded(unsigned n)
{
    Engine::Config cfg;
    cfg.threads = n;
    return cfg;
}

TEST(Pdes, SinglePartitionRunsLikeSerial)
{
    Engine engine;
    Partition& p = engine.addPartition("solo");
    std::vector<Tick> order;
    p.schedule(30, [&] { order.push_back(30); });
    p.schedule(10, [&] {
        order.push_back(10);
        p.scheduleIn(5, [&] { order.push_back(15); });
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<Tick>{10, 15, 30}));
    EXPECT_EQ(engine.stats().fired, 3u);
    EXPECT_EQ(engine.stats().finalTick, Tick{30});
}

TEST(Pdes, ExternalQueuePartitionDrainsIt)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] {
        ++fired;
        eq.schedule(200, [&] { ++fired; });
    });
    Engine engine;
    engine.addExternalPartition("machine", eq);
    engine.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(engine.stats().finalTick, Tick{200});
}

TEST(Pdes, ConnectRejectsZeroLookaheadAndExternals)
{
    Engine engine;
    engine.addPartition("a");
    engine.addPartition("b");
    EventQueue eq;
    engine.addExternalPartition("x", eq);
    EXPECT_THROW(engine.connect(0, 1, 0), tb::PanicError);
    EXPECT_THROW(engine.connect(0, 2, 100), tb::PanicError);
    EXPECT_THROW(engine.connect(0, 0, 100), tb::PanicError);
    EXPECT_THROW(engine.connect(0, 7, 100), tb::PanicError);
}

TEST(Pdes, SendBelowLookaheadPanics)
{
    Engine engine;
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 50);
    EXPECT_THROW(a.send(1, 49, [] {}), tb::PanicError);
    EXPECT_THROW(a.send(2, 100, [] {}), tb::PanicError);
}

TEST(Pdes, CrossPartitionSendDelivers)
{
    Engine engine;
    Partition& a = engine.addPartition("a");
    Partition& b = engine.addPartition("b");
    engine.connect(0, 1, 10);
    engine.connect(1, 0, 10);
    std::vector<std::string> log;
    a.schedule(5, [&] {
        log.push_back("a@5");
        a.send(1, 20, [&] {
            log.push_back("b@20");
            b.send(0, 35, [&] { log.push_back("a@35"); });
        });
    });
    engine.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a@5", "b@20", "a@35"}));
    EXPECT_EQ(engine.stats().sent, 2u);
    EXPECT_EQ(engine.stats().merged, 2u);
}

/**
 * Progress at (almost) zero load: a ring of partitions where only one
 * far-future event exists anywhere. A conservative engine that
 * advances time one lookahead per exchange (null-message creep) needs
 * ~10^6 rounds to reach it; the window bound reaches it in the first
 * round, and the second finds nothing left.
 */
TEST(Pdes, NullMessageProgressAtZeroLoad)
{
    for (unsigned threads : {1u, 3u}) {
        Engine engine(threaded(threads));
        constexpr unsigned kRing = 4;
        for (unsigned i = 0; i < kRing; ++i)
            engine.addPartition("ring" + std::to_string(i));
        for (unsigned i = 0; i < kRing; ++i)
            engine.connect(static_cast<PartitionId>(i),
                           static_cast<PartitionId>((i + 1) % kRing),
                           1000);
        bool fired = false;
        // 10^9 ticks away: ~10^6 creep rounds if clocks only advanced
        // by ring lookahead; the distance bound reaches it at once.
        engine.partition(0).schedule(1'000'000'000,
                                     [&] { fired = true; });
        engine.run();
        EXPECT_TRUE(fired) << threads << " threads";
        EXPECT_EQ(engine.stats().finalTick, Tick{1'000'000'000});
        EXPECT_LE(engine.stats().rounds, 2u) << threads << " threads";
    }
}

/**
 * Straggler regression for the distance closure: a one-way relay
 * chain A -> B -> C with unequal lookaheads (40 then 7). B is idle and
 * C holds a far-future event at 1000; A's event at 0 reaches B at 40,
 * which relays a message landing at C at 47, before C's own event. A
 * one-hop bound (min over C's in-neighbours of next event +
 * lookahead) sees B idle with nothing in flight to C, lets C fire its
 * tick-1000 event in the first round, and B's relay then lands in C's
 * past. The closure bounds C by A's next event plus the whole path
 * A -> B -> C (0 + 47), so C waits for the relay.
 */
TEST(Pdes, RelayChainHonorsPathLookahead)
{
    using Log = std::vector<std::pair<char, Tick>>;

    // Serial reference: the same model on one plain EventQueue.
    Log serial;
    {
        EventQueue eq;
        const auto log = [&](char who) {
            serial.emplace_back(who, eq.now());
        };
        eq.schedule(1000, [&] { log('C'); });
        eq.schedule(0, [&] {
            log('A');
            eq.schedule(40, [&] {
                log('B');
                eq.schedule(47, [&] { log('C'); });
            });
        });
        eq.run();
    }
    ASSERT_EQ(serial,
              (Log{{'A', 0}, {'B', 40}, {'C', 47}, {'C', 1000}}));

    for (unsigned threads : {1u, 2u, 3u}) {
        Engine engine(threaded(threads));
        Partition& a = engine.addPartition("A");
        Partition& b = engine.addPartition("B");
        Partition& c = engine.addPartition("C");
        engine.connect(0, 1, 40);
        engine.connect(1, 2, 7);
        // One log per partition (owner-confined), merged by time:
        // every timestamp in this model is distinct.
        std::vector<Log> logs(3);
        c.schedule(1000, [&] { logs[2].emplace_back('C', c.now()); });
        a.schedule(0, [&] {
            logs[0].emplace_back('A', a.now());
            a.send(1, a.now() + 40, [&] {
                logs[1].emplace_back('B', b.now());
                b.send(2, b.now() + 7, [&] {
                    logs[2].emplace_back('C', c.now());
                });
            });
        });
        engine.run();
        Log merged;
        for (const Log& l : logs)
            merged.insert(merged.end(), l.begin(), l.end());
        std::stable_sort(merged.begin(), merged.end(),
                         [](const auto& x, const auto& y) {
                             return x.second < y.second;
                         });
        EXPECT_EQ(logs[2], (Log{{'C', 47}, {'C', 1000}}))
            << threads << " threads";
        EXPECT_EQ(merged, serial) << threads << " threads";
    }
}

/**
 * Reply ordering across a cycle. A has local events at 5, 30 and 40;
 * A@5 sends to B@20, and B replies to A@35 (lookahead 10 each way).
 * At one worker the burst that fires A@5 must stop below 20 + D[B][A]
 * = 30 once the send is made: an executor that keeps the limit it
 * started with fires A@30 and A@40 first, and B's reply then lands in
 * A's past.
 */
TEST(Pdes, ReplyAroundCycleLowersBurstLimit)
{
    using Log = std::vector<std::pair<char, Tick>>;
    for (unsigned threads : {1u, 2u}) {
        Engine engine(threaded(threads));
        Partition& a = engine.addPartition("A");
        Partition& b = engine.addPartition("B");
        engine.connect(0, 1, 10);
        engine.connect(1, 0, 10);
        std::vector<Log> logs(2);
        const auto logA = [&] { logs[0].emplace_back('a', a.now()); };
        a.schedule(5, [&] {
            logA();
            a.send(1, 20, [&] {
                logs[1].emplace_back('b', b.now());
                b.send(0, 35, logA);
            });
        });
        a.schedule(30, logA);
        a.schedule(40, logA);
        engine.run();
        Log merged = logs[0];
        merged.insert(merged.end(), logs[1].begin(), logs[1].end());
        std::sort(merged.begin(), merged.end(),
                  [](const auto& x, const auto& y) {
                      return x.second < y.second;
                  });
        EXPECT_EQ(merged, (Log{{'a', 5}, {'b', 20}, {'a', 30},
                               {'a', 35}, {'a', 40}}))
            << threads << " threads";
        EXPECT_EQ(logs[0], (Log{{'a', 5}, {'a', 30}, {'a', 35},
                                {'a', 40}}))
            << threads << " threads";
    }
}

/** A send made during setup, before run(), is delivered. */
TEST(Pdes, SetupSendIsDelivered)
{
    for (unsigned threads : {1u, 2u}) {
        Engine engine(threaded(threads));
        Partition& a = engine.addPartition("a");
        Partition& b = engine.addPartition("b");
        engine.connect(0, 1, 10);
        Tick firedAt = 0;
        a.send(1, 25, [&] { firedAt = b.now(); });
        engine.run();
        EXPECT_EQ(firedAt, Tick{25}) << threads << " threads";
        EXPECT_EQ(engine.stats().merged, 1u) << threads << " threads";
    }
}

/**
 * The lookahead check still guards sends made by running events at
 * one worker, where a send goes straight into the destination queue.
 */
TEST(Pdes, IllegalSendFromEventPanicsAtOneWorker)
{
    Engine engine(threaded(1));
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    a.schedule(5, [&] { a.send(1, 14, [] {}); });
    EXPECT_THROW(engine.run(), tb::PanicError);
}

/**
 * The barrier's spin decision counts the CPUs in the affinity mask:
 * pinned to one CPU, two parties must block at once rather than spin
 * for a CPU the other party needs.
 */
TEST(Pdes, BarrierSpinHonorsCpuAffinity)
{
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = tb::pdes::usableCpus();
    const unsigned polls = tb::pdes::detail::RoundBarrier(2).spinPolls();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(polls, 0u);
}

TEST(Pdes, ZeroEventsTerminates)
{
    Engine engine(threaded(2));
    engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    engine.run();
    EXPECT_EQ(engine.stats().fired, 0u);
}

TEST(Pdes, CrossPartitionCancelInTime)
{
    Engine engine;
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    bool fired = false;
    a.schedule(0, [&] {
        RemoteHandle h =
            a.sendCancelable(1, 500, [&] { fired = true; });
        // Cancel takes effect at 100 < 500: must win.
        a.scheduleIn(50, [&, h] { a.cancel(h, 100); });
    });
    engine.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(engine.stats().cancelsSent, 1u);
}

TEST(Pdes, CrossPartitionCancelTooLateIsNoOp)
{
    Engine engine;
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    bool fired = false;
    a.schedule(0, [&] {
        RemoteHandle h =
            a.sendCancelable(1, 500, [&] { fired = true; });
        // Takes effect at 600 > 500: the target always fires first.
        a.scheduleIn(50, [&, h] { a.cancel(h, 600); });
    });
    engine.run();
    EXPECT_TRUE(fired);
}

TEST(Pdes, CancelAtTargetTickIsDeterministicNoOp)
{
    // At an equal tick the target's (partition, seq) key is smaller
    // (it was sent first on the same channel), so it fires first.
    Engine engine;
    Partition& a = engine.addPartition("a");
    engine.addPartition("b");
    engine.connect(0, 1, 10);
    bool fired = false;
    a.schedule(0, [&] {
        RemoteHandle h =
            a.sendCancelable(1, 500, [&] { fired = true; });
        a.cancel(h, 500);
    });
    engine.run();
    EXPECT_TRUE(fired);
}

/**
 * The documented total order: (time, priority, origin partition,
 * origin seq). Two senders racing payloads into one destination at
 * the same (tick, priority) must land in partition-id order no matter
 * which mailbox drains first; local events of the destination at the
 * same key sort by its own partition id against them.
 */
TEST(Pdes, TieBreakTotalOrder)
{
    for (unsigned threads : {1u, 3u}) {
        Engine engine(threaded(threads));
        Partition& a = engine.addPartition("a");   // id 0
        Partition& b = engine.addPartition("b");   // id 1
        Partition& c = engine.addPartition("mid"); // id 2
        engine.connect(0, 2, 10);
        engine.connect(1, 2, 10);
        std::vector<std::string> order;
        // Sender b schedules its send EARLIER in real time than a's,
        // but a's partition id is smaller: a's payload must still run
        // first at the shared tick.
        b.schedule(0, [&] {
            b.send(2, 100, [&] { order.push_back("from-b"); });
        });
        a.schedule(5, [&] {
            a.send(2, 100, [&] { order.push_back("from-a"); });
        });
        c.schedule(100, [&] { order.push_back("local-c"); });
        // Priority dominates the partition tie-break.
        b.schedule(0, [&] {
            b.send(2, 100, [&] { order.push_back("prio"); }, -1);
        });
        engine.run();
        EXPECT_EQ(order,
                  (std::vector<std::string>{"prio", "from-a", "from-b",
                                            "local-c"}))
            << threads << " threads";
    }
}

/**
 * Randomized serial-vs-threaded equivalence stress: a seeded random
 * topology and workload (self-rescheduling events, cross-partition
 * sends at lookahead distance, cancelable sends with in-time and late
 * cancels) executed at 1/2/3/4 worker threads must produce identical
 * per-partition execution logs and identical fired/sent/merged/
 * cancelsSent counters. One worker runs the sequential executor and
 * the others the window rounds, so this checks one executor against
 * the other; the window runs must also agree on their round count,
 * and the sequential run must report none. This is the engine-level
 * version of the CI pdes-determinism artifact diff; 3 threads gives
 * uneven (3/3/2) partition ownership.
 */
TEST(Pdes, RandomizedSerialVsThreadedEquivalence)
{
    constexpr unsigned kParts = 8;
    constexpr Tick kLookahead = 64;
    constexpr Tick kHorizon = 20'000;

    auto runOnce = [&](std::uint64_t seed, unsigned threads) {
        Engine engine(threaded(threads));
        std::vector<Partition*> parts;
        for (unsigned i = 0; i < kParts; ++i)
            parts.push_back(
                &engine.addPartition("p" + std::to_string(i)));
        // Ring both ways plus a chord: strongly connected so traffic
        // reaches everyone, and cycles exercise the closure diagonal.
        for (unsigned i = 0; i < kParts; ++i) {
            const auto s = static_cast<PartitionId>(i);
            engine.connect(s, static_cast<PartitionId>((i + 1) % kParts),
                           kLookahead);
            engine.connect(
                s, static_cast<PartitionId>((i + kParts - 1) % kParts),
                kLookahead);
            engine.connect(s, static_cast<PartitionId>((i + 3) % kParts),
                           kLookahead);
        }
        // One log per partition, appended only by its owner thread,
        // concatenated in partition order after the run.
        std::vector<std::vector<std::uint64_t>> logs(kParts);

        struct Hop
        {
            Engine* engine;
            std::vector<Partition*>* parts;
            std::vector<std::vector<std::uint64_t>>* logs;
            std::uint64_t rng;

            std::uint64_t
            mix()
            {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                return rng;
            }

            void
            runAt(unsigned idx)
            {
                Partition& self = *(*parts)[idx];
                (*logs)[idx].push_back(
                    (self.now() << 8) ^ (rng & 0xff));
                if (self.now() >= kHorizon)
                    return;
                const std::uint64_t r = mix();
                Hop next = *this;
                switch (r % 4) {
                case 0: { // local reschedule
                    self.scheduleIn(1 + r % 300,
                                    [next, idx]() mutable {
                                        next.runAt(idx);
                                    });
                    break;
                }
                case 1: { // plain cross-partition send
                    const unsigned dst =
                        (idx + 1 + r % 2 * 2) % kParts; // +1 or +3
                    self.send(static_cast<PartitionId>(dst),
                              self.now() + kLookahead + r % 200,
                              [next, dst]() mutable {
                                  next.runAt(dst);
                              });
                    break;
                }
                case 2: { // cancelable send, canceled in time 50/50
                    const unsigned dst = (idx + kParts - 1) % kParts;
                    const Tick target =
                        self.now() + 2 * kLookahead + r % 200;
                    RemoteHandle h = self.sendCancelable(
                        static_cast<PartitionId>(dst), target,
                        [next, dst]() mutable { next.runAt(dst); });
                    // The cancel is sent one tick from now, so its
                    // earliest legal timestamp is now+1+lookahead.
                    const bool inTime = (r >> 32) & 1;
                    const Tick at = inTime
                                        ? self.now() + kLookahead + 1
                                        : target + 1 + r % 50;
                    Partition* sp = &self;
                    self.scheduleIn(1, [sp, h, at] {
                        sp->cancel(h, at);
                    });
                    break;
                }
                default: { // burst: two locals at one tick (tie-break)
                    const Tick at = self.now() + 1 + r % 100;
                    self.schedule(at, [next, idx]() mutable {
                        next.runAt(idx);
                    });
                    Hop other = next;
                    other.rng = mix();
                    self.schedule(at, [other, idx]() mutable {
                        Hop h2 = other;
                        (*h2.logs)[idx].push_back(h2.rng);
                    });
                    break;
                }
                }
            }
        };

        tb::Random seeder(seed);
        for (unsigned i = 0; i < kParts; ++i) {
            Hop hop{&engine, &parts, &logs, seeder.next() | 1};
            parts[i]->schedule(i * 7, [hop, i]() mutable {
                hop.runAt(i);
            });
        }
        engine.run();

        std::vector<std::uint64_t> flat;
        for (unsigned i = 0; i < kParts; ++i) {
            flat.push_back(0xffff'0000'0000'0000ull | i);
            flat.insert(flat.end(), logs[i].begin(), logs[i].end());
        }
        return std::make_pair(flat, engine.stats());
    };

    for (std::uint64_t seed : {1ull, 42ull, 20260808ull}) {
        const auto serial = runOnce(seed, 1);
        ASSERT_GT(serial.first.size(), kParts); // workload actually ran
        EXPECT_EQ(serial.second.rounds, 0u) << "seed " << seed;
        const auto two = runOnce(seed, 2);
        ASSERT_GT(two.second.rounds, 1u);
        for (unsigned threads : {2u, 3u, 4u}) {
            const auto run = threads == 2 ? two : runOnce(seed, threads);
            const std::string where = "seed " + std::to_string(seed) +
                                      ", " + std::to_string(threads) +
                                      " threads";
            EXPECT_EQ(run.first, serial.first) << where;
            EXPECT_EQ(run.second.fired, serial.second.fired) << where;
            EXPECT_EQ(run.second.sent, serial.second.sent) << where;
            EXPECT_EQ(run.second.merged, serial.second.merged) << where;
            EXPECT_EQ(run.second.cancelsSent,
                      serial.second.cancelsSent)
                << where;
            EXPECT_EQ(run.second.rounds, two.second.rounds) << where;
        }
    }
}

TEST(Pdes, RunIsOneShot)
{
    Engine engine;
    engine.addPartition("a");
    engine.run();
    EXPECT_THROW(engine.run(), tb::PanicError);
}

TEST(Pdes, StatsAggregateAcrossPartitions)
{
    Engine engine(threaded(2));
    Partition& a = engine.addPartition("a");
    Partition& b = engine.addPartition("b");
    engine.connect(0, 1, 10);
    a.schedule(0, [&] { a.send(1, 10, [] {}); });
    b.schedule(5, [] {});
    engine.run();
    const auto s = engine.stats();
    EXPECT_EQ(s.partitions, 2u);
    EXPECT_EQ(s.threads, 2u);
    EXPECT_EQ(s.scheduled, 2u);
    EXPECT_EQ(s.sent, 1u);
    EXPECT_EQ(s.merged, 1u);
    EXPECT_EQ(s.fired, 3u);
    EXPECT_EQ(s.nullPublishes, 0u);
    EXPECT_EQ(s.gvtRescues, 0u);
    EXPECT_EQ(engine.partition(0).stats().fired, 1u);
    EXPECT_EQ(engine.partition(1).stats().fired, 2u);
}

} // namespace
