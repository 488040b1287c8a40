/**
 * @file
 * Cluster-queue drain tests (sim/cluster_queues.hh): the lookahead
 * contract, the burst limit and its lowering by sends, the
 * (time, priority, origin cluster, origin seq) key order, and a
 * randomized model drained both in bursts and one event at a time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/cluster_queues.hh"
#include "sim/random.hh"

namespace {

using tb::ClusterQueues;
using tb::EventQueue;
using tb::Tick;

using Log = std::vector<std::pair<char, Tick>>;

/** Concatenate per-cluster logs and order them by time (stable). */
Log
mergeByTime(const std::vector<Log>& logs)
{
    Log merged;
    for (const Log& l : logs)
        merged.insert(merged.end(), l.begin(), l.end());
    std::stable_sort(merged.begin(), merged.end(),
                     [](const auto& x, const auto& y) {
                         return x.second < y.second;
                     });
    return merged;
}

TEST(ClusterQueues, SingleQueueRunsLikeSerial)
{
    ClusterQueues cq(1, 0);
    EventQueue& q = cq.queue(0);
    std::vector<Tick> order;
    q.schedule(30, [&] { order.push_back(30); });
    q.schedule(10, [&] {
        order.push_back(10);
        q.scheduleIn(5, [&] { order.push_back(15); });
    });
    cq.run();
    EXPECT_EQ(order, (std::vector<Tick>{10, 15, 30}));
    EXPECT_EQ(q.eventsExecuted(), 3u);
    EXPECT_EQ(cq.now(), Tick{30});
}

TEST(ClusterQueues, RejectsZeroLookaheadAndBadClusters)
{
    EXPECT_THROW(ClusterQueues(2, 0), tb::PanicError);
    EXPECT_THROW(ClusterQueues(0, 10), tb::PanicError);
    ClusterQueues cq(2, 10);
    EXPECT_THROW(cq.send(0, 0, 100, [] {}), tb::PanicError);
    EXPECT_THROW(cq.send(0, 7, 100, [] {}), tb::PanicError);
    EXPECT_THROW(cq.send(7, 0, 100, [] {}), tb::PanicError);
    EXPECT_EQ(cq.sent(), 0u);
}

TEST(ClusterQueues, SendBelowLookaheadPanics)
{
    ClusterQueues cq(2, 50);
    EXPECT_THROW(cq.send(0, 1, 49, [] {}), tb::PanicError);
    cq.send(0, 1, 50, [] {});
    EXPECT_EQ(cq.sent(), 1u);
}

/** The check also guards sends made by running events. */
TEST(ClusterQueues, IllegalSendFromEventPanics)
{
    ClusterQueues cq(2, 10);
    cq.queue(0).schedule(5, [&] { cq.send(0, 1, 14, [] {}); });
    EXPECT_THROW(cq.run(), tb::PanicError);
}

TEST(ClusterQueues, CrossClusterSendDelivers)
{
    ClusterQueues cq(2, 10);
    std::vector<std::string> log;
    cq.queue(0).schedule(5, [&] {
        log.push_back("a@5");
        cq.send(0, 1, 20, [&] {
            log.push_back("b@20");
            cq.send(1, 0, 35, [&] { log.push_back("a@35"); });
        });
    });
    cq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a@5", "b@20", "a@35"}));
    EXPECT_EQ(cq.sent(), 2u);
    EXPECT_EQ(cq.now(), Tick{35});
}

/** A send made before run() is delivered. */
TEST(ClusterQueues, SetupSendIsDelivered)
{
    ClusterQueues cq(2, 10);
    Tick firedAt = 0;
    cq.send(0, 1, 25, [&] { firedAt = cq.queue(1).now(); });
    cq.run();
    EXPECT_EQ(firedAt, Tick{25});
}

TEST(ClusterQueues, ZeroEventsTerminates)
{
    ClusterQueues cq(4, 10);
    cq.run();
    EXPECT_EQ(cq.now(), Tick{0});
    EXPECT_EQ(cq.sent(), 0u);
}

/**
 * Only one far-future event exists anywhere. The burst limit of the
 * cluster holding it is unbounded, so it fires in one step rather
 * than after a creep of one lookahead per round.
 */
TEST(ClusterQueues, FarFutureEventAtZeroLoad)
{
    ClusterQueues cq(4, 1000);
    bool fired = false;
    cq.queue(2).schedule(1'000'000'000, [&] { fired = true; });
    cq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(cq.now(), Tick{1'000'000'000});
    EXPECT_EQ(cq.queue(2).eventsExecuted(), 1u);
}

/**
 * A relay A -> B -> C, with C holding a far-future event at 1000. A's
 * send makes idle B's head 40, so C waits for B's relay at 47 instead
 * of firing its own event first and taking the relay in its past.
 */
TEST(ClusterQueues, RelayChainLandsBeforeFarEvent)
{
    ClusterQueues cq(3, 7);
    std::vector<Log> logs(3);
    const auto log = [&](unsigned c, char who) {
        logs[c].emplace_back(who, cq.queue(c).now());
    };
    cq.queue(2).schedule(1000, [&] { log(2, 'C'); });
    cq.queue(0).schedule(0, [&] {
        log(0, 'A');
        cq.send(0, 1, 40, [&] {
            log(1, 'B');
            cq.send(1, 2, 47, [&] { log(2, 'C'); });
        });
    });
    cq.run();
    EXPECT_EQ(logs[2], (Log{{'C', 47}, {'C', 1000}}));
    EXPECT_EQ(mergeByTime(logs),
              (Log{{'A', 0}, {'B', 40}, {'C', 47}, {'C', 1000}}));
}

/**
 * Reply ordering around a cycle. A has local events at 5, 30 and 40;
 * A@5 sends to B@20 and B replies to A@35 (lookahead 10). B is idle
 * when A's burst starts, so its limit is unbounded; the send must
 * lower it to 20 + 10 = 30. A drain that keeps the limit it started
 * with fires A@30 and A@40 first, and B's reply lands in A's past.
 */
TEST(ClusterQueues, ReplyAroundCycleLowersBurstLimit)
{
    ClusterQueues cq(2, 10);
    std::vector<Log> logs(2);
    const auto logA = [&] { logs[0].emplace_back('a', cq.queue(0).now()); };
    cq.queue(0).schedule(5, [&] {
        logA();
        cq.send(0, 1, 20, [&] {
            logs[1].emplace_back('b', cq.queue(1).now());
            cq.send(1, 0, 35, logA);
        });
    });
    cq.queue(0).schedule(30, logA);
    cq.queue(0).schedule(40, logA);
    ASSERT_NO_THROW(cq.run());
    EXPECT_EQ(logs[0], (Log{{'a', 5}, {'a', 30}, {'a', 35}, {'a', 40}}));
    EXPECT_EQ(mergeByTime(logs),
              (Log{{'a', 5}, {'b', 20}, {'a', 30}, {'a', 35}, {'a', 40}}));
}

/**
 * A message can land exactly on a burst's limit. B (cluster 1) holds
 * local events at 0 and 15; A (cluster 0) fires at 5 and sends to B at
 * 15 (lookahead 10). B runs first, with limit 5 + 10 = 15, and must
 * stop below it: A's message and B's local event share tick 15, and
 * A's smaller cluster id puts the message first.
 */
TEST(ClusterQueues, MessageOnBurstLimitKeepsKeyOrder)
{
    ClusterQueues cq(2, 10);
    std::vector<std::string> log;
    cq.queue(1).schedule(0, [&] { log.push_back("b@0"); });
    cq.queue(1).schedule(15, [&] { log.push_back("b@15"); });
    cq.queue(0).schedule(5, [&] {
        cq.send(0, 1, 15, [&] { log.push_back("a->b@15"); });
    });
    cq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b@0", "a->b@15", "b@15"}));
}

/**
 * The key order (time, priority, origin cluster, origin seq). Two
 * senders reach one destination at the same tick: the smaller cluster
 * id runs first although its send was made later in simulated time,
 * and the destination's own event at that tick sorts by its own id. A
 * more urgent priority beats every cluster id.
 */
TEST(ClusterQueues, TieBreakTotalOrder)
{
    ClusterQueues cq(3, 10);
    std::vector<std::string> order;
    cq.queue(1).schedule(0, [&] {
        cq.send(1, 2, 100, [&] { order.push_back("from-b"); });
    });
    cq.queue(0).schedule(5, [&] {
        cq.send(0, 2, 100, [&] { order.push_back("from-a"); });
    });
    cq.queue(2).schedule(100, [&] { order.push_back("local-c"); });
    cq.queue(2).schedule(100, [&] { order.push_back("prio"); }, -1);
    cq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"prio", "from-a", "from-b",
                                               "local-c"}));
}

TEST(ClusterQueues, CountsSends)
{
    ClusterQueues cq(2, 10);
    cq.queue(0).schedule(0, [&] { cq.send(0, 1, 10, [] {}); });
    cq.queue(1).schedule(5, [] {});
    cq.run();
    EXPECT_EQ(cq.sent(), 1u);
    EXPECT_EQ(cq.queue(0).eventsExecuted(), 1u);
    EXPECT_EQ(cq.queue(1).eventsExecuted(), 2u);
}

/**
 * A seeded random model on 8 clusters: local reschedules, equal-tick
 * pairs, local cancels, and sends around a ring and a chord, each at
 * least one lookahead ahead. It is drained twice: by run(), in bursts
 * as long as the limit allows, and by a reference loop that fires one
 * event at a time from the global minimum. Each cluster must execute
 * the same events in the same order: how far a burst runs decides
 * when an event fires on the host, never which key runs next.
 */
TEST(ClusterQueues, RandomizedBurstDrainMatchesOneEventReference)
{
    constexpr unsigned kClusters = 8;
    constexpr Tick kLookahead = 64;
    constexpr Tick kHorizon = 20'000;

    using Logs = std::vector<std::vector<std::uint64_t>>;

    struct Model
    {
        ClusterQueues cq{kClusters, kLookahead};
        Logs logs = Logs(kClusters);
    };

    struct Hop
    {
        Model* m;
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
        runAt(unsigned c)
        {
            EventQueue& q = m->cq.queue(c);
            m->logs[c].push_back((q.now() << 8) ^ (rng & 0xff));
            if (q.now() >= kHorizon)
                return;
            const std::uint64_t r = mix();
            Hop next = *this;
            switch (r % 4) {
            case 0: // local reschedule
                q.scheduleIn(1 + r % 300,
                             [next, c]() mutable { next.runAt(c); });
                break;
            case 1: { // send one or three clusters up the ring
                const unsigned dst = (c + 1 + r % 2 * 2) % kClusters;
                m->cq.send(c, dst, q.now() + kLookahead + r % 200,
                           [next, dst]() mutable { next.runAt(dst); });
                break;
            }
            case 2: { // send down the ring, plus a local cancel
                const unsigned dst = (c + kClusters - 1) % kClusters;
                m->cq.send(c, dst, q.now() + kLookahead + r % 200,
                           [next, dst]() mutable { next.runAt(dst); });
                Model* model = m;
                tb::EventHandle h = q.scheduleIn(
                    20 + r % 100,
                    [model, c] { model->logs[c].push_back(~0ull); });
                if ((r >> 32) & 1)
                    q.scheduleIn(1 + r % 19, [h]() mutable { h.cancel(); });
                break;
            }
            default: { // two locals at one tick (tie-break)
                const Tick at = q.now() + 1 + r % 100;
                q.schedule(at, [next, c]() mutable { next.runAt(c); });
                Hop other = next;
                other.rng = mix();
                q.schedule(at, [other, c] {
                    other.m->logs[c].push_back(other.rng);
                });
                break;
            }
            }
        }
    };

    const auto seed = [](Model& m, std::uint64_t s) {
        tb::Random seeder(s);
        for (unsigned c = 0; c < kClusters; ++c) {
            Hop hop{&m, seeder.next() | 1};
            m.cq.queue(c).schedule(c * 7, [hop, c]() mutable {
                hop.runAt(c);
            });
        }
    };

    for (std::uint64_t s : {1ull, 42ull, 20260808ull}) {
        Model bursts;
        seed(bursts, s);
        bursts.cq.run();

        Model reference;
        seed(reference, s);
        for (;;) {
            unsigned p = 0;
            for (unsigned c = 1; c < kClusters; ++c)
                if (reference.cq.queue(c).nextTick() <
                    reference.cq.queue(p).nextTick())
                    p = c;
            if (!reference.cq.queue(p).runOne())
                break;
        }

        const std::string where = "seed " + std::to_string(s);
        std::size_t total = 0;
        for (unsigned c = 0; c < kClusters; ++c) {
            total += bursts.logs[c].size();
            EXPECT_EQ(bursts.logs[c], reference.logs[c])
                << where << ", cluster " << c;
        }
        EXPECT_GT(total, 1000u) << where; // the workload ran
        EXPECT_EQ(bursts.cq.sent(), reference.cq.sent()) << where;
        EXPECT_GT(bursts.cq.sent(), 100u) << where;
        EXPECT_EQ(bursts.cq.now(), reference.cq.now()) << where;
    }
}

} // namespace
