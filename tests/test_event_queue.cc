/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace tb {
namespace {

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(1); }, 1);
    eq.schedule(5, [&]() { order.push_back(0); }, 0);
    eq.schedule(5, [&]() { order.push_back(2); }, 1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, []() {}), PanicError);
}

TEST(EventQueue, EmptyCallbackPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(1, EventQueue::Callback{}), PanicError);
}

TEST(EventQueue, EmptyClosurePanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(1, detail::EventClosure{}), PanicError);
    EXPECT_THROW(eq.scheduleOn(0, 1, detail::EventClosure{}),
                 PanicError);
    // Wrapping an empty std::function yields an empty closure, which
    // is rejected the same way instead of failing when it fires.
    detail::EventClosure wrapped{EventQueue::Callback{}};
    EXPECT_FALSE(wrapped);
    EXPECT_THROW(eq.schedule(1, std::move(wrapped)), PanicError);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ScheduledClosureIsTakenOver)
{
    EventQueue eq;
    int runs = 0;
    detail::EventClosure c([&runs]() { ++runs; });
    eq.schedule(3, std::move(c));
    EXPECT_FALSE(c); // NOLINT: moved-from state is specified (empty)
    eq.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventHandle h = eq.schedule(10, [&]() { ran = true; });
    EXPECT_TRUE(h.scheduled());
    h.cancel();
    EXPECT_FALSE(h.scheduled());
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.eventsExecuted(), 0u);
}

TEST(EventQueue, CancelUpdatesPendingCount)
{
    EventQueue eq;
    EventHandle a = eq.schedule(10, []() {});
    EventHandle b = eq.schedule(20, []() {});
    EXPECT_EQ(eq.pending(), 2u);
    a.cancel();
    EXPECT_EQ(eq.pending(), 1u);
    a.cancel(); // double-cancel is a no-op
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    (void)b;
}

TEST(EventQueue, CancelAfterFireIsNoOp)
{
    EventQueue eq;
    int count = 0;
    EventHandle h = eq.schedule(10, [&]() { ++count; });
    eq.run();
    EXPECT_FALSE(h.scheduled());
    h.cancel();
    EXPECT_EQ(count, 1);
}

TEST(EventQueue, RunUntilBound)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&]() { ++count; });
    eq.schedule(20, [&]() { ++count; });
    eq.schedule(30, [&]() { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, SelfReschedulingCallback)
{
    EventQueue eq;
    int fires = 0;
    std::function<void()> tick = [&]() {
        if (++fires < 5)
            eq.scheduleIn(10, tick);
    };
    eq.scheduleIn(10, tick);
    eq.run();
    EXPECT_EQ(fires, 5);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, ScheduleInOffsetsFromNow)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleIn(25, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 125u);
}

TEST(EventQueue, DefaultHandleIsInert)
{
    EventHandle h;
    EXPECT_FALSE(h.scheduled());
    EXPECT_EQ(h.when(), kTickNever);
    h.cancel(); // must not crash
}

TEST(EventQueue, HandleReportsScheduledTick)
{
    EventQueue eq;
    EventHandle h = eq.schedule(42, []() {});
    EXPECT_EQ(h.when(), 42u);
    eq.run();
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 999; i >= 0; --i) {
        eq.schedule(static_cast<Tick>(i * 7 % 501), [&, i]() {
            if (eq.now() < last)
                monotone = false;
            last = eq.now();
            (void)i;
        });
    }
    eq.run();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(eq.eventsExecuted(), 1000u);
}

TEST(EventQueue, RandomTotalOrderMatchesReferenceSort)
{
    // A seeded mix of ticks, priorities in [-3, 3], same-tick ties,
    // cancellations and self-rescheduling callbacks. The execution log
    // must equal every surviving event stable-sorted by (tick,
    // priority), i.e. by (tick, priority, schedule order).
    struct Rec
    {
        Tick when;
        int prio;
        bool canceled = false;
    };
    struct Mix
    {
        EventQueue eq;
        Random rng{2027};
        std::vector<Rec> recs; ///< index == schedule order
        std::vector<EventHandle> handles;
        std::vector<std::size_t> log;

        void
        cancelOne()
        {
            const std::size_t v = rng.uniformInt(handles.size());
            if (handles[v].scheduled()) {
                handles[v].cancel();
                recs[v].canceled = true;
            }
        }

        void
        add(Tick when, int prio)
        {
            const std::size_t id = recs.size();
            recs.push_back({when, prio});
            handles.push_back(eq.schedule(
                when, [this, id]() { fire(id); }, prio));
        }

        void
        fire(std::size_t id)
        {
            log.push_back(id);
            const Rec r = recs[id];
            // Reschedule strictly later, or at this tick with a
            // priority that sorts after the running event, so the
            // reference order stays a total order over every event.
            if (rng.uniformInt(3) == 0) {
                const Tick dt = rng.uniformInt(4);
                const int lo = dt == 0 ? r.prio : -3;
                add(r.when + dt,
                    lo + static_cast<int>(rng.uniformInt(4 - lo)));
            }
            if (rng.uniformInt(8) == 0)
                cancelOne();
        }
    } m;

    for (unsigned i = 0; i < 3000; ++i)
        m.add(m.rng.uniformInt(200),
              -3 + static_cast<int>(m.rng.uniformInt(7)));
    for (unsigned i = 0; i < 300; ++i)
        m.cancelOne();
    m.eq.run();

    std::vector<std::size_t> expect;
    for (std::size_t id = 0; id < m.recs.size(); ++id) {
        if (!m.recs[id].canceled)
            expect.push_back(id);
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [&](std::size_t a, std::size_t b) {
                         const Rec& x = m.recs[a];
                         const Rec& y = m.recs[b];
                         return x.when != y.when ? x.when < y.when
                                                 : x.prio < y.prio;
                     });
    EXPECT_EQ(m.log, expect);
    EXPECT_EQ(m.eq.eventsExecuted(), expect.size());
    EXPECT_GT(m.recs.size(), 4000u);
    EXPECT_GT(m.recs.size() - expect.size(), 300u);
}

// ----------------------------------------------------------------------
// Cancelation-race regressions. The thrifty barrier's hybrid wake-up
// relies on exactly these semantics: two wake events race at the same
// tick and whichever fires first must disarm the other.
// ----------------------------------------------------------------------

TEST(EventQueueCancelRace, CancelAndRescheduleSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&]() { order.push_back(0); });
    EventHandle h = eq.schedule(50, [&]() { order.push_back(1); });
    h.cancel();
    // The replacement lands at the same tick but serializes after
    // every event scheduled in between.
    eq.schedule(50, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
    EXPECT_EQ(eq.eventsExecuted(), 2u);
}

TEST(EventQueueCancelRace, MutualCancelExactlyOneFires)
{
    // External-vs-internal wake-up: both triggers arm an event for
    // the same tick; the first to execute disarms the other.
    EventQueue eq;
    int external = 0;
    int internal = 0;
    EventHandle ext, timer;
    ext = eq.schedule(100, [&]() {
        ++external;
        timer.cancel();
    });
    timer = eq.schedule(100, [&]() {
        ++internal;
        ext.cancel();
    });
    eq.run();
    // Determinism: insertion order breaks the tie, so the external
    // trigger (scheduled first) wins every time.
    EXPECT_EQ(external, 1);
    EXPECT_EQ(internal, 0);
    EXPECT_EQ(external + internal, 1);
}

TEST(EventQueueCancelRace, CancelLaterEventFromSameTick)
{
    EventQueue eq;
    bool victim_ran = false;
    EventHandle victim =
        eq.schedule(10, [&]() { victim_ran = true; }, 1);
    // Higher-priority event at the same tick runs first and cancels
    // the lower-priority one before the queue reaches it.
    eq.schedule(10, [&]() { victim.cancel(); }, 0);
    eq.run();
    EXPECT_FALSE(victim_ran);
}

TEST(EventQueueCancelRace, RescheduleFromOwnCallback)
{
    // A handle may be re-armed for the current tick from within its
    // own callback (the wake-timer re-arm pattern).
    EventQueue eq;
    int fires = 0;
    EventHandle h;
    h = eq.schedule(10, [&]() {
        if (++fires == 1)
            h = eq.schedule(10, [&]() { ++fires; });
    });
    eq.run();
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueueCancelRace, DeterministicTickPrioritySeqOrder)
{
    // Full (tick, priority, seq) ordering with a cancelation punched
    // into the middle: survivors keep their deterministic slots.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(20, [&]() { order.push_back(3); }, 0);
    eq.schedule(10, [&]() { order.push_back(1); }, 1);
    EventHandle dropped =
        eq.schedule(10, [&]() { order.push_back(99); }, 1);
    eq.schedule(10, [&]() { order.push_back(2); }, 1);
    eq.schedule(10, [&]() { order.push_back(0); }, 0);
    dropped.cancel();
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueCancelRace, CancelIsIdempotentAcrossReschedule)
{
    EventQueue eq;
    bool first_ran = false;
    bool second_ran = false;
    EventHandle h = eq.schedule(10, [&]() { first_ran = true; });
    h.cancel();
    h.cancel();
    // Re-point the handle at a new event; stale cancels above must
    // not affect it.
    h = eq.schedule(10, [&]() { second_ran = true; });
    eq.run();
    EXPECT_FALSE(first_ran);
    EXPECT_TRUE(second_ran);
}

// ----------------------------------------------------------------------
// Multi-stream ordering. The suite keeps the name of the per-cluster
// queues that a stream replaces: each test checks, on one queue, an
// order those queues guaranteed.
// ----------------------------------------------------------------------

using Log = std::vector<std::pair<char, Tick>>;

TEST(ClusterQueues, SingleQueueRunsLikeSerial)
{
    EventQueue q(1);
    std::vector<Tick> order;
    q.schedule(30, [&] { order.push_back(30); });
    q.schedule(10, [&] {
        order.push_back(10);
        q.scheduleIn(5, [&] { order.push_back(15); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<Tick>{10, 15, 30}));
    EXPECT_EQ(q.eventsExecuted(), 3u);
    EXPECT_EQ(q.now(), Tick{30});
    EXPECT_EQ(q.streamNow(0), Tick{30});
}

TEST(ClusterQueues, CrossClusterSendDelivers)
{
    EventQueue q(2);
    std::vector<std::string> log;
    const auto note = [&](const char* who) {
        log.push_back(who + std::to_string(q.stream()));
    };
    q.schedule(5, [&] {
        note("a@5/");
        q.scheduleOn(1, 20, [&] {
            note("b@20/");
            q.scheduleOn(0, 35, [&] { note("a@35/"); });
        });
    });
    q.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a@5/0", "b@20/1", "a@35/0"}));
    EXPECT_EQ(q.crossStreamEvents(), 2u);
    EXPECT_EQ(q.now(), Tick{35});
}

/** An event scheduled onto another stream before run() is delivered. */
TEST(ClusterQueues, SetupSendIsDelivered)
{
    EventQueue q(2);
    Tick firedAt = 0;
    unsigned ranAs = 0;
    q.scheduleOn(1, 25, [&] {
        firedAt = q.now();
        ranAs = q.stream();
    });
    q.run();
    EXPECT_EQ(firedAt, Tick{25});
    EXPECT_EQ(ranAs, 1u);
}

TEST(ClusterQueues, ZeroEventsTerminates)
{
    EventQueue q(4);
    q.run();
    EXPECT_EQ(q.now(), Tick{0});
    EXPECT_EQ(q.crossStreamEvents(), 0u);
    for (unsigned s = 0; s < q.streams(); ++s)
        EXPECT_EQ(q.streamNow(s), Tick{0});
}

/** Only one far-future event exists anywhere: it fires at once, and
 *  only its own stream's clock moves. */
TEST(ClusterQueues, FarFutureEventAtZeroLoad)
{
    EventQueue q(4);
    bool fired = false;
    q.scheduleOn(2, 1'000'000'000, [&] { fired = true; });
    q.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(q.now(), Tick{1'000'000'000});
    EXPECT_EQ(q.eventsExecuted(), 1u);
    EXPECT_EQ(q.streamNow(2), Tick{1'000'000'000});
    EXPECT_EQ(q.streamNow(1), Tick{0});
}

/** A relay A -> B -> C, with C holding a far-future event at 1000: the
 *  relay reaches C at 47, before C's own event. */
TEST(ClusterQueues, RelayChainLandsBeforeFarEvent)
{
    EventQueue q(3);
    Log log;
    const auto note = [&](char who) { log.emplace_back(who, q.now()); };
    q.scheduleOn(2, 1000, [&] { note('C'); });
    q.schedule(0, [&] {
        note('A');
        q.scheduleOn(1, 40, [&] {
            note('B');
            q.scheduleOn(2, 47, [&] { note('C'); });
        });
    });
    q.run();
    EXPECT_EQ(log, (Log{{'A', 0}, {'B', 40}, {'C', 47}, {'C', 1000}}));
}

/**
 * The key order (tick, priority, origin stream, per-stream order). Two
 * streams reach stream 2 at the same tick: the smaller origin runs
 * first although it scheduled later in simulated time, and stream 2's
 * own event at that tick sorts by its own id. A more urgent priority
 * beats every stream id. Events scheduled onto stream 2 run as it.
 */
TEST(ClusterQueues, TieBreakTotalOrder)
{
    EventQueue eq(3);
    std::vector<std::string> order;
    std::vector<unsigned> ranAs;
    const auto log = [&](const char* what) {
        order.push_back(what);
        ranAs.push_back(eq.stream());
    };
    eq.setStream(1);
    eq.schedule(0, [&] {
        eq.scheduleOn(2, 100, [&] { log("from-b"); });
    });
    eq.setStream(0);
    eq.schedule(5, [&] {
        eq.scheduleOn(2, 100, [&] { log("from-a"); });
    });
    eq.setStream(2);
    eq.schedule(100, [&] { log("local-c"); });
    eq.schedule(100, [&] { log("prio"); }, -1);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"prio", "from-a", "from-b",
                                               "local-c"}));
    EXPECT_EQ(ranAs, (std::vector<unsigned>{2, 2, 2, 2}));
}

/** Only events scheduled onto another stream count as crossing. */
TEST(ClusterQueues, CountsSends)
{
    EventQueue q(2);
    q.schedule(0, [&] {
        q.scheduleOn(1, 10, [] {});
        q.scheduleOn(0, 10, [] {});
    });
    q.setStream(1);
    q.schedule(5, [] {});
    q.run();
    EXPECT_EQ(q.crossStreamEvents(), 1u);
    EXPECT_EQ(q.eventsExecuted(), 4u);
    EXPECT_EQ(q.streamNow(0), Tick{10});
    EXPECT_EQ(q.streamNow(1), Tick{10});
}

/** schedule() inherits the running event's stream; each stream keeps
 *  the tick of its own last event. */
TEST(EventQueueStreams, ScheduleRunsAsTheRunningStream)
{
    EventQueue eq(2);
    unsigned followUpStream = 99;
    eq.schedule(10, [&] {
        eq.scheduleOn(1, 20, [&] {
            eq.scheduleIn(5, [&] { followUpStream = eq.stream(); });
        });
    });
    eq.schedule(40, [] {});
    eq.run();
    EXPECT_EQ(followUpStream, 1u);
    EXPECT_EQ(eq.streamNow(0), Tick{40});
    EXPECT_EQ(eq.streamNow(1), Tick{25});
    EXPECT_EQ(eq.now(), Tick{40});
    EXPECT_EQ(eq.crossStreamEvents(), 1u);
}

TEST(EventQueueStreams, RejectsStreamsOutOfRange)
{
    EXPECT_THROW(EventQueue(0), PanicError);
    EXPECT_THROW(EventQueue(0x10001u), PanicError);
    EventQueue eq(2);
    EXPECT_EQ(eq.streams(), 2u);
    EXPECT_THROW(eq.setStream(2), PanicError);
    EXPECT_THROW(eq.scheduleOn(2, 1, [] {}), PanicError);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace tb
