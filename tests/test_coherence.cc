/**
 * @file
 * Unit tests for the directory MESI protocol: controller + directory
 * over a real (small) network, exercising stable-state transitions,
 * interventions, evictions, atomics, and the thrifty hardware hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "mem/memory_system.hh"
#include "mem/protocol_observer.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/hooks.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

using mem::DirState;
using mem::LineState;
using mem::WakeReason;

struct Rig
{
    EventQueue eq;
    noc::Network net;
    mem::MemorySystem mem;
    Addr shared;

    explicit Rig(unsigned dim = 2, const Hooks* hooks = nullptr)
        : net(eq, makeNet(dim)), mem(eq, net, mem::MemoryConfig{}, hooks)
    {
        shared = mem.addressMap().allocShared(256 * mem::kPageBytes);
    }

    static noc::NetworkConfig
    makeNet(unsigned dim)
    {
        noc::NetworkConfig c;
        c.dimension = dim;
        return c;
    }

    std::uint64_t
    loadSync(NodeId n, Addr a)
    {
        std::optional<std::uint64_t> got;
        mem.controller(n).load(a, [&](std::uint64_t v) { got = v; });
        eq.run();
        EXPECT_TRUE(got.has_value());
        return got.value_or(~0ull);
    }

    void
    storeSync(NodeId n, Addr a, std::uint64_t v)
    {
        bool done = false;
        mem.controller(n).store(a, v, [&]() { done = true; });
        eq.run();
        EXPECT_TRUE(done);
    }

    mem::Directory&
    homeDir(Addr a)
    {
        return mem.directory(mem.addressMap().home(a));
    }
};

TEST(Coherence, FirstLoadInstallsExclusive)
{
    Rig r;
    EXPECT_EQ(r.loadSync(0, r.shared), 0u);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared),
              LineState::Exclusive);
    EXPECT_EQ(r.mem.controller(0).l1State(r.shared),
              LineState::Exclusive);
    EXPECT_EQ(r.homeDir(r.shared).lineState(mem::lineAddr(r.shared)),
              DirState::Exclusive);
    EXPECT_EQ(r.homeDir(r.shared).lineOwner(mem::lineAddr(r.shared)),
              0u);
}

TEST(Coherence, SecondLoadDowngradesToShared)
{
    Rig r;
    r.loadSync(0, r.shared);
    r.loadSync(1, r.shared);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Shared);
    EXPECT_EQ(r.mem.controller(1).l2State(r.shared), LineState::Shared);
    const Addr line = mem::lineAddr(r.shared);
    EXPECT_EQ(r.homeDir(r.shared).lineState(line), DirState::Shared);
    EXPECT_EQ(r.homeDir(r.shared).lineSharers(line), 0b11u);
}

TEST(Coherence, StoreReadsBackAndOwnsLine)
{
    Rig r;
    r.storeSync(2, r.shared, 0xdead);
    EXPECT_EQ(r.mem.controller(2).l2State(r.shared),
              LineState::Modified);
    EXPECT_EQ(r.loadSync(2, r.shared), 0xdeadu);
}

TEST(Coherence, StoreInvalidatesSharers)
{
    Rig r;
    r.loadSync(0, r.shared);
    r.loadSync(1, r.shared);
    r.loadSync(3, r.shared);
    r.storeSync(2, r.shared, 7);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Invalid);
    EXPECT_EQ(r.mem.controller(1).l2State(r.shared), LineState::Invalid);
    EXPECT_EQ(r.mem.controller(3).l2State(r.shared), LineState::Invalid);
    EXPECT_EQ(r.homeDir(r.shared).lineOwner(mem::lineAddr(r.shared)),
              2u);
}

TEST(Coherence, StoreToSharedCopyUpgradesInPlace)
{
    Rig r;
    r.loadSync(0, r.shared);
    r.loadSync(1, r.shared); // both Shared
    r.storeSync(1, r.shared, 9);
    EXPECT_EQ(r.mem.controller(1).l2State(r.shared),
              LineState::Modified);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Invalid);
    EXPECT_DOUBLE_EQ(
        r.mem.controller(1).statistics().scalarValue("upgrades"), 1.0);
}

TEST(Coherence, SilentExclusiveToModifiedUpgrade)
{
    Rig r;
    r.loadSync(0, r.shared); // E
    const double misses_before =
        r.mem.controller(0).statistics().scalarValue("l1Misses");
    r.storeSync(0, r.shared, 5); // silent E->M, pure L1 hit
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared),
              LineState::Modified);
    EXPECT_DOUBLE_EQ(
        r.mem.controller(0).statistics().scalarValue("l1Misses"),
        misses_before);
}

TEST(Coherence, ReadOfDirtyRemoteLineTransfersAndShares)
{
    Rig r;
    r.storeSync(0, r.shared, 0xabc);
    EXPECT_EQ(r.loadSync(1, r.shared), 0xabcu);
    // Old owner keeps a Shared copy (FwdGetS to an M line).
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Shared);
    EXPECT_EQ(r.mem.controller(1).l2State(r.shared), LineState::Shared);
    EXPECT_EQ(r.homeDir(r.shared).lineState(mem::lineAddr(r.shared)),
              DirState::Shared);
}

TEST(Coherence, WriteOfDirtyRemoteLineTransfersOwnership)
{
    Rig r;
    r.storeSync(0, r.shared, 1);
    r.storeSync(1, r.shared, 2);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Invalid);
    EXPECT_EQ(r.mem.controller(1).l2State(r.shared),
              LineState::Modified);
    EXPECT_EQ(r.loadSync(2, r.shared), 2u);
}

TEST(Coherence, ReadOfCleanExclusiveRemoteDowngradesOwner)
{
    Rig r;
    r.loadSync(0, r.shared); // E at node 0
    EXPECT_EQ(r.loadSync(1, r.shared), 0u);
    // Owner kept a Shared copy (clean-E FwdGetS path).
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Shared);
    const Addr line = mem::lineAddr(r.shared);
    EXPECT_EQ(r.homeDir(r.shared).lineSharers(line), 0b11u);
}

TEST(Coherence, DirtyEvictionWritesBack)
{
    Rig r;
    // Fill one L2 set with dirty lines until eviction. L2: 128 sets,
    // 8 ways; same set = stride 128*64 = 8192.
    const Addr base = r.shared;
    for (unsigned i = 0; i < 9; ++i)
        r.storeSync(0, base + i * 8192, i + 1);
    // The first line was evicted (LRU) and written back.
    EXPECT_EQ(r.mem.controller(0).l2State(base), LineState::Invalid);
    EXPECT_GE(
        r.mem.controller(0).statistics().scalarValue("l2Evictions"),
        1.0);
    // Its value survives at home and can be re-read.
    EXPECT_EQ(r.loadSync(1, base), 1u);
    // Writeback buffer eventually drains.
    r.eq.run();
    EXPECT_FALSE(r.mem.controller(0).inWritebackBuffer(base));
}

TEST(Coherence, InclusionL2EvictionKillsL1Copy)
{
    Rig r;
    const Addr base = r.shared;
    r.storeSync(0, base, 1);
    for (unsigned i = 1; i < 9; ++i)
        r.storeSync(0, base + i * 8192, i + 1);
    EXPECT_EQ(r.mem.controller(0).l1State(base), LineState::Invalid);
}

TEST(Coherence, AtomicRmwReturnsOldValueAndSerializes)
{
    Rig r;
    const Addr ctr = r.shared + 512;
    std::vector<std::uint64_t> olds;
    for (NodeId n = 0; n < 4; ++n) {
        r.mem.controller(n).atomicRmw(
            ctr, [&r, ctr](tb::Tick) { return r.mem.backend().fetchAdd(ctr, 1); },
            [&](std::uint64_t old) { olds.push_back(old); });
    }
    r.eq.run();
    ASSERT_EQ(olds.size(), 4u);
    std::sort(olds.begin(), olds.end());
    EXPECT_EQ(olds, (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_EQ(r.mem.backend().read(ctr), 4u);
}

TEST(Coherence, AtomicRmwInvalidatesCachedCopies)
{
    Rig r;
    const Addr a = r.shared;
    r.loadSync(0, a);
    r.loadSync(1, a);
    bool done = false;
    r.mem.controller(2).atomicRmw(
        a, [&r, a](tb::Tick) { return r.mem.backend().fetchAdd(a, 1); },
        [&](std::uint64_t) { done = true; });
    r.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(r.mem.controller(0).l2State(a), LineState::Invalid);
    EXPECT_EQ(r.mem.controller(1).l2State(a), LineState::Invalid);
    EXPECT_EQ(r.homeDir(a).lineState(mem::lineAddr(a)),
              DirState::Uncached);
}

TEST(Coherence, WatchFiresOnInvalidation)
{
    Rig r;
    r.loadSync(0, r.shared);
    bool fired = false;
    r.mem.controller(0).watchLine(r.shared, [&]() { fired = true; });
    r.storeSync(1, r.shared, 1);
    EXPECT_TRUE(fired);
}

TEST(Coherence, WatchIsOneShot)
{
    Rig r;
    r.loadSync(0, r.shared);
    int fires = 0;
    r.mem.controller(0).watchLine(r.shared, [&]() { ++fires; });
    r.storeSync(1, r.shared, 1);
    r.loadSync(0, r.shared);
    r.storeSync(1, r.shared, 2);
    EXPECT_EQ(fires, 1);
}

TEST(Coherence, FlagMonitorRefusesWhenAlreadyFlipped)
{
    Rig r;
    const Addr flag = r.shared + 64;
    r.storeSync(1, flag, 1);
    std::optional<bool> already;
    r.mem.controller(0).armFlagMonitor(flag, 1,
                                       [&](bool a) { already = a; });
    r.eq.run();
    ASSERT_TRUE(already.has_value());
    EXPECT_TRUE(*already);
    EXPECT_FALSE(r.mem.controller(0).flagMonitorArmed());
}

TEST(Coherence, FlagMonitorWakesOnFlip)
{
    Rig r;
    const Addr flag = r.shared + 64;
    std::optional<WakeReason> woke;
    r.mem.controller(0).setWakeHandler([&](WakeReason reason) {
        woke = reason;
        return r.eq.now();
    });
    std::optional<bool> already;
    r.mem.controller(0).armFlagMonitor(flag, 1,
                                       [&](bool a) { already = a; });
    r.eq.run();
    ASSERT_TRUE(already.has_value());
    EXPECT_FALSE(*already);
    EXPECT_TRUE(r.mem.controller(0).flagMonitorArmed());

    r.storeSync(1, flag, 1);
    ASSERT_TRUE(woke.has_value());
    EXPECT_EQ(*woke, WakeReason::ExternalFlag);
    EXPECT_FALSE(r.mem.controller(0).flagMonitorArmed());
}

TEST(Coherence, WakeTimerFiresAndCancels)
{
    Rig r;
    int wakes = 0;
    r.mem.controller(0).setWakeHandler([&](WakeReason) {
        ++wakes;
        return r.eq.now();
    });
    r.mem.controller(0).armWakeTimer(100 * kNanosecond);
    r.mem.controller(0).disarmWakeTimer();
    r.eq.run();
    EXPECT_EQ(wakes, 0);
    r.mem.controller(0).armWakeTimer(100 * kNanosecond);
    r.eq.run();
    EXPECT_EQ(wakes, 1);
}

TEST(Coherence, HybridFirstTriggerCancelsOther)
{
    Rig r;
    const Addr flag = r.shared + 64;
    int wakes = 0;
    r.mem.controller(0).setWakeHandler([&](WakeReason) {
        ++wakes;
        return r.eq.now();
    });
    std::optional<bool> already;
    r.mem.controller(0).armFlagMonitor(flag, 1,
                                       [&](bool a) { already = a; });
    r.eq.run();
    ASSERT_FALSE(*already);
    r.mem.controller(0).armWakeTimer(10 * kMicrosecond);
    // External fires first; the timer must be canceled.
    r.storeSync(1, flag, 1);
    r.eq.run();
    EXPECT_EQ(wakes, 1);
}

TEST(Coherence, NonSnoopableDefersInvalidations)
{
    Rig r;
    // Two sharers so the store below invalidates (spinners at a
    // barrier are always sharers of the flag line).
    r.loadSync(0, r.shared);
    r.loadSync(3, r.shared);
    r.mem.controller(0).setSnoopable(false);
    // The invalidation is acked (the store below completes) but the
    // local drop is deferred.
    r.storeSync(1, r.shared, 3);
    EXPECT_EQ(r.mem.controller(0).deferredInvalidations(), 1u);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Shared);
    r.mem.controller(0).setSnoopable(true);
    EXPECT_EQ(r.mem.controller(0).deferredInvalidations(), 0u);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Invalid);
}

TEST(Coherence, InvalBufferOverflowWakes)
{
    Rig r;
    // Load many distinct shared lines at node 0 (and a second
    // sharer, so writes below send invalidations rather than owner
    // interventions).
    for (unsigned i = 0; i < 20; ++i) {
        r.loadSync(0, r.shared + i * 64);
        r.loadSync(3, r.shared + i * 64);
    }
    std::optional<WakeReason> woke;
    r.mem.controller(0).setWakeHandler([&](WakeReason reason) {
        if (!woke)
            woke = reason;
        return r.eq.now();
    });
    r.mem.controller(0).setSnoopable(false);
    // Invalidate them all from another node (default buffer: 16).
    for (unsigned i = 0; i < 20; ++i)
        r.storeSync(1, r.shared + i * 64, i);
    ASSERT_TRUE(woke.has_value());
    EXPECT_EQ(*woke, WakeReason::BufferOverflow);
    r.mem.controller(0).setSnoopable(true);
}

TEST(Coherence, FlushWritesBackDirtySharedOnly)
{
    Rig r;
    const Addr priv = r.mem.addressMap().allocPrivate(0, 4096);
    r.storeSync(0, r.shared, 1);        // dirty shared
    r.storeSync(0, r.shared + 4096, 2); // dirty shared, other page
    r.storeSync(0, priv, 3);            // dirty private
    r.loadSync(0, r.shared + 8192);     // clean shared

    bool flushed = false;
    r.mem.controller(0).flushDirtyShared([&]() { flushed = true; });
    r.eq.run();
    EXPECT_TRUE(flushed);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared), LineState::Invalid);
    EXPECT_EQ(r.mem.controller(0).l2State(r.shared + 4096),
              LineState::Invalid);
    // Dirty private and clean shared survive.
    EXPECT_EQ(r.mem.controller(0).l2State(priv), LineState::Modified);
    EXPECT_NE(r.mem.controller(0).l2State(r.shared + 8192),
              LineState::Invalid);
    // Values reached home.
    EXPECT_EQ(r.loadSync(1, r.shared), 1u);
    EXPECT_EQ(r.loadSync(1, r.shared + 4096), 2u);
}

/** Records the lines of every PutM a node sends. */
struct PutMRecorder : mem::ProtocolObserver
{
    std::vector<Addr> lines;

    void
    onMessageSent(NodeId, NodeId, const mem::Msg& msg, bool) override
    {
        if (msg.type == mem::MsgType::PutM)
            lines.push_back(msg.line);
    }
};

TEST(Coherence, FlushWritesBackSharedModifiedInArrayOrder)
{
    Hooks hooks;
    Rig r(2, &hooks);
    const Addr priv = r.mem.addressMap().allocPrivate(0, 8192);
    // Dirty shared lines stored out of set order; offsets 7 and 135
    // share an L2 set (128 sets), so 7 takes the lower way.
    std::vector<Addr> dirtyShared;
    for (Addr j : {40u, 7u, 100u, 135u, 3u}) {
        dirtyShared.push_back(r.shared + j * 64);
        r.storeSync(0, dirtyShared.back(), j);
    }
    r.storeSync(0, priv + 5 * 64, 1);  // dirty private
    r.storeSync(0, priv + 60 * 64, 2); // dirty private
    r.loadSync(0, r.shared + 20 * 64); // clean shared

    // Array order: set-major, then way (store order within a set).
    std::vector<Addr> expect = dirtyShared;
    std::stable_sort(expect.begin(), expect.end(), [](Addr a, Addr b) {
        return ((a >> 6) & 127) < ((b >> 6) & 127);
    });
    ASSERT_NE(expect, dirtyShared);

    PutMRecorder putms;
    hooks.check = &putms;
    r.mem.controller(0).flushDirtyShared([]() {});
    r.eq.run();
    EXPECT_EQ(putms.lines, expect);
    EXPECT_EQ(r.mem.controller(0).l2State(priv + 5 * 64),
              LineState::Modified);
    EXPECT_EQ(r.mem.controller(0).l2State(priv + 60 * 64),
              LineState::Modified);
    hooks.check = nullptr;
}

TEST(Coherence, FwdToFlushedLineServedFromWritebackBuffer)
{
    Rig r;
    r.storeSync(0, r.shared, 42);
    // Flush queues the PutM; read from another node races with it.
    r.mem.controller(0).flushDirtyShared([]() {});
    EXPECT_EQ(r.loadSync(1, r.shared), 42u);
}

TEST(Coherence, SpuriousInvalidationFiresWatchWithoutValueChange)
{
    Rig r;
    r.loadSync(0, r.shared);
    bool fired = false;
    r.mem.controller(0).watchLine(r.shared, [&]() { fired = true; });
    r.mem.controller(0).injectSpuriousInvalidation(r.shared);
    EXPECT_TRUE(fired);
    // The reload still sees the old value and can re-watch: that is
    // the "false wake-up -> residual spin" behaviour.
    EXPECT_EQ(r.loadSync(0, r.shared), 0u);
}

TEST(Coherence, DoubleOutstandingAccessPanics)
{
    Rig r;
    r.mem.controller(0).load(r.shared, [](std::uint64_t) {});
    EXPECT_THROW(r.mem.controller(0).load(r.shared + 8,
                                          [](std::uint64_t) {}),
                 PanicError);
    r.eq.run();
}

TEST(Coherence, ValuesCoherentUnderMixedTraffic)
{
    Rig r(3); // 8 nodes
    const Addr a = r.shared;
    std::uint64_t expect = 0;
    for (unsigned round = 0; round < 10; ++round) {
        const NodeId writer = round % 8;
        const NodeId reader = (round + 3) % 8;
        expect = round * 17 + 1;
        r.storeSync(writer, a, expect);
        EXPECT_EQ(r.loadSync(reader, a), expect);
    }
}

} // namespace
} // namespace tb
