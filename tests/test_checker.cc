/**
 * @file
 * Unit tests for the protocol invariant checker: every enforced
 * invariant is violated by direct hook injection and must panic with
 * a non-empty protocol trace; legal sequences must pass silently.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/protocol_checker.hh"
#include "mem/address_map.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

using check::CheckerConfig;
using check::ProtocolChecker;
using mem::DirState;
using mem::LineState;
using mem::WakeReason;

CheckerConfig
smallConfig()
{
    CheckerConfig cfg;
    cfg.numNodes = 4;
    return cfg;
}

/** Run @p f, assert it panics, and return the panic message. */
template <typename F>
std::string
panicMessage(F&& f)
{
    try {
        f();
    } catch (const PanicError& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a PanicError";
    return {};
}

constexpr Addr kLine = 0x2000;

TEST(ProtocolChecker, RejectsBadNodeCounts)
{
    CheckerConfig cfg;
    cfg.numNodes = 0;
    EXPECT_THROW(ProtocolChecker{cfg}, FatalError);
    cfg.numNodes = 65;
    EXPECT_THROW(ProtocolChecker{cfg}, FatalError);
}

TEST(ProtocolChecker, AcceptsLegalSharingSequence)
{
    ProtocolChecker c(smallConfig());
    c.onCacheLineState(0, kLine, LineState::Exclusive);
    c.onCacheLineState(0, kLine, LineState::Modified);
    // Owner downgrades before anyone else gets a copy.
    c.onCacheLineState(0, kLine, LineState::Shared);
    c.onCacheLineState(1, kLine, LineState::Shared);
    c.onDirStable(kLine, DirState::Shared, 0b0011, kInvalidNode);
    // Both invalidated, then a new exclusive owner.
    c.onCacheLineState(0, kLine, LineState::Invalid);
    c.onCacheLineState(1, kLine, LineState::Invalid);
    c.onCacheLineState(2, kLine, LineState::Modified);
    c.onDirStable(kLine, DirState::Exclusive, 0, 2);
    EXPECT_GT(c.checksPerformed(), 0u);
}

TEST(ProtocolChecker, DetectsDoubleExclusive)
{
    ProtocolChecker c(smallConfig());
    c.onCacheLineState(0, kLine, LineState::Modified);
    const std::string msg = panicMessage([&]() {
        c.onCacheLineState(1, kLine, LineState::Exclusive);
    });
    EXPECT_NE(msg.find("SWMR"), std::string::npos) << msg;
    EXPECT_NE(msg.find("protocol trace"), std::string::npos) << msg;
    // The trace must actually contain the offending transitions.
    EXPECT_NE(msg.find("node0 line 0x2000 -> M"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("node1 line 0x2000 -> E"), std::string::npos)
        << msg;
}

TEST(ProtocolChecker, DetectsExclusiveAlongsideShared)
{
    ProtocolChecker c(smallConfig());
    c.onCacheLineState(0, kLine, LineState::Shared);
    const std::string msg = panicMessage([&]() {
        c.onCacheLineState(1, kLine, LineState::Modified);
    });
    EXPECT_NE(msg.find("SWMR"), std::string::npos) << msg;
    EXPECT_NE(msg.find("shared copies"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DetectsStaleSharerVector)
{
    ProtocolChecker c(smallConfig());
    c.onCacheLineState(2, kLine, LineState::Shared);
    // Directory closes the transaction believing only node0 shares.
    const std::string msg = panicMessage([&]() {
        c.onDirStable(kLine, DirState::Shared, 0b0001, kInvalidNode);
    });
    EXPECT_NE(msg.find("stale sharer vector"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("protocol trace"), std::string::npos) << msg;
}

TEST(ProtocolChecker, ExtraSharerBitsAreLegal)
{
    // Clean lines drop silently: the directory may conservatively
    // keep a bit for a node that no longer caches the line.
    ProtocolChecker c(smallConfig());
    c.onCacheLineState(0, kLine, LineState::Shared);
    c.onDirStable(kLine, DirState::Shared, 0b1111, kInvalidNode);
}

TEST(ProtocolChecker, DetectsUncachedWithCopies)
{
    ProtocolChecker c(smallConfig());
    c.onCacheLineState(3, kLine, LineState::Shared);
    const std::string msg = panicMessage([&]() {
        c.onDirStable(kLine, DirState::Uncached, 0, kInvalidNode);
    });
    EXPECT_NE(msg.find("Uncached"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DetectsForeignCopyUnderExclusive)
{
    ProtocolChecker c(smallConfig());
    c.onCacheLineState(1, kLine, LineState::Shared);
    const std::string msg = panicMessage([&]() {
        c.onDirStable(kLine, DirState::Exclusive, 0, 2);
    });
    EXPECT_NE(msg.find("foreign"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DetectsStaleLoadValue)
{
    ProtocolChecker c(smallConfig());
    c.onStoreSerialized(0, 0x3008, 7);
    c.onLoadValue(1, 0x3008, 7); // fresh value: fine
    const std::string msg =
        panicMessage([&]() { c.onLoadValue(1, 0x3008, 5); });
    EXPECT_NE(msg.find("load"), std::string::npos) << msg;
    EXPECT_NE(msg.find("last serialized write"), std::string::npos)
        << msg;
    // Trace carries the store that defined the expected value.
    EXPECT_NE(msg.find("store"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DetectsStaleAtomicRead)
{
    ProtocolChecker c(smallConfig());
    c.onStoreSerialized(0, 0x3010, 7);
    c.onRmwSerialized(1, 0x3010, 7, 8); // consistent fetch-op
    const std::string msg = panicMessage(
        [&]() { c.onRmwSerialized(2, 0x3010, 3, 4); });
    EXPECT_NE(msg.find("atomic"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DetectsPastTickSchedule)
{
    ProtocolChecker c(smallConfig());
    const std::string msg =
        panicMessage([&]() { c.onSchedule(5, 0, 0, 10); });
    EXPECT_NE(msg.find("past"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DetectsExecutionOrderInversion)
{
    ProtocolChecker c(smallConfig());
    c.onSchedule(10, 0, 3, 0);
    c.onSchedule(10, 0, 5, 0);
    c.onExecute(10, 0, 5);
    const std::string msg =
        panicMessage([&]() { c.onExecute(10, 0, 3); });
    EXPECT_NE(msg.find("total order"), std::string::npos) << msg;
}

/**
 * On a multi-stream queue the checker audits the key the queue orders
 * by, not the insertion order: stream 1's event, scheduled first, runs
 * after stream 0's at the same tick and passes the audit. Executing a
 * key below the last one still panics.
 */
TEST(ProtocolChecker, AuditsTheKeyOfAMultiStreamQueue)
{
    ProtocolChecker c(smallConfig());
    EventQueue eq(2);
    c.bindClock(&eq);
    eq.setObserver(&c);
    std::vector<unsigned> ran;
    eq.setStream(1);
    eq.schedule(10, [&]() { ran.push_back(eq.stream()); });
    eq.setStream(0);
    eq.schedule(10, [&]() { ran.push_back(eq.stream()); });
    eq.run();
    EXPECT_EQ(ran, (std::vector<unsigned>{0, 1}));
    // Key 0 is stream 0's first event, below stream 1's last one.
    const std::string msg =
        panicMessage([&]() { c.onExecute(10, 0, 0); });
    EXPECT_NE(msg.find("total order"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DetectsHybridWakeupDoubleFire)
{
    ProtocolChecker c(smallConfig());
    c.onSleepEnter(0, true);
    c.onWakeTrigger(0, WakeReason::Timer);
    const std::string msg = panicMessage(
        [&]() { c.onWakeTrigger(0, WakeReason::ExternalFlag); });
    EXPECT_NE(msg.find("exclusivity"), std::string::npos) << msg;
    EXPECT_NE(msg.find("protocol trace"), std::string::npos) << msg;
}

TEST(ProtocolChecker, WakeupStateResetsPerEpisode)
{
    ProtocolChecker c(smallConfig());
    c.onSleepEnter(0, true);
    c.onWakeTrigger(0, WakeReason::Timer);
    c.onSleepExit(0);
    // A fresh episode may use the other mechanism.
    c.onSleepEnter(0, true);
    c.onWakeTrigger(0, WakeReason::ExternalFlag);
    c.onSleepExit(0);
    // Safety wakes (Intervention/BufferOverflow) never conflict.
    c.onSleepEnter(1, false);
    c.onWakeTrigger(1, WakeReason::Intervention);
    c.onWakeTrigger(1, WakeReason::Timer);
}

TEST(ProtocolChecker, DetectsDirtySharedLineAtSleepEntry)
{
    ProtocolChecker c(smallConfig());
    mem::AddressMap map(4);
    const Addr shared = map.allocShared(mem::kPageBytes);
    c.bindAddressMap(&map);
    c.onCacheLineState(2, shared, LineState::Modified);
    const std::string msg =
        panicMessage([&]() { c.onSnoopableChange(2, false); });
    EXPECT_NE(msg.find("non-snooping"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dirty shared line"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DirtyPrivateLinesMaySleep)
{
    ProtocolChecker c(smallConfig());
    mem::AddressMap map(4);
    const Addr priv = map.allocPrivate(2, mem::kPageBytes);
    c.bindAddressMap(&map);
    c.onCacheLineState(2, priv, LineState::Modified);
    c.onSnoopableChange(2, false); // nobody else can want this line
    c.onSnoopableChange(2, true);
}

TEST(ProtocolChecker, DetectsInterventionBeyondBudget)
{
    EventQueue eq;
    CheckerConfig cfg = smallConfig();
    cfg.interventionBudget = 100;
    ProtocolChecker c(cfg);
    c.bindClock(&eq);
    eq.schedule(10, [&]() { c.onInterventionReceived(1, kLine); });
    eq.schedule(500, [&]() { c.onInterventionServed(1, kLine); });
    EXPECT_THROW(eq.run(), PanicError);
}

TEST(ProtocolChecker, InterventionWithinBudgetPasses)
{
    EventQueue eq;
    CheckerConfig cfg = smallConfig();
    cfg.interventionBudget = 1000;
    ProtocolChecker c(cfg);
    c.bindClock(&eq);
    eq.schedule(10, [&]() { c.onInterventionReceived(1, kLine); });
    eq.schedule(500, [&]() { c.onInterventionServed(1, kLine); });
    eq.run();
    c.finalCheck();
}

TEST(ProtocolChecker, FinalCheckCatchesUnansweredIntervention)
{
    ProtocolChecker c(smallConfig());
    c.onInterventionReceived(0, kLine);
    const std::string msg = panicMessage([&]() { c.finalCheck(); });
    EXPECT_NE(msg.find("never answered"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DetectsUnsolicitedInterventionReply)
{
    ProtocolChecker c(smallConfig());
    EXPECT_THROW(c.onInterventionServed(0, kLine), PanicError);
}

TEST(ProtocolChecker, FinalCheckCatchesEventImbalance)
{
    ProtocolChecker c(smallConfig());
    c.onSchedule(5, 0, 1, 0);
    c.onSchedule(6, 0, 2, 0);
    c.onExecute(5, 0, 1);
    const std::string msg = panicMessage([&]() { c.finalCheck(); });
    EXPECT_NE(msg.find("imbalance"), std::string::npos) << msg;
}

TEST(ProtocolChecker, BalancedEventAccountingPasses)
{
    ProtocolChecker c(smallConfig());
    c.onSchedule(5, 0, 1, 0);
    c.onSchedule(6, 0, 2, 0);
    c.onExecute(5, 0, 1);
    c.onCancel(6, 2);
    c.onDropDead(6, 2);
    c.finalCheck();
}

TEST(ProtocolChecker, FinalCheckCatchesUnreapedCancel)
{
    // A canceled event must eventually be dropped from the queue; a
    // drain that leaves the dead entry behind is an imbalance.
    ProtocolChecker c(smallConfig());
    c.onSchedule(6, 0, 2, 0);
    c.onCancel(6, 2);
    const std::string msg = panicMessage([&]() { c.finalCheck(); });
    EXPECT_NE(msg.find("never reaped"), std::string::npos) << msg;
}

TEST(ProtocolChecker, DropWithoutCancelPanics)
{
    ProtocolChecker c(smallConfig());
    c.onSchedule(6, 0, 2, 0);
    const std::string msg =
        panicMessage([&]() { c.onDropDead(6, 2); });
    EXPECT_NE(msg.find("without a matching cancelation"),
              std::string::npos)
        << msg;
}

TEST(ProtocolChecker, TraceIsLineFiltered)
{
    ProtocolChecker c(smallConfig());
    c.onCacheLineState(0, 0x2000, LineState::Shared);
    c.onCacheLineState(1, 0x9040, LineState::Modified);
    const std::string t = c.traceFor(0x2000);
    EXPECT_NE(t.find("0x2000"), std::string::npos) << t;
    EXPECT_EQ(t.find("0x9040"), std::string::npos) << t;
    // Unknown lines render an explicit empty marker.
    const std::string none = c.traceFor(0x777000);
    EXPECT_NE(none.find("no recorded events"), std::string::npos);
}

TEST(ProtocolChecker, TraceRingKeepsNewestEntries)
{
    CheckerConfig cfg = smallConfig();
    cfg.traceDepth = 8;
    ProtocolChecker c(cfg);
    for (unsigned i = 0; i < 100; ++i) {
        c.onStoreSerialized(0, kLine, i);
    }
    const std::string t = c.traceFor(kLine);
    EXPECT_EQ(t.find(":= 0\n"), std::string::npos) << t;
    EXPECT_NE(t.find(":= 99"), std::string::npos) << t;
}

} // namespace
} // namespace tb
