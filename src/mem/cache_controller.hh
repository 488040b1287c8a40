/**
 * @file
 * Per-node cache controller: L1 + L2 arrays, the requester side of the
 * directory protocol, and the thrifty-barrier hardware hooks.
 *
 * The controller is the component the paper extends (Section 3.3): it
 * hosts the *flag monitor* (external wake-up), the *wake-up timer*
 * (internal wake-up), and the pending-invalidation buffer that lets a
 * non-snooping sleeping CPU keep acknowledging invalidations to clean
 * lines. The controller itself is never power-gated.
 *
 * CPU interface discipline: each CPU is a blocking requester — exactly
 * one outstanding demand access (load/store/atomic) at a time. All
 * protocol *responses* (interventions, invalidations) are handled
 * reactively and never block, which keeps the directory protocol
 * deadlock-free even when the CPU sleeps.
 *
 * State discipline across levels: L1 is a latency filter strictly
 * included in L2, and both arrays always agree on the MESI state of a
 * line present in L1. The pair (controller tags are never gated) acts
 * as the coherence endpoint.
 */

#ifndef TB_MEM_CACHE_CONTROLLER_HH_
#define TB_MEM_CACHE_CONTROLLER_HH_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/backend.hh"
#include "mem/cache_array.hh"
#include "mem/fabric.hh"
#include "mem/mem_types.hh"
#include "mem/protocol_observer.hh"
#include "sim/event_queue.hh"
#include "sim/hooks.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tb {

class FaultHooks;

namespace obs {
class TraceSink;
} // namespace obs

namespace mem {

/** Why the controller is waking the CPU up. */
enum class WakeReason : std::uint8_t
{
    ExternalFlag,   ///< invalidation hit the monitored barrier flag
    Timer,          ///< internal wake-up timer expired
    BufferOverflow, ///< pending-invalidation buffer ran out of entries
    Intervention,   ///< a dirty line needed servicing (safety wake)
    Watchdog,       ///< runtime safety watchdog bounded the episode
};

/** Number of WakeReason values. */
inline constexpr std::size_t kNumWakeReasons = 5;

/** Human-readable wake reason. */
const char* wakeReasonName(WakeReason r);

/** Static configuration of one node's cache controller. */
struct ControllerConfig
{
    CacheGeometry l1{16 * 1024, 2, kLineBytes};
    CacheGeometry l2{64 * 1024, 8, kLineBytes};
    /** Processor round trip to L1 / L2 (Table 1: 2 ns / 12 ns). */
    Tick l1Rt = 2 * kNanosecond;
    Tick l2Rt = 12 * kNanosecond;
    /** L2 cycles spent streaming out one line during a sleep flush. */
    Tick flushPerLine = 2 * kNanosecond;
    /** Entries in the sleeping-CPU pending-invalidation buffer. */
    unsigned invalBufferEntries = 16;
};

/** One node's cache controller. */
class CacheController : public SimObject, public MsgSink
{
  public:
    using LoadCallback = std::function<void(std::uint64_t)>;
    using DoneCallback = std::function<void()>;
    /**
     * Wake request handler installed by the CPU model. Must initiate
     * a wake-up (idempotent) and return the tick at which the cache
     * becomes accessible again (== now if already awake).
     */
    using WakeHandler = std::function<Tick(WakeReason)>;

    /**
     * @param hooks machine-wide instrumentation seams (checker, fault
     *        injection, tracing); may be null for standalone use.
     *        Fields are read at use time, so instruments can attach
     *        after construction.
     */
    CacheController(EventQueue& queue, NodeId node, Fabric& fabric,
                    Backend& backend, const ControllerConfig& config,
                    std::string name, const Hooks* hooks = nullptr);

    /** Cancels the wake timer so no dead callback can fire. */
    ~CacheController() override;

    /** Node this controller belongs to. */
    NodeId node() const { return nodeId; }

    /** The attached protocol observer, or null. */
    ProtocolObserver*
    checkObserver() const
    {
        return hooks_ ? hooks_->check : nullptr;
    }

    // ------------------------------------------------------------------
    // CPU-facing demand interface (blocking: one outstanding access).
    // ------------------------------------------------------------------

    /** Coherent load of the word at @p a. */
    void load(Addr a, LoadCallback done);

    /** Coherent store of @p v to the word at @p a. */
    void store(Addr a, std::uint64_t v, DoneCallback done);

    /**
     * Atomic read-modify-write executed at the home memory of @p a
     * (models a fetch-op). @p op runs exactly once at the
     * serialization point; @p done receives the pre-op value.
     */
    void atomicRmw(Addr a, std::function<std::uint64_t(Tick)> op,
                   LoadCallback done);

    /** True while a demand access is outstanding. */
    bool busy() const { return pending.has_value(); }

    // ------------------------------------------------------------------
    // Spin support.
    // ------------------------------------------------------------------

    /**
     * One-shot watch: @p on_inval fires when @p a's line is
     * invalidated (external Inv) or locally evicted. This models a
     * spinloop that hits in the cache until the coherence protocol
     * yanks the line. Multiple watchers per line are allowed.
     */
    void watchLine(Addr a, std::function<void()> on_inval);

    /** Remove all watches on @p a's line. */
    void clearWatches(Addr a);

    // ------------------------------------------------------------------
    // Thrifty-barrier hardware hooks (Section 3.3 of the paper).
    // ------------------------------------------------------------------

    /**
     * Program the flag monitor: coherently reads the flag (installing
     * a shared copy so the release's invalidation reaches this node),
     * then calls @p done(already_flipped). If already_flipped the CPU
     * must not sleep; otherwise the monitor stays armed and an
     * invalidation of the flag line triggers wakeUp(ExternalFlag).
     */
    void armFlagMonitor(Addr a, std::uint64_t want,
                        std::function<void(bool)> done);

    /** Disarm the flag monitor (no-op if not armed). */
    void disarmFlagMonitor();

    /** True while the flag monitor is armed. */
    bool flagMonitorArmed() const { return flagMon.armed; }

    /** Arm the internal wake-up timer to fire in @p delta ticks. */
    void armWakeTimer(Tick delta);

    /** Disarm the wake-up timer (no-op if not armed). */
    void disarmWakeTimer();

    /** Install the CPU's wake handler. */
    void setWakeHandler(WakeHandler handler) { wake = std::move(handler); }

    /**
     * Force a wake-up from outside the controller's own mechanisms
     * (the thrifty runtime's safety watchdog). Disarms the monitor
     * and timer like any other wake; returns the tick at which the
     * cache is accessible again.
     */
    Tick forceWake(WakeReason reason) { return triggerWake(reason); }

    /**
     * Fault injection: deliver a spurious invalidation for @p a's
     * line, as an unfortunate exclusive prefetch by another thread
     * would (Section 3.3.1's false wake-up). Drops any local copy,
     * fires watches and the flag monitor, but does not involve the
     * directory. Test-only.
     */
    void injectSpuriousInvalidation(Addr a);

    // ------------------------------------------------------------------
    // Sleep coordination.
    // ------------------------------------------------------------------

    /**
     * Write back and invalidate every *dirty, shared-page* line (the
     * paper's pre-deep-sleep flush). @p done runs when the flush
     * stream has been issued; writebacks drain asynchronously through
     * the writeback buffer.
     */
    void flushDirtyShared(DoneCallback done);

    /**
     * Inform the controller whether the cache data arrays can service
     * protocol requests (false while the CPU is in Sleep2/Sleep3).
     * Re-enabling applies all deferred invalidations.
     */
    void setSnoopable(bool snoopable);

    /** True if the cache currently services protocol requests. */
    bool snoopable() const { return snoopable_; }

    // ------------------------------------------------------------------
    // Fabric entry point and introspection.
    // ------------------------------------------------------------------

    /** Fabric delivery entry point. */
    void receive(const Msg& msg) override;

    /** L1 / L2 state of @p a's line (Invalid if absent). For tests. */
    LineState l1State(Addr a) const;
    LineState l2State(Addr a) const;

    /** Number of deferred (buffered) invalidations. For tests. */
    std::size_t deferredInvalidations() const { return deferred.size(); }

    /** True if @p a's line sits in the writeback buffer. For tests. */
    bool
    inWritebackBuffer(Addr a) const
    {
        return wbBuffer.count(lineAddr(a)) != 0;
    }

    const stats::StatGroup& statistics() const { return statsGroup; }
    stats::StatGroup& statistics() { return statsGroup; }

  private:
    /** Outstanding demand access. */
    struct Pending
    {
        enum class Kind { Load, Store, Rmw } kind = Kind::Load;
        Addr addr = 0;
        Addr line = 0;
        /** Tick the access was issued (trace span start). */
        Tick startTick = 0;
        std::uint64_t storeValue = 0;
        std::function<std::uint64_t(Tick)> rmwOp;
        LoadCallback loadDone;
        DoneCallback storeDone;
    };

    /** Armed flag-monitor state. */
    struct FlagMonitor
    {
        bool armed = false;
        Addr line = 0;
        Addr addr = 0;
        std::uint64_t want = 0;
    };

    void startAccess(Pending p);
    void lookupL2(Addr line);
    void sendToDir(Msg msg);

    /** Install @p line at @p state in L2+L1, handling evictions. */
    void fillBoth(Addr line, LineState state);

    /** Install @p line in L1 only (L2 already has it). */
    void fillL1(Addr line, LineState state);

    /** Finish the outstanding demand access. */
    void completePending();

    /** Evict bookkeeping for an L2 victim. */
    void handleL2Victim(const CacheArray::Victim& victim);

    /** Run one-shot watches for @p line. */
    void fireWatches(Addr line);

    /** Locally drop @p line from both arrays. */
    void dropLine(Addr line);

    /** Invalidation arriving from the fabric. */
    void handleInv(const Msg& msg);

    /** Intervention (FwdGetS / FwdGetX) arriving from the fabric. */
    void handleFwd(const Msg& msg);

    /** Perform the cache-side effects + reply of an intervention. */
    void serveFwd(const Msg& msg);

    /** 3-hop variant: reply with data directly to the requester. */
    void serveFwdThreeHop(const Msg& msg);

    /** Trigger a wake-up through the installed handler. */
    Tick triggerWake(WakeReason reason);

    /** Fault-injection seam, or null. */
    FaultHooks*
    faultHooks() const
    {
        return hooks_ ? hooks_->faults : nullptr;
    }

    /** Structured-trace seam, or null. */
    obs::TraceSink*
    traceSink() const
    {
        return hooks_ ? hooks_->trace : nullptr;
    }

    /**
     * Fire the flag monitor for @p line if armed, consulting the
     * fault hooks: the notification can be dropped, duplicated, or
     * delayed on its way to the wake logic.
     */
    void maybeFireFlagMonitor(Addr line);

    /** Deliver a delayed/duplicated flag-monitor notification. */
    void replayFlagWake(Addr line);

    /** Report @p line's L2 state to the attached observer, if any. */
    void
    noteLine(Addr line, LineState state)
    {
        if (auto* ob = checkObserver())
            ob->onCacheLineState(nodeId, line, state);
    }

    NodeId nodeId;
    Fabric& fabric;
    Backend& backend;
    ControllerConfig cfg;

    CacheArray l1;
    CacheArray l2;

    std::optional<Pending> pending;
    /** Dirty lines evicted/flushed, awaiting WbAck from home. */
    std::unordered_set<Addr> wbBuffer;
    /** flushDirtyShared()'s write-back list, reused across flushes. */
    std::vector<Addr> flushList;
    std::unordered_map<Addr, std::vector<std::function<void()>>> watches;

    FlagMonitor flagMon;
    EventHandle wakeTimer;
    WakeHandler wake;

    bool snoopable_ = true;
    std::vector<Addr> deferred; ///< invalidations buffered during sleep

    /** Machine-wide instrumentation seams (may be null). */
    const Hooks* hooks_;

    stats::StatGroup statsGroup;

    /**
     * References into statsGroup resolved once at construction, so the
     * per-access paths bump a counter without a name lookup. StatGroup
     * storage is node-stable, and this member is declared after
     * statsGroup so the references outlive nothing.
     */
    struct HotStats
    {
        explicit HotStats(stats::StatGroup& g)
            : l1Hits(g.scalar("l1Hits")),
              l1Misses(g.scalar("l1Misses")),
              l2Hits(g.scalar("l2Hits")),
              l2Misses(g.scalar("l2Misses")),
              upgrades(g.scalar("upgrades")),
              l2Evictions(g.scalar("l2Evictions")),
              rmwIssued(g.scalar("rmwIssued")),
              invsReceived(g.scalar("invsReceived")),
              invsDeferred(g.scalar("invsDeferred")),
              fwdsReceived(g.scalar("fwdsReceived")),
              threeHopServes(g.scalar("threeHopServes")),
              spuriousInvals(g.scalar("spuriousInvals")),
              flushedLines(g.scalar("flushedLines"))
        {}

        stats::Scalar& l1Hits;
        stats::Scalar& l1Misses;
        stats::Scalar& l2Hits;
        stats::Scalar& l2Misses;
        stats::Scalar& upgrades;
        stats::Scalar& l2Evictions;
        stats::Scalar& rmwIssued;
        stats::Scalar& invsReceived;
        stats::Scalar& invsDeferred;
        stats::Scalar& fwdsReceived;
        stats::Scalar& threeHopServes;
        stats::Scalar& spuriousInvals;
        stats::Scalar& flushedLines;
    } hot{statsGroup};
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_CACHE_CONTROLLER_HH_
