/**
 * @file
 * Machine-checked global invariants over the coherence protocol.
 *
 * The thrifty barrier's correctness argument (Section 3.1 of the
 * paper) rests on the memory system staying live and coherent while
 * CPUs sleep in non-snooping states. The ProtocolChecker turns that
 * argument into continuously-enforced invariants by subscribing to
 * the observation hooks of the event queue, fabric, cache controllers,
 * directories and CPUs:
 *
 *  - SWMR: at most one node holds a line Exclusive/Modified, and never
 *    concurrently with a Shared copy elsewhere.
 *  - Directory-cache agreement: whenever a line's home closes a
 *    transaction, the sharer vector covers every cache-side copy
 *    (stale *extra* bits are legal -- clean lines drop silently), an
 *    Exclusive registration admits no foreign copy, and an Uncached
 *    line is cached nowhere.
 *  - Value consistency: a shadow memory image is advanced only at the
 *    protocol's serialization points (local write hit, directory
 *    grant, 3-hop owner serve, at-home fetch-op); every completed load
 *    and every fetch-op's read value must match it.
 *  - Event-queue discipline: nothing is scheduled in the past and,
 *    at equal (tick, priority), events execute in strictly increasing
 *    key order, the (origin stream, per-stream order) key the queue
 *    ties by; schedule/execute/cancel accounting balances by the end
 *    of the run.
 *  - Sleep safety: entering a non-snooping state with a dirty
 *    shared-page line still cached is a violation (the pre-sleep
 *    flush must have drained them), and every intervention must be
 *    answered within a bounded tick budget even if the sleeping CPU
 *    has to be woken first.
 *  - Wake-up exclusivity: within one sleep episode the external
 *    (flag-invalidation) and internal (timer) wake-up mechanisms are
 *    mutually canceling -- both firing is a violation (Section 3.3.2).
 *
 * A violation panics with a ring-buffered trace of the protocol
 * events touching the offending line (or node), so a failure reads as
 * a transaction history rather than a bare assert. See
 * docs/CHECKING.md.
 *
 * The checker costs nothing unless attached: all hook sites in the
 * model are null-pointer branches.
 */

#ifndef TB_CHECK_PROTOCOL_CHECKER_HH_
#define TB_CHECK_PROTOCOL_CHECKER_HH_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/address_map.hh"
#include "mem/cache_controller.hh"
#include "mem/directory.hh"
#include "mem/mem_types.hh"
#include "mem/protocol_observer.hh"
#include "sim/event_queue.hh"
#include "sim/hooks.hh"
#include "sim/types.hh"

namespace tb {
namespace check {

/** Tuning knobs of one ProtocolChecker instance. */
struct CheckerConfig
{
    /** Nodes in the machine (bounds the sharer masks; <= 64). */
    unsigned numNodes = 1;
    /** Entries kept in the violation-trace ring buffer. */
    std::size_t traceDepth = 256;
    /**
     * Longest tolerated gap between an intervention reaching a
     * controller and its reply, covering a worst-case wake-up of the
     * deepest sleep state. Liveness bound for Section 3.1.
     */
    Tick interventionBudget = 2 * kMillisecond;
    /** Enforce the shadow-image value checks (on unless a workload
     *  writes the backend outside the protocol). */
    bool checkValues = true;
    /**
     * Liveness watchdog (docs/ROBUSTNESS.md): longest tolerated gap
     * between a dynamic barrier instance arming (first check-in) and
     * its release. 0 disables the per-instance budget; the end-of-run
     * armed-but-never-released audit always runs.
     */
    Tick barrierBudget = 0;
    /**
     * Longest tolerated sleep episode (enter to Active again).
     * 0 disables the budget; the end-of-run never-woke audit always
     * runs.
     */
    Tick sleepBudget = 0;
};

/** True when the build (TB_CHECK=ON) arms the checker by default. */
bool checkedByDefault();

/** One entry of the violation-trace ring buffer. */
struct TraceEntry
{
    enum class Kind : std::uint8_t
    {
        Send,    ///< message left a node
        Deliver, ///< message arrived
        Cache,   ///< cache-side line state change
        Dir,     ///< directory stable-state report
        Store,   ///< store serialized
        Rmw,     ///< fetch-op executed at home
        Wake,    ///< wake trigger fired
        Sleep,   ///< sleep episode opened/closed
        Barrier, ///< dynamic barrier instance armed/released
    };

    Tick tick = 0;
    Kind kind = Kind::Send;
    NodeId a = kInvalidNode; ///< acting node
    NodeId b = kInvalidNode; ///< peer node (messages only)
    mem::MsgType type = mem::MsgType::GetS;
    Addr line = 0;           ///< line (or word) address
    std::uint8_t state = 0;  ///< LineState / DirState / WakeReason
    std::uint64_t aux = 0;   ///< sharers / value / flags
};

/** The pluggable invariant checker. Attach with Machine::attachChecker
 *  (or setObserver/setCheckObserver on individual components). */
class ProtocolChecker : public mem::ProtocolObserver,
                        public EventQueueObserver,
                        public NocDeliveryAudit
{
  public:
    explicit ProtocolChecker(const CheckerConfig& config);

    /** Timestamp source for trace entries (optional but recommended). */
    void bindClock(const EventQueue* queue) { clock = queue; }

    /** Placement map enabling the dirty-shared sleep check. */
    void bindAddressMap(const mem::AddressMap* address_map)
    {
        map = address_map;
    }

    /**
     * End-of-run liveness audit: every intervention answered, event
     * accounting balanced. Call after the event queue drained.
     */
    void finalCheck();

    /** Messages observed through the fabric (send + deliver). */
    std::uint64_t messagesObserved() const { return messages; }

    /** Individual invariant evaluations performed so far. */
    std::uint64_t checksPerformed() const { return checks; }

    /** Render the ring-buffered trace for @p line (newest last). */
    std::string traceFor(Addr line) const;

    /** Render the ring-buffered trace for @p node's activity. */
    std::string traceForNode(NodeId node) const;

    // ------------------------------------------------------------------
    // mem::ProtocolObserver
    // ------------------------------------------------------------------

    void onMessageSent(NodeId from, NodeId to, const mem::Msg& msg,
                       bool to_directory) override;
    void onMessageDelivered(NodeId at, const mem::Msg& msg,
                            bool at_directory) override;
    void onCacheLineState(NodeId node, Addr line,
                          mem::LineState state) override;
    void onLoadValue(NodeId node, Addr addr,
                     std::uint64_t value) override;
    void onStoreSerialized(NodeId node, Addr addr,
                           std::uint64_t value) override;
    void onRmwSerialized(NodeId node, Addr addr, std::uint64_t old,
                         std::uint64_t now) override;
    void onInterventionReceived(NodeId node, Addr line) override;
    void onInterventionServed(NodeId node, Addr line) override;
    void onSnoopableChange(NodeId node, bool snoopable) override;
    void onWakeTrigger(NodeId node, mem::WakeReason reason) override;
    void onSleepEnter(NodeId node, bool snoopable_state) override;
    void onSleepExit(NodeId node) override;
    void onBarrierArmed(Addr flag_line, std::uint64_t instance) override;
    void onBarrierReleased(Addr flag_line,
                           std::uint64_t instance) override;
    void onDirStable(Addr line, mem::DirState state,
                     std::uint64_t sharers, NodeId owner) override;

    // ------------------------------------------------------------------
    // NocDeliveryAudit
    // ------------------------------------------------------------------

    /** Invariant: a delivery can never beat the network's own
     *  contention-free bound — the per-hop path only ever *adds*
     *  stalls to zeroLoadLatency. */
    void onNocDelivered(NodeId src, NodeId dst, unsigned bytes,
                        Tick sendTick, Tick deliverTick,
                        Tick zeroLoad) override;

    // ------------------------------------------------------------------
    // EventQueueObserver
    // ------------------------------------------------------------------

    void onSchedule(Tick when, int priority, std::uint64_t seq,
                    Tick now) override;
    void onExecute(Tick when, int priority, std::uint64_t seq) override;
    void onCancel(Tick when, std::uint64_t seq) override;
    void onDropDead(Tick when, std::uint64_t seq) override;

  private:
    /** Cache-side view of one line across all nodes (bit vectors). */
    struct LineShadow
    {
        std::uint64_t valid = 0; ///< nodes holding any copy
        std::uint64_t excl = 0;  ///< nodes holding E or M
        std::uint64_t mod = 0;   ///< nodes holding M
    };

    /** Per-node sleep/wake episode state. */
    struct NodeShadow
    {
        bool snoopable = true;
        bool inEpisode = false;
        bool externalFired = false;
        bool timerFired = false;
        Tick episodeStart = 0;
    };

    static std::uint64_t bit(NodeId n) { return std::uint64_t{1} << n; }

    Tick now() const { return clock ? clock->now() : 0; }

    void record(TraceEntry e);

    [[noreturn]] void lineViolation(Addr line, const std::string& what);
    [[noreturn]] void nodeViolation(NodeId node,
                                    const std::string& what);

    std::string renderEntry(const TraceEntry& e) const;

    CheckerConfig cfg;
    const EventQueue* clock = nullptr;
    const mem::AddressMap* map = nullptr;

    std::unordered_map<Addr, LineShadow> lines;
    std::unordered_map<Addr, std::uint64_t> shadowWords;
    std::vector<NodeShadow> nodes;
    std::map<std::pair<NodeId, Addr>, Tick> outstandingFwds;
    /** Armed-but-unreleased dynamic barrier instances -> arm tick. */
    std::map<std::pair<Addr, std::uint64_t>, Tick> armedBarriers;

    // Event-queue discipline.
    Tick lastExecWhen = 0;
    int lastExecPrio = 0;
    std::uint64_t lastExecSeq = 0;
    bool anyExecuted = false;
    std::int64_t liveEvents = 0;
    /** Canceled events whose dead heap entry has not been reaped yet
     *  (onCancel increments, onDropDead decrements). */
    std::int64_t canceledInFlight = 0;

    // Trace ring.
    std::vector<TraceEntry> ring;
    std::size_t ringNext = 0;
    bool ringWrapped = false;

    std::uint64_t messages = 0;
    std::uint64_t checks = 0;
};

} // namespace check
} // namespace tb

#endif // TB_CHECK_PROTOCOL_CHECKER_HH_
