/**
 * @file
 * Conservative parallel discrete-event simulation (PDES) engine.
 *
 * The machine model is partitioned into Partitions, each owning one
 * slab EventQueue (event_queue.hh). Cross-partition communication goes
 * through timestamped Channels declared up front with a positive
 * *lookahead*: a message sent while the source partition sits at
 * simulated time s must carry a timestamp >= s + lookahead.
 *
 * One host thread drains every partition with a sequential
 * conservative executor. Sends are delivered straight into the
 * destination queue, so nothing is ever in flight and each partition's
 * head h(r) (its next event) bounds everything r can still execute.
 * Let D be the all-pairs shortest lookahead path, computed once in
 * run(); its diagonal D[p][p] is the shortest cycle back to p (never
 * when there is none). The executor repeatedly picks the partition p
 * with the earliest head and fires its events strictly below
 *
 *     limit = min over r != p of h(r) + D[r][p],
 *
 * because any chain of sends from r to p adds at least D[r][p]. Each
 * send p makes during the burst lowers the limit to when + D[dst][p],
 * since a reply can come back around a cycle. So no event ever lands
 * in a partition's past, and an idle gap of any length is crossed in
 * one step. The run ends when every head is kTickNever.
 *
 * Determinism contract (docs/PERFORMANCE.md): execution order is the
 * total order (time, priority, origin partition, origin sequence),
 * enforced by EventQueue::scheduleKeyed. The burst lengths only decide
 * when each event fires on the host, never which key runs next in a
 * partition, so the fired/scheduled/sent/merged/cancelsSent counters
 * are pure functions of the simulation. nullPublishes, gvtRescues and
 * stallRounds remain from earlier multi-worker protocols; they are
 * always 0 and kept only because existing reports read them. No
 * engine counter feeds an artifact.
 */

#ifndef TB_SIM_PDES_HH_
#define TB_SIM_PDES_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tb {
namespace pdes {

/** Partition identifier; doubles as the heap tie-break stream id. */
using PartitionId = std::uint16_t;

/** Sentinel for "no partition". */
inline constexpr PartitionId kNoPartition = ~PartitionId{0};

class Engine;
class Partition;

/**
 * Token for canceling a cross-partition event from its sender. Only
 * events sent with Partition::sendCancelable produce live tokens.
 */
struct RemoteHandle
{
    PartitionId dst = kNoPartition;
    std::uint32_t seq = 0;

    bool valid() const { return dst != kNoPartition; }
};

/** Per-partition counters, readable after Engine::run() returns. */
struct PartitionStats
{
    // All deterministic: pure functions of the simulation.
    std::uint64_t fired = 0;     ///< events executed
    std::uint64_t scheduled = 0; ///< local schedule()/scheduleIn() calls
    std::uint64_t sent = 0;      ///< payload messages sent
    std::uint64_t merged = 0;    ///< payload messages merged in
    std::uint64_t cancelsSent = 0;
};

/** Whole-engine aggregate of PartitionStats plus run-level counters. */
struct EngineStats
{
    std::uint64_t fired = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t sent = 0;
    std::uint64_t merged = 0;
    std::uint64_t cancelsSent = 0;
    /** Always 0: the sequential executor sends no null messages,
     *  needs no GVT rescue and runs no rounds. Kept only because the
     *  benchmark harness (benchmark/tb_bench.cc) still reads them. */
    std::uint64_t nullPublishes = 0;
    std::uint64_t gvtRescues = 0;
    std::uint64_t stallRounds = 0;
    Tick finalTick = 0;              ///< max partition time
    unsigned partitions = 0;
};

namespace detail {

/** One timestamped message on a channel. */
struct ChannelMsg
{
    enum class Kind : std::uint8_t { Payload, Cancelable, Cancel };

    Tick when = 0;
    std::int32_t priority = 0;
    std::uint32_t seq = 0;    ///< sender-order sequence (tie-break key)
    std::uint32_t target = 0; ///< Cancel: seq of the cancelable payload
    Kind kind = Kind::Payload;
    tb::detail::EventClosure fn;
};

/** One directed src->dst link and its conservative lookahead. */
struct Channel
{
    PartitionId src = kNoPartition;
    PartitionId dst = kNoPartition;
    Tick lookahead = 0;
};

} // namespace detail

/**
 * One unit of sequential simulation: a slab EventQueue plus the
 * channel endpoints wired to it. All methods are owner-confined: call
 * them from setup code before Engine::run(), or from event callbacks
 * executing on this partition — never from another partition's
 * callbacks (that is what send() is for; tblint TBL022 enforces it).
 */
class Partition
{
  public:
    PartitionId id() const { return id_; }
    const std::string& name() const { return name_; }

    /** Current simulated time of this partition. */
    Tick now() const { return eq_->now(); }

    /**
     * Schedule a local event. Keyed by (this partition, local seq) so
     * ties against merged remote events break deterministically.
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F&& f, int priority = 0)
    {
        ++stats_.scheduled;
        // A managed queue keys itself by (its stream, local order).
        if (kind_ == Kind::Managed)
            return eq_->schedule(when, std::forward<F>(f), priority);
        return eq_->scheduleKeyed(when, priority, id_, takeSeq(),
                                  std::forward<F>(f));
    }

    /** Schedule a local event @p delta ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delta, F&& f, int priority = 0)
    {
        return schedule(now() + delta, std::forward<F>(f), priority);
    }

    /**
     * Send an event to partition @p dst, to execute there at absolute
     * tick @p when. A channel this->dst must exist and @p when must
     * honor its lookahead: when >= now() + lookahead. This is the
     * only legal way to affect another partition.
     */
    void send(PartitionId dst, Tick when, tb::detail::EventClosure fn,
              int priority = 0);

    /** send() variant returning a token usable with cancel(). */
    RemoteHandle sendCancelable(PartitionId dst, Tick when,
                                tb::detail::EventClosure fn,
                                int priority = 0);

    /**
     * Cancel a cancelable cross-partition event. The cancel travels
     * the same channel as the original send (same lookahead bound)
     * and takes effect at tick @p when: it wins iff when is strictly
     * below the target's tick — at or after it, the target has
     * already fired (or fires first at an equal tick, since the
     * target's tie-break key is necessarily smaller) and the cancel
     * is a deterministic no-op, exactly like a late EventHandle
     * cancel in the serial engine.
     */
    void cancel(const RemoteHandle& h, Tick when);

    /** Lookahead of the channel this->dst (panics if none). */
    Tick lookaheadTo(PartitionId dst) const;

    /**
     * Owner-only escape hatch: the raw EventQueue, for wiring model
     * objects that hold an EventQueue& into this partition. Touching
     * another partition's queue through this bypasses the lookahead
     * bound and is a determinism bug — cross-partition work must use
     * send(). tblint rule TBL022 flags call sites outside src/sim/.
     */
    EventQueue& unsafeQueue() { return *eq_; }

    /** Counters for this partition (stable once Engine::run returns). */
    const PartitionStats& stats() const { return stats_; }

  private:
    friend class Engine;

    /** How the partition relates to its queue (see Engine factories). */
    enum class Kind : std::uint8_t
    {
        Owned,   ///< engine-owned queue, keyed via scheduleKeyed
        Managed, ///< foreign queue in keyed mode, full channel citizen
    };

    Partition(Engine& engine, PartitionId id, std::string name,
              Kind kind, EventQueue* managedQueue);

    std::uint32_t takeSeq();
    detail::Channel& channelTo(PartitionId dst) const;
    void push(detail::Channel& c, detail::ChannelMsg&& m);
    /** Schedule one message from partition @p src into the queue. */
    void accept(PartitionId src, detail::ChannelMsg&& m);

    static std::uint64_t
    remoteKey(PartitionId src, std::uint32_t seq)
    {
        return (std::uint64_t{src} << 32) | seq;
    }

    PartitionId id_;
    std::string name_;
    std::unique_ptr<EventQueue> owned_;
    EventQueue* eq_;
    Kind kind_;
    std::uint32_t nextSeq_ = 0;
    /** The engine that delivers this partition's sends. */
    Engine& engine_;
    std::vector<detail::Channel*> outs_;
    /** Merged cancelable events awaiting fire or cancel, by
     *  (src, seq). Lookup-only (never iterated), so the unordered map
     *  cannot leak host ordering into results. */
    std::unordered_map<std::uint64_t, EventHandle> remotePending_;
    PartitionStats stats_;
};

/**
 * The conservative engine: owns partitions and channels and drains
 * them with the sequential executor. One-shot: build the topology,
 * seed initial events, call run() exactly once, then read stats.
 */
class Engine
{
  public:
    Engine() = default;

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /** Create a partition with its own slab EventQueue. */
    Partition& addPartition(std::string name);

    /**
     * Wrap an externally owned EventQueue as a *managed* partition: a
     * full channel citizen whose queue the model schedules into
     * directly. The queue must already be in keyed mode with its
     * stream equal to the partition id this call will assign (ids are
     * assigned densely in creation order), so locally scheduled events
     * and channel merges share one deterministic total order. This is
     * how the machine model's per-cluster queues become real engine
     * partitions (harness/parallel_sim.cc).
     */
    Partition& addManagedPartition(std::string name, EventQueue& eq);

    /**
     * Declare the directed channel src->dst with conservative
     * @p lookahead (> 0): every message on it must be timestamped at
     * least lookahead past the sender's clock at send time.
     */
    void connect(PartitionId src, PartitionId dst, Tick lookahead);

    Partition& partition(PartitionId id) { return *parts_.at(id); }
    std::size_t partitionCount() const { return parts_.size(); }

    /**
     * Run to global completion: every queue drained, every channel
     * empty. Blocks until done; one-shot.
     */
    void run();

    /** Aggregate counters; valid once run() has returned. */
    EngineStats stats() const;

  private:
    friend class Partition;

    /** The executor: bursts of the earliest partition. */
    void runSequential();
    /** Hand @p m to its destination at once. */
    void deliver(const detail::Channel& c, detail::ChannelMsg&& m);
    /** Fill dist_ with the all-pairs shortest lookahead paths. */
    void computeDistances();

    static Tick
    satAdd(Tick a, Tick b)
    {
        return a >= kTickNever - b ? kTickNever : a + b;
    }

    std::vector<std::unique_ptr<Partition>> parts_;
    std::vector<std::unique_ptr<detail::Channel>> channels_;
    bool ran_ = false;
    /** dist_[r * n + p] = D[r][p], kTickNever when unreachable. */
    std::vector<Tick> dist_;
    /** Every partition's next event tick, and the bound of the
     *  running burst. */
    std::vector<Tick> heads_;
    Tick burstLimit_ = kTickNever;
};

} // namespace pdes
} // namespace tb

#endif // TB_SIM_PDES_HH_
