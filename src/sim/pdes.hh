/**
 * @file
 * Conservative parallel discrete-event simulation (PDES) engine.
 *
 * The machine model is partitioned into Partitions, each owning one
 * slab EventQueue (event_queue.hh) and executed by exactly one worker
 * thread. Cross-partition communication goes through timestamped
 * Channels declared up front with a positive *lookahead*: a message
 * sent while the source partition sits at simulated time s must carry
 * a timestamp >= s + lookahead.
 *
 * With two or more workers, synchronisation is round-synchronous
 * (YAWNS-style windows). In each round every worker fires its
 * partitions' events strictly below a per-partition bound, then
 * publishes, per partition, its post-fire
 * next event time and the earliest timestamp it sent on each output
 * channel. One barrier ends the round. After it every worker computes
 * the same minima m(r) = min(next event of r, earliest message in
 * flight to r), and partition p's next bound is
 *
 *     b(p) = min over r of m(r) + D[r][p],
 *
 * where D is the all-pairs shortest lookahead path, computed once in
 * run(); the diagonal D[p][p] is the shortest cycle back to p (never
 * when there is none), because p's own events can only reach p again
 * around a cycle. Every event any partition r can still execute lies
 * at or after m(r), and any chain of sends from it to p adds at least
 * D[r][p], so nothing below b(p) can ever arrive at p: no stragglers.
 * D is the fixpoint that null messages in a Chandy-Misra-Bryant engine
 * creep towards one lookahead per exchange; here an idle gap of any
 * length is crossed in one round. The run ends at the first round
 * whose minima are all kTickNever (no pending event, no message in
 * flight).
 *
 * Mailboxes and the per-channel "earliest sent" slots are double-
 * buffered by round parity: round k's sends land in buffer k&1, which
 * the destination merges at the start of round k+1 while senders fill
 * the other buffer. The single barrier orders every write of a round
 * before every read of it, so channels need no lock. The barrier is a
 * central counter whose waiters spin briefly and then block until the
 * last arriver wakes them, so oversubscribed runs degrade gracefully.
 *
 * With one worker there is nobody to wait for, so the engine skips
 * rounds altogether and runs a sequential conservative executor.
 * Sends are delivered straight into the destination queue, so nothing
 * is ever in flight and each partition's exact head h(r) (its next
 * event) stands in for m(r). The executor repeatedly picks the
 * partition p with the earliest head and fires its events strictly
 * below
 *
 *     limit = min over r != p of h(r) + D[r][p],
 *
 * lowering the limit to when + D[dst][p] on each send p makes during
 * the burst, because a reply can come back around a cycle. It is the
 * window bound's argument with the exact heads, and no destination is
 * ever past a delivery. Setup sends still sit in the parity-0
 * mailboxes and are delivered first.
 *
 * Determinism contract (docs/PERFORMANCE.md): execution order is the
 * total order (time, priority, origin partition, origin sequence),
 * enforced by EventQueue::scheduleKeyed, and the bounds are a pure
 * function of the simulation. Neither the executor nor host scheduling
 * can change which key runs next, so any thread count produces
 * bit-identical simulations and identical fired/scheduled/sent/
 * merged/cancelsSent counters. Rounds and stall rounds count window
 * rounds: deterministic for a given worker count >= 2, identical
 * across all of them, and 0 at one worker. Only nullPublishes and
 * gvtRescues remain from the old null-message protocol; they are
 * always 0 and kept because existing reports read them. No engine
 * counter feeds an artifact.
 */

#ifndef TB_SIM_PDES_HH_
#define TB_SIM_PDES_HH_

#include <atomic>
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
    // All deterministic: pure functions of the simulation, identical
    // at any worker count.
    std::uint64_t fired = 0;     ///< events executed
    std::uint64_t scheduled = 0; ///< local schedule()/scheduleIn() calls
    std::uint64_t sent = 0;      ///< payload messages sent
    std::uint64_t merged = 0;    ///< payload messages merged in
    std::uint64_t cancelsSent = 0;
    /** Window rounds in which this partition had pending work but
     *  none below its bound (0 at one worker: no rounds). */
    std::uint64_t stallRounds = 0;
};

/** Whole-engine aggregate of PartitionStats plus run-level counters. */
struct EngineStats
{
    std::uint64_t fired = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t sent = 0;
    std::uint64_t merged = 0;
    std::uint64_t cancelsSent = 0;
    /** Window rounds (barriers). The one-worker sequential executor
     *  runs no rounds, so this and stallRounds are 0 there. */
    std::uint64_t rounds = 0;
    std::uint64_t stallRounds = 0;   ///< summed PartitionStats::stallRounds
    /** Always 0: the window protocol sends no null messages and needs
     *  no GVT rescue. Kept for reports that still read them. */
    std::uint64_t nullPublishes = 0;
    std::uint64_t gvtRescues = 0;
    Tick finalTick = 0;              ///< max partition time
    unsigned threads = 0;
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

/**
 * One directed src->dst link, double-buffered by round parity: the
 * source's owner writes slot k&1 during round k, the destination's
 * owner drains the mailbox in round k+1, and every worker reads
 * minSent after round k's barrier. The barrier orders all of it, so
 * no field needs a lock. Cache-line aligned so channels written by
 * different workers do not false-share.
 */
struct alignas(64) Channel
{
    PartitionId src = kNoPartition;
    PartitionId dst = kNoPartition;
    Tick lookahead = 0;
    /** Earliest timestamp sent in the round of each parity. */
    Tick minSent[2] = {kTickNever, kTickNever};
    std::vector<ChannelMsg> mailbox[2];
};

/**
 * Central-counter barrier for the engine's workers. Waiters spin with
 * a CPU pause for a bounded number of polls (none when there are
 * more parties than host threads), then block on the phase word until
 * the last arriver advances it and wakes them. Every write a worker
 * makes before arriving is visible to every worker after the barrier.
 */
class RoundBarrier
{
  public:
    /** @p parties >= 2: one worker runs no rounds. */
    explicit RoundBarrier(unsigned parties);

    void arriveAndWait();

    /** Polls a waiter spins before blocking (0: blocks at once). */
    unsigned spinPolls() const { return spinPolls_; }

  private:
    alignas(64) std::atomic<unsigned> arrived_{0};
    alignas(64) std::atomic<std::uint32_t> phase_{0};
    unsigned parties_;
    unsigned spinPolls_;
};

} // namespace detail

/**
 * CPUs this process may run on: its affinity mask, which
 * hardware_concurrency() ignores (it reports every CPU even under
 * taskset). At least 1.
 */
unsigned usableCpus();

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
        // External AND managed partitions delegate to the queue's own
        // schedule(): an external queue keys by insertion order, a
        // managed queue keys itself by (its stream, local order).
        if (kind_ != Kind::Owned)
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
     * Owner-thread escape hatch: the raw EventQueue, for wiring model
     * objects that hold an EventQueue& into this partition. Touching
     * another partition's queue through this is a data race AND a
     * determinism bug — cross-partition work must use send(). tblint
     * rule TBL022 flags call sites outside src/sim/.
     */
    EventQueue& unsafeQueue() { return *eq_; }

    /** Counters for this partition (stable once Engine::run returns). */
    const PartitionStats& stats() const { return stats_; }

  private:
    friend class Engine;

    /** How the partition relates to its queue (see Engine factories). */
    enum class Kind : std::uint8_t
    {
        Owned,    ///< engine-owned queue, keyed via scheduleKeyed
        External, ///< foreign queue, plain insertion order, no channels
        Managed,  ///< foreign queue in keyed mode, full channel citizen
    };

    Partition(PartitionId id, std::string name, Kind kind,
              EventQueue* externalQueue);

    std::uint32_t takeSeq();
    detail::Channel& channelTo(PartitionId dst) const;
    void push(detail::Channel& c, detail::ChannelMsg&& m);
    /** Schedule one message from partition @p src into the queue. */
    void accept(PartitionId src, detail::ChannelMsg&& m);
    /** Merge the mailboxes of round parity @p parity into the queue. */
    void merge(unsigned parity);

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
    /** Round parity this partition's sends go to (0 during setup). */
    unsigned parity_ = 0;
    /** The engine, once its sequential executor runs: sends bypass
     *  the mailboxes and go straight to Engine::deliver. */
    Engine* direct_ = nullptr;
    /** Input channels in creation order — the deterministic drain
     *  order (irrelevant to execution order thanks to keyed ties, but
     *  kept fixed so merge accounting is reproducible too). */
    std::vector<detail::Channel*> ins_;
    std::vector<detail::Channel*> outs_;
    /** Merged cancelable events awaiting fire or cancel, by
     *  (src, seq). Lookup-only (never iterated), so the unordered map
     *  cannot leak host ordering into results. */
    std::unordered_map<std::uint64_t, EventHandle> remotePending_;
    PartitionStats stats_;
};

/**
 * The conservative engine: owns partitions and channels, runs the
 * bounded fire rounds on a fixed worker pool, or the sequential
 * executor when there is one worker. One-shot: build the
 * topology, seed initial events, call run() exactly once, then read
 * stats. Worker count never affects simulation results — only wall
 * time (see file comment for the argument).
 */
class Engine
{
  public:
    struct Config
    {
        /** Worker threads; clamped to [1, partition count]. */
        unsigned threads = 1;
    };

    Engine() = default;
    explicit Engine(Config cfg) : cfg_(cfg) {}

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /** Create a partition with its own slab EventQueue. */
    Partition& addPartition(std::string name);

    /**
     * Wrap an externally owned EventQueue (e.g. a Machine's) as a
     * partition. External partitions keep the queue's plain
     * insertion-order scheduling, so they cannot take channels:
     * connect() refuses them. They exist to run a whole sequential
     * model under the engine's worker pool and stats umbrella.
     */
    Partition& addExternalPartition(std::string name, EventQueue& eq);

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

    /** One worker's round loop; returns the number of rounds run. */
    std::uint64_t worker(const std::vector<Partition*>& mine,
                         detail::RoundBarrier& barrier);
    /** The one-worker executor: bursts of the earliest partition. */
    void runSequential();
    /** Sequential-mode send: hand @p m to its destination at once. */
    void deliver(const detail::Channel& c, detail::ChannelMsg&& m);
    /** Fill dist_ with the all-pairs shortest lookahead paths. */
    void computeDistances();

    static Tick
    satAdd(Tick a, Tick b)
    {
        return a >= kTickNever - b ? kTickNever : a + b;
    }

    Config cfg_;
    std::vector<std::unique_ptr<Partition>> parts_;
    std::vector<std::unique_ptr<detail::Channel>> channels_;
    bool ran_ = false;
    unsigned threadsUsed_ = 0;
    std::uint64_t rounds_ = 0;
    /** dist_[r * n + p] = D[r][p], kTickNever when unreachable. */
    std::vector<Tick> dist_;
    /** Post-fire next event tick per partition, by round parity
     *  (slot 0 holds the initial queues' heads before round 1). */
    std::vector<Tick> published_[2];
    /** Sequential executor: every partition's next event tick, and
     *  the bound of the running burst. */
    std::vector<Tick> heads_;
    Tick burstLimit_ = kTickNever;
};

} // namespace pdes
} // namespace tb

#endif // TB_SIM_PDES_HH_
