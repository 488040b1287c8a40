/**
 * @file
 * Hypercube wormhole interconnect model (Table 1 of the paper).
 *
 * The modeled machine connects 2^k nodes in a k-cube with pipelined
 * 250 MHz routers, 16 ns pin-to-pin latency per hop, and 16 ns of
 * (un)marshaling at each endpoint. Routing is deterministic
 * dimension-order (e-cube), so paths are unique and deadlock-free.
 *
 * Wormhole timing approximation for a message of B bytes over h hops:
 *
 *   marshal(16 ns)
 *   + per hop: wait for the output link, then header pin-to-pin (16 ns)
 *   + (flits - 1) * flit cycle  (body pipelines behind the header)
 *   + unmarshal(16 ns)
 *
 * Each directed link is reserved for the message's serialization time,
 * which is how contention appears (subsequent messages on the same link
 * queue behind it, like blocked worms holding the channel).
 *
 * Routing is *hop-granular*: injection schedules an event at the
 * message's first router, and every hop is its own event, run as the
 * event-queue stream of the node owning that router — it charges
 * fault/contention stalls against its outgoing link, reserves it, and
 * schedules the next hop (or the destination arrival). A worm cannot
 * reserve a link it has not reached, so the far end's link state is
 * read when the header gets there, not at send time. Every piece of
 * mutable state belongs to one node's stream:
 *
 *   linkFreeAt[link]        — the stream of the router the link leaves
 *   nextPairSeq[src*n+dst]  — src's stream (stamped at injection)
 *   expectedSeq / pairLast /
 *   out-of-order stash      — dst's stream (checked at arrival)
 *   stat shards             — one per stream, folded in stream order
 *
 * A machine splits its nodes into contiguous blocks, one stream each
 * (harness/machine.hh); a hop into another block's node is scheduled
 * onto that node's stream (EventQueue::scheduleOn) and always lies
 * >= pinToPin in the future.
 */

#ifndef TB_NOC_NETWORK_HH_
#define TB_NOC_NETWORK_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/hooks.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tb {
namespace noc {

/** Static configuration of the interconnect. */
struct NetworkConfig
{
    /** Hypercube dimension; node count is 2^dimension. */
    unsigned dimension = 6;
    /** Header latency across one hop (pin-to-pin), in ticks. */
    Tick pinToPin = 16 * kNanosecond;
    /** Marshaling cost at each endpoint (applied twice), in ticks. */
    Tick marshal = 16 * kNanosecond;
    /** Router clock period (250 MHz => 4 ns), in ticks. */
    Tick routerPeriod = 4 * kNanosecond;
    /** Bytes moved per router cycle per link (flit width). */
    unsigned flitBytes = 16;
    /** Model per-link contention (disable for latency-only studies). */
    bool modelContention = true;

    /** Number of nodes (2^dimension). */
    unsigned nodes() const { return 1u << dimension; }

    /**
     * Minimum latency of any cross-node message: marshal + one
     * pin-to-pin hop + unmarshal, with zero contention and a
     * single-flit payload. Nothing a node sends can affect another
     * node sooner (Fabric::minMessageLatency reports it).
     */
    Tick minCrossNodeLatency() const { return marshal + pinToPin + marshal; }
};

/**
 * The interconnection network.
 *
 * Senders hand the network a completion closure that runs, at the
 * destination's side, when the last flit arrives. Payloads live in
 * the closure, which keeps this module independent of the
 * coherence-protocol message types. A message is one heap object
 * holding its routing header and the closure; the hop and arrival
 * events carry it by unique_ptr, so nothing else is allocated per
 * message or per hop.
 */
class Network : public SimObject
{
  public:
    /** Type-erased delivery callback (raw control messages). */
    using Deliver = std::function<void()>;

    /**
     * @param queue event queue; its streams() (a power of two up to
     *        the node count) split the nodes into that many
     *        contiguous blocks, one stream each (streamOf()).
     * @param hooks machine-wide instrumentation seams (fault
     *        injection, tracing, delivery audit); may be null for
     *        standalone use. Fields are read at use time, so the
     *        machine can attach instruments after construction.
     */
    Network(EventQueue& queue, const NetworkConfig& config,
            std::string name = "noc", const Hooks* hooks = nullptr);

    /** Static configuration. */
    const NetworkConfig& config() const { return cfg; }

    /**
     * Inject a message of @p bytes from @p src to @p dst; @p fn runs
     * as @p dst's stream when the last flit arrives. src == dst is
     * allowed (local loopback, charged marshal + unmarshal only).
     * Must be called from an event running as @p src's stream.
     */
    template <typename F>
    void
    inject(NodeId src, NodeId dst, unsigned bytes, F&& fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, Deliver>) {
            if (!fn)
                panic("network send without delivery callback");
        }
        launch(src, dst, bytes,
               std::make_unique<Payload<Fn>>(std::forward<F>(fn)));
    }

    /**
     * Legacy entry point, kept as a thin shim over inject(). Protocol
     * and runtime code must go through mem::Fabric (tools/tblint rule
     * TBL024) so every coherence message gets observer/audit coverage;
     * direct send() is for the network's own tests and benchmarks.
     */
    template <typename F>
    void
    send(NodeId src, NodeId dst, unsigned bytes, F&& on_deliver)
    {
        inject(src, dst, bytes, std::forward<F>(on_deliver));
    }

    /** Event-queue stream that node @p n's events run as. */
    unsigned streamOf(NodeId n) const { return n >> streamShift; }

    /** Hamming distance — number of hops between two nodes. */
    unsigned hops(NodeId a, NodeId b) const;

    /**
     * Contention-free latency of a @p bytes message over @p n_hops
     * hops. This is an exact lower bound of per-hop delivery: the
     * per-hop path adds only non-negative stalls to it, and the
     * protocol checker audits every delivery against it
     * (NocDeliveryAudit).
     */
    Tick zeroLoadLatency(unsigned n_hops, unsigned bytes) const;

    /**
     * Aggregate statistics for this network. Folds the per-stream
     * shards first; only call when the queue is quiescent.
     */
    const stats::StatGroup& statistics() const;

  private:
    /** One message in flight, owned by the event that carries it. */
    struct Flight
    {
        Flight() = default;
        Flight(const Flight&) = delete;
        Flight& operator=(const Flight&) = delete;
        virtual ~Flight() = default;

        /** Run the delivery payload (at the destination). */
        virtual void deliver() = 0;

        NodeId src = 0;
        NodeId dst = 0;
        unsigned bytes = 0;
        /** Send-order stamp within the (src, dst) pair. */
        std::uint64_t seq = 0;
        /** Injection tick (for latency stats and the audit). */
        Tick t0 = 0;
    };

    using FlightPtr = std::unique_ptr<Flight>;

    /** A Flight with its delivery closure stored in place. */
    template <typename Fn>
    struct Payload final : Flight
    {
        template <typename F>
        explicit Payload(F&& f) : fn(std::forward<F>(f))
        {}

        void deliver() override { fn(); }

        Fn fn;
    };

    /** A message that arrived before its (src, dst) predecessors. */
    struct Stash
    {
        Tick tail;
        FlightPtr flight;
    };

    /**
     * Per-stream statistics shard. Hop events write the shard of the
     * stream they run as; foldStats() drains every shard into
     * statsGroup in stream order, so the floating-point sums always
     * add up in the same order.
     */
    struct Shard
    {
        double messages = 0;
        double bytes = 0;
        double linkStallTicks = 0;
        double orderingStallTicks = 0;
        double faultLinkStallTicks = 0;
        double faultDelayTicks = 0;
        stats::Distribution latency;
        stats::Distribution hops;
    };

    /** Stamp @p f's header and schedule its first hop. */
    void launch(NodeId src, NodeId dst, unsigned bytes, FlightPtr f);

    /** One hop: charge the outgoing link at @p at, forward. */
    void hopEvent(NodeId at, FlightPtr f);

    /** Last flit reached @p f->dst at @p t_arr: finish delivery. */
    void arrivalEvent(FlightPtr f, Tick t_arr);

    /** In-order delivery: clamp against the pair's last delivery,
     *  record stats and schedule the payload at the tail tick. */
    void deliverInOrder(FlightPtr f, Tick tail);

    /** Drain all per-stream shards into statsGroup. */
    void foldStats() const;

    Shard& shardOf(NodeId n) const { return shards[streamOf(n)]; }

    /** Number of router cycles needed to serialize @p bytes. */
    unsigned flits(unsigned bytes) const;

    /** Index of the directed link leaving @p node along @p dim. */
    std::size_t linkIndex(NodeId node, unsigned dim) const;

    std::size_t
    pairIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * cfg.nodes() + dst;
    }

    NetworkConfig cfg;
    const Hooks* hooks;
    /** log2 of the nodes per stream. */
    unsigned streamShift = 0;
    /** Earliest tick each directed link is free again. Owned by the
     *  stream of the router the link leaves. */
    std::vector<Tick> linkFreeAt;
    /** Next send-order stamp per (src, dst) pair. Owned by src's
     *  stream: stamped at injection, before the first hop departs. */
    std::vector<std::uint64_t> nextPairSeq;
    /** Next expected arrival stamp per (src, dst) pair. Owned by
     *  dst's stream. */
    std::vector<std::uint64_t> expectedSeq;
    /**
     * Last delivery tick per (src, dst) pair. Messages between the
     * same endpoints are delivered in send order (single-virtual-
     * channel wormhole networks preserve point-to-point ordering; the
     * directory protocol relies on it: a forwarded intervention must
     * not overtake the data grant that precedes it). Owned by dst's
     * stream.
     */
    std::vector<Tick> pairLastDelivery;
    /**
     * Early arrivals waiting for their (src, dst) predecessors, keyed
     * by seq. Per pair so each entry is owned by dst's stream. A
     * small message can physically catch up with a large predecessor
     * on the shared tail (its last-hop body drains faster), so the
     * clamp alone is not enough — delivery order must be restored
     * explicitly.
     */
    std::vector<std::map<std::uint64_t, Stash>> oooStash;
    mutable std::vector<Shard> shards;
    mutable stats::StatGroup statsGroup;
};

} // namespace noc
} // namespace tb

#endif // TB_NOC_NETWORK_HH_
