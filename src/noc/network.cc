#include "noc/network.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/trace.hh"
#include "sim/fault_hooks.hh"
#include "sim/logging.hh"

namespace tb {
namespace noc {

Network::Network(EventQueue& queue, const NetworkConfig& config,
                 std::string name, const Hooks* machine_hooks)
    : SimObject(queue, std::move(name)), cfg(config), hooks(machine_hooks)
{
    if (cfg.dimension == 0 || cfg.dimension > 16)
        fatal("network dimension must be in [1,16], got ", cfg.dimension);
    if (cfg.flitBytes == 0)
        fatal("network flitBytes must be nonzero");
    linkFreeAt.assign(static_cast<std::size_t>(cfg.nodes()) *
                          cfg.dimension,
                      0);
    const std::size_t pairs =
        static_cast<std::size_t>(cfg.nodes()) * cfg.nodes();
    nextPairSeq.assign(pairs, 0);
    expectedSeq.assign(pairs, 0);
    pairLastDelivery.assign(pairs, 0);
    oooStash.resize(pairs);
    const unsigned streams = queue.streams();
    if ((streams & (streams - 1)) != 0 || streams > cfg.nodes())
        fatal("a network of ", cfg.nodes(), " nodes cannot split into ",
              streams, " streams: need a power of two up to the node "
              "count");
    streamShift = static_cast<unsigned>(
        std::countr_zero(cfg.nodes() / streams));
    shards.resize(streams);
}

unsigned
Network::hops(NodeId a, NodeId b) const
{
    return static_cast<unsigned>(std::popcount(a ^ b));
}

unsigned
Network::flits(unsigned bytes) const
{
    return std::max(1u, (bytes + cfg.flitBytes - 1) / cfg.flitBytes);
}

std::size_t
Network::linkIndex(NodeId node, unsigned dim) const
{
    return static_cast<std::size_t>(node) * cfg.dimension + dim;
}

Tick
Network::zeroLoadLatency(unsigned n_hops, unsigned bytes) const
{
    const Tick body = static_cast<Tick>(flits(bytes) - 1) *
                      cfg.routerPeriod;
    return 2 * cfg.marshal +
           static_cast<Tick>(n_hops) * cfg.pinToPin + body;
}

void
Network::launch(NodeId src, NodeId dst, unsigned bytes, FlightPtr f)
{
    const unsigned n = cfg.nodes();
    if (src >= n || dst >= n)
        panic("network send outside topology: src=", src, " dst=", dst);

    const Tick t0 = eq.now();
    f->src = src;
    f->dst = dst;
    f->bytes = bytes;
    f->seq = nextPairSeq[pairIndex(src, dst)]++;
    f->t0 = t0;
    Shard& sh = shardOf(src);
    sh.messages += 1.0;
    sh.bytes += static_cast<double>(bytes);

    // Marshaling happens at the source endpoint; the message reaches
    // its first router (src's own, hence src's stream) afterwards. A
    // loopback message never enters a router at all.
    const Tick entry = t0 + cfg.marshal;
    if (src == dst) {
        eq.schedule(entry, [this, f = std::move(f)]() mutable {
            arrivalEvent(std::move(f), eq.now());
        });
        return;
    }
    eq.schedule(entry, [this, src, f = std::move(f)]() mutable {
        hopEvent(src, std::move(f));
    });
}

void
Network::hopEvent(NodeId at, FlightPtr f)
{
    Tick t = eq.now();
    // Dimension-order routing: correct the lowest differing address
    // bit; the hop leaves through this router's link along that dim.
    const unsigned dim =
        static_cast<unsigned>(std::countr_zero(at ^ f->dst));
    FaultHooks* faults = hooks ? hooks->faults : nullptr;
    if (faults) {
        // An injected stall occupies the head of the worm on this
        // link, so it lands before the contention accounting and
        // naturally back-pressures messages queued behind it.
        Tick stall = faults->linkStall(at, dim);
        if (stall > 0) {
            shardOf(at).faultLinkStallTicks +=
                static_cast<double>(stall);
            t += stall;
        }
    }
    if (cfg.modelContention) {
        const Tick ser_time =
            static_cast<Tick>(flits(f->bytes)) * cfg.routerPeriod;
        Tick& free_at = linkFreeAt[linkIndex(at, dim)];
        if (free_at > t) {
            shardOf(at).linkStallTicks +=
                static_cast<double>(free_at - t);
            t = free_at;
        }
        free_at = t + ser_time;
    }
    // The next router's events run as its own node's stream.
    const NodeId next = at ^ (NodeId{1} << dim);
    const Tick when = t + cfg.pinToPin;
    if (next == f->dst) {
        eq.scheduleOn(streamOf(next), when,
                      [this, f = std::move(f), when]() mutable {
                          arrivalEvent(std::move(f), when);
                      });
    } else {
        eq.scheduleOn(streamOf(next), when,
                      [this, f = std::move(f), next]() mutable {
                          hopEvent(next, std::move(f));
                      });
    }
}

void
Network::arrivalEvent(FlightPtr f, Tick t_arr)
{
    // Body flits pipeline behind the header on the final link, then
    // the destination unmarshals.
    Tick tail = t_arr +
                static_cast<Tick>(flits(f->bytes) - 1) *
                    cfg.routerPeriod +
                cfg.marshal;
    FaultHooks* faults = hooks ? hooks->faults : nullptr;
    if (faults) {
        // End-to-end delay spikes land *before* the ordering clamp so
        // a delayed message still cannot overtake an earlier one on
        // the same (src, dst) pair — the protocol's point-to-point
        // ordering assumption survives the fault.
        Tick delay = faults->messageDelay(f->src, f->dst);
        if (delay > 0) {
            shardOf(f->dst).faultDelayTicks +=
                static_cast<double>(delay);
            tail += delay;
        }
    }
    const std::size_t pair = pairIndex(f->src, f->dst);
    if (f->seq != expectedSeq[pair]) {
        // Arrived before a predecessor (a short message drains its
        // tail faster than a long one): hold it until the pair's
        // in-order point catches up.
        const std::uint64_t seq = f->seq;
        oooStash[pair].emplace(seq, Stash{tail, std::move(f)});
        return;
    }
    deliverInOrder(std::move(f), tail);
    auto& stash = oooStash[pair];
    for (auto it = stash.find(expectedSeq[pair]); it != stash.end();
         it = stash.find(expectedSeq[pair])) {
        Stash held = std::move(it->second);
        stash.erase(it);
        deliverInOrder(std::move(held.flight), held.tail);
    }
}

void
Network::deliverInOrder(FlightPtr f, Tick tail)
{
    const std::size_t pair = pairIndex(f->src, f->dst);
    Shard& sh = shardOf(f->dst);
    // Preserve point-to-point ordering: never deliver before an
    // earlier message between the same endpoints. Also lifts a stashed
    // message's tail to at least the current tick, since its
    // predecessor was just delivered at now or later.
    Tick& pair_last = pairLastDelivery[pair];
    if (tail < pair_last) {
        sh.orderingStallTicks += static_cast<double>(pair_last - tail);
        tail = pair_last;
    }
    pair_last = tail;
    expectedSeq[pair] = f->seq + 1;

    sh.latency.sample(static_cast<double>(tail - f->t0));
    sh.hops.sample(static_cast<double>(hops(f->src, f->dst)));
    obs::TraceSink* trace = hooks ? hooks->trace : nullptr;
    if (TB_TRACED(trace, obs::TraceCategory::Noc)) {
        trace->complete(obs::TraceCategory::Noc, "msg", f->t0,
                        tail - f->t0, f->src,
                        {{"dst", f->dst}, {"bytes", f->bytes},
                         {"hops", hops(f->src, f->dst)}});
    }
    if (hooks && hooks->nocAudit) {
        hooks->nocAudit->onNocDelivered(
            f->src, f->dst, f->bytes, f->t0, tail,
            zeroLoadLatency(hops(f->src, f->dst), f->bytes));
    }
    eq.schedule(tail, [f = std::move(f)]() { f->deliver(); });
}

void
Network::foldStats() const
{
    stats::Scalar& messages = statsGroup.scalar("messages");
    stats::Scalar& bytes = statsGroup.scalar("bytes");
    stats::Scalar& link_stall = statsGroup.scalar("linkStallTicks");
    stats::Scalar& order_stall =
        statsGroup.scalar("orderingStallTicks");
    stats::Distribution& latency = statsGroup.distribution("latency");
    stats::Distribution& hop_dist = statsGroup.distribution("hops");
    // Fixed stream order: tick values are integers, so the sums are
    // exact either way, but keep the fold deterministic regardless.
    for (Shard& sh : shards) {
        messages += sh.messages;
        bytes += sh.bytes;
        link_stall += sh.linkStallTicks;
        order_stall += sh.orderingStallTicks;
        // Fault scalars appear only when a fault actually fired,
        // matching the lazy creation of the eager implementation (the
        // stat report's name set is part of the artifact format).
        if (sh.faultLinkStallTicks != 0.0)
            statsGroup.scalar("faultLinkStallTicks") +=
                sh.faultLinkStallTicks;
        if (sh.faultDelayTicks != 0.0)
            statsGroup.scalar("faultDelayTicks") += sh.faultDelayTicks;
        latency.merge(sh.latency);
        hop_dist.merge(sh.hops);
        sh = Shard{};
    }
}

const stats::StatGroup&
Network::statistics() const
{
    foldStats();
    return statsGroup;
}

} // namespace noc
} // namespace tb
