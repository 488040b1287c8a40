/**
 * @file
 * Cluster queues and their burst drain (see cluster_queues.hh).
 */

#include "sim/cluster_queues.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tb {

ClusterQueues::ClusterQueues(unsigned clusters, Tick lookahead)
    : lookahead_(lookahead)
{
    if (clusters == 0 || clusters > 0xffffu)
        panic("cluster count ", clusters, " out of range [1, 65535]");
    if (clusters > 1 && lookahead == 0)
        panic("cluster queues need a positive lookahead: the drain "
              "cannot make progress across a zero-latency edge");
    crossSeq.assign(clusters, 0);
    heads.assign(clusters, kTickNever);
    queues.reserve(clusters);
    for (unsigned c = 0; c < clusters; ++c) {
        queues.push_back(std::make_unique<EventQueue>());
        // Keyed mode is set before anything is scheduled, so local
        // events tie by (cluster, local order) against sent ones.
        if (clusters > 1)
            queues.back()->setKeyedStream(static_cast<std::uint16_t>(c));
    }
}

void
ClusterQueues::send(unsigned src, unsigned dst, Tick when,
                    detail::EventClosure fn)
{
    if (src == dst || src >= queues.size() || dst >= queues.size())
        panic("cluster send ", src, " -> ", dst, " needs two distinct "
              "clusters of ", queues.size());
    const EventQueue& from = *queues[src];
    if (when < from.now() + lookahead_) {
        panic("cluster send ", src, " -> ", dst,
              " violates the lookahead: when=", when, " < now=",
              from.now(), " + lookahead=", lookahead_);
    }
    if (crossSeq[src] == ~std::uint32_t{0})
        panic("cluster ", src, " exhausted its 2^32 send sequence space");
    queues[dst]->scheduleKeyed(when, 0, static_cast<std::uint16_t>(src),
                               crossSeq[src]++, std::move(fn));
    ++sent_;
    // A reply can reach the firing cluster one lookahead later.
    limit = std::min(limit, when + lookahead_);
    heads[dst] = std::min(heads[dst], when);
}

void
ClusterQueues::run()
{
    const std::size_t n = queues.size();
    if (n == 1) {
        queues[0]->run();
        return;
    }
    for (std::size_t r = 0; r < n; ++r)
        heads[r] = queues[r]->nextTick();
    for (;;) {
        std::size_t p = 0;
        for (std::size_t r = 1; r < n; ++r)
            if (heads[r] < heads[p])
                p = r;
        if (heads[p] == kTickNever)
            return;

        // Every other head is at or after heads[p] and the lookahead
        // is positive, so the burst fires at least one event.
        Tick bound = kTickNever;
        for (std::size_t r = 0; r < n; ++r)
            if (r != p)
                bound = std::min(bound, heads[r]);
        limit = bound >= kTickNever - lookahead_ ? kTickNever
                                                 : bound + lookahead_;
        EventQueue& q = *queues[p];
        // send() may lower the limit inside any event.
        while (q.nextTick() < limit)
            q.runOne();
        heads[p] = q.nextTick();
    }
}

Tick
ClusterQueues::now() const
{
    Tick end = 0;
    for (const auto& q : queues)
        end = std::max(end, q->now());
    return end;
}

} // namespace tb
