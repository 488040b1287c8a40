/**
 * @file
 * The event queues of a machine split into clusters, and the loop that
 * drains them together on one host thread.
 *
 * With one cluster this is one plain EventQueue and run() is
 * EventQueue::run(). With P > 1 clusters, cluster c's queue is keyed
 * by stream c (EventQueue::setKeyedStream), and the only way an event
 * of one cluster schedules onto another is send(), which stamps it
 * with the key (origin cluster, origin send order) and requires it to
 * land at least one lookahead past the sender's clock. So every queue
 * executes in the total order (time, priority, origin cluster, origin
 * seq), a function of the simulation alone.
 *
 * run() repeatedly picks the cluster p with the earliest head and
 * fires its events while they lie strictly below
 *
 *     limit = min over r != p of head(r) + lookahead,
 *
 * because nothing r can still execute reaches p sooner. Each send p
 * makes during the burst lowers the limit to when + lookahead, since a
 * reply can come straight back. So no event ever lands in a queue's
 * past, and how far a burst runs only decides when an event fires on
 * the host, never which key a queue runs next. Bursts are kept because
 * draining one event at a time from the global minimum is measurably
 * slower (docs/PERFORMANCE.md, "Partitioned plan").
 */

#ifndef TB_SIM_CLUSTER_QUEUES_HH_
#define TB_SIM_CLUSTER_QUEUES_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tb {

/** P event queues drained together (see file comment). */
class ClusterQueues
{
  public:
    /**
     * @param clusters number of queues (>= 1)
     * @param lookahead minimum distance between a send and its
     *        timestamp; must be positive when clusters > 1
     */
    ClusterQueues(unsigned clusters, Tick lookahead);

    ClusterQueues(const ClusterQueues&) = delete;
    ClusterQueues& operator=(const ClusterQueues&) = delete;

    /** Number of clusters. */
    unsigned size() const { return static_cast<unsigned>(queues.size()); }

    /** Cluster @p c's queue. */
    EventQueue& queue(unsigned c) { return *queues.at(c); }

    /**
     * Schedule @p fn at @p when on cluster @p dst's queue from an event
     * (or the setup code) of cluster @p src != dst. Panics unless
     * when >= queue(src).now() + the lookahead.
     */
    void send(unsigned src, unsigned dst, Tick when,
              detail::EventClosure fn);

    /** Cross-cluster sends made so far. */
    std::uint64_t sent() const { return sent_; }

    /** Drain every queue. */
    void run();

    /** Latest simulated time over all queues. */
    Tick now() const;

  private:
    std::vector<std::unique_ptr<EventQueue>> queues;
    Tick lookahead_;
    /** Next send order of each origin cluster. */
    std::vector<std::uint32_t> crossSeq;
    /** Every queue's next event tick while run() is active. */
    std::vector<Tick> heads;
    /** Bound of the running burst (exclusive). */
    Tick limit = kTickNever;
    std::uint64_t sent_ = 0;
};

} // namespace tb

#endif // TB_SIM_CLUSTER_QUEUES_HH_
