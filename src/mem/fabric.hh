/**
 * @file
 * Coherence-message routing layer over the interconnect.
 *
 * Controllers and directories register themselves per node; the fabric
 * computes the home node of each request from the address map, charges
 * the message to the NoC, and delivers it to the registered sink when
 * it arrives. This keeps protocol agents ignorant of topology and the
 * network ignorant of protocol payloads.
 */

#ifndef TB_MEM_FABRIC_HH_
#define TB_MEM_FABRIC_HH_

#include <utility>
#include <vector>

#include "mem/address_map.hh"
#include "mem/mem_types.hh"
#include "mem/protocol_observer.hh"
#include "noc/network.hh"
#include "sim/hooks.hh"

namespace tb {
namespace mem {

/** Routes coherence messages between per-node agents over the NoC. */
class Fabric
{
  public:
    /**
     * @param hooks machine-wide instrumentation seams (nullable);
     *        fields are read at use time.
     */
    Fabric(noc::Network& network, AddressMap& address_map,
           const Hooks* hooks = nullptr);

    /** Register the cache controller for @p node. */
    void registerController(NodeId node, MsgSink& sink);

    /** Register the directory slice for @p node. */
    void registerDirectory(NodeId node, MsgSink& sink);

    /** Send @p msg from @p from to the directory homing msg.line. */
    void toDirectory(NodeId from, Msg msg);

    /** Send @p msg from @p from to node @p dst's cache controller. */
    void toController(NodeId from, NodeId dst, Msg msg);

    /**
     * Raw timed control message outside the coherence protocol: @p fn
     * runs on @p to's queue after the network latency of a @p bytes
     * message. The thrifty runtime uses this for cross-node barrier
     * bookkeeping (predictor updates, oracle releases), so that state
     * rides the NoC with real cost and point-to-point ordering instead
     * of teleporting. Not observer-visible — the protocol checker
     * tracks coherence messages only.
     */
    template <typename F>
    void
    sendControl(NodeId from, NodeId to, unsigned bytes, F&& fn)
    {
        // tblint-allow(TBL024): sanctioned wrapper (see toDirectory).
        net.send(from, to, bytes, std::forward<F>(fn));
    }

    /** Home node of the line @p a belongs to. */
    NodeId home(Addr a) const { return map.home(a); }

    /** Event-queue stream node @p n's events run as. */
    unsigned streamOf(NodeId n) const { return net.streamOf(n); }

    /**
     * Minimum latency of any coherence message between two distinct
     * nodes. Every fabric hop rides the NoC, so this is exactly the
     * network's minimum cross-node latency. A one-stream run reports
     * it as its lookahead (harness/parallel_sim.hh).
     */
    Tick minMessageLatency() const;

    /** The placement map (for shared/private queries). */
    const AddressMap& addressMap() const { return map; }

    /** The attached observer, or null. */
    ProtocolObserver*
    observer() const
    {
        return hooks_ ? hooks_->check : nullptr;
    }

  private:
    noc::Network& net;
    AddressMap& map;
    std::vector<MsgSink*> controllers;
    std::vector<MsgSink*> directories;
    /** Machine-wide instrumentation seams (may be null). */
    const Hooks* hooks_;
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_FABRIC_HH_
