/**
 * @file
 * Thrifty barrier for message-passing machines.
 *
 * A coordinator-based barrier: every thread sends an ARRIVE message
 * to the coordinator node; when all have checked in, the coordinator
 * measures the actual barrier interval time on its own clock, trains
 * the (replicated) BIT predictor, and broadcasts RELEASE messages
 * carrying the measured BIT — the message-passing analog of
 * publishing the shared BIT variable and flipping the flag.
 *
 * Early threads behave exactly like Section 3 prescribes, with the
 * coherence machinery swapped for NIC machinery:
 *
 *   shared-memory design            message-passing analog
 *   ------------------------------  -------------------------------
 *   spin on the flag line           poll the NIC for RELEASE
 *   flag monitor + invalidation     NIC wake-on-message
 *   wake-up timer in the cache ctl  wake-up timer (same hardware)
 *   published BIT shared variable   BIT payload in RELEASE
 *   per-thread local BRTS chain     identical (local clocks only)
 *
 * Because releases are point-to-point messages, each node observes
 * its own release instant; the BRTS chain absorbs the skew exactly
 * as in the shared-memory design.
 *
 * The runtime is the shared-memory barriers' thrifty::ThriftyRuntime
 * (one runtime, one policy, three wait mechanisms): its predictor,
 * BRTS chain, sleep-state choice, timer aim, cutoff, filter and
 * departure record apply unchanged; only the wait and wake plumbing
 * here is MP-specific. An empty state table yields the conventional
 * polling barrier (the MP baseline). Oracle mode is not modelled.
 */

#ifndef TB_MP_MP_BARRIER_HH_
#define TB_MP_MP_BARRIER_HH_

#include <functional>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "mp/mp_endpoint.hh"
#include "sim/sim_object.hh"
#include "thrifty/thrifty_runtime.hh"

namespace tb {
namespace mp {

/**
 * One static message-passing barrier. The CPU at each node is driven
 * through the same power-state machine as in the shared-memory
 * design; only the wait/wake plumbing differs.
 */
class MpBarrier : public SimObject
{
  public:
    /**
     * @param queue       Simulation event queue.
     * @param pc          Static identifier of this barrier.
     * @param runtime     Shared thrifty runtime (oracle unsupported).
     * @param fabric      Message endpoints (one per node).
     * @param cpus        The per-node CPUs (indexed by NodeId).
     * @param coordinator Node hosting the arrival counter.
     */
    MpBarrier(EventQueue& queue, thrifty::BarrierPc pc,
              thrifty::ThriftyRuntime& runtime, MpFabric& fabric,
              std::vector<cpu::Cpu*> cpus, NodeId coordinator,
              std::string name);

    /**
     * Thread on node @p tid arrives; @p cont runs when its RELEASE
     * message has been received (and the CPU is active).
     */
    void arrive(ThreadId tid, std::function<void()> cont);

    thrifty::BarrierPc pc() const { return barrierPc; }
    std::uint64_t instances() const { return instanceIdx; }

  private:
    /** Message tags. */
    enum : std::uint32_t { kArrive = 1, kRelease = 2 };

    /** Coordinator side: an ARRIVE message landed. */
    void onArrive(const MpMessage& msg);

    /** Waiter side: the RELEASE for this node landed. */
    void onRelease(ThreadId tid, const MpMessage& msg);

    /** Begin waiting (spin or sleep) after checking in. */
    void wait(ThreadId tid);

    /** Waiter is awake and released: bookkeeping + continue. */
    void depart(ThreadId tid);

    thrifty::BarrierPc barrierPc;
    thrifty::ThriftyRuntime& runtime;
    MpFabric& fabric;
    std::vector<cpu::Cpu*> cpus;
    NodeId coord;
    unsigned total;

    // Coordinator state.
    unsigned arrived = 0;
    Tick lastReleaseTick = 0; ///< coordinator-clock BIT anchor
    std::uint64_t instanceIdx = 0;

    // Per-waiter state.
    struct Waiter
    {
        std::function<void()> cont;
        bool released = false;
        bool waiting = false;  ///< checked in, not yet departed
        bool spinning = false; ///< currently in the polling loop
        Tick arrival = 0;
        Tick wakeTick = kTickNever;
        Tick publishedBit = 0;
        std::uint64_t instance = 0;
        EventHandle timer; ///< internal wake-up, canceled on release
    };
    std::vector<Waiter> waiters;
};

} // namespace mp
} // namespace tb

#endif // TB_MP_MP_BARRIER_HH_
