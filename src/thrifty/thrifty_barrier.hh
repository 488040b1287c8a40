/**
 * @file
 * The thrifty barrier (Sections 2-3 of the paper).
 *
 * An early-arriving thread:
 *   1. checks in (atomic count at the home directory),
 *   2. predicts the barrier interval time (PC-indexed), derives its
 *      stall time by subtracting its compute time,
 *   3. scans the sleep-state table for the deepest state whose
 *      round-trip transition fits in the predicted stall,
 *   4. arms the flag monitor in the cache controller (which reads the
 *      flag in, refusing sleep if it already flipped), arms the
 *      wake-up timer (internal/hybrid policy), flushes dirty shared
 *      lines if the state cannot snoop, and transitions down,
 *   5. on wake-up (external invalidation / timer / safety), verifies
 *      the flag in a residual spin, then departs: it loads the
 *      published BIT, advances its local BRTS, and applies the
 *      overprediction cutoff if its wake-up was too late.
 *
 * The last thread's check-in measures the actual BIT and feeds the
 * predictor (unless the underprediction filter rejects the sample);
 * the thread then publishes BIT and flips the flag — whose
 * invalidations are the external wake-up signal.
 *
 * Oracle/Ideal configurations (Section 5.1) replace steps 2-5 with
 * perfect knowledge: early threads park until the release and their
 * dwell is accounted analytically with zero mispredictions (and, for
 * Ideal, zero flush overhead).
 *
 * Partitioning discipline (harness/machine.hh): every piece of
 * cross-thread runtime state — the predictor table, the dynamic
 * instance index, the oracle's early-arriver list — is *home-
 * confined*: it is only touched inside the check-in fetch-op (which
 * the directory executes at the count line's home node) or in control
 * messages delivered to that node. Everything the arriving thread
 * needs back (its prediction, the measured BIT, the instance index)
 * is written into its own per-thread Snap slot at home and read after
 * the check-in reply returns — the reply's network traversal is the
 * ordering edge. Cross-node notifications (oracle release, the
 * overprediction cutoff's predictor disable) ride the NoC as fabric
 * control messages and pay the real latency instead of mutating
 * remote state at a distance.
 */

#ifndef TB_THRIFTY_THRIFTY_BARRIER_HH_
#define TB_THRIFTY_THRIFTY_BARRIER_HH_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cpu/thread_context.hh"
#include "mem/memory_system.hh"
#include "sim/sim_object.hh"
#include "thrifty/barrier.hh"
#include "thrifty/thrifty_runtime.hh"

namespace tb {
namespace thrifty {

/** One static thrifty barrier. */
class ThriftyBarrier : public Barrier, public SimObject
{
  public:
    /**
     * @param queue   Simulation event queue.
     * @param pc      Static identifier of this barrier call site.
     * @param runtime Shared thrifty runtime (predictor, BRTS, config).
     * @param memory  Memory system to allocate barrier data in.
     */
    ThriftyBarrier(EventQueue& queue, BarrierPc pc,
                   ThriftyRuntime& runtime, mem::MemorySystem& memory,
                   std::string name);

    /** Cancels pending safety watchdogs so no dead callback fires. */
    ~ThriftyBarrier() override;

    void arrive(cpu::ThreadContext& tc,
                std::function<void()> cont) override;

    BarrierPc pc() const override { return barrierPc; }

    /** Dynamic instances completed so far (stable once drained). */
    std::uint64_t instances() const { return instanceIdx; }

    /** Address of the barrier flag (tests arm monitors against it). */
    Addr flagAddress() const { return flagAddr; }

  private:
    /**
     * Per-thread snapshot written at the count line's home inside the
     * check-in fetch-op, read by the thread once its check-in reply
     * arrives. The reply's traversal of the network is what orders
     * the home-side write before the requester-side read.
     */
    struct Snap
    {
        std::uint64_t instance = 0; ///< dynamic instance checked into
        std::optional<Tick> prediction; ///< predictor's BIT (early)
        Tick actualBit = 0;         ///< measured BIT (last arrival)
        std::uint8_t last = 0;      ///< this check-in closed the count
    };

    /**
     * Home-side completion of one check-in: snapshot the prediction or
     * (for the last arrival) measure the BIT, train the predictor and
     * advance the instance index. Runs inside the fetch-op at the
     * count's serialization point; @p home_now is the home's tick.
     */
    void homeCheckIn(ThreadId tid, std::uint64_t old, Tick brts_tid,
                     Tick home_now);

    /** Path of the last thread to check in (requester side). */
    void lastArrival(cpu::ThreadContext& tc, ThreadId tid,
                     std::uint64_t want, std::function<void()> cont);

    /** Path of an early thread (requester side). */
    void earlyArrival(cpu::ThreadContext& tc, ThreadId tid,
                      std::uint64_t want, std::function<void()> cont);

    /** Early thread after the flag flipped: bookkeeping + continue. */
    void depart(cpu::ThreadContext& tc, ThreadId tid,
                std::function<void()> cont);

    /** Oracle mode: park until the release notification. */
    void park(cpu::ThreadContext& tc, ThreadId tid,
              std::function<void()> cont);

    /** Oracle mode: handle the release notification at @p tid's node. */
    void oracleRelease(ThreadId tid, Tick actual_bit);

    /** Oracle mode: analytic energy accounting of one parked dwell. */
    void accrueOracleDwell(cpu::Cpu& cpu, Tick stall);

    BarrierPc barrierPc;
    ThriftyRuntime& runtime;
    mem::Backend& backend;
    mem::Fabric& fab;

    Addr countAddr;
    Addr flagAddr;
    Addr bitAddr;
    /** Home node of the count line — the serialization point that all
     *  home-confined state below belongs to. */
    NodeId homeNode;

    unsigned total;
    std::vector<std::uint8_t> localSense;
    std::vector<Tick> arrivalTick;
    std::vector<Tick> computeTime;  ///< arrival - BRTS at arrival
    std::vector<Tick> wakeTick;     ///< kTickNever if the thread spun
    std::vector<Snap> snap;         ///< written at home, read by owner

    // Home-confined: touched only inside the check-in fetch-op or in
    // control messages delivered to homeNode.
    std::uint64_t instanceIdx = 0;
    std::vector<ThreadId> arrivedEarly; ///< oracle: parked check-ins

    // Requester-confined oracle parking state, per thread.
    std::vector<cpu::ThreadContext*> parkedTc;
    std::vector<std::function<void()>> parkedCont;
    /** Release notification that overtook the thread's own check-in
     *  reply; park() departs immediately when set. */
    std::vector<std::uint8_t> releaseReady;
    std::vector<Tick> releaseBit;

    /** Per-thread safety watchdog bounding the current sleep episode. */
    std::vector<EventHandle> watchdog;
    /** Whether the thread's current episode hit a degradation event. */
    std::vector<std::uint8_t> episodeFaulty;
    /** In-flight episode-ledger record per thread (episodeOpen set
     *  between sleep commit and departure). */
    std::vector<BarrierEpisode> pendingEpisode;
    std::vector<std::uint8_t> episodeOpen;
};

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_THRIFTY_BARRIER_HH_
