/**
 * @file
 * Public barrier interface and synchronization instrumentation.
 *
 * A Barrier object models one *static* barrier in the program (one
 * call site / PC). Threads call arrive() and are continued past the
 * barrier when every participant has checked in. Conventional and
 * thrifty barriers implement the same interface and may coexist in
 * one program, mirroring the paper's drop-in-macro deployment story.
 */

#ifndef TB_THRIFTY_BARRIER_HH_
#define TB_THRIFTY_BARRIER_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/thread_context.hh"
#include "sim/types.hh"
#include "thrifty/bit_predictor.hh"

namespace tb {
namespace thrifty {

/** Per-departure trace record (drives Figure 3 and debugging). */
struct BarrierTraceEntry
{
    BarrierPc pc = 0;
    std::uint64_t instance = 0; ///< dynamic instance index of this PC
    ThreadId tid = 0;
    Tick bit = 0;     ///< interval time of this instance (published)
    Tick compute = 0; ///< thread's compute time within the interval
    Tick stall = 0;   ///< thread's barrier stall time (bit - compute)
};

/**
 * One completed sleep episode at a thrifty barrier: everything the
 * paper's prediction story turns on (predicted vs. actual BIT, chosen
 * sleep state, flush cost, which mechanism woke the thread and whether
 * the wake was early or late relative to the release). Recorded only
 * for arrivals that actually slept; exported via --stats-json
 * (docs/OBSERVABILITY.md).
 */
struct BarrierEpisode
{
    BarrierPc pc = 0;
    std::uint64_t instance = 0; ///< dynamic instance index of this PC
    ThreadId tid = 0;
    Tick predictedBit = 0; ///< predictor's BIT at sleep time
    Tick actualBit = 0;    ///< published BIT of this instance
    Tick sleepTick = 0;    ///< when the sleep was committed
    Tick wakeTick = 0;     ///< when the CPU was Active again
    Tick releaseTs = 0;    ///< thread-local release timestamp (BRTS')
    Tick flushTicks = 0;   ///< pre-sleep flush cost (0 if snoopable)
    Tick residualTicks = 0; ///< post-wake residual spin
    std::string sleepState; ///< chosen low-power state
    std::string wakeReason; ///< wake source (mem::wakeReasonName)

    /** Woke before the release (internal timer undershot). */
    bool earlyWake() const { return wakeTick < releaseTs; }

    /** Woke after the release (paid transition latency on the tail). */
    bool lateWake() const { return wakeTick > releaseTs; }
};

/** Aggregate synchronization statistics shared by an experiment. */
struct SyncStats
{
    /** Sum over (thread, instance) of time from arrival to release. */
    double totalStallTicks = 0.0;
    /** Dynamic barrier instances completed (all PCs). */
    std::uint64_t instances = 0;
    /** Thread arrivals processed. */
    std::uint64_t arrivals = 0;
    /** Sleep attempts that actually entered a low-power state. */
    std::uint64_t sleeps = 0;
    /** Arrivals that spun (no/insufficient prediction, cutoff, last). */
    std::uint64_t spins = 0;
    /** Times the overprediction cutoff disabled a (pc, thread). */
    std::uint64_t cutoffs = 0;
    /** BIT samples rejected by the underprediction filter. */
    std::uint64_t filteredUpdates = 0;
    /** Ticks spent in residual spin after a sleep's wake-up. */
    double residualSpinTicks = 0.0;
    /** Residual-spin episodes (== sleeps that had to verify the flag). */
    std::uint64_t residualSpins = 0;
    /** Safety-watchdog expirations that forced a wake-up. */
    std::uint64_t watchdogFires = 0;
    /** Residual spins whose budget expired (escalated to full spin). */
    std::uint64_t residualEscalations = 0;
    /** (thread, barrier) pairs placed in quarantine. */
    std::uint64_t quarantines = 0;
    /** Arrivals served by the conventional path due to quarantine. */
    std::uint64_t fallbackEpisodes = 0;

    /** Optional per-departure trace. */
    bool traceEnabled = false;
    std::vector<BarrierTraceEntry> trace;

    /** Optional per-sleep-episode ledger (--stats-json). */
    bool episodesEnabled = false;
    std::vector<BarrierEpisode> episodes;
};

/** Abstract barrier (one static call site). */
class Barrier
{
  public:
    virtual ~Barrier() = default;

    /**
     * Thread @p tc arrives at this barrier; @p cont runs when the
     * thread departs past it.
     */
    virtual void arrive(cpu::ThreadContext& tc,
                        std::function<void()> cont) = 0;

    /** The static identifier (PC) of this barrier. */
    virtual BarrierPc pc() const = 0;
};

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_BARRIER_HH_
