/**
 * @file
 * Processor power-state machine with integrated energy accounting.
 *
 * States:
 *
 *   Active -- beginSpin/endSpin --> Spinning
 *   Active|Spinning -- enterSleep --> [Flushing] -> TransitionDown
 *       -> Sleeping -- wake trigger --> TransitionUp -> Active
 *
 * Wake triggers arrive through the cache controller (external flag
 * invalidation, internal timer, buffer overflow, intervention safety
 * wake) and are funneled into wakeRequest(), which is safe to call in
 * any state: a wake during Flushing aborts the sleep attempt, a wake
 * during TransitionDown completes the downward transition first (a PLL
 * relock cannot be aborted) and immediately turns around.
 *
 * Every state dwell is integrated into the owning EnergyAccount under
 * the paper's four buckets; transition power ramps linearly between
 * the endpoint powers, i.e.\ it accrues at their average.
 */

#ifndef TB_CPU_CPU_HH_
#define TB_CPU_CPU_HH_

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache_controller.hh"
#include "power/energy_model.hh"
#include "power/sleep_states.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tb {
namespace cpu {

/** Processor power/activity state. */
enum class CpuState : std::uint8_t
{
    Active,
    Spinning,
    Flushing,       ///< writing back dirty shared lines pre-deep-sleep
    TransitionDown,
    Sleeping,
    TransitionUp,
};

/** Human-readable CPU state name. */
const char* cpuStateName(CpuState s);

/** One processor's power-state machine. */
class Cpu : public SimObject
{
  public:
    /** Callback invoked when the CPU is Active again after a sleep
     *  episode (exactly once per episode). */
    using OnWake = std::function<void(mem::WakeReason)>;

    Cpu(EventQueue& queue, NodeId node, mem::CacheController& controller,
        const power::PowerParams& params, std::string name);

    NodeId node() const { return nodeId; }
    CpuState state() const { return cur; }
    const power::PowerParams& powerParams() const { return params; }

    /** The sleep state of the current/most recent episode. */
    const power::SleepState* sleepState() const { return episode; }

    /**
     * Ticks the current/most recent sleep episode spent flushing dirty
     * shared lines before transitioning down (0 for snoopable states,
     * which skip the flush). Feeds the barrier episode ledger.
     */
    Tick episodeFlushTicks() const { return flushTicks; }

    // ------------------------------------------------------------------
    // Activity notifications (from the software model).
    // ------------------------------------------------------------------

    /** The thread starts spinning at a barrier. */
    void beginSpin();

    /** The thread leaves the spinloop. */
    void endSpin();

    // ------------------------------------------------------------------
    // Sleep orchestration.
    // ------------------------------------------------------------------

    /**
     * Enter low-power state @p s: flush dirty shared lines first when
     * @p s cannot snoop, then transition down. The CPU stays down
     * until a wake trigger arrives through the controller; when it is
     * Active again, @p on_wake runs.
     *
     * Precondition: state is Active or Spinning.
     */
    void enterSleep(const power::SleepState& s, OnWake on_wake);

    /**
     * Wake trigger (installed as the controller's wake handler).
     * Idempotent; callable in any state.
     * @return the tick at which the CPU (and its cache) is Active.
     */
    Tick wakeRequest(mem::WakeReason reason);

    // ------------------------------------------------------------------
    // Accounting.
    // ------------------------------------------------------------------

    /** Close the open accounting interval at @p end, the tick of
     *  this CPU's last event (call at end of simulation). */
    void finalize(Tick end);

    /**
     * Pause the state-machine energy integration (the oracle barrier
     * configurations account the parked interval analytically instead;
     * see ThriftyBarrier). Idempotent.
     */
    void suspendAccounting();

    /** Resume state-machine energy integration from the current tick. */
    void resumeAccounting();

    /** Directly accrue @p duration at @p watts into @p bucket (oracle
     *  accounting). */
    void accrueManual(power::Bucket b, Tick duration, double watts);

    /** Energy/time ledger (finalize() first for exact totals). */
    const power::EnergyAccount& energy() const { return account; }

    /** Attach fault-injection hooks (nullptr detaches). */
    void setFaultHooks(FaultHooks* hooks) { faults = hooks; }

    const stats::StatGroup& statistics() const { return statsGroup; }

  private:
    /** Accrue the open interval and switch to @p next. */
    void switchTo(CpuState next);

    /** Power drawn in @p s given the current episode's sleep state. */
    double powerOf(CpuState s) const;

    /** Bucket that @p s accrues into. */
    static power::Bucket bucketOf(CpuState s);

    void startTransitionDown();
    void startTransitionUp();
    void becomeActive();

    /** The `wakes.<reason>` counter, created on first use. */
    stats::Scalar& wakeCounter(mem::WakeReason reason);

    /** The `sleepEntries.<state>` counter, created on first use. */
    stats::Scalar& sleepEntryCounter(const power::SleepState& s);

    NodeId nodeId;
    mem::CacheController& ctrl;
    power::PowerParams params;

    CpuState cur = CpuState::Active;
    Tick lastEdge = 0;
    bool accountingSuspended = false;
    power::EnergyAccount account;

    const power::SleepState* episode = nullptr;
    OnWake onWake;
    mem::WakeReason wakeReason = mem::WakeReason::Timer;
    bool wakePending = false;  ///< wake arrived during down transition
    bool abortEntry = false;   ///< wake arrived during flush
    Tick transitionEnd = 0;    ///< end tick of the in-flight transition
    Tick flushTicks = 0;       ///< flush cost of the current episode
    /** Optional fault injection (OS-preemption bursts at wake-up). */
    FaultHooks* faults = nullptr;

    stats::StatGroup statsGroup;
    /** Counters resolved by wakeCounter(), by WakeReason value; the
     *  group's std::map storage keeps them at a stable address. */
    std::array<stats::Scalar*, mem::kNumWakeReasons> wakeCounters{};
    /** Counters resolved by sleepEntryCounter(), by state name. */
    std::vector<std::pair<std::string, stats::Scalar*>> sleepCounters;
};

} // namespace cpu
} // namespace tb

#endif // TB_CPU_CPU_HH_
