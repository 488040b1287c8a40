/**
 * @file
 * Per-application thrifty-barrier runtime state and the sleep()
 * policy.
 *
 * The BIT predictor table and the per-thread barrier release
 * timestamps (BRTS) span *all* barriers of a program: BIT is the time
 * between consecutive barrier releases regardless of which static
 * barrier they belong to, and each thread's BRTS advances at every
 * release (Section 3.2.1). Every thrifty barrier of one program —
 * central (ThriftyBarrier), combining tree (TreeBarrier) or message
 * passing (mp::MpBarrier) — therefore shares one runtime.
 *
 * The runtime is also the one home of the policy rules of Sections
 * 3.2-3.4: record a measured interval (underprediction filter), choose
 * a sleep state, aim the wake-up timer, apply the overprediction
 * cutoff and record a departure. The barriers differ only in how a
 * thread waits and is woken (one runtime, one policy, three wait
 * mechanisms).
 */

#ifndef TB_THRIFTY_THRIFTY_RUNTIME_HH_
#define TB_THRIFTY_THRIFTY_RUNTIME_HH_

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cpu/thread_context.hh"
#include "power/sleep_states.hh"
#include "sim/types.hh"
#include "thrifty/barrier.hh"
#include "thrifty/bit_predictor.hh"
#include "thrifty/thrifty_config.hh"

namespace tb {

namespace obs {
class TraceSink;
} // namespace obs

namespace thrifty {

/**
 * Delay to program into the wake-up timer so that the upward
 * transition out of @p state completes right at @p predicted_wake
 * (Section 3.3.2): max(predicted_wake - now - transition latency, 0).
 */
inline Tick
wakeTimerDelay(Tick predicted_wake, Tick now,
               const power::SleepState& state)
{
    const Tick lead = state.transitionLatency;
    return predicted_wake > now + lead ? predicted_wake - now - lead
                                       : 0;
}

/** Outcome of the sleep() call: a state to enter, or spin. */
struct SleepChoice
{
    const power::SleepState* state = nullptr; ///< null: spin
    Tick predictedWake = 0; ///< BRTS + predicted BIT (if predicted)
};

/** Shared state and policy of all thrifty barriers in one program. */
class ThriftyRuntime
{
  public:
    /**
     * @param num_threads Thread count of the program.
     * @param config      Mechanism configuration.
     * @param stats       Experiment-wide synchronization statistics.
     */
    ThriftyRuntime(unsigned num_threads, const ThriftyConfig& config,
                   SyncStats& stats);

    unsigned numThreads() const { return threads; }
    const ThriftyConfig& config() const { return cfg; }
    /**
     * The shared BIT predictor. The predictor table is
     * *home-confined*: every read or write of barrier @p pc's entry
     * executes in an event of pc's count-line home node, as that
     * node's stream (ThriftyBarrier routes all predictor traffic
     * through the check-in fetch-op and control messages to home).
     * A PC with no entry yet reads as a default one (no history,
     * nothing disabled).
     */
    BitPredictor& predictor() { return *pred; }
    const BitPredictor& predictor() const { return *pred; }

    /** The experiment's synchronization statistics. Every barrier
     *  of the program charges them directly. */
    SyncStats& stats() { return syncStats; }

    /** Attach a structured-trace sink shared by all barriers of the
     *  program (nullptr detaches). */
    void setTraceSink(obs::TraceSink* sink) { trace_ = sink; }

    /** The attached trace sink, or null. */
    obs::TraceSink* traceSink() const { return trace_; }

    /** Thread @p tid's local release timestamp of the last barrier. */
    Tick brts(ThreadId tid) const { return brts_.at(tid); }

    /** Advance @p tid's release timestamp by a published BIT. */
    void
    advanceBrts(ThreadId tid, Tick bit)
    {
        brts_.at(tid) += bit;
    }

    // ------------------------------------------------------------------
    // The sleep() policy (Sections 3.2-3.4), shared by every barrier.
    // ------------------------------------------------------------------

    /**
     * The last arrival measured @p actual_bit for barrier @p pc: train
     * the predictor, unless the sample is inordinately large against
     * the stored BIT (context switch / I/O filter, Section 3.4.2), and
     * count one completed instance.
     */
    void
    recordInterval(BarrierPc pc, Tick actual_bit)
    {
        const std::optional<Tick> prev =
            cfg.underpredictionFilter > 0.0 ? pred->stored(pc)
                                            : std::nullopt;
        if (prev && static_cast<double>(actual_bit) >
                        cfg.underpredictionFilter *
                            static_cast<double>(*prev))
            ++syncStats.filteredUpdates;
        else
            pred->update(pc, actual_bit);
        ++syncStats.instances;
    }

    /**
     * The sleep() call of an early thread (Section 3.3): estimated
     * wake-up = BRTS + @p bit, stall = wake-up - @p now, and the
     * deepest state whose round trip fits in the stall. No prediction
     * (warm-up, cutoff in force) or no fitting state means spin.
     */
    SleepChoice
    chooseSleep(std::optional<Tick> bit, ThreadId tid, Tick now) const
    {
        SleepChoice c;
        if (bit) {
            c.predictedWake = brts(tid) + *bit;
            if (c.predictedWake > now)
                c.state = cfg.states.select(c.predictedWake - now);
        }
        return c;
    }

    /**
     * Commit @p c's wake-up policy on @p tc's cache controller, whose
     * flag monitor is armed: the timer (internal/hybrid) aims at the
     * predicted wake; internal-only drops the monitor.
     */
    void
    armWakeup(cpu::ThreadContext& tc, const SleepChoice& c) const
    {
        if (cfg.wakeup != WakeupPolicy::External)
            tc.controller().armWakeTimer(
                wakeTimerDelay(c.predictedWake, tc.curTick(), *c.state));
        if (cfg.wakeup == WakeupPolicy::Internal)
            tc.controller().disarmFlagMonitor();
    }

    /**
     * Overprediction cutoff (Section 3.3.3): true, and one cutoff
     * counted, if a thread that woke at @p wake (kTickNever: it never
     * slept) overshot its release @p release_ts by more than the
     * threshold times @p bit. The caller disables the prediction.
     */
    bool
    overpredicted(Tick wake, Tick release_ts, Tick bit)
    {
        if (wake == kTickNever || cfg.overpredictionThreshold < 0.0 ||
            wake <= release_ts)
            return false;
        if (static_cast<double>(wake - release_ts) <=
            cfg.overpredictionThreshold * static_cast<double>(bit))
            return false;
        ++syncStats.cutoffs;
        return true;
    }

    /**
     * Charge one departure: @p waited ticks of barrier stall and, if
     * tracing, the (compute, stall) split of interval @p bit, where
     * @p compute is clamped to the interval.
     */
    void
    recordDeparture(BarrierPc pc, std::uint64_t instance, ThreadId tid,
                    Tick bit, Tick compute, Tick waited)
    {
        syncStats.totalStallTicks += static_cast<double>(waited);
        if (!syncStats.traceEnabled)
            return;
        BarrierTraceEntry e;
        e.pc = pc;
        e.instance = instance;
        e.tid = tid;
        e.bit = bit;
        e.compute = std::min(compute, bit);
        e.stall = bit - e.compute;
        syncStats.trace.push_back(e);
    }

    // ------------------------------------------------------------------
    // Quarantine (graceful degradation, docs/ROBUSTNESS.md).
    //
    // A (thread, barrier) pair that keeps hitting faulty sleep
    // episodes — watchdog fires, residual-spin escalations — is sent
    // back to the conventional spin path for a while, with the
    // penalty doubling on each repeat (exponential backoff) so a
    // persistently broken wake-up path converges to plain spinning.
    // ------------------------------------------------------------------

    /**
     * True if (tid, pc) is currently quarantined; consumes one
     * quarantined barrier instance and counts a fallback episode.
     */
    bool
    quarantined(ThreadId tid, BarrierPc pc)
    {
        auto it = quarantine_.find({tid, pc});
        if (it == quarantine_.end() || it->second.remaining == 0)
            return false;
        --it->second.remaining;
        ++syncStats.fallbackEpisodes;
        return true;
    }

    /** Record the outcome of one completed sleep episode of (tid, pc). */
    void
    noteSleepEpisode(ThreadId tid, BarrierPc pc, bool faulty)
    {
        const HardeningConfig& h = cfg.hardening;
        QuarantineState& q = quarantine_[{tid, pc}];
        if (!faulty) {
            q.faultyStreak = 0;
            if (q.exponent > 0)
                --q.exponent; // healthy episodes walk the backoff down
            return;
        }
        if (++q.faultyStreak < h.quarantineThreshold)
            return;
        q.faultyStreak = 0;
        q.remaining = h.quarantineBase
                      << std::min(q.exponent, h.quarantineMaxExponent);
        ++q.exponent;
        ++syncStats.quarantines;
    }

    /** Number of (thread, barrier) pairs currently quarantined. */
    unsigned
    quarantinedPairs() const
    {
        unsigned n = 0;
        for (const auto& [key, q] : quarantine_)
            n += q.remaining > 0 ? 1 : 0;
        return n;
    }

  private:
    struct QuarantineState
    {
        unsigned faultyStreak = 0; ///< consecutive faulty episodes
        unsigned remaining = 0;    ///< instances left on conventional path
        unsigned exponent = 0;     ///< backoff doubling count
    };

    unsigned threads;
    ThriftyConfig cfg;
    std::unique_ptr<BitPredictor> pred;
    SyncStats& syncStats;
    obs::TraceSink* trace_ = nullptr;
    std::vector<Tick> brts_;
    std::map<std::pair<ThreadId, BarrierPc>, QuarantineState> quarantine_;
};

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_THRIFTY_RUNTIME_HH_
