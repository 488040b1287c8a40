/**
 * @file
 * Per-application thrifty-barrier runtime state.
 *
 * The BIT predictor table and the per-thread barrier release
 * timestamps (BRTS) span *all* barriers of a program: BIT is the time
 * between consecutive barrier releases regardless of which static
 * barrier they belong to, and each thread's BRTS advances at every
 * release (Section 3.2.1). All ThriftyBarrier instances of one
 * program therefore share one runtime.
 */

#ifndef TB_THRIFTY_THRIFTY_RUNTIME_HH_
#define TB_THRIFTY_THRIFTY_RUNTIME_HH_

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "thrifty/barrier.hh"
#include "thrifty/bit_predictor.hh"
#include "thrifty/thrifty_config.hh"

namespace tb {

namespace obs {
class TraceSink;
} // namespace obs

namespace thrifty {

/** Shared state of all thrifty barriers in one program. */
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
