/**
 * @file
 * Declarative description of a fault-injection campaign.
 *
 * A FaultSpec names the per-seam fault rates and magnitudes that a
 * FaultInjector realizes against one experiment. Specs round-trip
 * through a compact `key=value[:duration]` string so a failing seed
 * can be reproduced verbatim from a report or CI log:
 *
 *     seed=7,drop-wake=0.3,timer-drift=0.5,link-stall=0.05:2us
 *
 * See docs/ROBUSTNESS.md for the full grammar and fault model.
 */

#ifndef TB_FAULT_FAULT_SPEC_HH_
#define TB_FAULT_FAULT_SPEC_HH_

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace tb::fault {

/** Rates (probability per opportunity) and magnitudes of each fault. */
struct FaultSpec
{
    /** Seed of the injector's private random stream. */
    std::uint64_t seed = 1;

    /** Probability a flag-monitor wake-up notification is swallowed. */
    double dropWake = 0.0;
    /** Probability a wake-up notification is delivered twice. */
    double dupWake = 0.0;
    /** Gap between the original and the duplicated delivery. */
    Tick dupWakeDelay = 5 * kMicrosecond;
    /** Probability a wake-up notification is delayed. */
    double delayWake = 0.0;
    /** Amount a delayed wake-up notification is late by. */
    Tick delayWakeDelay = 20 * kMicrosecond;

    /** Wake-timer drift as a lognormal coefficient of variation of
     *  the programmed countdown (0 = perfect timer). */
    double timerDrift = 0.0;
    /** Probability an armed wake timer fails outright (never fires). */
    double timerFail = 0.0;

    /** Probability a link traversal hits an injected stall. */
    double linkStall = 0.0;
    /** Duration of one injected link stall. */
    Tick linkStallTicks = 2 * kMicrosecond;
    /** Probability a message suffers an end-to-end delay spike. */
    double msgDelay = 0.0;
    /** Size of one injected message-delay spike. */
    Tick msgDelayTicks = 5 * kMicrosecond;

    /** Probability a pre-sleep dirty-shared flush is slowed down. */
    double flushDelay = 0.0;
    /** Extra duration added to a slowed flush. */
    Tick flushDelayTicks = 10 * kMicrosecond;

    /** Probability of an OS-preemption burst at sleep exit. */
    double preempt = 0.0;
    /** Duration of one preemption burst. */
    Tick preemptBurst = 200 * kMicrosecond;

    /** True if any fault rate is non-zero. */
    bool enabled() const;

    /** Canonical spec string (parses back to an identical spec). */
    std::string summary() const;

    /**
     * Parse a spec string. Grammar: comma-separated `key=value` pairs
     * where rate-carrying keys accept an optional `:duration` suffix
     * (e.g.\ `link-stall=0.1:2us`). Durations take ns/us/ms suffixes
     * or raw ticks. `all=<rate>` sets every rate at once. Calls
     * fatal() on unknown keys, malformed numbers, or rates outside
     * [0, 1].
     */
    static FaultSpec parse(const std::string& text);
};

} // namespace tb::fault

#endif // TB_FAULT_FAULT_SPEC_HH_
