/**
 * @file
 * Configuration of the thrifty barrier mechanism.
 *
 * The five evaluated configurations of Section 5.1 are expressible as
 * presets of this structure (plus ConventionalBarrier for Baseline):
 *
 *   Baseline      - ConventionalBarrier
 *   Thrifty-Halt  - states = {Halt}, hybrid wake-up
 *   Oracle-Halt   - states = {Halt}, oracle (perfect BIT prediction)
 *   Thrifty       - states = {Halt, Sleep2, Sleep3}, hybrid wake-up
 *   Ideal         - all states, oracle, no flush overhead
 */

#ifndef TB_THRIFTY_THRIFTY_CONFIG_HH_
#define TB_THRIFTY_THRIFTY_CONFIG_HH_

#include <string>

#include "power/sleep_states.hh"
#include "sim/types.hh"

namespace tb {
namespace thrifty {

/** How a dormant CPU is woken (Section 3.3). */
enum class WakeupPolicy : std::uint8_t
{
    External, ///< coherence invalidation of the flag line only
    Internal, ///< predicted-stall countdown timer only
    Hybrid,   ///< both armed; first to fire cancels the other
};

/** Human-readable policy name. */
const char* wakeupPolicyName(WakeupPolicy p);

/**
 * Graceful-degradation guard rails for faulty machines (see
 * docs/ROBUSTNESS.md). Disabled by default so a healthy machine's
 * behavior — and the paper's reproduced numbers — are untouched; the
 * harness enables them automatically when fault injection is active.
 *
 * The degradation ladder per sleep episode:
 *   sleep (watchdog-bounded) -> bounded residual spin -> full spin
 *   with periodic protocol re-checks -> per-(thread, barrier)
 *   quarantine to the conventional sense-reversal path.
 */
struct HardeningConfig
{
    /** Master switch for all guard rails below. */
    bool enabled = false;

    /**
     * Safety watchdog bounding every sleep episode: fires at
     * max(watchdogFactor * predicted stall, watchdogMin) after sleep
     * entry and forces a wake-up if nothing else did.
     */
    double watchdogFactor = 8.0;
    Tick watchdogMin = 500 * kMicrosecond;

    /**
     * Budget for the post-wake residual spin. When it expires the
     * spin escalates: the flag is re-read through the coherence
     * protocol every recheckInterval instead of trusting a (possibly
     * lost) invalidation to end a cache-hit loop.
     */
    Tick residualSpinBudget = 100 * kMicrosecond;
    Tick recheckInterval = 25 * kMicrosecond;

    /**
     * After this many consecutive faulty sleep episodes, a
     * (thread, barrier) pair is quarantined to the conventional spin
     * path for quarantineBase * 2^k instances (k grows per
     * quarantine, capped by quarantineMaxExponent), then re-enabled.
     */
    unsigned quarantineThreshold = 3;
    unsigned quarantineBase = 4;
    unsigned quarantineMaxExponent = 6;

    bool operator==(const HardeningConfig&) const = default;
};

/** Tunables of the thrifty barrier. */
struct ThriftyConfig
{
    /** Available low-power sleep states; empty means "always spin". */
    power::SleepStateTable states = power::SleepStateTable::paperDefault();

    /** Wake-up mechanism. */
    WakeupPolicy wakeup = WakeupPolicy::Hybrid;

    /**
     * Overprediction threshold (Section 3.3.3): if a thread's
     * wake-up lands later than this fraction of BIT past the release,
     * prediction is disabled for that (thread, barrier). Negative
     * disables the cutoff (the Ocean ablation). Paper default: 10%.
     */
    double overpredictionThreshold = 0.10;

    /**
     * Underprediction filter (Section 3.4.2): a measured BIT more
     * than this factor above the stored value (context switch, I/O)
     * does not update the predictor. <= 0 disables the filter.
     */
    double underpredictionFilter = 10.0;

    /** Predictor family: "last-value" (paper) or "moving-average". */
    std::string predictorKind = "last-value";

    /**
     * Oracle mode: BIT prediction is perfect and wake-up is exactly
     * on time (Oracle-Halt / Ideal configurations). Implemented by
     * parking early threads and accounting their dwell analytically.
     */
    bool oracle = false;

    /** Ideal mode: oracle + no flushing overhead for any sleep state. */
    bool ideal = false;

    /** Graceful-degradation guard rails (off on healthy machines). */
    HardeningConfig hardening;

    /** Field-wise equality: two equal configs run identically. */
    bool operator==(const ThriftyConfig&) const = default;

    // ---- presets matching Section 5.1 -------------------------------

    static ThriftyConfig thrifty();    ///< full mechanism (T)
    static ThriftyConfig thriftyHalt(); ///< Halt only (H)
    static ThriftyConfig oracleHalt(); ///< perfect-prediction Halt (O)
    static ThriftyConfig idealConfig(); ///< theoretical bound (I)
};

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_THRIFTY_CONFIG_HH_
