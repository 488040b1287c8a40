/**
 * @file
 * Low-power processor sleep states (Table 3 of the paper).
 *
 * The paper models three states inspired by the Intel Pentium family:
 *
 *   State          P. savings   Tr. latency   Snoop?   V. reduction?
 *   Sleep1 (Halt)     70.2%        10 us        yes         no
 *   Sleep2            79.2%        15 us        no          no
 *   Sleep3            97.8%        35 us        no          yes
 *
 * Power savings are relative to TDPmax; while asleep the CPU consumes
 * (1 - savings) * TDPmax. Transition latency applies each way (in and
 * out), with power ramping linearly along the transition (Section 4.3).
 * Non-snooping states require the dirty shared lines to be flushed
 * before entry and cannot answer protocol requests from the cache.
 */

#ifndef TB_POWER_SLEEP_STATES_HH_
#define TB_POWER_SLEEP_STATES_HH_

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tb {
namespace power {

/** Descriptor of one low-power sleep state. */
struct SleepState
{
    std::string name;
    /** Fraction of TDPmax consumed while in this state. */
    double powerFraction = 1.0;
    /** Transition latency, applied on entry and again on exit. */
    Tick transitionLatency = 0;
    /** Can the cache answer coherence requests in this state? */
    bool snoopable = true;
    /** Is the supply voltage lowered (reduced leakage)? */
    bool voltageReduced = false;

    bool operator==(const SleepState&) const = default;
};

/**
 * The table the sleep() library call scans (Section 3.1): states
 * ordered from lightest to deepest. "The library procedure scans the
 * table for a best fit, and brings the CPU to that low-power sleep
 * state, or returns immediately if not enough sleep time lies ahead."
 */
class SleepStateTable
{
  public:
    SleepStateTable() = default;

    /** Build from an explicit list (must be ordered light->deep). */
    explicit SleepStateTable(std::vector<SleepState> states);

    /** The paper's three states (Table 3). */
    static SleepStateTable paperDefault();

    /** Only Sleep1/Halt — the Thrifty-Halt configuration. */
    static SleepStateTable haltOnly();

    /** Halt + Sleep2 (no voltage-reduced state) — ablation. */
    static SleepStateTable haltPlusSleep2();

    /**
     * Deepest state whose round-trip transition (in + out) fits within
     * @p predicted_stall. Returns nullptr if none fits — the caller
     * spins conventionally.
     */
    const SleepState* select(Tick predicted_stall) const;

    std::size_t size() const { return table.size(); }
    const SleepState& at(std::size_t i) const { return table.at(i); }
    bool empty() const { return table.empty(); }

    bool operator==(const SleepStateTable&) const = default;

  private:
    std::vector<SleepState> table;
};

} // namespace power
} // namespace tb

#endif // TB_POWER_SLEEP_STATES_HH_
