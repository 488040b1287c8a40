/**
 * @file
 * Conventional sense-reversal barrier (Figure 2 of the paper) — the
 * Baseline configuration.
 *
 * Check-in (lock + count increment + conditional reset) is modeled as
 * one atomic fetch-op at the count line's home directory; early
 * threads then spin on the flag line through the coherence protocol.
 * The count and flag live on distinct lines of shared pages, as any
 * competent barrier implementation arranges.
 *
 * Partitioning discipline: the dynamic instance index is home-confined
 * — it advances only inside the check-in fetch-op at the count's home,
 * and each thread reads back the instance it checked into from its own
 * Snap slot. Statistics are charged straight to the experiment's
 * SyncStats.
 */

#ifndef TB_THRIFTY_CONVENTIONAL_BARRIER_HH_
#define TB_THRIFTY_CONVENTIONAL_BARRIER_HH_

#include <functional>
#include <string>
#include <vector>

#include "cpu/thread_context.hh"
#include "mem/memory_system.hh"
#include "sim/sim_object.hh"
#include "thrifty/barrier.hh"

namespace tb {
namespace thrifty {

/** Baseline spin barrier. */
class ConventionalBarrier : public Barrier, public SimObject
{
  public:
    /**
     * @param queue       Simulation event queue.
     * @param pc          Static identifier of this barrier call site.
     * @param num_threads Participants per instance.
     * @param memory      Memory system to allocate barrier data in.
     * @param stats       Experiment-wide synchronization statistics.
     */
    ConventionalBarrier(EventQueue& queue, BarrierPc pc,
                        unsigned num_threads, mem::MemorySystem& memory,
                        SyncStats& stats, std::string name);

    void arrive(cpu::ThreadContext& tc,
                std::function<void()> cont) override;

    BarrierPc pc() const override { return barrierPc; }

    /** Dynamic instances completed so far (stable once drained). */
    std::uint64_t instances() const { return instanceIdx; }

    /** Address of the barrier flag (tests inspect its cache state). */
    Addr flagAddress() const { return flagAddr; }

    /** Address of the check-in counter. */
    Addr countAddress() const { return countAddr; }

  private:
    BarrierPc barrierPc;
    unsigned total;
    mem::Backend& backend;
    SyncStats& syncStats;

    Addr countAddr;
    Addr flagAddr;

    std::vector<std::uint8_t> localSense;
    std::vector<Tick> arrivalTick;
    /** Instance each thread checked into: written at the count's home
     *  inside the fetch-op, read by the owner after the reply. */
    std::vector<std::uint64_t> snapInstance;
    /** Home-confined: advanced only inside the check-in fetch-op. */
    std::uint64_t instanceIdx = 0;
};

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_CONVENTIONAL_BARRIER_HH_
