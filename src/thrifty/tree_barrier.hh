/**
 * @file
 * Combining-tree thrifty barrier.
 *
 * The paper's barrier (like SPLASH-2's) is *central*: one count line
 * and one flag line. At 64 threads the check-in fetch-ops serialize
 * at a single home and the release invalidates 63 sharers of one
 * line — measurable stall that even perfectly balanced applications
 * pay (the Table 2 "floor" our EXPERIMENTS.md documents). The classic
 * remedy is a combining tree (Yew/Tzeng/Lawrie-style): threads check
 * in at small groups; each group's last arriver ascends; the root
 * completer releases downward through per-group flags.
 *
 * This implementation makes the tree *thrifty*: waiting threads — at
 * every level, not just the leaves — run the full Section 3
 * machinery: PC-indexed BIT prediction (one entry for the whole
 * barrier; the interval is a property of the program phase, not of
 * the tree), conditional multi-state sleep with the flag monitor
 * armed on their *own group's* flag line, hybrid wake-up, residual
 * spin, overprediction cutoff. The published BIT propagates down the
 * release wave: each group's releaser copies it from the parent
 * group's BIT line into its own before flipping the group flag,
 * giving every thread its BRTS update exactly as in Section 3.2.1.
 *
 * Group lines are spread round-robin across the machine (they sit on
 * distinct shared pages), so both the check-in fetch-ops and the
 * release invalidations fan out across homes instead of hammering
 * one.
 */

#ifndef TB_THRIFTY_TREE_BARRIER_HH_
#define TB_THRIFTY_TREE_BARRIER_HH_

#include <functional>
#include <string>
#include <vector>

#include "cpu/thread_context.hh"
#include "mem/memory_system.hh"
#include "sim/sim_object.hh"
#include "thrifty/barrier.hh"
#include "thrifty/thrifty_runtime.hh"

namespace tb {
namespace thrifty {

/** One static combining-tree barrier. */
class TreeBarrier : public Barrier, public SimObject
{
  public:
    /**
     * @param queue   Simulation event queue.
     * @param pc      Static identifier of this barrier call site.
     * @param runtime Shared thrifty runtime (oracle mode unsupported).
     * @param memory  Memory system to allocate group lines in.
     * @param radix   Group size (children per tree node), >= 2.
     */
    TreeBarrier(EventQueue& queue, BarrierPc pc,
                ThriftyRuntime& runtime, mem::MemorySystem& memory,
                unsigned radix, std::string name);

    void arrive(cpu::ThreadContext& tc,
                std::function<void()> cont) override;

    BarrierPc pc() const override { return barrierPc; }

    /** Dynamic instances completed so far. */
    std::uint64_t instances() const { return instanceIdx; }

    /** Tree height (levels of groups). */
    unsigned levels() const
    {
        return static_cast<unsigned>(groups.size());
    }

  private:
    struct Group
    {
        Addr count = 0;
        Addr flag = 0;
        Addr bit = 0;
        unsigned size = 0; ///< members checking in at this group
        std::vector<std::uint8_t> sense; ///< per member slot
    };

    Group& groupAt(unsigned level, unsigned index);

    /**
     * Check in at (level, index); slot is the member position.
     * @p released runs once this thread has been released from this
     * level (including releasing its own group on the way down, if it
     * was the ascender), carrying the published BIT.
     */
    void ascend(cpu::ThreadContext& tc, ThreadId tid, unsigned level,
                unsigned index, unsigned slot,
                std::function<void(Tick)> released);

    /**
     * Wait (thrifty: predict, maybe sleep, residual spin) on
     * @p group's flag for value @p want, then continue.
     */
    void thriftyWait(cpu::ThreadContext& tc, ThreadId tid,
                     Group& group, std::uint64_t want,
                     std::function<void()> cont);

    /**
     * Release wave: write @p bit into the group's BIT line, flip its
     * flag, then continue (used by each level's releaser on the way
     * down).
     */
    void releaseGroup(cpu::ThreadContext& tc, Group& group,
                      std::uint64_t want, Tick bit,
                      std::function<void()> cont);

    /** Final per-thread bookkeeping (BRTS, cutoff, stats, trace). */
    void finishThread(ThreadId tid, Tick bit, std::function<void()> cont);

    BarrierPc barrierPc;
    ThriftyRuntime& runtime;
    mem::Backend& backend;
    unsigned radix;
    unsigned total;

    /** groups[level][index]; level 0 holds the threads. */
    std::vector<std::vector<Group>> groups;

    std::vector<Tick> arrivalTick;
    std::vector<Tick> computeTime;
    std::vector<Tick> wakeTick;
    std::vector<std::uint64_t> arrivalInstance;
    std::uint64_t instanceIdx = 0;
};

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_TREE_BARRIER_HH_
