/**
 * @file
 * Driver that expands an AppProfile into per-thread activity.
 *
 * Every thread repeatedly: computes for a drawn busy time (split into
 * chunks interleaved with coherent memory accesses against shared and
 * private regions), then arrives at the phase's barrier. All draws are
 * deterministic functions of (seed, barrier PC, instance, thread), so
 * two configurations run *identical* workloads — the paper's
 * apples-to-apples comparison across Baseline/Thrifty/... depends on
 * this.
 */

#ifndef TB_WORKLOADS_SYNTHETIC_PROGRAM_HH_
#define TB_WORKLOADS_SYNTHETIC_PROGRAM_HH_

#include <cstdint>
#include <vector>

#include "cpu/thread_context.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "thrifty/barrier.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace workloads {

/** Supplies the Barrier object backing each static barrier PC. */
class BarrierProvider
{
  public:
    virtual ~BarrierProvider() = default;

    /** The barrier for call site @p pc (created on first use). */
    virtual thrifty::Barrier& barrierFor(thrifty::BarrierPc pc) = 0;
};

/** One running instance of a synthetic application. */
class SyntheticProgram
{
  public:
    SyntheticProgram(EventQueue& queue, mem::MemorySystem& memory,
                     std::vector<cpu::ThreadContext*> threads,
                     const AppProfile& profile,
                     BarrierProvider& barriers, std::uint64_t seed);

    /** Kick off every thread at the current tick. */
    void start();

    /** True once every thread has finished its program. */
    bool finished() const;

    /** Tick at which the last thread finished (finished() first). */
    Tick finishTick() const;

    /** The profile this program was built from. */
    const AppProfile& profile() const { return app; }

    /** Program step thread @p tid is currently executing (or, once
     *  finished, one past the last). For tests and diagnostics. */
    std::size_t
    currentStep(ThreadId tid) const
    {
        return cursors.at(tid).step;
    }

    /** Total steps (barrier arrivals) in each thread's program. */
    std::size_t totalSteps() const { return sequence.size(); }

  private:
    struct Step
    {
        const PhaseSpec* spec;
        std::uint64_t instance; ///< dynamic instance index of spec->pc
    };

    /**
     * Where one thread is in its program. The continuations of its
     * compute chunks and accesses capture only (this, tid) and read
     * the rest from here, so they fit std::function's inline buffer.
     */
    struct Cursor
    {
        std::size_t step = 0;      ///< index into sequence
        Tick chunk = 0;            ///< compute ticks between accesses
        unsigned accessesLeft = 0; ///< accesses still to issue
        /** The phase's access stream. Every access draws from a copy
         *  of it, so all accesses of a phase replay the same draw: the
         *  frozen-stream defect ROADMAP.md describes, kept bit for bit
         *  until its fix re-pins the artifacts. */
        Random phase;
    };

    /** Deterministic sub-stream for a (context-dependent) key. */
    Random streamFor(std::uint64_t a, std::uint64_t b,
                     std::uint64_t c) const;

    /** Interval factor common to all threads of one instance. */
    double instanceFactor(const PhaseSpec& spec,
                          std::uint64_t instance) const;

    /** Busy time drawn for (thread, instance) of a phase. */
    Tick drawBusy(ThreadId tid, const Step& step) const;

    void runStep(ThreadId tid, std::size_t step_idx);
    /** Compute one chunk of the current phase, then continue. */
    void runChunk(ThreadId tid);
    /** After a chunk: issue the next access or arrive at the barrier. */
    void chunkDone(ThreadId tid);
    void issueAccess(ThreadId tid);
    /** After an access: count it and compute the next chunk. */
    void accessDone(ThreadId tid);
    void threadFinished(ThreadId tid);

    EventQueue& eq;
    mem::MemorySystem& memory;
    std::vector<cpu::ThreadContext*> tcs;
    AppProfile app;
    BarrierProvider& provider;
    std::uint64_t seed;

    std::vector<Step> sequence; ///< prologue + loop x iterations
    Addr sharedBase = 0;
    std::vector<Addr> privateBase;
    /** Per-thread finish ticks (thread-local clocks; no shared state). */
    std::vector<Tick> finishTick_;
    std::vector<Cursor> cursors;
};

} // namespace workloads
} // namespace tb

#endif // TB_WORKLOADS_SYNTHETIC_PROGRAM_HH_
