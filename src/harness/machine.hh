/**
 * @file
 * Whole-machine assembly: Table 1's 64-node CC-NUMA multiprocessor as
 * one object — event queue, hypercube network, coherent memory
 * system, one CPU + thread context per node.
 *
 * The nodes split into 2^j contiguous blocks, one event-queue stream
 * each (sim/event_queue.hh): ties at equal (tick, priority) break by
 * (origin stream, per-stream order), and each CPU closes its
 * accounting at its own stream's last event (finalize()). The stream
 * count is part of the simulation plan; the paper's artifacts pin
 * defaultPartitions() (harness/experiment.hh).
 */

#ifndef TB_HARNESS_MACHINE_HH_
#define TB_HARNESS_MACHINE_HH_

#include <memory>
#include <vector>

#include "cpu/cpu.hh"
#include "cpu/thread_context.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "power/energy_model.hh"
#include "sim/event_queue.hh"
#include "sim/hooks.hh"

namespace tb {

class FaultHooks;

namespace check { class ProtocolChecker; }

namespace obs { class TraceSink; }

namespace harness {

/** Full-system configuration (defaults reproduce Table 1). */
struct SystemConfig
{
    noc::NetworkConfig noc;       ///< 6-cube (64 nodes) by default
    mem::MemoryConfig memory;     ///< caches/DRAM per Table 1
    power::PowerParams power;     ///< TDPmax-relative power model
    std::uint64_t seed = 1;       ///< workload randomness seed

    unsigned numNodes() const { return noc.nodes(); }

    /** The paper's machine (Table 1): 64 nodes. */
    static SystemConfig paperDefault();

    /** A small machine for tests (2^dimension nodes). */
    static SystemConfig small(unsigned dimension);
};

/** One simulated multiprocessor. */
class Machine
{
  public:
    /**
     * @param streams split the nodes into this many contiguous blocks,
     *        one event-queue stream each (power of two dividing the
     *        node count).
     */
    explicit Machine(const SystemConfig& config, unsigned streams = 1);

    const SystemConfig& config() const { return cfg; }

    /** The machine's event queue. */
    EventQueue& eventQueue() { return queue; }

    noc::Network& network() { return *net; }
    mem::MemorySystem& memory() { return *mem_; }

    cpu::Cpu& cpu(NodeId n) { return *cpus.at(n); }
    cpu::ThreadContext& thread(ThreadId t) { return *threads.at(t); }

    /** All thread contexts, in thread-id order. */
    std::vector<cpu::ThreadContext*> threadPtrs();

    /** Number of event-queue streams. */
    unsigned streams() const { return queue.streams(); }

    /**
     * Number of event queues: always 1. Kept, with clusterQueue(), only
     * because benchmark/tb_bench.cc counts events through them.
     */
    unsigned partitions() const { return 1; }

    /** Event queue @p c (< partitions()): eventQueue(). */
    EventQueue& clusterQueue(unsigned c);

    /**
     * Arm @p checker over the whole machine: event queue, fabric,
     * every controller/directory slice, and the NoC delivery audit.
     * The checker must outlive the machine (destructors cancel pending
     * events through it).
     */
    void attachChecker(check::ProtocolChecker& checker);

    /**
     * Arm fault-injection hooks over the whole machine: network,
     * every cache controller and every CPU. The hooks must outlive
     * the machine.
     */
    void attachFaultHooks(FaultHooks& hooks);

    /**
     * Attach a structured-trace sink to the network and every cache
     * controller (nullptr detaches). The sink must outlive the
     * machine. Event-queue tracing is wired separately through a
     * TraceQueueObserver by the experiment runner, so tracing
     * composes with an attached checker.
     */
    void attachTraceSink(obs::TraceSink* sink);

    /**
     * Drain the event queue and close every CPU's accounting interval.
     * @return the final simulated tick.
     */
    Tick run();

    /** Machine-wide energy/time ledger (valid after run()). */
    power::EnergyAccount totalEnergy() const;

    /**
     * Walk every component's statistics (network, DRAM, directories,
     * controllers, CPUs) through @p v, one begin/endGroup bracket per
     * component. Renderers live in src/obs/stat_writers.hh.
     */
    void visitStats(stats::StatVisitor& v);

  private:
    /**
     * Close every CPU's accounting interval at the tick of its own
     * stream's last event, not at the global end; returns the global
     * end.
     */
    Tick finalize();

    SystemConfig cfg;
    EventQueue queue;
    /**
     * Machine-wide instrumentation seams. Components hold a pointer to
     * this one struct; attach* methods mutate its fields in place.
     */
    Hooks hooks;
    std::unique_ptr<noc::Network> net;
    std::unique_ptr<mem::MemorySystem> mem_;
    std::vector<std::unique_ptr<cpu::Cpu>> cpus;
    std::vector<std::unique_ptr<cpu::ThreadContext>> threads;
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_MACHINE_HH_
