/**
 * @file
 * Whole-machine assembly: Table 1's 64-node CC-NUMA multiprocessor as
 * one object — event queue(s), hypercube network, coherent memory
 * system, one CPU + thread context per node.
 *
 * A machine can be built *partitioned*: its nodes are split into
 * 2^j contiguous clusters, each with its own event queue, driven
 * together by the conservative PDES engine (sim/pdes.hh). Cluster
 * queues are put in keyed mode at construction — before any
 * component schedules — which makes event ordering independent of
 * when a cross-cluster event is merged into its queue. Partitioned
 * machines must be driven by harness::runMachinePdes (run() refuses),
 * and serial-only instruments (protocol checker) refuse to attach to
 * them.
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
     * @param partitions split the nodes into this many contiguous
     *        clusters, each on its own event queue (power of two
     *        dividing the node count; 1 = classic serial machine).
     */
    explicit Machine(const SystemConfig& config, unsigned partitions = 1);

    const SystemConfig& config() const { return cfg; }

    /**
     * The machine's root event queue: the single queue of a serial
     * machine, cluster 0's queue of a partitioned one. Component code
     * must not use this to schedule onto other clusters' nodes.
     */
    EventQueue& eventQueue() { return rootQueue(); }

    noc::Network& network() { return *net; }
    mem::MemorySystem& memory() { return *mem_; }

    cpu::Cpu& cpu(NodeId n) { return *cpus.at(n); }
    cpu::ThreadContext& thread(ThreadId t) { return *threads.at(t); }

    /** All thread contexts, in thread-id order. */
    std::vector<cpu::ThreadContext*> threadPtrs();

    /** Number of clusters this machine was built with (>= 1). */
    unsigned partitions() const { return parts_; }

    /** Cluster @p c's event queue (partitioned machines only). */
    EventQueue& clusterQueue(unsigned c);

    /** Cluster of node @p n (0 on a serial machine). */
    unsigned cluster(NodeId n) const { return binding.nodeCluster[n]; }

    /**
     * The node-to-queue map shared with the network. runMachinePdes
     * installs (and uninstalls) the engine's crossSchedule channel
     * here around a partitioned run.
     */
    noc::PartitionBinding& partitionBinding() { return binding; }

    /**
     * Arm @p checker over the whole machine: event queue, fabric,
     * every controller/directory slice, and the NoC delivery audit.
     * The checker must outlive the machine (destructors cancel pending
     * events through it). Serial machines only — the checker's global
     * bookkeeping assumes one totally-ordered event stream.
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
     * Drain the event queue and close every CPU's accounting
     * interval. Serial machines only — a partitioned machine's queues
     * must be driven together by runMachinePdes.
     * @return the final simulated tick.
     */
    Tick run();

    /**
     * Close every CPU's accounting interval after the queue(s) were
     * drained by an external driver — the conservative PDES runner
     * (harness/parallel_sim.hh) drives the machine through a
     * pdes::Engine and then calls this. run() is exactly drain +
     * finalize().
     * @return the final simulated tick (max over all queues).
     */
    Tick finalize();

    /** Machine-wide energy/time ledger (valid after run()). */
    power::EnergyAccount totalEnergy() const;

    /**
     * Walk every component's statistics (network, DRAM, directories,
     * controllers, CPUs) through @p v, one begin/endGroup bracket per
     * component. Renderers live in src/obs/stat_writers.hh.
     */
    void visitStats(stats::StatVisitor& v);

  private:
    EventQueue& rootQueue() { return parts_ > 1 ? *clusterQs[0] : eq; }

    SystemConfig cfg;
    unsigned parts_ = 1;
    EventQueue eq;
    /** Per-cluster queues (empty on a serial machine). */
    std::vector<std::unique_ptr<EventQueue>> clusterQs;
    /**
     * Machine-wide instrumentation seams. Components hold a pointer to
     * this one struct; attach* methods mutate its fields in place.
     */
    Hooks hooks;
    noc::PartitionBinding binding;
    std::unique_ptr<noc::Network> net;
    std::unique_ptr<mem::MemorySystem> mem_;
    std::vector<std::unique_ptr<cpu::Cpu>> cpus;
    std::vector<std::unique_ptr<cpu::ThreadContext>> threads;
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_MACHINE_HH_
