/**
 * @file
 * Whole-machine assembly: Table 1's 64-node CC-NUMA multiprocessor as
 * one object — event queue(s), hypercube network, coherent memory
 * system, one CPU + thread context per node.
 *
 * A machine can be built *partitioned*: its nodes are split into
 * 2^j contiguous clusters, each with its own event queue
 * (sim/cluster_queues.hh). The only event that crosses clusters is a
 * NoC hop, which lands at least one pin-to-pin latency ahead, so run()
 * drains the cluster queues together on the calling thread with that
 * latency as its lookahead. The cluster count is part of the
 * simulation plan: the serial and partitioned plans order some
 * barrier bookkeeping differently. Serial-only instruments (protocol
 * checker) refuse to attach to a partitioned machine.
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
#include "sim/cluster_queues.hh"
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
    EventQueue& eventQueue() { return queues.queue(0); }

    noc::Network& network() { return *net; }
    mem::MemorySystem& memory() { return *mem_; }

    cpu::Cpu& cpu(NodeId n) { return *cpus.at(n); }
    cpu::ThreadContext& thread(ThreadId t) { return *threads.at(t); }

    /** All thread contexts, in thread-id order. */
    std::vector<cpu::ThreadContext*> threadPtrs();

    /** Number of clusters this machine was built with (>= 1). */
    unsigned partitions() const { return queues.size(); }

    /** Cluster @p c's event queue (cluster 0 is the serial queue). */
    EventQueue& clusterQueue(unsigned c) { return queues.queue(c); }

    /** Cluster of node @p n (0 on a serial machine). */
    unsigned cluster(NodeId n) const { return binding.nodeCluster[n]; }

    /** Cross-cluster NoC hops sent so far (0 on a serial machine). */
    std::uint64_t crossClusterSends() const { return queues.sent(); }

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
     * Drain every cluster queue and close every CPU's accounting
     * interval.
     * @return the final simulated tick (max over all queues).
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
    /** Close every CPU's accounting interval; returns queues.now(). */
    Tick finalize();

    SystemConfig cfg;
    ClusterQueues queues;
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
