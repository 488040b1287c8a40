/**
 * @file
 * Partitioned single-simulation runner: runs one Machine under the
 * conservative PDES engine (sim/pdes.hh). --sim-partitions P in
 * thrifty_sim and the campaign CLI selects the cluster count.
 *
 * A partitioned Machine (harness/machine.hh) splits its nodes into
 * contiguous power-of-two clusters, one event queue each; this driver
 * wraps every cluster queue as a *managed* engine partition and
 * connects hypercube-adjacent cluster pairs with the NoC's pin-to-pin
 * hop latency as the conservative lookahead. That bound is real: the
 * network routes per hop, and a hop leaving cluster A cannot land in
 * cluster B sooner than one pin-to-pin traversal after it was issued
 * (noc/network.cc, Network::forward). The machine's PartitionBinding
 * gets the engine's channel send installed as crossSchedule for the
 * duration of the run — the only legal way an event crosses clusters.
 *
 * The engine drains every cluster on the calling thread. Cluster
 * queues run keyed (cluster, local order) event ordering, so the
 * result is a pure function of the simulation. The partition count
 * itself IS part of the plan: the serial (1-partition) and
 * partitioned plans order some barrier bookkeeping differently
 * (docs/PERFORMANCE.md), so their artifacts are never compared with
 * each other.
 */

#ifndef TB_HARNESS_PARALLEL_SIM_HH_
#define TB_HARNESS_PARALLEL_SIM_HH_

#include "sim/pdes.hh"
#include "sim/types.hh"

namespace tb {
namespace harness {

class Machine;

/** Outcome of driving one Machine under the PDES engine. */
struct PdesRunReport
{
    Tick finalTick = 0;
    /** Always 1: the engine runs on the calling thread. Kept only
     *  because the benchmark harness (benchmark/tb_bench.cc) reports
     *  it as pdes.threads. */
    unsigned threads = 1;
    /** Engine partitions the machine ran as (1 = serial plan). */
    unsigned partitions = 1;
    /** The conservative lookahead of the run's channels: the NoC
     *  pin-to-pin hop latency for a partitioned machine, the fabric's
     *  minimum end-to-end message latency for the single-partition
     *  fallback. Recorded so diagnostics state the real number. */
    Tick modelLookahead = 0;
    /** Engine counters (empty for the serial plan, which runs
     *  without the engine). */
    pdes::EngineStats engine;
};

/**
 * Drain @p machine's event queue(s) and close its accounting
 * intervals. A serial (1-partition) machine is exactly
 * Machine::run(); a partitioned machine's cluster queues are drained
 * together by the engine's sequential executor. @p threads is
 * ignored: it stays only because benchmark/tb_bench.cc passes it.
 */
PdesRunReport runMachinePdes(Machine& machine, unsigned threads);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_PARALLEL_SIM_HH_
