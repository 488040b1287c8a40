/**
 * @file
 * Multi-threaded single-simulation driver: runs one Machine under the
 * conservative PDES engine (sim/pdes.hh), selected by --sim-threads N
 * (workers) and --sim-partitions P (clusters) in thrifty_sim and the
 * campaign CLI.
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
 * Contract: within one partition plan, any worker thread count
 * produces byte-identical stats, traces and campaign artifacts — the
 * per-simulation analogue of what --jobs guarantees per sweep point.
 * Cluster queues run keyed (cluster, local order) event ordering, so
 * merge timing and host scheduling cannot reorder anything. The CI
 * pdes-determinism job diffs partitioned-machine artifacts at
 * 1/2/3/4/8 threads. The partition count itself IS part of the plan:
 * the serial (1-partition) and partitioned plans order some barrier
 * bookkeeping differently (docs/PERFORMANCE.md), so artifacts are
 * compared across threads, never across partition counts.
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
    /** Worker threads actually used. */
    unsigned threads = 1;
    /** Engine partitions the machine ran as (1 = serial plan). */
    unsigned partitions = 1;
    /** The conservative lookahead of the run's channels: the NoC
     *  pin-to-pin hop latency for a partitioned machine, the fabric's
     *  minimum end-to-end message latency for the single-partition
     *  fallback. Recorded so diagnostics state the real number. */
    Tick modelLookahead = 0;
    /** Engine counters (empty when threads == 1 ran serially). */
    pdes::EngineStats engine;
};

/**
 * Drain @p machine's event queue(s) with @p threads workers and close
 * its accounting intervals. A serial (1-partition) machine with
 * threads <= 1 is exactly Machine::run(); a partitioned machine is
 * always engine-driven — its per-cluster queues must be drained
 * together, by the sequential executor at one worker and by window
 * rounds at two or more. Results are byte-identical at any thread
 * count (see file comment).
 */
PdesRunReport runMachinePdes(Machine& machine, unsigned threads);

/**
 * Strict --sim-threads option scan, same contract as
 * ParallelCampaignRunner::parseJobsArg: accepts `--sim-threads N` and
 * `--sim-threads=N`, rejects anything that is not one whole integer
 * >= 1 with a usage message and exit 2, and returns 1 when the option
 * is absent.
 */
unsigned parseSimThreadsArg(int argc, char** argv);

/**
 * Strict --sim-partitions option scan, same parsing contract as
 * parseSimThreadsArg (N >= 1, exit 2 on malformed input). Returns 0
 * when the option is absent, meaning "pick the default for the node
 * count" (harness/experiment.cc). The value must be a power of two
 * dividing the machine's node count — the Machine constructor
 * enforces that, since only it knows the node count.
 */
unsigned parseSimPartitionsArg(int argc, char** argv);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_PARALLEL_SIM_HH_
