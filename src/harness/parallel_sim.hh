/**
 * @file
 * The run report of one Machine drain, in the shape the benchmark
 * harness (benchmark/tb_bench.cc) reads as its pdes.* metrics.
 *
 * runMachinePdes runs Machine::run() and records the plan it ran: the
 * stream count (harness/machine.hh), the lookahead and the hops that
 * crossed streams. Nothing here feeds an artifact.
 */

#ifndef TB_HARNESS_PARALLEL_SIM_HH_
#define TB_HARNESS_PARALLEL_SIM_HH_

#include <cstdint>

#include "sim/types.hh"

namespace tb {
namespace harness {

class Machine;

/** Drain counters of one run. */
struct EngineStats
{
    /** NoC hops into another stream's node (0 with one stream). */
    std::uint64_t sent = 0;
    /** Always 0: the drain sends no null messages, needs no GVT
     *  rescue and runs no rounds. Kept only because the benchmark
     *  harness still reads them. */
    std::uint64_t nullPublishes = 0;
    std::uint64_t gvtRescues = 0;
    std::uint64_t stallRounds = 0;
};

/** Outcome of draining one Machine. */
struct PdesRunReport
{
    Tick finalTick = 0;
    /** Always 1: the drain runs on the calling thread. Kept only
     *  because the benchmark harness reports it as pdes.threads. */
    unsigned threads = 1;
    /** Event-queue streams the machine ran as. */
    unsigned partitions = 1;
    /** The NoC pin-to-pin hop latency with several streams (no hop
     *  reaches another stream sooner), the fabric's minimum
     *  end-to-end message latency with one. */
    Tick modelLookahead = 0;
    EngineStats engine;
};

/**
 * Machine::run() plus the report. @p threads is ignored: it stays
 * only because benchmark/tb_bench.cc passes it.
 */
PdesRunReport runMachinePdes(Machine& machine, unsigned threads);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_PARALLEL_SIM_HH_
