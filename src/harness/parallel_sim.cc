/**
 * @file
 * Machine drain report (see parallel_sim.hh).
 */

#include "harness/parallel_sim.hh"

#include "harness/machine.hh"

namespace tb {
namespace harness {

PdesRunReport
runMachinePdes(Machine& machine, unsigned /*threads*/)
{
    PdesRunReport report;
    report.partitions = machine.streams();
    report.modelLookahead =
        machine.streams() > 1
            ? machine.config().noc.pinToPin
            : machine.memory().fabric().minMessageLatency();
    report.finalTick = machine.run();
    report.engine.sent = machine.eventQueue().crossStreamEvents();
    return report;
}

} // namespace harness
} // namespace tb
