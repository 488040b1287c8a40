/**
 * @file
 * Partitioned single-simulation runner (see parallel_sim.hh).
 */

#include "harness/parallel_sim.hh"

#include <bit>
#include <string>

#include "harness/machine.hh"

namespace tb {
namespace harness {

PdesRunReport
runMachinePdes(Machine& machine, unsigned /*threads*/)
{
    PdesRunReport report;
    report.partitions = machine.partitions();

    if (machine.partitions() <= 1) {
        report.modelLookahead =
            machine.memory().fabric().minMessageLatency();
        report.finalTick = machine.run();
        return report;
    }

    // Partitioned machine: every cluster queue becomes a managed
    // engine partition, so the cluster queues are drained together.
    const unsigned parts = machine.partitions();
    pdes::Engine engine;
    for (unsigned c = 0; c < parts; ++c) {
        engine.addManagedPartition("cluster" + std::to_string(c),
                                   machine.clusterQueue(c));
    }

    // Clusters are contiguous power-of-two node blocks, so a hop
    // between hypercube-adjacent nodes either stays inside a cluster
    // or crosses to a hypercube-adjacent cluster (the cluster indices
    // differ in exactly one bit). Each such crossing is scheduled at
    // least one pin-to-pin latency ahead (Network::forward), giving
    // every channel a real, nonzero conservative lookahead.
    const Tick lookahead = machine.config().noc.pinToPin;
    for (unsigned a = 0; a < parts; ++a)
        for (unsigned b = 0; b < parts; ++b)
            if (std::popcount(a ^ b) == 1)
                engine.connect(static_cast<pdes::PartitionId>(a),
                               static_cast<pdes::PartitionId>(b),
                               lookahead);
    report.modelLookahead = lookahead;

    noc::PartitionBinding& binding = machine.partitionBinding();
    binding.crossSchedule = [&engine](unsigned src, unsigned dst,
                                      Tick when,
                                      detail::EventClosure fn) {
        engine.partition(static_cast<pdes::PartitionId>(src))
            .send(static_cast<pdes::PartitionId>(dst), when,
                  std::move(fn));
    };
    engine.run();
    binding.crossSchedule = nullptr;

    report.finalTick = machine.finalize();
    report.engine = engine.stats();
    return report;
}

} // namespace harness
} // namespace tb
