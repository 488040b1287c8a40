/**
 * @file
 * Multi-threaded single-simulation driver (see parallel_sim.hh).
 */

#include "harness/parallel_sim.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/machine.hh"

namespace tb {
namespace harness {

PdesRunReport
runMachinePdes(Machine& machine, unsigned threads)
{
    PdesRunReport report;
    report.threads = threads < 1 ? 1u : threads;
    report.partitions = machine.partitions();

    if (machine.partitions() <= 1) {
        report.modelLookahead =
            machine.memory().fabric().minMessageLatency();
        if (report.threads <= 1) {
            report.finalTick = machine.run();
            return report;
        }
        // Serial plan under the engine umbrella: the whole model is
        // one external partition, so the executed event order is the
        // serial order by construction.
        pdes::Engine::Config cfg;
        cfg.threads = report.threads;
        pdes::Engine engine(cfg);
        engine.addExternalPartition("machine", machine.eventQueue());
        engine.run();
        report.finalTick = machine.finalize();
        report.engine = engine.stats();
        return report;
    }

    // Partitioned machine: every cluster queue becomes a managed
    // engine partition, at any worker count — the cluster queues must
    // be drained together. One worker gets the engine's sequential
    // executor (direct delivery, no rounds), two or more its window
    // rounds; both run the same keyed total order, so the one-worker
    // run is the plan's bit-exact reference for every other count.
    const unsigned parts = machine.partitions();
    pdes::Engine::Config cfg;
    cfg.threads = report.threads;
    pdes::Engine engine(cfg);
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

namespace {

/**
 * Shared strict scan for one `--<name> N` / `--<name>=N` integer
 * option: rejects anything that is not one whole integer >= 1 with a
 * usage message and exit 2; returns @p absent when the option never
 * appears.
 */
unsigned
parsePositiveIntArg(int argc, char** argv, const char* name,
                    unsigned absent)
{
    const std::string flag = std::string("--") + name;
    const std::string flag_eq = flag + "=";
    const auto usage = [&](const char* text) {
        std::fprintf(stderr,
                     "%s: %s: '%s' is not a positive "
                     "integer\nusage: %s [%s N]\n",
                     argv[0], flag.c_str(), text, argv[0],
                     flag.c_str());
        std::exit(2);
    };
    unsigned value = absent;
    for (int i = 1; i < argc; ++i) {
        const char* text = nullptr;
        if (flag == argv[i] && i + 1 < argc)
            text = argv[++i];
        else if (std::strncmp(argv[i], flag_eq.c_str(),
                              flag_eq.size()) == 0)
            text = argv[i] + flag_eq.size();
        if (!text)
            continue;
        // Strict: `--sim-threads 4x` must not silently serialize.
        errno = 0;
        char* end = nullptr;
        const long v = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || errno == ERANGE || v < 1)
            usage(text);
        value = static_cast<unsigned>(v);
    }
    return value;
}

} // namespace

unsigned
parseSimThreadsArg(int argc, char** argv)
{
    return parsePositiveIntArg(argc, argv, "sim-threads", 1);
}

unsigned
parseSimPartitionsArg(int argc, char** argv)
{
    return parsePositiveIntArg(argc, argv, "sim-partitions", 0);
}

} // namespace harness
} // namespace tb
