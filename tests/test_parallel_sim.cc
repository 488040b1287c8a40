/**
 * @file
 * Tests of the machine drain report (harness/parallel_sim.hh) and of
 * the default plan end to end: the PdesRunReport bookkeeping, the
 * 64-node machine's eight streams, Machine::run() against the report
 * path, real experiments whose serialized results the ignored thread
 * count cannot move, and the checker and tracing running on the
 * default plan without moving its results.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "harness/parallel_sim.hh"
#include "harness/result_serde.hh"
#include "obs/stat_writers.hh"
#include "obs/trace.hh"
#include "workloads/app_profile.hh"
#include "workloads/synthetic_program.hh"

namespace tb {
namespace harness {
namespace {

TEST(ParallelSim, ReportRecordsModelLookahead)
{
    // The conservative lookahead the partitioned model will use is
    // the NoC's minimum cross-node latency: marshal + pin-to-pin +
    // marshal = 16 + 16 + 16 ns on the default configuration.
    Machine m(SystemConfig::small(2));
    const PdesRunReport r = runMachinePdes(m, 1);
    EXPECT_EQ(r.threads, 1u);
    EXPECT_EQ(r.modelLookahead, 48 * kNanosecond);
    EXPECT_EQ(r.modelLookahead,
              m.memory().fabric().minMessageLatency());
}

TEST(ParallelSim, ThreadedDrainMatchesSerialFinalTick)
{
    // An empty machine drains immediately, and a requested thread
    // count is ignored: every simulation runs on the calling thread.
    Machine serial(SystemConfig::small(1));
    Machine threaded(SystemConfig::small(1));
    const PdesRunReport a = runMachinePdes(serial, 1);
    const PdesRunReport b = runMachinePdes(threaded, 4);
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(b.threads, 1u);
    EXPECT_EQ(b.partitions, 1u);
}

/**
 * RunOptions::simThreads is kept but ignored: a real experiment must
 * serialize byte-identically whatever value it carries, episode ledger
 * and all.
 */
TEST(ParallelSim, ExperimentResultsByteIdenticalAcrossThreadCounts)
{
    const SystemConfig sys = SystemConfig::small(3);
    const workloads::AppProfile app = workloads::appByName("Volrend");

    const auto runAt = [&](unsigned threads) {
        RunOptions ro;
        ro.episodeLedger = true;
        ro.simThreads = threads;
        return serializeResult(
            runExperiment(sys, app, ConfigKind::Thrifty, ro));
    };

    const std::string serial = runAt(1);
    EXPECT_EQ(serial, runAt(2));
    EXPECT_EQ(serial, runAt(4));
}

TEST(ParallelSim, SixtyFourNodeMachineRunsEightRealPartitions)
{
    // The default plan of the paper's machine: one event queue whose
    // 64 nodes run as eight streams; no hop reaches another stream
    // sooner than the pin-to-pin latency.
    Machine m(SystemConfig::small(6), 8);
    EXPECT_EQ(m.streams(), 8u);
    EXPECT_EQ(m.partitions(), 1u);
    EXPECT_EQ(&m.clusterQueue(0), &m.eventQueue());
    EXPECT_THROW(m.clusterQueue(1), PanicError);
    EXPECT_EQ(m.network().streamOf(7), 0u);
    EXPECT_EQ(m.network().streamOf(8), 1u);
    EXPECT_EQ(m.network().streamOf(63), 7u);
    const PdesRunReport r = runMachinePdes(m, 1);
    EXPECT_EQ(r.threads, 1u);
    EXPECT_EQ(r.partitions, 8u);
    EXPECT_EQ(r.modelLookahead, m.config().noc.pinToPin);
    EXPECT_GT(r.modelLookahead, Tick{0});
}

/**
 * Machine::run() drains a 64-node, 8-stream machine by itself, and
 * the whole run — finish tick, energy ledger, every component's
 * stats, cross-stream hops — matches the same composition drained
 * through runMachinePdes.
 */
TEST(ParallelSim, MachineRunMatchesRunMachinePdesOnEightPartitions)
{
    const SystemConfig sys = SystemConfig::paperDefault();
    workloads::AppProfile app = workloads::appByName("Volrend");
    app.iterations = 4;

    const auto runOnce = [&](bool viaReport) {
        Machine machine(sys, 8);
        thrifty::SyncStats sync;
        ConfigBarrierProvider provider(machine, ConfigKind::Thrifty,
                                       nullptr, sync);
        workloads::SyntheticProgram program(
            machine.eventQueue(), machine.memory(), machine.threadPtrs(),
            app, provider, sys.seed);
        machine.memory().addressMap().seal();
        program.start();
        const Tick end = viaReport ? runMachinePdes(machine, 1).finalTick
                                   : machine.run();
        provider.mergeStats();
        EXPECT_TRUE(program.finished());
        // Hops crossed streams: the keys had real ties to order.
        const std::uint64_t crossed =
            machine.eventQueue().crossStreamEvents();
        EXPECT_GT(crossed, 0u);

        std::ostringstream out;
        out << end << ' ' << program.finishTick() << ' ' << crossed
            << ' ' << sync.instances << '\n';
        const power::EnergyAccount energy = machine.totalEnergy();
        for (std::size_t i = 0; i < power::kNumBuckets; ++i) {
            const auto b = static_cast<power::Bucket>(i);
            out << energy.energy(b) << ' ' << energy.time(b) << '\n';
        }
        obs::TextStatWriter stats(out);
        machine.visitStats(stats);
        return out.str();
    };

    EXPECT_EQ(runOnce(false), runOnce(true));
}

/**
 * The checker and structured tracing observe the plan that produces
 * the paper's numbers: a checked run and a traced run of the 64-node
 * machine serialize byte-identically to the default run.
 */
TEST(ParallelSim, CheckedAndTracedRunsMatchTheDefaultRun)
{
    const SystemConfig sys = SystemConfig::paperDefault();
    workloads::AppProfile app = workloads::appByName("Volrend");
    app.iterations = 4;

    const auto run = [&](const RunOptions& ro) {
        return serializeResult(
            runExperiment(sys, app, ConfigKind::Thrifty, ro));
    };
    const std::string plain = run(RunOptions{});

    RunOptions checked;
    checked.check = true;
    EXPECT_EQ(run(checked), plain);

    obs::TraceSink sink;
    RunOptions traced;
    traced.traceSink = &sink;
    EXPECT_EQ(run(traced), plain);
    EXPECT_GT(sink.eventCount(), 0u);
}

} // namespace
} // namespace harness
} // namespace tb
