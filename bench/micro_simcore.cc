/**
 * @file
 * Simulator-core microbenchmarks: the throughput numbers the CI
 * perf-smoke job gates on (scripts/compare_bench.py vs
 * BENCH_baseline.json; see docs/PERFORMANCE.md).
 *
 *   micro_simcore [--quick] [--json FILE]
 *
 * Measures, in order:
 *   - calibration       fixed integer workload, normalizes host speed
 *   - eq_schedule_fire  event-queue schedule+fire throughput
 *   - eq_schedule_cancel cancel-heavy schedule/cancel/drain throughput
 *   - coherence_txn     end-to-end coherent store ping-pong rate
 *   - barriers          end-to-end thrifty-barrier instances per second
 *   - pdes_fire_*       conservative-PDES fire-loop throughput on a
 *                       64-partition hypercube workload, serial and at
 *                       min(4, host cores) workers, plus the speedup,
 *                       the null-message (always 0) and stall-round
 *                       ratios and the deterministic total event count
 *   - machine_pdes_*    the same speedup question asked of the real
 *                       model: one full 64-node thrifty experiment,
 *                       partitioned into 8 clusters at min(4, host
 *                       cores) workers, against the same experiment
 *                       built as one partition (the serial plan) — the
 *                       "does a single simulation actually get faster"
 *                       number, gated on the 1.5x floor when measured
 *                       with >= 4 workers
 * plus the *simulated* latency of one coherence transaction in ticks,
 * which is seed-deterministic and must never drift.
 *
 * Every metric is one JSON line in the shared campaign shape
 * (bench_util.hh), so the output greps and diffs like the robustness
 * campaigns do.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/pdes.hh"

namespace {

using namespace tb;

// tblint-allow(TBL002): genuine wall-clock — benchmark timing
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Host-speed calibration: a fixed xorshift64* chain. The perf gate
 * normalizes throughput metrics by the baseline/current calibration
 * ratio, so a slower CI runner does not read as a code regression.
 */
bench::MicroMetric
calibrate(bool quick)
{
    const std::uint64_t iters = quick ? 40'000'000ull : 200'000'000ull;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x *= 0x2545f4914f6cdd1dull;
    }
    const double wall = secondsSince(t0);
    // Keep the chain observable so the loop cannot be folded away.
    if (x == 0)
        std::cerr << "calibration degenerated\n";
    bench::MicroMetric m;
    m.benchmark = "calibration";
    m.unit = "ops/s";
    m.ops = iters;
    m.wallSeconds = wall;
    m.value = static_cast<double>(iters) / wall;
    return m;
}

/** Schedule/fire throughput: batches of short-lived events with mixed
 *  ticks and priorities, queue drained between batches. */
bench::MicroMetric
eqScheduleFire(bool quick)
{
    const unsigned rounds = quick ? 12800 : 64000;
    const unsigned batch = 128;
    EventQueue eq;
    std::uint64_t fired = 0;
    const auto t0 = Clock::now();
    for (unsigned r = 0; r < rounds; ++r) {
        const Tick base = eq.now();
        for (unsigned i = 0; i < batch; ++i) {
            eq.schedule(base + 1 + (i * 7) % 97,
                        [&fired]() { ++fired; },
                        static_cast<int>(i & 3));
        }
        eq.run();
    }
    const double wall = secondsSince(t0);
    bench::MicroMetric m;
    m.benchmark = "eq_schedule_fire";
    m.unit = "events/s";
    m.ops = fired;
    m.wallSeconds = wall;
    m.value = static_cast<double>(fired) / wall;
    return m;
}

/** Cancel-heavy mix: half of each batch is canceled before the drain,
 *  exercising lazy cancelation and slot reuse. Ops counts schedules,
 *  cancels and fires. */
bench::MicroMetric
eqScheduleCancel(bool quick)
{
    const unsigned rounds = quick ? 400 : 2000;
    const unsigned batch = 4096;
    EventQueue eq;
    std::uint64_t fired = 0;
    std::uint64_t ops = 0;
    std::vector<EventHandle> handles;
    handles.reserve(batch);
    const auto t0 = Clock::now();
    for (unsigned r = 0; r < rounds; ++r) {
        handles.clear();
        const Tick base = eq.now();
        for (unsigned i = 0; i < batch; ++i) {
            handles.push_back(
                eq.schedule(base + 1 + (i * 13) % 61,
                            [&fired]() { ++fired; }));
        }
        for (unsigned i = 0; i < batch; i += 2)
            handles[i].cancel();
        ops += batch + batch / 2;
        eq.run();
    }
    ops += fired;
    const double wall = secondsSince(t0);
    bench::MicroMetric m;
    m.benchmark = "eq_schedule_cancel";
    m.unit = "events/s";
    m.ops = ops;
    m.wallSeconds = wall;
    m.value = static_cast<double>(ops) / wall;
    return m;
}

/** Coherent-store ping-pong between two nodes over the real network:
 *  every transaction is an Upgrade/GetX + invalidation round trip. */
struct CoherenceResult
{
    bench::MicroMetric throughput;
    bench::MicroMetric simLatency;
};

CoherenceResult
coherenceTxn(bool quick)
{
    const std::uint64_t txns = quick ? 20'000 : 100'000;

    EventQueue eq;
    noc::NetworkConfig nc;
    nc.dimension = 1; // two nodes
    noc::Network net(eq, nc);
    mem::MemorySystem mem(eq, net, mem::MemoryConfig{});
    const Addr flag = mem.addressMap().allocShared(mem::kPageBytes);

    std::uint64_t done = 0;
    std::function<void()> next = [&]() {
        if (done >= txns)
            return;
        const NodeId n = static_cast<NodeId>(done & 1);
        mem.controller(n).store(flag, done, [&]() {
            ++done;
            next();
        });
    };

    const auto t0 = Clock::now();
    next();
    eq.run();
    const double wall = secondsSince(t0);

    CoherenceResult r;
    r.throughput.benchmark = "coherence_txn";
    r.throughput.unit = "txns/s";
    r.throughput.ops = done;
    r.throughput.wallSeconds = wall;
    r.throughput.value = static_cast<double>(done) / wall;

    // Simulated end-to-end latency: deterministic, must never drift.
    r.simLatency.benchmark = "coherence_txn_sim_latency";
    r.simLatency.unit = "ticks";
    r.simLatency.ops = done;
    r.simLatency.wallSeconds = wall;
    r.simLatency.value =
        static_cast<double>(eq.now()) / static_cast<double>(done);
    return r;
}

/** End-to-end barriers per second: a full thrifty experiment on a
 *  small machine, measured by completed dynamic barrier instances. */
bench::MicroMetric
barriersPerSecond(bool quick)
{
    workloads::AppProfile app = workloads::appByName("Radiosity");
    app.iterations = 50;

    harness::SystemConfig sys = harness::SystemConfig::small(2);
    sys.seed = 1;

    // One experiment lasts ~a millisecond of host time; repeat until
    // the sample is long enough to be stable.
    const double minWall = quick ? 0.25 : 1.0;
    std::uint64_t instances = 0;
    const auto t0 = Clock::now();
    double wall = 0.0;
    do {
        const harness::ExperimentResult r = harness::runExperiment(
            sys, app, harness::ConfigKind::Thrifty);
        instances += r.sync.instances;
        wall = secondsSince(t0);
    } while (wall < minWall);

    bench::MicroMetric m;
    m.benchmark = "barriers";
    m.unit = "barriers/s";
    m.ops = instances;
    m.wallSeconds = wall;
    m.value = static_cast<double>(instances) / wall;
    return m;
}

/** One measured run of the PDES hypercube workload. */
struct PdesRun
{
    pdes::EngineStats stats;
    double wall = 0.0;
};

/**
 * The PDES fire-loop workload: PHOLD on a 6-cube. 64 partitions (the
 * node count of the full machine), channel lookahead = the NoC's
 * minimum cross-node latency (48 ns — the bound the partitioned
 * machine model will use), and a fixed population of jobs, eight per
 * partition. Each fired job burns a fixed xorshift grain and then
 * schedules exactly ONE successor: usually a short local hop, one in
 * sixteen times a hop across a random cube edge — a constant-
 * population load with the communication/computation mix of a real
 * model, never a fork bomb. The total event count is a pure function
 * of the seeds — the serial/threaded runs must agree on it exactly,
 * and the perf gate compares it bit-for-bit.
 */
PdesRun
runPdesCube(unsigned threads, bool quick)
{
    const unsigned dim = 6;
    const unsigned n = 1u << dim;
    const unsigned jobsPerPart = 8;
    const Tick lookahead = noc::NetworkConfig{}.minCrossNodeLatency();
    const Tick horizon = lookahead * (quick ? 96 : 384);

    pdes::Engine::Config cfg;
    cfg.threads = threads;
    pdes::Engine engine(cfg);
    std::vector<pdes::Partition*> parts;
    parts.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        parts.push_back(&engine.addPartition("cube" + std::to_string(i)));
    for (unsigned i = 0; i < n; ++i)
        for (unsigned b = 0; b < dim; ++b)
            engine.connect(parts[i]->id(), parts[i ^ (1u << b)]->id(),
                           lookahead);

    // Per-partition grain state; owner-confined like the partitions
    // themselves (only partition i's events touch rng[i]). Padded to
    // cache-line stride so neighboring partitions on different
    // workers don't false-share their hot state.
    struct alignas(64) PartState
    {
        std::uint64_t x;
    };
    std::vector<PartState> rng(n);
    for (unsigned i = 0; i < n; ++i)
        rng[i].x = 0x9e3779b97f4a7c15ull ^ (i * 0xbf58476d1ce4e5b9ull);

    std::function<void(unsigned)> hop = [&](unsigned i) {
        pdes::Partition& p = *parts[i];
        std::uint64_t x = rng[i].x;
        for (int r = 0; r < 32; ++r) {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x *= 0x2545f4914f6cdd1dull;
        }
        rng[i].x = x;
        if (p.now() >= horizon)
            return; // job retires; population only ever shrinks
        if ((x & 15u) == 0) {
            const unsigned dst = i ^ (1u << ((x >> 8) % dim));
            p.send(parts[dst]->id(),
                   p.now() + lookahead + (x % 257),
                   [&hop, dst] { hop(dst); });
        } else {
            p.scheduleIn(1 + (x % 1024), [&hop, i] { hop(i); });
        }
    };

    for (unsigned i = 0; i < n; ++i)
        for (unsigned j = 0; j < jobsPerPart; ++j)
            parts[i]->schedule(1 + ((i + 7u * j) % 97), [&hop, i] {
                hop(i);
            });

    const auto t0 = Clock::now();
    engine.run();
    PdesRun r;
    r.wall = secondsSince(t0);
    r.stats = engine.stats();
    return r;
}

/**
 * The PDES metric family. Throughput is best-of-N per thread count;
 * the deterministic event count is cross-checked between every run,
 * and the round count between repetitions at one thread count,
 * before anything is reported — a serial/threaded mismatch is a
 * determinism bug, not a perf number, and fails the benchmark.
 */
std::vector<bench::MicroMetric>
pdesMetrics(bool quick, unsigned reps, bool* ok)
{
    const unsigned par = std::min(pdes::usableCpus(), 4u);

    const auto bestAt = [&](unsigned threads) {
        PdesRun best = runPdesCube(threads, quick);
        for (unsigned i = 1; i < reps; ++i) {
            const PdesRun r = runPdesCube(threads, quick);
            if (r.stats.fired != best.stats.fired ||
                r.stats.rounds != best.stats.rounds) {
                std::cerr << "pdes event or round count drifted "
                             "between repetitions\n";
                *ok = false;
            }
            if (r.wall < best.wall)
                best = r;
        }
        return best;
    };

    // One worker runs the sequential executor and par workers the
    // window rounds, so only the simulation's own counters compare.
    const PdesRun serial = bestAt(1);
    const PdesRun threaded = bestAt(par);
    if (serial.stats.fired != threaded.stats.fired ||
        serial.stats.finalTick != threaded.stats.finalTick ||
        serial.stats.sent != threaded.stats.sent ||
        serial.stats.merged != threaded.stats.merged) {
        std::cerr << "pdes serial/threaded runs diverged\n";
        *ok = false;
    }

    std::vector<bench::MicroMetric> ms;
    bench::MicroMetric fire1;
    fire1.benchmark = "pdes_fire_1t";
    fire1.unit = "events/s";
    fire1.ops = serial.stats.fired;
    fire1.wallSeconds = serial.wall;
    fire1.value = static_cast<double>(serial.stats.fired) / serial.wall;
    fire1.threads = 1;
    ms.push_back(fire1);

    bench::MicroMetric fireN;
    fireN.benchmark = "pdes_fire_4t";
    fireN.unit = "events/s";
    fireN.ops = threaded.stats.fired;
    fireN.wallSeconds = threaded.wall;
    fireN.value =
        static_cast<double>(threaded.stats.fired) / threaded.wall;
    fireN.threads = par;
    ms.push_back(fireN);

    // Host-relative, so no calibration: the gate enforces its
    // absolute >= 1.5x floor only when threads >= 4 (compare_bench.py
    // skips the floor on smaller hosts, where the target cannot hold).
    bench::MicroMetric speedup;
    speedup.benchmark = "pdes_speedup_4t";
    speedup.unit = "x";
    speedup.ops = threaded.stats.fired;
    speedup.wallSeconds = threaded.wall;
    speedup.value = fireN.value / fire1.value;
    speedup.threads = par;
    ms.push_back(speedup);

    // Conservative-sync overhead diagnostics, never gated. The window
    // protocol sends no null messages, so pdes_null_ratio is always 0;
    // it stays so baselines keep their metric set.
    bench::MicroMetric nulls;
    nulls.benchmark = "pdes_null_ratio";
    nulls.unit = "ratio";
    nulls.ops = threaded.stats.nullPublishes;
    nulls.wallSeconds = threaded.wall;
    nulls.value = static_cast<double>(threaded.stats.nullPublishes) /
                  static_cast<double>(threaded.stats.fired);
    nulls.threads = par;
    ms.push_back(nulls);

    bench::MicroMetric stalls;
    stalls.benchmark = "pdes_stall_ratio";
    stalls.unit = "ratio";
    stalls.ops = threaded.stats.stallRounds;
    stalls.wallSeconds = threaded.wall;
    stalls.value = static_cast<double>(threaded.stats.stallRounds) /
                   static_cast<double>(threaded.stats.fired);
    stalls.threads = par;
    ms.push_back(stalls);

    // Simulated quantity: bit-stable at any thread count, any host.
    bench::MicroMetric events;
    events.benchmark = "pdes_events";
    events.unit = "count";
    events.ops = serial.stats.fired;
    events.wallSeconds = serial.wall;
    events.value = static_cast<double>(serial.stats.fired);
    ms.push_back(events);
    return ms;
}

/** One measured run of the full partitioned-machine experiment. */
struct MachineRun
{
    std::string serialized;
    Tick execTicks = 0;
    double wall = 0.0;
};

/**
 * One complete thrifty experiment on the paper's 64-node machine,
 * split into @p partitions cluster partitions and driven by
 * @p threads engine workers. This is the end-to-end answer the PHOLD
 * fire-loop only approximates: coherence traffic, barrier episodes,
 * per-hop NoC events and all.
 */
MachineRun
runMachineExperiment(unsigned threads, unsigned partitions, bool quick)
{
    harness::SystemConfig sys = harness::SystemConfig::paperDefault();
    sys.seed = 1;
    workloads::AppProfile app = workloads::appByName("Volrend");
    app.iterations = quick ? 6 : 24;

    harness::RunOptions ro;
    ro.simThreads = threads;
    ro.simPartitions = partitions;

    const auto t0 = Clock::now();
    const harness::ExperimentResult r = harness::runExperiment(
        sys, app, harness::ConfigKind::Thrifty, ro);
    MachineRun out;
    out.wall = secondsSince(t0);
    out.execTicks = r.execTime;
    out.serialized = harness::serializeResult(r);
    return out;
}

/**
 * The machine-level PDES metric family. The speedup divides the wall
 * time of the serial plan (one partition, one worker) — the fastest
 * way to run the experiment without the engine — by the 8-partition
 * plan at min(4, cores) workers. As with the fire loop, the
 * partitioned plan's serialized result is cross-checked between every
 * run and against its one-worker run first — a mismatch is a
 * determinism bug and fails the benchmark, not the perf gate. (The
 * serial plan orders some bookkeeping differently, so its result is
 * not compared.)
 */
std::vector<bench::MicroMetric>
machineMetrics(bool quick, unsigned reps, bool* ok)
{
    const unsigned par = std::min(pdes::usableCpus(), 4u);

    const auto bestAt = [&](unsigned threads, unsigned partitions,
                            const std::string* reference) {
        MachineRun best =
            runMachineExperiment(threads, partitions, quick);
        for (unsigned i = 1; i < reps; ++i) {
            const MachineRun r =
                runMachineExperiment(threads, partitions, quick);
            if (r.serialized != best.serialized) {
                std::cerr << "machine result drifted between "
                             "repetitions\n";
                *ok = false;
            }
            if (r.wall < best.wall)
                best = r;
        }
        if (reference && best.serialized != *reference) {
            std::cerr << "machine serial/threaded results diverged\n";
            *ok = false;
        }
        return best;
    };

    const MachineRun serialPlan = bestAt(1, 1, nullptr);
    const MachineRun oneWorker = runMachineExperiment(1, 8, quick);
    const MachineRun threaded = bestAt(par, 8, &oneWorker.serialized);

    std::vector<bench::MicroMetric> ms;
    bench::MicroMetric speedup;
    speedup.benchmark = "machine_pdes_speedup";
    speedup.unit = "x";
    speedup.ops = 1;
    speedup.wallSeconds = threaded.wall;
    speedup.value = serialPlan.wall / threaded.wall;
    speedup.threads = par;
    ms.push_back(speedup);

    // Simulated quantity: bit-stable at any thread count, any host.
    bench::MicroMetric exec;
    exec.benchmark = "machine_pdes_exec_ticks";
    exec.unit = "ticks";
    exec.ops = 1;
    exec.wallSeconds = oneWorker.wall;
    exec.value = static_cast<double>(oneWorker.execTicks);
    ms.push_back(exec);
    return ms;
}

/**
 * Best-of-N wrapper: transient host load only ever slows a
 * measurement down, so the max over a few repetitions is a far more
 * stable throughput estimate than any single run — that stability is
 * what lets the CI gate use a tight regression threshold.
 */
template <typename F>
bench::MicroMetric
bestOf(unsigned reps, F&& measure)
{
    bench::MicroMetric best = measure();
    for (unsigned i = 1; i < reps; ++i) {
        const bench::MicroMetric m = measure();
        if (m.value > best.value)
            best = m;
    }
    return best;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--quick] [--json FILE]\n";
            return 2;
        }
    }

    const unsigned reps = 3;
    std::vector<bench::MicroMetric> metrics;
    metrics.push_back(bestOf(reps, [&] { return calibrate(quick); }));
    metrics.push_back(
        bestOf(reps, [&] { return eqScheduleFire(quick); }));
    metrics.push_back(
        bestOf(reps, [&] { return eqScheduleCancel(quick); }));
    {
        CoherenceResult best = coherenceTxn(quick);
        for (unsigned i = 1; i < reps; ++i) {
            const CoherenceResult c = coherenceTxn(quick);
            if (c.simLatency.value != best.simLatency.value) {
                std::cerr << "coherence_txn_sim_latency drifted "
                             "between repetitions\n";
                return 1;
            }
            if (c.throughput.value > best.throughput.value)
                best.throughput = c.throughput;
        }
        metrics.push_back(best.throughput);
        metrics.push_back(best.simLatency);
    }
    metrics.push_back(
        bestOf(reps, [&] { return barriersPerSecond(quick); }));
    bool pdesOk = true;
    for (const auto& m : pdesMetrics(quick, reps, &pdesOk))
        metrics.push_back(m);
    for (const auto& m : machineMetrics(quick, reps, &pdesOk))
        metrics.push_back(m);
    if (!pdesOk)
        return 1;

    std::ostringstream out;
    for (const auto& m : metrics)
        bench::printMicroJson(out, m);
    std::cout << out.str();

    if (!jsonPath.empty()) {
        std::ofstream f(jsonPath);
        if (!f) {
            std::cerr << "cannot write " << jsonPath << "\n";
            return 1;
        }
        f << out.str();
    }
    return 0;
}
