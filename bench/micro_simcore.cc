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
 * plus the *simulated* latency of one coherence transaction and the
 * simulated execution time of one full 64-node thrifty experiment
 * on its default 8 event-queue streams (machine_pdes_exec_ticks),
 * both in ticks, which are seed-deterministic and must never drift.
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

/**
 * One complete thrifty experiment on the paper's 64-node machine, on
 * its default 8 event-queue streams. Its simulated execution time
 * checks the whole default plan end to end: coherence traffic,
 * barrier episodes, per-hop NoC events and all.
 * The serialized result is cross-checked between repetitions first —
 * a drift is a determinism bug and fails the benchmark.
 */
bench::MicroMetric
machineExecTicks(bool quick, unsigned reps, bool* ok)
{
    harness::SystemConfig sys = harness::SystemConfig::paperDefault();
    sys.seed = 1;
    workloads::AppProfile app = workloads::appByName("Volrend");
    app.iterations = quick ? 6 : 24;

    std::string reference;
    bench::MicroMetric exec;
    exec.benchmark = "machine_pdes_exec_ticks";
    exec.unit = "ticks";
    exec.ops = 1;
    for (unsigned i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        const harness::ExperimentResult r = harness::runExperiment(
            sys, app, harness::ConfigKind::Thrifty);
        const double wall = secondsSince(t0);
        const std::string serialized = harness::serializeResult(r);
        if (i == 0) {
            reference = serialized;
            exec.wallSeconds = wall;
            exec.value = static_cast<double>(r.execTime);
        } else if (serialized != reference) {
            std::cerr << "machine result drifted between "
                         "repetitions\n";
            *ok = false;
        }
        exec.wallSeconds = std::min(exec.wallSeconds, wall);
    }
    return exec;
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
    bool machineOk = true;
    metrics.push_back(machineExecTicks(quick, reps, &machineOk));
    if (!machineOk)
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
