/**
 * @file
 * tb_bench: runs one benchmark workload through the public harness API
 * for a host-time budget and prints raw measurements as JSON lines.
 * benchmark/run.py builds it, checks the simulated outputs and turns
 * these lines into metrics; benchmark/README.md describes the
 * workloads and the metric catalogue.
 *
 *   tb_bench --workload NAME [--seed S] [--seconds T] [--traced]
 *            [--trace-out FILE] [--setup-only]
 *
 * Every line is one JSON object whose "kind" says what it holds:
 *   host   build and host facts. The process then exits 2 if the build
 *          is unfit for timing: the protocol checker is armed by
 *          default (it forces the serial plan) or the code is not
 *          optimised.
 *   ready  CLOCK_MONOTONIC time at which the first timed simulation
 *          starts; run.py subtracts its spawn time to get setup_s.
 *   sim    one simulation: host wall time plus its simulated outputs.
 *   unit   one unit of work: a pass over all of the workload's points.
 *   e2e    end-to-end metrics of the untraced phase.
 *   layer  per-layer metrics of the traced phase (--traced only).
 *
 * Units repeat until the phase's time budget is spent (at least one
 * always runs). With --traced the budget is split between an untraced
 * and a traced phase, so run.py can compare their outputs and walls.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/protocol_checker.hh"
#include "harness/campaign_journal.hh"
#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "harness/parallel_runner.hh"
#include "harness/parallel_sim.hh"
#include "harness/result_serde.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "workloads/app_profile.hh"
#include "workloads/synthetic_program.hh"

namespace {

using namespace tb;
using Clock = std::chrono::steady_clock;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

const Clock::time_point gEpoch = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
microsSinceEpoch(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - gEpoch).count();
}

/** Small dense id for the calling host thread (trace rows). */
unsigned
workerId()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned id = next++;
    return id;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Linear-interpolation quantile (numpy's default); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

/** One simulation of a workload: an application under one config. */
struct Point
{
    std::string id;
    harness::SystemConfig sys;
    workloads::AppProfile app;
    harness::ConfigKind kind = harness::ConfigKind::Baseline;
};

/**
 * A closed loop: each unit runs every point once, `jobs` at a time,
 * and the next unit starts when the last point of this one finishes.
 */
struct Workload
{
    std::string name;
    std::vector<Point> points;
    unsigned jobs = 1;       ///< concurrent simulations (clients)
    unsigned simThreads = 1; ///< PDES workers inside one simulation
};

constexpr harness::ConfigKind kFigureConfigs[] = {
    harness::ConfigKind::Baseline, harness::ConfigKind::ThriftyHalt,
    harness::ConfigKind::OracleHalt, harness::ConfigKind::Thrifty,
    harness::ConfigKind::Ideal,
};

workloads::PhaseSpec
loopPhase(thrifty::BarrierPc pc, Tick mean_compute)
{
    workloads::PhaseSpec p;
    p.pc = pc;
    p.meanCompute = mean_compute;
    return p;
}

/**
 * The four workloads (README.md gives the reasons and the traced
 * per-layer numbers behind them). Their sizes are fixed work; only the
 * number of units a run repeats depends on time. The 8-node units are
 * short (about 0.1 s) because the fastest of many short units varies
 * least between runs on a noisy host; their per-layer mix matches that
 * of runs 25 times longer.
 */
std::optional<Workload>
makeWorkload(const std::string& name, std::uint64_t seed,
             unsigned threads)
{
    Workload w;
    w.name = name;
    harness::SystemConfig paper = harness::SystemConfig::paperDefault();
    paper.seed = seed;
    harness::SystemConfig small = harness::SystemConfig::small(3);
    small.seed = seed;

    if (name == "paper-suite") {
        // The Figure 5/6 matrix: every paper application under
        // B/H/O/T/I on the 64-node machine with default RunOptions.
        for (const workloads::AppProfile& app : workloads::paperApps())
            for (harness::ConfigKind k : kFigureConfigs)
                w.points.push_back({app.name + "/" +
                                        harness::configLetter(k),
                                    paper, app, k});
        w.jobs = threads;
    } else if (name == "single-sim") {
        // One whole 64-node Volrend run under Thrifty, driven by
        // `threads` PDES workers.
        const workloads::AppProfile app = workloads::appByName("Volrend");
        w.points.push_back({"Volrend/T", paper, app,
                            harness::ConfigKind::Thrifty});
        w.simThreads = threads;
    } else if (name == "coherence-migratory") {
        // 8 nodes (one partition) with Baseline barriers, all eight
        // threads storing to one shared line, so nearly every store
        // takes the line from its last writer through the directory.
        // (A thread sends every access of one phase to the same word:
        // the program draws the address once per thread and phase,
        // so a region larger than the L2 would give only L1 hits.)
        // All-store accesses make the work the same at every seed.
        workloads::AppProfile app;
        app.name = "Migratory";
        app.sharedBytes = 64;
        app.iterations = 3;
        for (thrifty::BarrierPc pc : {0x200, 0x201}) {
            workloads::PhaseSpec p = loopPhase(pc, 200 * kMicrosecond);
            p.memAccesses = 2000;
            p.sharedFraction = 1.0;
            p.writeFraction = 1.0;
            app.loop.push_back(p);
        }
        w.points.push_back({"Migratory/B", small, app,
                            harness::ConfigKind::Baseline});
    } else if (name == "barrier-storm") {
        // 8 nodes with Thrifty barriers: short, imbalanced phases with
        // two accesses each, so host time goes to the barrier's
        // predict/sleep/wake path, the CPU sleep state machine and
        // the refills after each deep sleep's cache flush.
        workloads::AppProfile app;
        app.name = "BarrierStorm";
        app.iterations = 400;
        for (unsigned i = 0; i < 4; ++i) {
            workloads::PhaseSpec p = loopPhase(
                0x300 + i, (300 + 100 * i) * kMicrosecond);
            p.imbalanceCv = 0.4;
            p.memAccesses = 2;
            app.loop.push_back(p);
        }
        w.points.push_back({"BarrierStorm/T", small, app,
                            harness::ConfigKind::Thrifty});
    } else {
        return std::nullopt;
    }
    return w;
}

// --------------------------------------------------------------------
// Spans (traced phase)
// --------------------------------------------------------------------

struct Span
{
    std::string name; ///< "<layer>.<call>"
    std::string id;   ///< workload/pass/point, shared by a point's spans
    long parent = -1; ///< index in the same log; -1 = root
    double startUs = 0.0;
    double durUs = 0.0;
    unsigned tid = 0;
};

/** Spans kept in memory; written as a Chrome trace at exit. */
class SpanLog
{
  public:
    /** Open a span; children inherit @p id from their parent. */
    std::size_t
    open(std::string name, long parent, std::string id = "")
    {
        if (id.empty() && parent >= 0)
            id = spans[static_cast<std::size_t>(parent)].id;
        spans.push_back({std::move(name), std::move(id), parent,
                         microsSinceEpoch(Clock::now()), 0.0,
                         workerId()});
        return spans.size() - 1;
    }

    /** Close span @p i; returns its duration in seconds. */
    double
    close(std::size_t i)
    {
        Span& s = spans[i];
        s.durUs = microsSinceEpoch(Clock::now()) - s.startUs;
        return s.durUs * 1e-6;
    }

    /** Append @p child's spans, re-rooting its roots under @p parent. */
    void
    adopt(const SpanLog& child, long parent)
    {
        const long base = static_cast<long>(spans.size());
        for (Span s : child.spans) {
            s.parent = s.parent < 0 ? parent : s.parent + base;
            spans.push_back(std::move(s));
        }
    }

    bool
    writeChromeTrace(const std::string& path) const
    {
        std::ofstream f(path);
        if (!f)
            return false;
        obs::JsonWriter w(f);
        w.beginObject().key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            w.beginObject()
                .field("name", s.name)
                .field("cat", s.name.substr(0, s.name.find('.')))
                .field("ph", "X")
                .field("ts", s.startUs)
                .field("dur", s.durUs)
                .field("pid", 1)
                .field("tid", s.tid)
                .key("args")
                .beginObject()
                .field("id", s.id)
                .field("span", i)
                .field("parent", s.parent)
                .endObject()
                .endObject();
        }
        w.endArray().field("displayTimeUnit", "ms").endObject();
        f << '\n';
        return static_cast<bool>(f);
    }

  private:
    std::vector<Span> spans;
};

// --------------------------------------------------------------------
// Running points
// --------------------------------------------------------------------

/** Sums every component's stats by group kind: noc, ctrl, dir, dram, cpu. */
class GroupSums : public stats::StatVisitor
{
  public:
    explicit GroupSums(std::map<std::string, double>& out) : sums(out) {}

    void
    beginGroup(const std::string& name) override
    {
        const std::size_t dot = name.rfind('.');
        kind = dot == std::string::npos ? name : name.substr(dot + 1);
    }

    void
    scalar(const std::string& name, double value) override
    {
        sums[kind + "." + name] += value;
    }

    void
    distribution(const std::string& name,
                 const stats::Distribution& d) override
    {
        sums[kind + "." + name + ".count"] +=
            static_cast<double>(d.count());
        sums[kind + "." + name + ".total"] += d.total();
    }

  private:
    std::map<std::string, double>& sums;
    std::string kind;
};

/** Host-side measurements of one traced simulation. */
struct LayerSample
{
    double machineBuild = 0.0;
    double programBuild = 0.0;
    double drain = 0.0;
    double merge = 0.0;
    std::uint64_t events = 0;
    harness::PdesRunReport pdes;
    std::map<std::string, double> stats;
};

struct SimRecord
{
    double wall = 0.0;
    harness::ExperimentResult result;
    std::string error; ///< what() of the exception, if it threw
    LayerSample layer; ///< traced phase only
};

struct UnitRecord
{
    double wall = 0.0;
    std::vector<SimRecord> sims;
};

/**
 * The call sequence runExperiment() makes (harness/experiment.cc) for
 * default RunOptions, with a span around each call into a layer. It is
 * the only way to read the event counts and the PdesRunReport from
 * outside src/, because runExperiment() discards both. RunOptions'
 * traceSink is no substitute: it forces the serial plan.
 *
 * Known duplicate: `parts` copies runExperiment()'s default partition
 * policy, which the harness does not export. If that policy changes,
 * this copy goes stale silently (the plan moves results only by about
 * 1e-5, below the reference tolerance), so run.py also checks the
 * traced pdes.partitions against the policy. Exposing the event count
 * and the PdesRunReport through RunOptions, as statsVisitor already
 * is, would let this function and the copy go.
 */
harness::ExperimentResult
runComposed(const Point& p, unsigned sim_threads, SpanLog& log,
            std::size_t root, LayerSample& out)
{
    const long parent = static_cast<long>(root);
    const unsigned nodes = p.sys.numNodes();
    const unsigned parts = nodes >= 16 ? nodes / 8 : 1;

    std::size_t s = log.open("harness.machine_build", parent);
    harness::Machine machine(p.sys, parts);
    out.machineBuild = log.close(s);

    thrifty::SyncStats sync;
    s = log.open("thrifty.provider_build", parent);
    harness::ConfigBarrierProvider provider(machine, p.kind, nullptr,
                                            sync);
    log.close(s);

    s = log.open("workloads.program_build", parent);
    workloads::SyntheticProgram program(
        machine.eventQueue(), machine.memory(), machine.threadPtrs(),
        p.app, provider, p.sys.seed);
    out.programBuild = log.close(s);

    s = log.open("mem.seal", parent);
    machine.memory().addressMap().seal();
    log.close(s);

    s = log.open("workloads.start", parent);
    program.start();
    log.close(s);

    s = log.open("sim.drain", parent);
    out.pdes = harness::runMachinePdes(machine, sim_threads);
    out.drain = log.close(s);

    s = log.open("thrifty.merge", parent);
    provider.mergeStats();
    out.merge = log.close(s);
    if (!program.finished())
        panic("experiment deadlocked: ", p.app.name, " under ",
              harness::configName(p.kind));

    harness::ExperimentResult r;
    r.app = p.app.name;
    r.config = harness::configName(p.kind);
    r.execTime = program.finishTick();
    r.threads = machine.config().numNodes();
    r.sync = std::move(sync);

    s = log.open("power.energy", parent);
    const power::EnergyAccount total = machine.totalEnergy();
    for (std::size_t i = 0; i < power::kNumBuckets; ++i) {
        const auto b = static_cast<power::Bucket>(i);
        r.energy[i] = total.energy(b);
        r.time[i] = total.time(b);
    }
    log.close(s);

    for (unsigned c = 0; c < machine.partitions(); ++c)
        out.events += machine.clusterQueue(c).eventsExecuted();
    s = log.open("harness.visit_stats", parent);
    GroupSums sums(out.stats);
    machine.visitStats(sums);
    log.close(s);
    return r;
}

std::string
serializeAll(const std::vector<SimRecord>& sims)
{
    std::string all;
    for (const SimRecord& r : sims)
        all += (r.error.empty() ? harness::serializeResult(r.result)
                                : "error: " + r.error) + "\n";
    return all;
}

void
printSim(const char* phase, std::size_t unit, const Point& p,
         const SimRecord& r)
{
    obs::JsonWriter w(std::cout);
    w.beginObject()
        .field("kind", "sim")
        .field("phase", phase)
        .field("unit", unit)
        .field("point", p.id)
        .field("wall_s", r.wall)
        .field("error", r.error);
    if (r.error.empty()) {
        w.field("digest",
                hex64(harness::fnv1a64(harness::serializeResult(r.result))))
            .field("exec_time_s", ticksToSeconds(r.result.execTime))
            .field("energy_j", r.result.totalEnergy())
            .field("threads", r.result.threads)
            .field("instances", r.result.sync.instances)
            .field("arrivals", r.result.sync.arrivals)
            .field("expected_instances", p.app.totalInstances());
    }
    w.endObject();
    std::cout << '\n';
}

/**
 * Run units of @p w until @p budget seconds have passed (at least
 * one), printing each simulation and unit. A non-null @p log turns on
 * the traced composition and receives its spans.
 */
std::vector<UnitRecord>
runPhase(const Workload& w, const char* phase, double budget,
         SpanLog* log)
{
    std::vector<UnitRecord> units;
    const harness::ParallelCampaignRunner runner(w.jobs);
    const long root =
        log ? static_cast<long>(log->open("bench.workload", -1, w.name))
            : -1;
    const Clock::time_point t0 = Clock::now();
    do {
        const std::size_t u = units.size();
        const std::string pass_id = w.name + "/" + std::to_string(u);
        const long pass =
            log ? static_cast<long>(log->open("bench.pass", root, pass_id))
                : -1;
        UnitRecord unit;
        unit.sims.resize(w.points.size());
        std::vector<SpanLog> logs(log ? w.points.size() : 0);
        const Clock::time_point start = Clock::now();
        runner.run(w.points.size(), [&](std::size_t i) {
            const Point& p = w.points[i];
            SimRecord& rec = unit.sims[i];
            const Clock::time_point t = Clock::now();
            std::size_t span = 0;
            if (log)
                span = logs[i].open("harness.point", -1,
                                    pass_id + "/" + p.id);
            try {
                if (log) {
                    rec.result = runComposed(p, w.simThreads, logs[i],
                                             span, rec.layer);
                } else {
                    harness::RunOptions ro;
                    ro.simThreads = w.simThreads;
                    rec.result = harness::runExperiment(p.sys, p.app,
                                                        p.kind, ro);
                }
            } catch (const std::exception& e) {
                rec.error = e.what();
            }
            if (log)
                logs[i].close(span);
            rec.wall = secondsSince(t);
        });
        unit.wall = secondsSince(start);
        if (log) {
            for (const SpanLog& l : logs)
                log->adopt(l, pass);
            log->close(static_cast<std::size_t>(pass));
        }

        for (std::size_t i = 0; i < w.points.size(); ++i)
            printSim(phase, u, w.points[i], unit.sims[i]);
        obs::JsonWriter jw(std::cout);
        jw.beginObject()
            .field("kind", "unit")
            .field("phase", phase)
            .field("unit", u)
            .field("wall_s", unit.wall)
            .field("digest", hex64(harness::fnv1a64(serializeAll(unit.sims))))
            .endObject();
        std::cout << '\n';
        units.push_back(std::move(unit));
    } while (secondsSince(t0) < budget);
    if (log)
        log->close(static_cast<std::size_t>(root));
    return units;
}

// --------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

void
printMetrics(const char* kind, const Metrics& m,
             const std::map<std::string, std::size_t>& samples = {})
{
    obs::JsonWriter w(std::cout);
    w.beginObject().field("kind", kind).key("metrics").beginObject();
    for (const auto& [name, value] : m) {
        w.key(name).beginObject().field("value", value);
        if (auto it = samples.find(name); it != samples.end())
            w.field("samples", it->second);
        w.endObject();
    }
    w.endObject().endObject();
    std::cout << '\n';
}

/**
 * End-to-end metrics of the untraced units. The host is shared, and
 * contention from other tenants only ever slows a unit down (by up to
 * 2x for seconds at a time), so each timing is the fastest of the
 * run's repetitions: wall_s is the fastest unit, and the point
 * percentiles are taken across the workload's points of each point's
 * fastest simulation.
 */
void
printEndToEnd(const std::vector<UnitRecord>& units)
{
    std::vector<double> unit_walls;
    std::vector<double> best(units.front().sims.size(), HUGE_VAL);
    for (const UnitRecord& u : units) {
        unit_walls.push_back(u.wall);
        for (std::size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], u.sims[i].wall);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    printMetrics("e2e",
                 {{"wall_s", *std::min_element(unit_walls.begin(),
                                               unit_walls.end())},
                  {"point_p50_s", quantile(best, 0.5)},
                  {"point_p90_s", quantile(best, 0.9)},
                  {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0}},
                 {{"wall_s", unit_walls.size()},
                  {"point_p50_s", best.size()},
                  {"point_p90_s", best.size()},
                  {"peak_rss_mb", 1}});
}

/**
 * Per-layer metrics of the traced units. Counts are per unit of work
 * (identical in every unit of a deterministic run), times are medians
 * over simulations, and host_ns_per_* divide drain time by a count.
 */
Metrics
layerMetrics(const std::vector<UnitRecord>& units, unsigned jobs)
{
    std::vector<double> point, build, program, drain, merge;
    double unit_wall = 0.0, point_sum = 0.0, drain_ns = 0.0;
    double events = 0.0, sent = 0.0, nulls = 0.0, stalls = 0.0;
    double rescues = 0.0, lookahead_ns = 0.0;
    unsigned parts = 0, threads = 0;
    double instances = 0.0, arrivals = 0.0, sleeps = 0.0, cutoffs = 0.0;
    double filtered = 0.0, residual = 0.0;
    std::map<std::string, double> st;
    for (const UnitRecord& u : units) {
        unit_wall += u.wall;
        for (const SimRecord& r : u.sims) {
            point.push_back(r.wall);
            point_sum += r.wall;
            if (!r.error.empty())
                continue;
            const LayerSample& l = r.layer;
            build.push_back(l.machineBuild);
            program.push_back(l.programBuild);
            drain.push_back(l.drain);
            merge.push_back(l.merge);
            drain_ns += l.drain * 1e9;
            events += static_cast<double>(l.events);
            sent += static_cast<double>(l.pdes.engine.sent);
            nulls += static_cast<double>(l.pdes.engine.nullPublishes);
            stalls += static_cast<double>(l.pdes.engine.stallRounds);
            rescues += static_cast<double>(l.pdes.engine.gvtRescues);
            parts = std::max(parts, l.pdes.partitions);
            threads = std::max(threads, l.pdes.threads);
            lookahead_ns = static_cast<double>(l.pdes.modelLookahead) /
                           static_cast<double>(kNanosecond);
            const thrifty::SyncStats& s = r.result.sync;
            instances += static_cast<double>(s.instances);
            arrivals += static_cast<double>(s.arrivals);
            sleeps += static_cast<double>(s.sleeps);
            cutoffs += static_cast<double>(s.cutoffs);
            filtered += static_cast<double>(s.filteredUpdates);
            residual += static_cast<double>(s.residualSpins);
            for (const auto& [k, v] : l.stats)
                st[k] += v;
        }
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, units.size()));
    const auto stat = [&st](const char* key) {
        const auto it = st.find(key);
        return it == st.end() ? 0.0 : it->second;
    };
    const double ns = static_cast<double>(kNanosecond);
    const double messages = stat("noc.messages");
    const double dir_requests = stat("dir.requests");
    return {
        {"harness.point_s", quantile(point, 0.5)},
        {"harness.worker_idle_frac",
         1.0 - ratio(point_sum, unit_wall * jobs)},
        {"harness.machine_build_s", quantile(build, 0.5)},
        {"workloads.program_build_s", quantile(program, 0.5)},
        {"sim.events", events / n},
        {"sim.drain_s", quantile(drain, 0.5)},
        {"sim.host_ns_per_event", ratio(drain_ns, events)},
        {"pdes.partitions", static_cast<double>(parts)},
        {"pdes.threads", static_cast<double>(threads)},
        {"pdes.lookahead_ns", lookahead_ns},
        {"pdes.sent_per_event", ratio(sent, events)},
        {"pdes.null_per_event", ratio(nulls, events)},
        {"pdes.stall_per_event", ratio(stalls, events)},
        {"pdes.gvt_rescues", rescues / n},
        {"noc.messages", messages / n},
        {"noc.hops_mean",
         ratio(stat("noc.hops.total"), stat("noc.hops.count"))},
        {"noc.bytes", stat("noc.bytes") / n},
        {"noc.latency_mean_ns",
         ratio(stat("noc.latency.total"), stat("noc.latency.count")) / ns},
        {"noc.link_stall_ns_per_msg",
         ratio(stat("noc.linkStallTicks"), messages) / ns},
        {"noc.host_ns_per_msg", ratio(drain_ns, messages)},
        {"mem.l1_hit_ratio",
         ratio(stat("ctrl.l1Hits"),
               stat("ctrl.l1Hits") + stat("ctrl.l1Misses"))},
        {"mem.l2_hit_ratio",
         ratio(stat("ctrl.l2Hits"),
               stat("ctrl.l2Hits") + stat("ctrl.l2Misses"))},
        {"mem.dir_requests", dir_requests / n},
        {"mem.dir_rmws", stat("dir.rmws") / n},
        {"mem.invs_received", stat("ctrl.invsReceived") / n},
        {"mem.upgrades", stat("ctrl.upgrades") / n},
        {"mem.fwds_received", stat("ctrl.fwdsReceived") / n},
        {"mem.dram_reads", stat("dram.reads") / n},
        {"mem.dram_writes", stat("dram.writes") / n},
        {"mem.dram_bus_stall_ns", stat("dram.busStallTicks") / ns / n},
        {"mem.host_ns_per_dir_request", ratio(drain_ns, dir_requests)},
        {"thrifty.instances", instances / n},
        {"thrifty.arrivals", arrivals / n},
        {"thrifty.sleep_ratio", ratio(sleeps, arrivals)},
        {"thrifty.cutoffs", cutoffs / n},
        {"thrifty.filtered_updates", filtered / n},
        {"thrifty.residual_spins", residual / n},
        {"thrifty.flushes", stat("cpu.flushes") / n},
        {"thrifty.wakes.external", stat("ctrl.externalWakes") / n},
        {"thrifty.wakes.timer", stat("ctrl.timerWakes") / n},
        {"thrifty.wakes.intervention", stat("ctrl.interventionWakes") / n},
        {"thrifty.wakes.false", stat("ctrl.falseWakes") / n},
        {"thrifty.wakes.buffer_overflow",
         stat("ctrl.bufferOverflowWakes") / n},
        {"thrifty.sleep_entries.sleep1",
         stat("cpu.sleepEntries.Sleep1(Halt)") / n},
        {"thrifty.sleep_entries.sleep2",
         stat("cpu.sleepEntries.Sleep2") / n},
        {"thrifty.sleep_entries.sleep3",
         stat("cpu.sleepEntries.Sleep3") / n},
        {"thrifty.merge_s", quantile(merge, 0.5)},
        {"thrifty.host_ns_per_arrival", ratio(drain_ns, arrivals)},
    };
}

// --------------------------------------------------------------------
// Command line
// --------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    bool setupOnly = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char* prog, const std::string& why)
{
    std::cerr << prog << ": " << why << "\nusage: " << prog
              << " --workload paper-suite|single-sim|coherence-migratory"
                 "|barrier-storm [--seed S] [--seconds T] [--traced]"
                 " [--trace-out FILE] [--setup-only]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0], a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = next();
        } else if (a == "--seed") {
            const std::string v = next();
            char* end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || v[0] == '-' || *end != '\0')
                usage(argv[0], "bad --seed '" + v + "'");
        } else if (a == "--seconds") {
            const std::string v = next();
            char* end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds >= 0.0))
                usage(argv[0], "bad --seconds '" + v + "'");
        } else if (a == "--traced") {
            o.traced = true;
        } else if (a == "--setup-only") {
            o.setupOnly = true;
        } else if (a == "--trace-out") {
            o.traceOut = next();
        } else {
            usage(argv[0], "unknown argument '" + a + "'");
        }
    }
    if (o.workload.empty())
        usage(argv[0], "--workload is required");
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    const unsigned nproc = hostCpus();
    const unsigned threads = std::min(4u, nproc);

    {
        obs::JsonWriter w(std::cout);
        w.beginObject()
            .field("kind", "host")
            .field("nproc", nproc)
            .field("threads", threads)
            .field("build_type", TB_BENCH_BUILD_TYPE)
            .field("optimized", kOptimized)
            .field("checked_by_default", check::checkedByDefault())
            .field("compiler", __VERSION__)
            .endObject();
        std::cout << std::endl;
    }
    if (check::checkedByDefault() || !kOptimized) {
        std::cerr << argv[0]
                  << ": refusing to time this build: it must be "
                     "optimised and must not arm the protocol checker "
                     "by default (TB_CHECK and Debug force the serial "
                     "plan); configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }

    const std::optional<Workload> w =
        makeWorkload(opt.workload, opt.seed, threads);
    if (!w)
        usage(argv[0], "unknown workload '" + opt.workload + "'");

    {
        obs::JsonWriter jw(std::cout);
        jw.beginObject()
            .field("kind", "ready")
            .field("monotonic_s",
                   std::chrono::duration<double>(
                       Clock::now().time_since_epoch())
                       .count())
            .endObject();
        std::cout << std::endl;
    }
    if (opt.setupOnly)
        return 0;

    const double plain_budget = opt.traced ? opt.seconds / 2 : opt.seconds;
    const std::vector<UnitRecord> plain =
        runPhase(*w, "plain", plain_budget, nullptr);
    SpanLog spans;
    std::vector<UnitRecord> traced;
    if (opt.traced)
        traced = runPhase(*w, "traced", opt.seconds / 2, &spans);
    if (w->simThreads > 1) {
        // The partitioned plan promises identical results at any
        // worker count; check one untimed single-worker run.
        Workload serial = *w;
        serial.simThreads = 1;
        runPhase(serial, "check", 0.0, nullptr);
    }

    printEndToEnd(plain);
    if (opt.traced) {
        printMetrics("layer", layerMetrics(traced, w->jobs));
        if (!opt.traceOut.empty() && !spans.writeChromeTrace(opt.traceOut)) {
            std::cerr << argv[0] << ": cannot write " << opt.traceOut
                      << '\n';
            return 1;
        }
    }
    return 0;
}
