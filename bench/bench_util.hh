/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries.
 */

#ifndef TB_BENCH_BENCH_UTIL_HH_
#define TB_BENCH_BENCH_UTIL_HH_

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign_cli.hh"
#include "harness/campaign_supervisor.hh"
#include "harness/experiment.hh"
#include "harness/obs_capture.hh"
#include "harness/result_serde.hh"
#include "harness/parallel_runner.hh"
#include "harness/report.hh"
#include "obs/json_writer.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace bench {

/** The five configurations in figure order (B, H, O, T, I). */
inline std::vector<harness::ConfigKind>
figureConfigs()
{
    return {harness::ConfigKind::Baseline,
            harness::ConfigKind::ThriftyHalt,
            harness::ConfigKind::OracleHalt,
            harness::ConfigKind::Thrifty, harness::ConfigKind::Ideal};
}

/** Run every figure configuration of @p app on @p sys. */
inline std::vector<harness::ExperimentResult>
runAllConfigs(const harness::SystemConfig& sys,
              const workloads::AppProfile& app)
{
    std::vector<harness::ExperimentResult> out;
    for (harness::ConfigKind k : figureConfigs())
        out.push_back(harness::runExperiment(sys, app, k));
    return out;
}

/**
 * Run the full (app x configuration) matrix, sharding the independent
 * simulations across @p jobs host threads. Results come back grouped
 * per app in figure order — identical to looping runAllConfigs over
 * the apps serially, regardless of jobs.
 */
inline std::vector<std::vector<harness::ExperimentResult>>
runAppConfigMatrix(const harness::SystemConfig& sys,
                   const std::vector<workloads::AppProfile>& apps,
                   unsigned jobs)
{
    const std::vector<harness::ConfigKind> kinds = figureConfigs();
    std::vector<std::vector<harness::ExperimentResult>> groups(
        apps.size());
    for (auto& g : groups)
        g.resize(kinds.size());
    const harness::ParallelCampaignRunner runner(jobs);
    runner.run(apps.size() * kinds.size(), [&](std::size_t i) {
        const std::size_t a = i / kinds.size();
        const std::size_t k = i % kinds.size();
        groups[a][k] = harness::runExperiment(sys, apps[a], kinds[k]);
    });
    return groups;
}

/**
 * The (app x configuration) matrix as a supervised PointTask. The
 * closures reference @p sys, @p apps, @p opts and @p capture — all
 * must outlive the returned task. The config hash covers everything
 * that shapes a point's result, so journal entries never satisfy a
 * differently-configured campaign. `--only-point` runs `task.run(i)`
 * too, so a repro command simulates exactly the plan that failed.
 */
inline harness::PointTask
matrixPointTask(const harness::SystemConfig& sys,
                const std::vector<workloads::AppProfile>& apps,
                const harness::CampaignOptions& opts,
                const char* prog,
                harness::ObsCapture* capture = nullptr)
{
    const std::vector<harness::ConfigKind> kinds = figureConfigs();
    harness::PointTask task;
    task.run = [&sys, &apps, &opts, capture, kinds](std::size_t i) {
        const std::size_t a = i / kinds.size();
        const std::size_t k = i % kinds.size();
        harness::RunOptions ro;
        // Like --jobs, --sim-threads never changes a point's result
        // (parallel_sim.hh), so it stays out of task.key below. The
        // partition count selects the simulation plan and therefore
        // DOES enter the key.
        ro.simThreads = opts.simThreads;
        ro.simPartitions = opts.simPartitions;
        harness::ObsCapture::PointScope scope;
        if (capture)
            capture->arm(i, &ro, &scope);
        const harness::ExperimentResult r =
            harness::runExperiment(sys, apps[a], kinds[k], ro);
        if (capture) {
            capture->deposit(i, r, &scope,
                             apps[a].name + "/" +
                                 harness::configName(kinds[k]));
        }
        return harness::serializeResult(r);
    };
    task.key = [&sys, &apps, &opts, prog, kinds](std::size_t i) {
        const std::size_t a = i / kinds.size();
        const std::size_t k = i % kinds.size();
        std::ostringstream id;
        id << prog << '|' << apps[a].name << '|'
           << harness::configName(kinds[k]) << "|dim="
           << sys.noc.dimension << "|seed=" << sys.seed
           << "|three=" << sys.memory.threeHopForwarding
           << "|iters=" << apps[a].iterations;
        // 0 means "the default plan for this node count" and hashes
        // distinctly from an explicit count on purpose: cheap and
        // always conservative.
        if (opts.simPartitions != 0)
            id << "|parts=" << opts.simPartitions;
        return harness::fnv1a64(id.str());
    };
    task.seed = [&sys](std::size_t) { return sys.seed; };
    task.repro = [&opts, prog](std::size_t i) {
        return std::string(prog) + " --only-point " +
               std::to_string(i) + opts.reproFlags();
    };
    return task;
}

/**
 * Supervised variant of runAppConfigMatrix for the figure campaigns:
 * the same (app x configuration) point space under a local
 * CampaignSupervisor, each point's full ExperimentResult serialized
 * losslessly so it survives --isolate's process boundary and the
 * journal's disk boundary alike. @p groups is filled exactly like
 * runAppConfigMatrix for every resolved point; consult the returned
 * report before rendering — failed points leave default-constructed
 * entries. A non-null @p capture records each in-process point's
 * trace and stats (--trace / --stats-json).
 */
inline harness::SupervisorReport
runAppConfigMatrixSupervised(
    const harness::SystemConfig& sys,
    const std::vector<workloads::AppProfile>& apps,
    const harness::CampaignOptions& opts, const char* prog,
    harness::CampaignJournal* journal,
    std::vector<std::vector<harness::ExperimentResult>>* groups,
    harness::ObsCapture* capture = nullptr)
{
    const std::vector<harness::ConfigKind> kinds = figureConfigs();
    const std::size_t count = apps.size() * kinds.size();
    const harness::PointTask task =
        matrixPointTask(sys, apps, opts, prog, capture);

    harness::CampaignSupervisor supervisor(opts.policy);
    supervisor.attachJournal(journal);
    harness::SupervisorReport report = supervisor.run(count, task);

    groups->assign(apps.size(),
                   std::vector<harness::ExperimentResult>(
                       kinds.size()));
    for (std::size_t i = 0; i < count; ++i) {
        const std::string& result = supervisor.results()[i];
        if (result.empty())
            continue;
        (*groups)[i / kinds.size()][i % kinds.size()] =
            harness::deserializeResult(result);
    }
    return report;
}

/** One point of a robustness campaign (seeds or faults sweep). */
struct CampaignPoint
{
    std::string campaign;  ///< "seeds" or "faults"
    unsigned dim = 0;      ///< hypercube dimension (2^dim nodes)
    std::uint64_t seed = 0;
    std::string protocol;  ///< "hub" or "three-hop"
    std::string wakeup;    ///< wake-up policy ("" = preset default)
};

/**
 * Emit one campaign result as a single JSON line. Both robustness
 * campaigns (seed sweep, fault sweep) share this shape, so their
 * outputs are directly comparable: grep for `"campaign"` and compare
 * any metric across sweeps.
 */
inline void
printCampaignJson(std::ostream& os, const CampaignPoint& p,
                  const harness::ExperimentResult& r)
{
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("campaign", p.campaign)
        .field("app", r.app)
        .field("config", r.config)
        .field("dim", p.dim)
        .field("seed", p.seed)
        .field("protocol", p.protocol);
    if (!p.wakeup.empty())
        w.field("wakeup", p.wakeup);
    w.field("exec_time_s", ticksToSeconds(r.execTime))
        .field("energy_j", r.totalEnergy())
        .field("sleeps", r.sync.sleeps)
        .field("watchdog_fires", r.sync.watchdogFires)
        .field("residual_escalations", r.sync.residualEscalations)
        .field("quarantines", r.sync.quarantines)
        .field("fallback_episodes", r.sync.fallbackEpisodes);
    if (!r.faultSpec.empty()) {
        w.field("faults_injected", r.faultsInjected())
            .field("spec", r.faultSpec);
    }
    w.endObject();
    os << '\n';
}

/**
 * One metric of the simulator-core microbenchmark campaign, in the
 * same one-JSON-object-per-line shape as printCampaignJson so all
 * campaign outputs stay greppable/comparable the same way. Throughput
 * metrics (unit ending in "/s") are host-dependent; "ticks"-unit
 * metrics are simulated quantities and must be bit-stable per seed.
 */
struct MicroMetric
{
    std::string benchmark; ///< e.g. "eq_schedule_fire"
    std::string unit;      ///< "events/s", "txns/s", "ticks", ...
    double value = 0.0;
    std::uint64_t ops = 0; ///< operations contributing to the value
    double wallSeconds = 0.0;
    /**
     * Host worker threads the metric was measured with (PDES
     * benchmarks); 0 = thread-independent metric, field omitted.
     * compare_bench.py only enforces absolute speedup floors on
     * lines that actually ran multi-threaded (threads >= 4).
     */
    unsigned threads = 0;
};

/** Emit one microbenchmark metric as a single campaign-JSON line. */
inline void
printMicroJson(std::ostream& os, const MicroMetric& m)
{
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("campaign", "simcore")
        .field("benchmark", m.benchmark)
        .field("unit", m.unit)
        .field("value", m.value)
        .field("ops", m.ops)
        .field("wall_s", m.wallSeconds);
    if (m.threads != 0)
        w.field("threads", m.threads);
    w.endObject();
    os << '\n';
}

/**
 * Extract an unsigned integer field (`"key": N`) from one of our own
 * campaign-JSON lines; 0 when absent. Campaign summaries aggregate
 * counters from result lines this way so journaled (replayed) points
 * count exactly like freshly-run ones.
 */
inline std::uint64_t
extractJsonU64(const std::string& line, const std::string& key)
{
    const std::string pat = "\"" + key + "\": ";
    const std::size_t at = line.find(pat);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + at + pat.size(), nullptr, 10);
}

/**
 * Emit a supervised campaign's epilogue: the failure manifest (repro
 * command per failed point) to stderr plus optional atomic artifact
 * files, and map the report to the process exit code. @p artifact is
 * the campaign's canonical deterministic output — already printed to
 * stdout by the caller — which `--out` persists via atomic rename so
 * a resumed campaign can be diffed byte-for-byte against a straight
 * run. The supervisor counter line (kind "supervisor") goes to stdout
 * only: it legitimately differs between a straight and a resumed run
 * (the journaled count), so it must not pollute the artifact.
 */
inline int
finishSupervisedCampaign(const harness::CampaignOptions& opts,
                         const harness::SupervisorReport& report,
                         const std::string& campaign,
                         const std::string& artifact,
                         const harness::ObsCapture* capture = nullptr)
{
    std::cout << report.summaryJson(campaign) << std::flush;
    if (capture && capture->statsEnabled())
        std::cout << capture->predictionSummaryJson() << std::flush;
    if (capture)
        capture->writeFiles();

    std::ostringstream manifest;
    report.writeManifest(manifest, campaign);
    if (!manifest.str().empty())
        std::cerr << manifest.str() << std::flush;
    if (!opts.manifestPath.empty()) {
        if (!report.ok())
            harness::writeFileAtomic(opts.manifestPath,
                                     manifest.str());
        else
            std::remove(opts.manifestPath.c_str());
    }
    if (!opts.outPath.empty() && !report.interrupted)
        harness::writeFileAtomic(opts.outPath, artifact);

    if (report.interrupted)
        return 130;
    return report.failures() == 0 ? 0 : 1;
}

/** Standard banner for every bench binary. */
inline void
banner(const std::string& title, const harness::SystemConfig& sys)
{
    std::cout << "==============================================="
                 "=====================\n"
              << title << "\n"
              << "The Thrifty Barrier (HPCA 2004) reproduction\n"
              << "==============================================="
                 "=====================\n";
    harness::report::printArchitecture(std::cout, sys);
    std::cout << '\n';
}

} // namespace bench
} // namespace tb

#endif // TB_BENCH_BENCH_UTIL_HH_
