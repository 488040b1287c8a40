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
#include "harness/campaign_journal.hh"
#include "harness/campaign_supervisor.hh"
#include "harness/experiment.hh"
#include "harness/obs_capture.hh"
#include "harness/result_serde.hh"
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

/**
 * The (app x configuration) matrix as a supervised PointTask. The
 * closures reference @p sys, @p apps, @p opts and @p capture — all
 * must outlive the returned task. `--only-point` runs `task.run(i)`
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
    task.run = [&sys, &apps, capture, kinds](std::size_t i) {
        const std::size_t a = i / kinds.size();
        const std::size_t k = i % kinds.size();
        harness::RunOptions ro;
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
    task.repro = [&opts, prog](std::size_t i) {
        return std::string(prog) + " --only-point " +
               std::to_string(i) + opts.reproFlags();
    };
    return task;
}

/**
 * Run the figure campaigns' (app x configuration) matrix under a
 * local CampaignSupervisor, each point's full ExperimentResult
 * serialized losslessly so it survives --isolate's process boundary.
 * @p groups comes back grouped per app in figure order, whatever
 * --jobs is; consult the returned report before rendering — failed
 * points leave default-constructed entries. A non-null @p capture
 * records each in-process point's trace and stats (--trace /
 * --stats-json).
 */
inline harness::SupervisorReport
runAppConfigMatrixSupervised(
    const harness::SystemConfig& sys,
    const std::vector<workloads::AppProfile>& apps,
    const harness::CampaignOptions& opts, const char* prog,
    std::vector<std::vector<harness::ExperimentResult>>* groups,
    harness::ObsCapture* capture = nullptr)
{
    const std::vector<harness::ConfigKind> kinds = figureConfigs();
    const std::size_t count = apps.size() * kinds.size();
    const harness::PointTask task =
        matrixPointTask(sys, apps, opts, prog, capture);

    harness::CampaignSupervisor supervisor(opts.policy);
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
    w.endObject();
    os << '\n';
}

/**
 * Extract an unsigned integer field (`"key": N`) from one of our own
 * campaign-JSON lines; 0 when absent. Campaign summaries aggregate
 * counters from result lines this way, so points run in --isolate
 * children count exactly like in-process ones.
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
 * stdout by the caller — which `--out` persists via atomic rename, so
 * no partial artifact ever appears. The supervisor counter line (kind
 * "supervisor") goes to stdout only: it describes the run (failures,
 * timeouts), not the paper artifact.
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
    if (!opts.outPath.empty())
        harness::writeFileAtomic(opts.outPath, artifact);
    return report.ok() ? 0 : 1;
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
