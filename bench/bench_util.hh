/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries.
 */

#ifndef TB_BENCH_BENCH_UTIL_HH_
#define TB_BENCH_BENCH_UTIL_HH_

#include <exception>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign_cli.hh"
#include "harness/campaign_journal.hh"
#include "harness/experiment.hh"
#include "harness/obs_capture.hh"
#include "harness/parallel_runner.hh"
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
 * Run @p count campaign points through ParallelCampaignRunner on
 * `--jobs` threads; returns once every point has returned. When
 * points failed, prints the runner's diagnostic (every failed index,
 * one `point I: <what>` line each when several failed) and one rerun
 * command per failed point to stderr, and returns false: the caller
 * then exits 1 and writes no artifact.
 */
inline bool
runCampaignPoints(const harness::CampaignOptions& opts, const char* prog,
                  std::size_t count,
                  const std::function<void(std::size_t)>& point)
{
    // The runner rethrows a single failure unchanged, without its
    // index, so the rerun commands need their own record of which
    // points failed. Index-disjoint like the runner's error slots:
    // point i's worker alone writes failed[i], and the join publishes
    // it.
    std::vector<char> failed(count, 0);
    try {
        harness::ParallelCampaignRunner(opts.jobs).run(
            count, [&](std::size_t i) {
                try {
                    point(i);
                } catch (...) {
                    failed[i] = 1;
                    throw;
                }
            });
        return true;
    } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
    }
    for (std::size_t i = 0; i < count; ++i) {
        if (failed[i]) {
            std::cerr << "rerun a point with: " << prog
                      << " --only-point " << i << opts.reproFlags()
                      << '\n';
        }
    }
    return false;
}

/**
 * `--only-point I`: run point @p index under the same catch as
 * runCampaignPoints. A failure prints `point I: <what>` to stderr and
 * returns false: the caller then exits 1 and writes no artifact.
 */
inline bool
runOnlyPoint(long index, const std::function<void()>& point)
{
    try {
        point();
        return true;
    } catch (const std::exception& e) {
        std::cerr << "point " << index << ": " << e.what() << '\n';
        return false;
    }
}

/**
 * A successful campaign's epilogue: the prediction line (stdout,
 * with --stats-json) and the artifact files, each written atomically
 * — `--trace`, `--stats-json` and `--out`. @p artifact is the
 * campaign's canonical deterministic output, already printed to
 * stdout by the caller.
 */
inline void
writeCampaignArtifacts(const harness::CampaignOptions& opts,
                       const std::string& artifact,
                       const harness::ObsCapture& capture)
{
    if (capture.statsEnabled())
        std::cout << capture.predictionSummaryJson() << std::flush;
    capture.writeFiles();
    if (!opts.outPath.empty())
        harness::writeFileAtomic(opts.outPath, artifact);
}

/**
 * Run point @p i of the figure campaigns' (app x configuration)
 * matrix. The campaign and `--only-point` both run it, so a rerun
 * simulates exactly the plan that failed.
 */
inline harness::ExperimentResult
runMatrixPoint(const harness::SystemConfig& sys,
               const std::vector<workloads::AppProfile>& apps,
               std::size_t i, harness::ObsCapture* capture)
{
    const std::vector<harness::ConfigKind> kinds = figureConfigs();
    const std::size_t a = i / kinds.size();
    const std::size_t k = i % kinds.size();
    harness::RunOptions ro;
    harness::ObsCapture::PointScope scope;
    capture->arm(i, &ro, &scope);
    harness::ExperimentResult r =
        harness::runExperiment(sys, apps[a], kinds[k], ro);
    capture->deposit(i, r, &scope,
                     apps[a].name + "/" + harness::configName(kinds[k]));
    return r;
}

/**
 * `--only-point` of the figure campaigns: run that point and print
 * its serialized result (harness/result_serde.hh). Returns the exit
 * code: 1 when the point failed (runOnlyPoint).
 */
inline int
runOnlyMatrixPoint(const harness::SystemConfig& sys,
                   const std::vector<workloads::AppProfile>& apps,
                   const harness::CampaignOptions& opts,
                   harness::ObsCapture* capture)
{
    const std::size_t count = apps.size() * figureConfigs().size();
    const std::size_t i = static_cast<std::size_t>(opts.onlyPoint);
    if (i >= count) {
        std::cerr << "--only-point " << opts.onlyPoint
                  << " out of range [0, " << count << ")\n";
        return 2;
    }
    harness::ExperimentResult r;
    if (!runOnlyPoint(opts.onlyPoint, [&] {
            r = runMatrixPoint(sys, apps, i, capture);
        }))
        return 1;
    std::cout << harness::serializeResult(r) << '\n';
    writeCampaignArtifacts(opts, "", *capture);
    return 0;
}

/**
 * Run the figure campaigns' (app x configuration) matrix. On success
 * @p groups comes back grouped per app in figure order, whatever
 * --jobs is; false means points failed (runCampaignPoints). @p capture
 * records each finished point's trace and stats (--trace /
 * --stats-json) when those are on.
 */
inline bool
runAppConfigMatrix(
    const harness::SystemConfig& sys,
    const std::vector<workloads::AppProfile>& apps,
    const harness::CampaignOptions& opts, const char* prog,
    std::vector<std::vector<harness::ExperimentResult>>* groups,
    harness::ObsCapture* capture)
{
    const std::size_t configs = figureConfigs().size();
    std::vector<harness::ExperimentResult> results(apps.size() * configs);
    if (!runCampaignPoints(opts, prog, results.size(), [&](std::size_t i) {
            results[i] = runMatrixPoint(sys, apps, i, capture);
        }))
        return false;
    groups->assign(apps.size(), {});
    for (std::size_t i = 0; i < results.size(); ++i)
        (*groups)[i / configs].push_back(std::move(results[i]));
    return true;
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
