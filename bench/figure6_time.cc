/**
 * @file
 * Reproduces Figure 6: normalized execution time of the ten
 * applications under the five configurations, broken into
 * Compute / Spin / Transition / Sleep per-CPU time.
 *
 *   figure6_time [--jobs N] [--out FILE] [--only-point I]
 *                [--trace FILE[:categories]] [--stats-json FILE]
 *
 * The 50 (app x configuration) simulations are campaign points —
 * same surface as figure5_energy (docs/ROBUSTNESS.md, "Campaigns").
 */

#include <iostream>
#include <sstream>

#include "bench_util.hh"

int
main(int argc, char** argv)
{
    using namespace tb;
    const harness::CampaignOptions opts =
        harness::CampaignOptions::parse(argc, argv,
                                        /*allowQuick=*/false);
    const harness::SystemConfig sys =
        harness::SystemConfig::paperDefault();
    const auto apps = workloads::paperApps();
    harness::ObsCapture capture(
        opts, "figure6_time", apps.size() * bench::figureConfigs().size());

    if (opts.onlyPoint >= 0)
        return bench::runOnlyMatrixPoint(sys, apps, opts, &capture);

    bench::banner("Figure 6 — normalized execution time", sys);

    std::vector<std::vector<harness::ExperimentResult>> groups;
    if (!bench::runAppConfigMatrix(sys, apps, opts, "figure6_time",
                                   &groups, &capture))
        return 1;

    std::ostringstream artifact;
    for (const auto& group : groups) {
        harness::report::printBreakdownGroup(artifact, group,
                                             /*use_energy=*/false);
        harness::report::printStackedBars(artifact, group,
                                          /*use_energy=*/false);
        artifact << '\n';
    }
    harness::report::printSummary(artifact, groups,
                                  workloads::targetAppNames());
    artifact
        << "\nPaper reference (Section 5.1): performance "
           "degradation well bounded — about 2%\non average for "
           "the target applications, virtually zero elsewhere "
           "except Ocean\n(contained within 3.5% by the "
           "overprediction cutoff).\n";
    std::cout << artifact.str() << std::flush;

    bench::writeCampaignArtifacts(opts, artifact.str(), capture);
    return 0;
}
