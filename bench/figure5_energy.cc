/**
 * @file
 * Reproduces Figure 5: normalized energy consumption of the ten
 * SPLASH-2-like applications under the five configurations
 * (Baseline, Thrifty-Halt, Oracle-Halt, Thrifty, Ideal), broken into
 * Compute / Spin / Transition / Sleep, plus the Section 5.1 headline
 * averages over the five target applications.
 *
 *   figure5_energy [--jobs N] [--out FILE] [--only-point I]
 *                  [--trace FILE[:categories]] [--stats-json FILE]
 *
 * The 50 (app x configuration) simulations are campaign points,
 * sharded over --jobs threads (see docs/ROBUSTNESS.md, "Campaigns").
 * A failed point exits 1 with its diagnostic and rerun command on
 * stderr, and no artifact. --only-point I prints point I's serialized
 * result under the same plan the campaign would use.
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
        opts, "figure5_energy", apps.size() * bench::figureConfigs().size());

    if (opts.onlyPoint >= 0)
        return bench::runOnlyMatrixPoint(sys, apps, opts, &capture);

    bench::banner("Figure 5 — normalized energy consumption", sys);

    std::vector<std::vector<harness::ExperimentResult>> groups;
    if (!bench::runAppConfigMatrix(sys, apps, opts, "figure5_energy",
                                   &groups, &capture))
        return 1;

    std::ostringstream artifact;
    for (const auto& group : groups) {
        harness::report::printBreakdownGroup(artifact, group,
                                             /*use_energy=*/true);
        harness::report::printStackedBars(artifact, group,
                                          /*use_energy=*/true);
        artifact << '\n';
    }
    harness::report::printSummary(artifact, groups,
                                  workloads::targetAppNames());
    artifact
        << "\nPaper reference (Section 5.1): Thrifty saves "
           "~17% energy on the five target\napplications at "
           "~2% slowdown; Thrifty-Halt saves ~11%. Shapes to "
           "check: energy\nordering I <= T <= H <= B on "
           "imbalanced apps, FFT/Cholesky == Baseline, Ocean\n"
           "slightly above Baseline.\n";
    std::cout << artifact.str() << std::flush;

    bench::writeCampaignArtifacts(opts, artifact.str(), capture);
    return 0;
}
