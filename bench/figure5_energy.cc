/**
 * @file
 * Reproduces Figure 5: normalized energy consumption of the ten
 * SPLASH-2-like applications under the five configurations
 * (Baseline, Thrifty-Halt, Oracle-Halt, Thrifty, Ideal), broken into
 * Compute / Spin / Transition / Sleep, plus the Section 5.1 headline
 * averages over the five target applications.
 *
 *   figure5_energy [--jobs N] [--deadline-ms N] [--isolate]
 *                  [--out FILE] [--manifest FILE] [--only-point I]
 *                  [--trace FILE[:categories]] [--stats-json FILE]
 *
 * The 50 (app x configuration) simulations run under the campaign
 * supervisor: sharded over --jobs threads, optionally deadline-bounded
 * and forked per point (see docs/ROBUSTNESS.md, "Supervised
 * campaigns"). --only-point I prints point I's serialized result
 * under the same plan the campaign would use.
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
    harness::ObsCapture capture(opts, "figure5_energy");

    if (opts.onlyPoint >= 0) {
        const std::size_t count =
            apps.size() * bench::figureConfigs().size();
        if (static_cast<std::size_t>(opts.onlyPoint) >= count) {
            std::cerr << "--only-point " << opts.onlyPoint
                      << " out of range [0, " << count << ")\n";
            return 2;
        }
        const harness::PointTask task = bench::matrixPointTask(
            sys, apps, opts, "figure5_energy", &capture);
        std::cout << task.run(opts.onlyPoint) << '\n';
        if (capture.statsEnabled())
            std::cout << capture.predictionSummaryJson();
        capture.writeFiles();
        return 0;
    }

    bench::banner("Figure 5 — normalized energy consumption", sys);

    std::vector<std::vector<harness::ExperimentResult>> groups;
    const harness::SupervisorReport report =
        bench::runAppConfigMatrixSupervised(sys, apps, opts,
                                            "figure5_energy", &groups,
                                            &capture);

    std::ostringstream artifact;
    if (report.ok()) {
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
    } else {
        std::cout << "figure withheld: " << report.failures()
                  << " point failure(s) — see the failure manifest\n";
    }

    return bench::finishSupervisedCampaign(opts, report,
                                           "figure5_energy",
                                           artifact.str(), &capture);
}
