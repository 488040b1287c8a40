/**
 * @file
 * Reproduces Figure 6: normalized execution time of the ten
 * applications under the five configurations, broken into
 * Compute / Spin / Transition / Sleep per-CPU time.
 *
 *   figure6_time [--jobs N] [--deadline-ms N] [--isolate]
 *                [--out FILE] [--manifest FILE] [--only-point I]
 *                [--trace FILE[:categories]] [--stats-json FILE]
 *
 * The 50 (app x configuration) simulations run under the campaign
 * supervisor — same surface as figure5_energy (docs/ROBUSTNESS.md,
 * "Supervised campaigns").
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
    harness::ObsCapture capture(opts, "figure6_time");

    if (opts.onlyPoint >= 0) {
        const std::size_t count =
            apps.size() * bench::figureConfigs().size();
        if (static_cast<std::size_t>(opts.onlyPoint) >= count) {
            std::cerr << "--only-point " << opts.onlyPoint
                      << " out of range [0, " << count << ")\n";
            return 2;
        }
        const harness::PointTask task = bench::matrixPointTask(
            sys, apps, opts, "figure6_time", &capture);
        std::cout << task.run(opts.onlyPoint) << '\n';
        if (capture.statsEnabled())
            std::cout << capture.predictionSummaryJson();
        capture.writeFiles();
        return 0;
    }

    bench::banner("Figure 6 — normalized execution time", sys);

    std::vector<std::vector<harness::ExperimentResult>> groups;
    const harness::SupervisorReport report =
        bench::runAppConfigMatrixSupervised(sys, apps, opts,
                                            "figure6_time", &groups,
                                            &capture);

    std::ostringstream artifact;
    if (report.ok()) {
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
    } else {
        std::cout << "figure withheld: " << report.failures()
                  << " point failure(s) — see the failure manifest\n";
    }

    return bench::finishSupervisedCampaign(opts, report,
                                           "figure6_time",
                                           artifact.str(), &capture);
}
