/**
 * @file
 * The paper campaign: Table 2, Figures 5 and 6, the six ablations,
 * the scaling study and the seed sweep from one run that simulates
 * each distinct point once (paper_campaign.hh).
 *
 *   paper_campaign [--jobs N] [--out DIR] [--only-point I]
 *                  [--trace FILE[:categories]] [--stats-json FILE]
 *
 * Prints every artifact, banner first, to stdout. --out DIR also
 * writes each one atomically to DIR/<name>.txt, where <name> is its
 * golden.txt pin; the figure5 and figure6 files omit the banner. The
 * table's entries are campaign points, sharded over --jobs threads
 * (docs/ROBUSTNESS.md, "Campaigns"): a failed point exits 1 with its
 * diagnostic and rerun command on stderr, and no artifact. --only-point
 * I prints entry I's label to stderr and its serialized result to
 * stdout; --trace and --stats-json record one slot per entry, in table
 * order.
 */

#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "paper_campaign.hh"

int
main(int argc, char** argv)
{
    using namespace tb;
    const harness::CampaignOptions opts =
        harness::CampaignOptions::parse(argc, argv,
                                        /*allowQuick=*/false);
    const bench::PointTable table = bench::paperTable();
    const auto& points = table.points();
    harness::ObsCapture capture(opts, "paper_campaign", points.size());

    if (opts.onlyPoint >= 0)
        return bench::runOnlyPaperPoint(table, opts, &capture);

    std::vector<harness::ExperimentResult> results(points.size());
    if (!bench::runCampaignPoints(
            opts, "paper_campaign", points.size(), [&](std::size_t i) {
                results[i] = bench::runPaperPoint(points[i], i, &capture);
            }))
        return 1;

    const bench::PointResults lookup(table, results);
    const harness::SystemConfig sys = harness::SystemConfig::paperDefault();
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto& a : bench::paperArtifacts()) {
        const std::string banner = bench::bannerText(a.title, sys);
        const std::string body = a.render(lookup);
        std::cout << banner << body;
        files.emplace_back(std::string(a.name) + ".txt",
                           a.bannerInFile ? banner + body : body);
    }
    std::cout << std::flush;

    if (capture.statsEnabled())
        std::cout << capture.predictionSummaryJson() << std::flush;
    capture.writeFiles();
    if (!opts.outPath.empty()) {
        std::filesystem::create_directories(opts.outPath);
        for (const auto& [name, text] : files)
            harness::writeFileAtomic(opts.outPath + "/" + name, text);
    }
    return 0;
}
