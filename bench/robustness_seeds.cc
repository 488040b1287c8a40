/**
 * @file
 * Robustness of the headline result across workload seeds: the Figure
 * 5/6 averages for the five target applications, re-measured with
 * five different synthetic-workload seeds. The paper's claim should
 * not hinge on one draw of the random streams.
 *
 *   robustness_seeds [--jobs N] [--out FILE] [--only-point I]
 *                    [--trace FILE[:categories]] [--stats-json FILE]
 *
 * Each (seed, application) pair is one campaign point running the
 * Baseline / Thrifty-Halt / Thrifty triple; points are independent,
 * so the campaign shards them exactly like robustness_faults
 * (docs/ROBUSTNESS.md, "Campaigns").
 *
 * Each run emits one JSON line in the shared campaign shape
 * (bench_util.hh), directly comparable with the fault-injection
 * campaign's output (robustness_faults).
 */

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace {

using namespace tb;

const std::vector<std::uint64_t> kSeeds = {1, 2, 3, 5, 8};

/** One (seed, application) point. */
struct Point
{
    std::uint64_t seed = 1;
    std::string app;
};

std::vector<Point>
pointSpace()
{
    std::vector<Point> points;
    for (std::uint64_t seed : kSeeds) {
        for (const auto& name : workloads::targetAppNames())
            points.push_back(Point{seed, name});
    }
    return points;
}

/** One point's Baseline / Thrifty-Halt / Thrifty results. */
struct Triple
{
    harness::ExperimentResult base, halt, thrifty;
};

/**
 * Run one point's Baseline/Halt/Thrifty triple. A non-null @p capture
 * records the three runs once all of them have finished, so a failed
 * point deposits nothing.
 */
Triple
runPoint(const Point& p, std::size_t index,
         harness::ObsCapture* capture)
{
    using harness::ConfigKind;
    harness::SystemConfig sys = harness::SystemConfig::paperDefault();
    sys.seed = p.seed;
    const auto app = workloads::appByName(p.app);

    // Three runs per point: each gets its own capture slot so trace
    // pids stay unique (point index * 3 + config).
    harness::ObsCapture::PointScope scopes[3];
    const auto run_one = [&](ConfigKind k, std::size_t sub) {
        harness::RunOptions ro;
        if (capture)
            capture->arm(index * 3 + sub, &ro, &scopes[sub]);
        return runExperiment(sys, app, k, ro);
    };
    Triple t{run_one(ConfigKind::Baseline, 0),
             run_one(ConfigKind::ThriftyHalt, 1),
             run_one(ConfigKind::Thrifty, 2)};
    if (capture) {
        const harness::ExperimentResult* runs[3] = {&t.base, &t.halt,
                                                    &t.thrifty};
        for (std::size_t sub = 0; sub < 3; ++sub) {
            capture->deposit(index * 3 + sub, *runs[sub], &scopes[sub],
                             "seed=" + std::to_string(p.seed) + "/" +
                                 p.app + "/" + runs[sub]->config);
        }
    }
    return t;
}

/** A point's three runs as campaign JSON lines. */
void
printPointJson(std::ostream& os, const Point& p, const Triple& t)
{
    const harness::SystemConfig sys =
        harness::SystemConfig::paperDefault();
    tb::bench::CampaignPoint pt;
    pt.campaign = "seeds";
    pt.dim = sys.noc.dimension;
    pt.seed = p.seed;
    pt.protocol =
        sys.memory.threeHopForwarding ? "three-hop" : "hub";
    tb::bench::printCampaignJson(os, pt, t.base);
    tb::bench::printCampaignJson(os, pt, t.halt);
    tb::bench::printCampaignJson(os, pt, t.thrifty);
}

} // namespace

int
main(int argc, char** argv)
{
    const harness::CampaignOptions opts =
        harness::CampaignOptions::parse(argc, argv,
                                        /*allowQuick=*/false);
    const std::vector<Point> points = pointSpace();

    // Three capture slots per point (runPoint).
    harness::ObsCapture capture(opts, "seeds", points.size() * 3);
    std::vector<Triple> results(points.size());
    const auto run_point = [&](std::size_t i) {
        results[i] =
            runPoint(points[i], i, capture.active() ? &capture : nullptr);
    };

    if (opts.onlyPoint >= 0) {
        const std::size_t i = static_cast<std::size_t>(opts.onlyPoint);
        if (i >= points.size()) {
            std::fprintf(stderr,
                         "--only-point %ld out of range [0, %zu)\n",
                         opts.onlyPoint, points.size());
            return 2;
        }
        std::fprintf(stderr, "point %ld: seed=%llu app=%s\n",
                     opts.onlyPoint,
                     static_cast<unsigned long long>(points[i].seed),
                     points[i].app.c_str());
        if (!tb::bench::runOnlyPoint(opts.onlyPoint,
                                     [&] { run_point(i); }))
            return 1;
        std::ostringstream lines;
        printPointJson(lines, points[i], results[i]);
        std::fputs(lines.str().c_str(), stdout);
        tb::bench::writeCampaignArtifacts(opts, "", capture);
        return 0;
    }

    tb::bench::banner("Robustness — headline averages across seeds",
                      harness::SystemConfig::paperDefault());

    if (!tb::bench::runCampaignPoints(opts, "robustness_seeds",
                                      points.size(), run_point))
        return 1;

    std::ostringstream artifact;
    const std::size_t apps_per_seed =
        workloads::targetAppNames().size();
    std::vector<double> halt_savings, thrifty_savings,
        thrifty_slowdowns;

    char row[128];
    std::snprintf(row, sizeof(row), "%6s %16s %16s %14s\n",
                  "seed", "H saving", "T saving", "T slowdown");
    std::string table = row;
    for (std::size_t s = 0; s < kSeeds.size(); ++s) {
        double h_sum = 0.0, t_sum = 0.0, slow_sum = 0.0;
        for (std::size_t a = 0; a < apps_per_seed; ++a) {
            const std::size_t i = s * apps_per_seed + a;
            const Triple& r = results[i];
            printPointJson(artifact, points[i], r);
            const double base_e = r.base.totalEnergy();
            h_sum += 1.0 - r.halt.totalEnergy() / base_e;
            t_sum += 1.0 - r.thrifty.totalEnergy() / base_e;
            slow_sum += static_cast<double>(r.thrifty.execTime) /
                            static_cast<double>(r.base.execTime) -
                        1.0;
        }
        const double n = static_cast<double>(apps_per_seed);
        halt_savings.push_back(100.0 * h_sum / n);
        thrifty_savings.push_back(100.0 * t_sum / n);
        thrifty_slowdowns.push_back(100.0 * slow_sum / n);
        std::snprintf(row, sizeof(row),
                      "%6llu %15.1f%% %15.1f%% %13.2f%%\n",
                      static_cast<unsigned long long>(kSeeds[s]),
                      halt_savings.back(),
                      thrifty_savings.back(),
                      thrifty_slowdowns.back());
        table += row;
    }
    artifact << table;

    const auto mean_sd = [](const std::vector<double>& v) {
        double m = 0.0;
        for (double x : v)
            m += x;
        m /= static_cast<double>(v.size());
        double s2 = 0.0;
        for (double x : v)
            s2 += (x - m) * (x - m);
        return std::pair<double, double>(
            m, std::sqrt(s2 / static_cast<double>(v.size())));
    };
    const auto [hm, hs] = mean_sd(halt_savings);
    const auto [tm, ts] = mean_sd(thrifty_savings);
    const auto [sm, ss] = mean_sd(thrifty_slowdowns);

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\nacross seeds (mean +/- sd):\n"
                  "  Thrifty-Halt saving : %5.1f%% +/- %.1f\n"
                  "  Thrifty saving      : %5.1f%% +/- %.1f  "
                  "(paper ~17%%)\n"
                  "  Thrifty slowdown    : %5.2f%% +/- %.2f  "
                  "(paper ~2%%)\n",
                  hm, hs, tm, ts, sm, ss);
    artifact << buf;
    std::fputs(artifact.str().c_str(), stdout);
    std::fflush(stdout);

    tb::bench::writeCampaignArtifacts(opts, artifact.str(), capture);
    return 0;
}
