/**
 * @file
 * Robustness of the headline result across workload seeds: the Figure
 * 5/6 averages for the five target applications, re-measured with
 * five different synthetic-workload seeds. The paper's claim should
 * not hinge on one draw of the random streams.
 *
 *   robustness_seeds [--jobs N] [--deadline-ms N] [--isolate]
 *                    [--out FILE] [--manifest FILE] [--only-point I]
 *
 * Each (seed, application) pair is one supervised campaign point
 * running the Baseline / Thrifty-Halt / Thrifty triple; points are
 * independent, so the campaign shards and isolates exactly like
 * robustness_faults (docs/ROBUSTNESS.md, "Supervised campaigns").
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

/**
 * Run one point's Baseline/Halt/Thrifty triple. The artifact is the
 * three campaign JSON lines followed by one `#metrics` trailer
 * carrying the savings/slowdown at full double precision, so the
 * cross-seed aggregation reproduces exactly from an --isolate child.
 */
std::string
runPoint(const Point& p, std::size_t index,
         harness::ObsCapture* capture)
{
    using harness::ConfigKind;
    harness::SystemConfig sys = harness::SystemConfig::paperDefault();
    sys.seed = p.seed;

    tb::bench::CampaignPoint pt;
    pt.campaign = "seeds";
    pt.dim = sys.noc.dimension;
    pt.seed = p.seed;
    pt.protocol =
        sys.memory.threeHopForwarding ? "three-hop" : "hub";

    const auto app = workloads::appByName(p.app);
    // Three runs per point: each gets its own capture slot so trace
    // pids stay unique (point index * 3 + config).
    const auto run_one = [&](ConfigKind k, std::size_t sub) {
        harness::RunOptions ro;
        harness::ObsCapture::PointScope scope;
        if (capture)
            capture->arm(index * 3 + sub, &ro, &scope);
        const auto r = runExperiment(sys, app, k, ro);
        if (capture) {
            capture->deposit(index * 3 + sub, r, &scope,
                             "seed=" + std::to_string(p.seed) + "/" +
                                 p.app + "/" + r.config);
        }
        return r;
    };
    const auto base = run_one(ConfigKind::Baseline, 0);
    const auto h = run_one(ConfigKind::ThriftyHalt, 1);
    const auto t = run_one(ConfigKind::Thrifty, 2);

    std::ostringstream os;
    tb::bench::printCampaignJson(os, pt, base);
    tb::bench::printCampaignJson(os, pt, h);
    tb::bench::printCampaignJson(os, pt, t);

    const double h_sav = 1.0 - h.totalEnergy() / base.totalEnergy();
    const double t_sav = 1.0 - t.totalEnergy() / base.totalEnergy();
    const double slow = static_cast<double>(t.execTime) /
                            static_cast<double>(base.execTime) -
                        1.0;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "#metrics %.17g %.17g %.17g\n", h_sav, t_sav,
                  slow);
    os << buf;
    return os.str();
}

/** Split an artifact into (JSON lines, metrics triple). */
bool
parseArtifact(const std::string& artifact, std::string* json,
              double* h, double* t, double* slow)
{
    const std::size_t at = artifact.rfind("#metrics ");
    if (at == std::string::npos)
        return false;
    *json = artifact.substr(0, at);
    return std::sscanf(artifact.c_str() + at,
                       "#metrics %lg %lg %lg", h, t, slow) == 3;
}

} // namespace

int
main(int argc, char** argv)
{
    const harness::CampaignOptions opts =
        harness::CampaignOptions::parse(argc, argv,
                                        /*allowQuick=*/false);
    const std::vector<Point> points = pointSpace();

    if (opts.onlyPoint >= 0) {
        if (static_cast<std::size_t>(opts.onlyPoint) >=
            points.size()) {
            std::fprintf(stderr,
                         "--only-point %ld out of range [0, %zu)\n",
                         opts.onlyPoint, points.size());
            return 2;
        }
        const Point& p = points[opts.onlyPoint];
        std::fprintf(stderr, "point %ld: seed=%llu app=%s\n",
                     opts.onlyPoint,
                     static_cast<unsigned long long>(p.seed),
                     p.app.c_str());
        harness::ObsCapture capture(opts, "seeds");
        std::fputs(runPoint(p,
                            static_cast<std::size_t>(opts.onlyPoint),
                            capture.active() ? &capture : nullptr)
                       .c_str(),
                   stdout);
        if (capture.statsEnabled())
            std::fputs(capture.predictionSummaryJson().c_str(),
                       stdout);
        capture.writeFiles();
        return 0;
    }

    harness::ObsCapture capture(opts, "seeds");
    harness::PointTask task;
    task.run = [&](std::size_t i) {
        return runPoint(points[i], i,
                        capture.active() ? &capture : nullptr);
    };
    task.repro = [&](std::size_t i) {
        return "robustness_seeds --only-point " + std::to_string(i) +
               opts.reproFlags() + "   # seed=" +
               std::to_string(points[i].seed) + " app=" +
               points[i].app;
    };

    tb::bench::banner("Robustness — headline averages across seeds",
                      harness::SystemConfig::paperDefault());

    harness::CampaignSupervisor supervisor(opts.policy);
    const harness::SupervisorReport report =
        supervisor.run(points.size(), task);

    std::ostringstream artifact;
    const std::size_t apps_per_seed =
        workloads::targetAppNames().size();
    std::vector<double> halt_savings, thrifty_savings,
        thrifty_slowdowns;

    if (report.ok()) {
        char row[128];
        std::snprintf(row, sizeof(row), "%6s %16s %16s %14s\n",
                      "seed", "H saving", "T saving", "T slowdown");
        std::string table = row;
        for (std::size_t s = 0; s < kSeeds.size(); ++s) {
            double h_sum = 0.0, t_sum = 0.0, slow_sum = 0.0;
            for (std::size_t a = 0; a < apps_per_seed; ++a) {
                const std::string& art =
                    supervisor.results()[s * apps_per_seed + a];
                std::string json;
                double h = 0.0, t = 0.0, slow = 0.0;
                if (!parseArtifact(art, &json, &h, &t, &slow)) {
                    std::fprintf(stderr,
                                 "FAIL: malformed point artifact\n");
                    return 1;
                }
                artifact << json;
                h_sum += h;
                t_sum += t;
                slow_sum += slow;
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
    } else {
        std::printf("summary withheld: %zu point failure(s) — see the "
                    "failure manifest\n",
                    report.failures());
    }

    return tb::bench::finishSupervisedCampaign(opts, report, "seeds",
                                               artifact.str(),
                                               &capture);
}
