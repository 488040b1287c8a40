/**
 * @file
 * Fault-injection campaign: graceful degradation of the thrifty
 * runtime under deterministic adversarial conditions
 * (docs/ROBUSTNESS.md).
 *
 * Sweeps all fault kinds at two intensities across machine sizes
 * (2..16 nodes), both forwarding protocols (hub routing and DASH-style
 * three-hop), all three wake-up policies and eight injection seeds,
 * with the protocol checker and its liveness watchdogs armed. A run
 * passes when every barrier releases, every sleeper wakes and no
 * invariant trips; a failed point (`panic:` for a checker violation,
 * `fatal:` for a bad configuration) fails the campaign with its
 * diagnostic and a rerun command on stderr. One sweep point is rerun
 * to prove bit-identical determinism from (spec, seed).
 *
 *   robustness_faults [--quick] [--jobs N] [--out FILE]
 *                     [--only-point I]
 *                     [--trace FILE[:categories]] [--stats-json FILE]
 *
 * Points are independent simulations run by
 * harness::ParallelCampaignRunner, sharded over --jobs threads. The
 * armed checker's liveness watchdogs turn a barrier that never
 * releases in simulated time into a checker violation; a point that
 * livelocks the host hangs the campaign, and the caller's timeout
 * (the CI step's) bounds it.
 *
 * Emits one JSON line per run in the shared campaign shape (see
 * bench_util.hh), comparable with robustness_seeds output.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fault/fault_spec.hh"

namespace {

using namespace tb;

/** Canonical all-kinds spec at @p scale of the base rates. */
std::string
specFor(std::uint64_t seed, double scale)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "seed=%llu,drop-wake=%.3f,dup-wake=%.3f,delay-wake=%.3f,"
        "timer-drift=%.3f,timer-fail=%.3f,link-stall=%.3f,"
        "msg-delay=%.3f,flush-delay=%.3f,preempt=%.3f",
        static_cast<unsigned long long>(seed), 0.3 * scale,
        0.2 * scale, 0.2 * scale, 0.5 * scale, 0.3 * scale,
        0.05 * scale, 0.05 * scale, 0.3 * scale, 0.1 * scale);
    return buf;
}

const char*
wakeupName(thrifty::WakeupPolicy p)
{
    switch (p) {
      case thrifty::WakeupPolicy::External: return "external";
      case thrifty::WakeupPolicy::Internal: return "internal";
      case thrifty::WakeupPolicy::Hybrid:   return "hybrid";
    }
    return "?";
}

/** One sweep point of the campaign. */
struct Point
{
    unsigned dim = 1;
    bool threeHop = false;
    thrifty::WakeupPolicy wakeup = thrifty::WakeupPolicy::Hybrid;
    double scale = 1.0;
    std::uint64_t seed = 1;
};

std::string pointLabel(const Point& p);

/** Run one point (throws on any simulation/checker failure). A
 *  non-null @p capture records the point's trace/stats artifacts. */
harness::ExperimentResult
runPoint(const Point& p, const workloads::AppProfile& app,
         std::size_t index, harness::ObsCapture* capture)
{
    using harness::ConfigKind;

    harness::SystemConfig sys = harness::SystemConfig::small(p.dim);
    sys.seed = p.seed;
    sys.memory.threeHopForwarding = p.threeHop;

    thrifty::ThriftyConfig custom = thrifty::ThriftyConfig::thrifty();
    custom.wakeup = p.wakeup;
    custom.hardening.enabled = true;

    const fault::FaultSpec spec =
        fault::FaultSpec::parse(specFor(p.seed, p.scale));

    harness::RunOptions opt;
    opt.check = true;
    opt.customConfig = &custom;
    opt.faults = &spec;
    opt.livenessBudget = 200 * kMillisecond;

    harness::ObsCapture::PointScope scope;
    if (capture)
        capture->arm(index, &opt, &scope);

    auto r = harness::runExperiment(sys, app, ConfigKind::Thrifty, opt);
    if (capture)
        capture->deposit(index, r, &scope, pointLabel(p));
    return r;
}

/** Point @p p's run as one campaign JSON line. */
void
printPointJson(std::ostream& os, const Point& p,
               const harness::ExperimentResult& r)
{
    tb::bench::CampaignPoint pt;
    pt.campaign = "faults";
    pt.dim = p.dim;
    pt.seed = p.seed;
    pt.protocol = p.threeHop ? "three-hop" : "hub";
    pt.wakeup = wakeupName(p.wakeup);
    tb::bench::printCampaignJson(os, pt, r);
}

/** Human-readable identity of a point (trace label, rerun context). */
std::string
pointLabel(const Point& p)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "dim=%u %s %s seed=%llu scale=%.1f", p.dim,
                  p.threeHop ? "three-hop" : "hub",
                  wakeupName(p.wakeup),
                  static_cast<unsigned long long>(p.seed), p.scale);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    using harness::ConfigKind;
    const harness::CampaignOptions opts =
        harness::CampaignOptions::parse(argc, argv,
                                        /*allowQuick=*/true);

    // Shrunk workload: the campaign is about surviving faults, not
    // about the headline numbers, so a few barrier instances per run
    // suffice.
    workloads::AppProfile app = workloads::appByName("Radiosity");
    if (app.iterations > 6)
        app.iterations = 6;

    const bool quick = opts.quick;
    const std::vector<unsigned> dims =
        quick ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 3, 4};
    const std::vector<std::uint64_t> seeds =
        quick ? std::vector<std::uint64_t>{1, 2, 3}
              : std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<double> scales =
        quick ? std::vector<double>{1.0}
              : std::vector<double>{0.3, 1.0};
    const std::vector<thrifty::WakeupPolicy> wakeups = {
        thrifty::WakeupPolicy::External,
        thrifty::WakeupPolicy::Internal,
        thrifty::WakeupPolicy::Hybrid,
    };

    std::vector<Point> points;
    for (unsigned dim : dims) {
        for (int three_hop = 0; three_hop <= 1; ++three_hop) {
            for (thrifty::WakeupPolicy wk : wakeups) {
                for (double scale : scales) {
                    for (std::uint64_t seed : seeds) {
                        points.push_back(
                            Point{dim, three_hop != 0, wk, scale, seed});
                    }
                }
            }
        }
    }

    harness::ObsCapture capture(opts, "faults", points.size());
    std::vector<harness::ExperimentResult> results(points.size());
    const auto run_point = [&](std::size_t i) {
        results[i] = runPoint(points[i], app, i,
                              capture.active() ? &capture : nullptr);
    };

    // Rerun mode: run exactly one point inline.
    if (opts.onlyPoint >= 0) {
        const std::size_t i = static_cast<std::size_t>(opts.onlyPoint);
        if (i >= points.size()) {
            std::fprintf(stderr,
                         "--only-point %ld out of range [0, %zu)%s\n",
                         opts.onlyPoint, points.size(),
                         quick ? " (with --quick)" : "");
            return 2;
        }
        std::fprintf(stderr, "point %ld: %s\n", opts.onlyPoint,
                     pointLabel(points[i]).c_str());
        if (!tb::bench::runOnlyPoint(opts.onlyPoint,
                                     [&] { run_point(i); }))
            return 1;
        std::ostringstream line;
        printPointJson(line, points[i], results[i]);
        std::fputs(line.str().c_str(), stdout);
        tb::bench::writeCampaignArtifacts(opts, "", capture);
        return 0;
    }

    tb::bench::banner("Robustness — fault-injection campaign",
                      harness::SystemConfig::small(dims.back()));

    if (!tb::bench::runCampaignPoints(opts, "robustness_faults",
                                      points.size(), run_point))
        return 1;

    // Canonical campaign output: deterministic whatever --jobs is
    // (--out persists it atomically).
    std::ostringstream artifact;
    std::uint64_t injected = 0, watchdogs = 0, quarantines = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const harness::ExperimentResult& r = results[i];
        printPointJson(artifact, points[i], r);
        injected += r.faultsInjected();
        watchdogs += r.sync.watchdogFires;
        quarantines += r.sync.quarantines;
    }

    unsigned failures = 0;

    // Determinism: an identical (spec, seed) pair must replay to
    // bit-identical stats and timing. Rerun the sweep's dim-2 hub
    // hybrid point at scale 1.0, seed 1, and compare the digests.
    {
        const auto it = std::find_if(
            points.begin(), points.end(), [](const Point& p) {
                return p.dim == 2 && !p.threeHop &&
                       p.wakeup == thrifty::WakeupPolicy::Hybrid &&
                       p.scale == 1.0 && p.seed == 1;
            });
        const std::size_t k =
            static_cast<std::size_t>(it - points.begin());
        const harness::ExperimentResult& a = results.at(k);
        const harness::ExperimentResult b =
            runPoint(points[k], app, k, nullptr);
        if (harness::serializeResult(a) != harness::serializeResult(b)) {
            ++failures;
            std::fprintf(stderr,
                         "FAIL determinism: identical (spec, seed) "
                         "replayed differently\n");
        } else {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "determinism: replay of (%s) bit-identical "
                          "(%llu faults)\n",
                          a.faultSpec.c_str(),
                          static_cast<unsigned long long>(
                              a.faultsInjected()));
            artifact << buf;
        }
    }

    {
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "\ncampaign: %zu run(s), %u failure(s); %llu fault(s) "
            "injected, %llu watchdog fire(s), %llu quarantine(s)\n",
            points.size(), failures,
            static_cast<unsigned long long>(injected),
            static_cast<unsigned long long>(watchdogs),
            static_cast<unsigned long long>(quarantines));
        artifact << buf;
    }
    artifact << (failures == 0 ? "PASS" : "FAIL") << '\n';

    std::fputs(artifact.str().c_str(), stdout);
    std::fflush(stdout);

    // A failed determinism replay is not a campaign point: the
    // artifact records it as FAIL and the exit code surfaces it.
    tb::bench::writeCampaignArtifacts(opts, artifact.str(), capture);
    return failures == 0 ? 0 : 1;
}
