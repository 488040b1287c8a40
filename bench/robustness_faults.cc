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
 * invariant trips; failed points are classified (exception /
 * checker-violation / timeout / crash) in the failure manifest with a
 * one-line repro command each. One point is replayed to prove
 * bit-identical determinism from (spec, seed).
 *
 *   robustness_faults [--quick] [--jobs N] [--deadline-ms N]
 *                     [--isolate] [--out FILE] [--manifest FILE]
 *                     [--only-point I]
 *
 * Points are independent simulations supervised by
 * harness::CampaignSupervisor: sharded over --jobs threads, bounded
 * by per-point deadlines, and optionally forked (--isolate) so a
 * crashing point cannot take the campaign down.
 *
 * Emits one JSON line per run in the shared campaign shape (see
 * bench_util.hh), comparable with robustness_seeds output, plus one
 * supervisor-counter line (kind "supervisor").
 */

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

/** Run one point and return its campaign JSON line (throws on any
 *  simulation/checker failure; the supervisor classifies it). A
 *  non-null @p capture records the point's trace/stats artifacts. */
std::string
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

    tb::bench::CampaignPoint pt;
    pt.campaign = "faults";
    pt.dim = p.dim;
    pt.seed = p.seed;
    pt.protocol = p.threeHop ? "three-hop" : "hub";
    pt.wakeup = wakeupName(p.wakeup);

    const auto r =
        harness::runExperiment(sys, app, ConfigKind::Thrifty, opt);
    if (capture)
        capture->deposit(index, r, &scope, pointLabel(p));
    std::ostringstream os;
    tb::bench::printCampaignJson(os, pt, r);
    return os.str();
}

/** Human-readable identity of a point (manifest context). */
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

    // Repro mode: run exactly one point inline, no supervision.
    if (opts.onlyPoint >= 0) {
        if (static_cast<std::size_t>(opts.onlyPoint) >=
            points.size()) {
            std::fprintf(stderr,
                         "--only-point %ld out of range [0, %zu)%s\n",
                         opts.onlyPoint, points.size(),
                         quick ? " (with --quick)" : "");
            return 2;
        }
        const Point& p = points[opts.onlyPoint];
        std::fprintf(stderr, "point %ld: %s\n", opts.onlyPoint,
                     pointLabel(p).c_str());
        harness::ObsCapture capture(opts, "faults");
        std::fputs(runPoint(p, app,
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

    harness::ObsCapture capture(opts, "faults");
    harness::PointTask task;
    task.run = [&](std::size_t i) {
        return runPoint(points[i], app, i,
                        capture.active() ? &capture : nullptr);
    };
    task.repro = [&](std::size_t i) {
        return "robustness_faults --only-point " + std::to_string(i) +
               opts.reproFlags() + "   # " + pointLabel(points[i]);
    };

    tb::bench::banner("Robustness — fault-injection campaign",
                      harness::SystemConfig::small(dims.back()));

    harness::CampaignSupervisor supervisor(opts.policy);
    const harness::SupervisorReport report =
        supervisor.run(points.size(), task);

    // Canonical campaign output: deterministic whatever --jobs and
    // --isolate are (--out persists it atomically).
    std::ostringstream artifact;
    std::uint64_t injected = 0, watchdogs = 0, quarantines = 0;
    for (const std::string& line : supervisor.results()) {
        if (line.empty())
            continue;
        artifact << line;
        injected += tb::bench::extractJsonU64(line, "faults_injected");
        watchdogs += tb::bench::extractJsonU64(line, "watchdog_fires");
        quarantines += tb::bench::extractJsonU64(line, "quarantines");
    }

    unsigned failures =
        static_cast<unsigned>(report.failures());

    // Determinism: an identical (spec, seed) pair must replay to
    // bit-identical stats and timing.
    {
        harness::SystemConfig sys = harness::SystemConfig::small(2);
        sys.seed = 1;
        thrifty::ThriftyConfig custom =
            thrifty::ThriftyConfig::thrifty();
        custom.hardening.enabled = true;
        const fault::FaultSpec spec =
            fault::FaultSpec::parse(specFor(1, 1.0));
        harness::RunOptions opt;
        opt.check = true;
        opt.customConfig = &custom;
        opt.faults = &spec;
        opt.livenessBudget = 200 * kMillisecond;
        const auto a = harness::runExperiment(sys, app,
                                              ConfigKind::Thrifty, opt);
        const auto b = harness::runExperiment(sys, app,
                                              ConfigKind::Thrifty, opt);
        if (a.execTime != b.execTime ||
            a.faultCounts != b.faultCounts ||
            a.totalEnergy() != b.totalEnergy() ||
            a.sync.watchdogFires != b.sync.watchdogFires) {
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

    if (failures > static_cast<unsigned>(report.failures())) {
        // The determinism check failed: surface it through the exit
        // code even though it is not a supervised point.
        const int rc = tb::bench::finishSupervisedCampaign(
            opts, report, "faults", artifact.str(), &capture);
        return rc == 0 ? 1 : rc;
    }
    return tb::bench::finishSupervisedCampaign(
        opts, report, "faults", artifact.str(), &capture);
}
