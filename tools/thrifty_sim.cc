/**
 * @file
 * Command-line front end: run one (application, configuration) pair
 * on the simulated machine with every mechanism knob exposed.
 *
 *   thrifty_sim --app Volrend --config T
 *   thrifty_sim --app Ocean --config T --cutoff -1 --json
 *   thrifty_sim --app FMM --config B --dim 4 --seed 7 --compare
 *   thrifty_sim --list-apps
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "fault/fault_spec.hh"
#include "harness/campaign_journal.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "obs/stat_writers.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "workloads/app_profile.hh"

using namespace tb;

namespace {

void
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "  --app NAME         application profile (see --list-apps); "
        "default Volrend\n"
        "  --config C         B|H|O|T|I or Baseline|Thrifty-Halt|"
        "Oracle-Halt|Thrifty|Ideal\n"
        "                     (default T)\n"
        "  --dim N            hypercube dimension, 2^N nodes "
        "(default 6 = 64 nodes)\n"
        "  --seed S           workload seed (default 1)\n"
        "  --wakeup P         external|internal|hybrid (default "
        "hybrid)\n"
        "  --predictor K      last-value|moving-average (default "
        "last-value)\n"
        "  --cutoff F         overprediction threshold as fraction "
        "of BIT;\n"
        "                     negative disables (default 0.10)\n"
        "  --filter F         underprediction filter factor; <=0 "
        "disables (default 10)\n"
        "  --states S         halt|halt2|all — available sleep "
        "states (default all)\n"
        "  --three-hop        DASH-style direct owner-to-requester "
        "forwarding\n"
        "  --faults SPEC      deterministic fault injection, e.g.\n"
        "                     seed=3,drop-wake=0.5,timer-drift=0.4 "
        "(see docs/ROBUSTNESS.md)\n"
        "  --hardening        force the graceful-degradation guard "
        "rails on\n"
        "  --liveness-budget MS\n"
        "                     checker budget for barrier release and "
        "sleep episodes;\n"
        "                     0 disables (default 200 when --faults "
        "is given)\n"
        "  --check            arm the protocol invariant checker "
        "(see docs/CHECKING.md)\n"
        "  --stats            dump per-component statistics after the "
        "run\n"
        "  --stats-json FILE  write the run's statistics (result, "
        "machine stats,\n"
        "                     per-episode prediction ledger) as JSON "
        "to FILE\n"
        "  --trace FILE[:CATS]\n"
        "                     write a Chrome trace_event JSON file "
        "(load in Perfetto);\n"
        "                     CATS is a comma list of sim,mem,noc,"
        "thrifty (default all)\n"
        "  --compare          also run Baseline and print normalized "
        "results\n"
        "  --json             machine-readable output\n"
        "  --list-apps        list application profiles and exit\n"
        "  --help             this text\n",
        argv0);
}

/** Strict numeric parsers: the whole operand must be one number in
 *  range, otherwise the run aborts with a usage hint — `--dim abc`
 *  must not silently become 0. */
std::uint64_t
parseUnsignedArg(const char* opt, const char* text)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE ||
        std::strchr(text, '-') != nullptr) {
        fatal("option ", opt, ": '", text,
              "' is not a non-negative integer (try --help)");
    }
    return v;
}

double
parseDoubleArg(const char* opt, const char* text)
{
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE) {
        fatal("option ", opt, ": '", text,
              "' is not a number (try --help)");
    }
    return v;
}

harness::ConfigKind
parseConfig(const std::string& s)
{
    if (s == "B" || s == "Baseline")
        return harness::ConfigKind::Baseline;
    if (s == "H" || s == "Thrifty-Halt")
        return harness::ConfigKind::ThriftyHalt;
    if (s == "O" || s == "Oracle-Halt")
        return harness::ConfigKind::OracleHalt;
    if (s == "T" || s == "Thrifty")
        return harness::ConfigKind::Thrifty;
    if (s == "I" || s == "Ideal")
        return harness::ConfigKind::Ideal;
    fatal("unknown configuration '", s, "'");
}

} // namespace

int
main(int argc, char** argv)
{
    std::string app_name = "Volrend";
    std::string config = "T";
    unsigned dim = 6;
    std::uint64_t seed = 1;
    bool three_hop = false;
    bool check = false;
    bool dump_stats = false;
    std::string stats_json_path;
    std::string trace_path;
    unsigned trace_mask = obs::kAllTraceCategories;
    bool json = false;
    bool compare = false;
    bool hardening = false;
    fault::FaultSpec faults;
    bool have_faults = false;
    std::uint64_t liveness_ms = 0;
    bool have_liveness = false;

    thrifty::ThriftyConfig custom = thrifty::ThriftyConfig::thrifty();
    bool customized = false;

    auto need = [&](int& i) -> const char* {
        if (i + 1 >= argc)
            fatal("option ", argv[i], " needs a value (try --help)");
        const char* v = argv[++i];
        if (v[0] == '-' && v[1] == '-')
            fatal("option ", argv[i - 1], " needs a value but got '",
                  v, "' (try --help)");
        return v;
    };

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--help" || a == "-h") {
                usage(argv[0]);
                return 0;
            } else if (a == "--list-apps") {
                for (const auto& p : tb::workloads::paperApps()) {
                    std::printf("%-10s paper imbalance %5.2f%%, %zu "
                                "barriers, %u iterations\n",
                                p.name.c_str(),
                                100.0 * p.paperImbalance,
                                p.prologue.size() + p.loop.size(),
                                p.iterations);
                }
                return 0;
            } else if (a == "--app") {
                app_name = need(i);
            } else if (a == "--config") {
                config = need(i);
            } else if (a == "--dim") {
                dim = static_cast<unsigned>(
                    parseUnsignedArg("--dim", need(i)));
                if (dim < 1 || dim > 6)
                    fatal("option --dim: ", dim,
                          " out of range [1, 6] (2..64 nodes)");
            } else if (a == "--seed") {
                seed = parseUnsignedArg("--seed", need(i));
            } else if (a == "--wakeup") {
                const std::string v = need(i);
                customized = true;
                if (v == "external")
                    custom.wakeup = thrifty::WakeupPolicy::External;
                else if (v == "internal")
                    custom.wakeup = thrifty::WakeupPolicy::Internal;
                else if (v == "hybrid")
                    custom.wakeup = thrifty::WakeupPolicy::Hybrid;
                else
                    fatal("unknown wakeup policy '", v, "'");
            } else if (a == "--predictor") {
                custom.predictorKind = need(i);
                customized = true;
            } else if (a == "--cutoff") {
                custom.overpredictionThreshold =
                    parseDoubleArg("--cutoff", need(i));
                customized = true;
            } else if (a == "--filter") {
                custom.underpredictionFilter =
                    parseDoubleArg("--filter", need(i));
                customized = true;
            } else if (a == "--states") {
                const std::string v = need(i);
                customized = true;
                if (v == "halt")
                    custom.states = power::SleepStateTable::haltOnly();
                else if (v == "halt2")
                    custom.states =
                        power::SleepStateTable::haltPlusSleep2();
                else if (v == "all")
                    custom.states =
                        power::SleepStateTable::paperDefault();
                else
                    fatal("unknown state set '", v, "'");
            } else if (a == "--three-hop") {
                three_hop = true;
            } else if (a == "--faults") {
                faults = fault::FaultSpec::parse(need(i));
                have_faults = true;
            } else if (a == "--hardening") {
                hardening = true;
            } else if (a == "--liveness-budget") {
                liveness_ms =
                    parseUnsignedArg("--liveness-budget", need(i));
                // The budget is kept in ticks; a larger value would
                // wrap the product below.
                constexpr std::uint64_t kMaxLivenessMs =
                    ~Tick{0} / kMillisecond;
                if (liveness_ms > kMaxLivenessMs)
                    fatal("option --liveness-budget: ", liveness_ms,
                          " out of range [0, ", kMaxLivenessMs, "]");
                have_liveness = true;
            } else if (a == "--check") {
                check = true;
            } else if (a == "--stats") {
                dump_stats = true;
            } else if (a == "--stats-json") {
                stats_json_path = need(i);
            } else if (a == "--trace") {
                const std::string spec = need(i);
                const std::size_t colon = spec.find(':');
                trace_path = spec.substr(0, colon);
                if (trace_path.empty())
                    fatal("option --trace needs a file name "
                          "(try --help)");
                if (colon != std::string::npos &&
                    !obs::parseCategories(spec.substr(colon + 1),
                                          &trace_mask)) {
                    fatal("option --trace: bad category list '",
                          spec.substr(colon + 1),
                          "' (known: sim,mem,noc,thrifty,all)");
                }
            } else if (a == "--json") {
                json = true;
            } else if (a == "--compare") {
                compare = true;
            } else {
                usage(argv[0]);
                fatal("unknown option '", a, "'");
            }
        }

        harness::SystemConfig sys = harness::SystemConfig::small(dim);
        sys.seed = seed;
        sys.memory.threeHopForwarding = three_hop;
        const workloads::AppProfile app =
            workloads::appByName(app_name);
        const harness::ConfigKind kind = parseConfig(config);

        harness::RunOptions opt;
        opt.check = check;

        // Statistics flow through the visitor seam: --stats renders
        // the text report on stderr, --stats-json buffers a machine
        // sub-document for the JSON file; both at once tee.
        obs::TextStatWriter text_stats(std::cerr);
        std::ostringstream machine_json;
        obs::JsonWriter machine_writer(machine_json);
        std::unique_ptr<obs::JsonStatWriter> json_stats;
        std::unique_ptr<obs::TeeStatVisitor> tee;
        if (!stats_json_path.empty()) {
            machine_writer.beginObject();
            json_stats =
                std::make_unique<obs::JsonStatWriter>(machine_writer);
            opt.episodeLedger = true;
        }
        if (dump_stats && json_stats) {
            tee = std::make_unique<obs::TeeStatVisitor>(
                std::vector<stats::StatVisitor*>{&text_stats,
                                                 json_stats.get()});
            opt.statsVisitor = tee.get();
        } else if (dump_stats) {
            opt.statsVisitor = &text_stats;
        } else if (json_stats) {
            opt.statsVisitor = json_stats.get();
        }

        obs::TraceSink trace_sink(trace_mask, 0);
        if (!trace_path.empty())
            opt.traceSink = &trace_sink;
        if (hardening) {
            custom.hardening.enabled = true;
            customized = true;
        }
        if (have_faults) {
            opt.faults = &faults;
            // Survive the injected faults: a customized config gets
            // its guard rails switched on here; otherwise
            // runExperiment hardens the chosen preset itself.
            custom.hardening.enabled = true;
            if (!have_liveness)
                liveness_ms = 200;
        }
        opt.livenessBudget = liveness_ms * kMillisecond;
        if (customized && kind != harness::ConfigKind::Baseline) {
            // Start from the preset of the chosen configuration, then
            // apply only the flags the user actually set: simplest is
            // to use the custom config outright for Thrifty-style
            // kinds.
            opt.customConfig = &custom;
        }

        if (!json) {
            harness::report::printArchitecture(std::cout, sys);
            std::cout << "running " << app.name << " under "
                      << harness::configName(kind) << " (seed " << seed
                      << ") ...\n";
        }
        const auto r = harness::runExperiment(sys, app, kind, opt);

        if (!stats_json_path.empty()) {
            machine_writer.endObject();
            std::ostringstream doc;
            obs::JsonWriter w(doc);
            w.beginObject();
            harness::report::writeResultJson(w, r);
            w.key("machine").raw(machine_json.str());
            w.key("episodes").beginArray();
            for (const auto& ep : r.sync.episodes)
                harness::report::writeEpisodeJson(w, ep);
            w.endArray();
            w.endObject();
            harness::writeFileAtomic(stats_json_path,
                                     doc.str() + "\n");
        }
        if (!trace_path.empty()) {
            std::vector<obs::TraceChunk> chunks(1);
            chunks[0].pid = trace_sink.pid();
            chunks[0].label =
                app.name + "/" + harness::configName(kind);
            chunks[0].events = trace_sink.events();
            chunks[0].dropped = trace_sink.dropped();
            std::ostringstream doc;
            obs::writeChromeTrace(doc, chunks);
            harness::writeFileAtomic(trace_path, doc.str());
        }

        if (compare && kind != harness::ConfigKind::Baseline) {
            const auto base = harness::runExperiment(
                sys, app, harness::ConfigKind::Baseline);
            if (json) {
                std::cout << "[\n";
                harness::report::printJson(std::cout, base);
                std::cout << ",\n";
                harness::report::printJson(std::cout, r);
                std::cout << "]\n";
            } else {
                std::vector<harness::ExperimentResult> group{base, r};
                harness::report::printBreakdownGroup(std::cout, group,
                                                     true);
                harness::report::printBreakdownGroup(std::cout, group,
                                                     false);
            }
            return 0;
        }

        if (json) {
            harness::report::printJson(std::cout, r);
        } else {
            std::printf("exec time     : %.3f ms\n",
                        ticksToSeconds(r.execTime) * 1e3);
            std::printf("imbalance     : %.2f%%\n",
                        100.0 * r.imbalance());
            std::printf("total energy  : %.3f J\n", r.totalEnergy());
            for (std::size_t i = 0; i < power::kNumBuckets; ++i) {
                std::printf("  %-10s  : %8.3f J  %10.3f ms\n",
                            power::bucketName(
                                static_cast<power::Bucket>(i)),
                            r.energy[i],
                            ticksToSeconds(r.time[i]) * 1e3);
            }
            std::printf("instances     : %llu  (arrivals %llu)\n",
                        static_cast<unsigned long long>(
                            r.sync.instances),
                        static_cast<unsigned long long>(
                            r.sync.arrivals));
            std::printf("sleeps/spins  : %llu / %llu  (cutoffs %llu, "
                        "filtered %llu)\n",
                        static_cast<unsigned long long>(r.sync.sleeps),
                        static_cast<unsigned long long>(r.sync.spins),
                        static_cast<unsigned long long>(
                            r.sync.cutoffs),
                        static_cast<unsigned long long>(
                            r.sync.filteredUpdates));
            harness::report::printFaultSummary(std::cout, r);
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
