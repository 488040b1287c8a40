/**
 * @file
 * The paper campaign's eleven artifacts, each one renderer that reads
 * its points' results (paper_campaign.hh).
 */

#include "paper_campaign.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench_util.hh"
#include "harness/report.hh"
#include "harness/result_serde.hh"
#include "mem/memory_system.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace bench {

namespace {

using harness::ConfigKind;
using harness::ExperimentResult;

/** printf onto the end of @p out. */
__attribute__((format(printf, 2, 3))) void
appendf(std::string& out, const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[512];
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n < 0 || static_cast<std::size_t>(n) >= sizeof(buf))
        throw std::length_error("appendf: line too long");
    out.append(buf, static_cast<std::size_t>(n));
}

/** 100 * r / base of execution time and of energy. */
double
timePct(const ExperimentResult& r, const ExperimentResult& base)
{
    return 100.0 * static_cast<double>(r.execTime) /
           static_cast<double>(base.execTime);
}

double
energyPct(const ExperimentResult& r, const ExperimentResult& base)
{
    return 100.0 * r.totalEnergy() / base.totalEnergy();
}

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

/** B, H, O, T, I: the figures' order, which is ConfigKind's. */
const ConfigKind kKinds[] = {ConfigKind::Baseline, ConfigKind::ThriftyHalt,
                             ConfigKind::OracleHalt, ConfigKind::Thrifty,
                             ConfigKind::Ideal};

// ---- Figures 5 and 6 ----------------------------------------------

std::string
renderFigure(const PointResults& run, bool use_energy)
{
    std::vector<std::vector<ExperimentResult>> groups;
    for (const auto& app : workloads::paperApps()) {
        groups.emplace_back();
        for (ConfigKind k : kKinds)
            groups.back().push_back(run(paperPoint(app.name, k)));
    }
    std::ostringstream artifact;
    for (const auto& group : groups) {
        harness::report::printBreakdownGroup(artifact, group, use_energy);
        harness::report::printStackedBars(artifact, group, use_energy);
        artifact << '\n';
    }
    harness::report::printSummary(artifact, groups,
                                  workloads::targetAppNames());
    return artifact.str();
}

std::string
renderFigure5(const PointResults& run)
{
    return renderFigure(run, /*use_energy=*/true) +
           "\nPaper reference (Section 5.1): Thrifty saves "
           "~17% energy on the five target\napplications at "
           "~2% slowdown; Thrifty-Halt saves ~11%. Shapes to "
           "check: energy\nordering I <= T <= H <= B on "
           "imbalanced apps, FFT/Cholesky == Baseline, Ocean\n"
           "slightly above Baseline.\n";
}

std::string
renderFigure6(const PointResults& run)
{
    return renderFigure(run, /*use_energy=*/false) +
           "\nPaper reference (Section 5.1): performance "
           "degradation well bounded — about 2%\non average for "
           "the target applications, virtually zero elsewhere "
           "except Ocean\n(contained within 3.5% by the "
           "overprediction cutoff).\n";
}

// ---- Table 2 ------------------------------------------------------

std::string
renderTable2(const PointResults& run)
{
    std::string out;
    appendf(out, "%-11s %-28s %10s %10s %9s\n", "Application",
            "synthetic profile", "paper", "measured", "instances");
    appendf(out, "%-11s %-28s %10s %10s %9s\n", "-----------",
            "-----------------", "-----", "--------", "---------");
    double worst_abs_err = 0.0;
    for (const auto& app : workloads::paperApps()) {
        const auto& r = run(paperPoint(app.name, ConfigKind::Baseline));
        char desc[64];
        std::snprintf(desc, sizeof(desc), "%zu barriers x %u iters",
                      app.prologue.size() + app.loop.size(),
                      app.iterations ? app.iterations : 1);
        const double err = 100.0 * (r.imbalance() - app.paperImbalance);
        worst_abs_err = std::max(worst_abs_err, std::abs(err));
        appendf(out, "%-11s %-28s %9.2f%% %9.2f%% %9llu\n",
                app.name.c_str(), desc, 100.0 * app.paperImbalance,
                100.0 * r.imbalance(), ull(r.sync.instances));
    }
    appendf(out,
            "\nWorst absolute deviation from Table 2: %.2f "
            "percentage points\n",
            worst_abs_err);
    appendf(out, "(Near-balanced apps carry a ~1-2pp floor from "
                 "check-in serialization;\n see EXPERIMENTS.md.)\n");
    return out;
}

// ---- Ablation: overprediction cutoff (Section 3.3.3 / 5.2) --------

std::string
renderCutoff(const PointResults& run)
{
    const auto& base = run(paperPoint("Ocean", ConfigKind::Baseline));
    std::string out;
    appendf(out, "%-12s %10s %10s %9s %9s %9s\n", "threshold", "time",
            "energy", "cutoffs", "sleeps", "spins");
    appendf(out, "%-12s %9.1f%% %9.1f%% %9s %9s %9s\n", "baseline",
            100.0, 100.0, "-", "-", "-");
    for (double th : {-1.0, 0.05, 0.10, 0.20, 0.50}) {
        PaperPoint p = paperPoint("Ocean", ConfigKind::Thrifty);
        p.thrifty.overpredictionThreshold = th;
        const auto& r = run(p);
        char label[32];
        if (th < 0)
            std::snprintf(label, sizeof(label), "disabled");
        else
            std::snprintf(label, sizeof(label), "%.0f%% of BIT",
                          100.0 * th);
        appendf(out, "%-12s %9.1f%% %9.1f%% %9llu %9llu %9llu\n", label,
                timePct(r, base), energyPct(r, base),
                ull(r.sync.cutoffs), ull(r.sync.sleeps),
                ull(r.sync.spins));
    }
    appendf(out, "\nPaper reference: without the cutoff Ocean degrades "
                 "by up to ~12%%; the 10%%\nthreshold contains losses "
                 "within ~3.5%% (and Ocean 'ends up spinning quite a "
                 "bit\nat these barriers').\n");
    return out;
}

// ---- Ablation: underprediction filter (Section 3.4.2) -------------

// Short-interval barriers (where a 35us-late wake-up is a large
// fraction of the interval) with occasional one-thread preemption
// spikes: without the filter a spiked sample poisons the predictor,
// the next instance oversleeps badly enough to trip the permanent
// cutoff, and all future savings at that barrier are lost.
const char* const kShortOs = "short+OS";

workloads::AppProfile
shortOsApp()
{
    workloads::AppProfile app;
    app.name = kShortOs;
    for (unsigned i = 0; i < 4; ++i) {
        workloads::PhaseSpec p;
        p.pc = 0xf00 + i;
        p.meanCompute = (150 + 30 * i) * kMicrosecond;
        p.imbalanceCv = 0.06;
        p.memAccesses = 16;
        p.spikeProbability = 0.10; // ~10% of instances disturbed
        p.spikeFactor = 40.0;
        app.loop.push_back(p);
    }
    app.iterations = 40;
    return app;
}

/** The profile named @p name: a paperApps() entry or "short+OS". */
workloads::AppProfile
paperApp(const std::string& name)
{
    return name == kShortOs ? shortOsApp() : workloads::appByName(name);
}

std::string
renderFilter(const PointResults& run)
{
    const auto& base = run(paperPoint(kShortOs, ConfigKind::Baseline));
    std::string out;
    appendf(out, "%-18s %9s %9s %10s %9s %9s\n", "filter", "time",
            "energy", "filtered", "cutoffs", "sleeps");
    for (double filter : {-1.0, 3.0, 10.0}) {
        PaperPoint p = paperPoint(kShortOs, ConfigKind::Thrifty);
        p.thrifty.underpredictionFilter = filter;
        const auto& r = run(p);
        char label[32];
        if (filter <= 0)
            std::snprintf(label, sizeof(label), "disabled");
        else
            std::snprintf(label, sizeof(label), ">%.0fx stored BIT",
                          filter);
        appendf(out, "%-18s %8.1f%% %8.1f%% %10llu %9llu %9llu\n", label,
                timePct(r, base), energyPct(r, base),
                ull(r.sync.filteredUpdates), ull(r.sync.cutoffs),
                ull(r.sync.sleeps));
    }
    appendf(out, "\nPaper reference (Section 3.4.2): barrier intervals "
                 "disturbed by context\nswitches or I/O 'can be "
                 "trivially detected by the last thread ... by\n"
                 "observing an inordinate increase in the barrier "
                 "interval time. In this case,\nthe barrier interval "
                 "time is not updated in the prediction table.'\n");
    return out;
}

// ---- Ablation: BIT predictor family (Section 3.2) -----------------

std::string
renderPredictor(const PointResults& run)
{
    std::string out;
    for (const char* name : {"Volrend", "FMM", "Ocean"}) {
        const auto& base = run(paperPoint(name, ConfigKind::Baseline));
        appendf(out, "%s\n", name);
        appendf(out, "  %-16s %9s %9s %9s %9s\n", "predictor", "time",
                "energy", "sleeps", "cutoffs");
        PaperPoint p = paperPoint(name, ConfigKind::Thrifty);
        for (const char* kind : {"last-value", "moving-average"}) {
            p.thrifty.predictorKind = kind;
            const auto& r = run(p);
            appendf(out, "  %-16s %8.1f%% %8.1f%% %9llu %9llu\n", kind,
                    timePct(r, base), energyPct(r, base),
                    ull(r.sync.sleeps), ull(r.sync.cutoffs));
        }
        // Oracle with the full state table == Ideal prediction.
        p = paperPoint(name, ConfigKind::Thrifty);
        p.thrifty.oracle = true;
        const auto& r = run(p);
        appendf(out, "  %-16s %8.1f%% %8.1f%% %9llu %9s\n", "oracle",
                timePct(r, base), energyPct(r, base), ull(r.sync.sleeps),
                "-");
        appendf(out, "\n");
    }
    appendf(out, "Paper reference: 'simple last-value prediction of "
                 "PC-indexed barrier interval\ntime was very accurate' "
                 "for most applications; Ocean's swings defeat it\n"
                 "(Section 5.2), and smoothing does not rescue a "
                 "bimodal pattern either.\n");
    return out;
}

// ---- Ablation: directory forwarding style -------------------------

/**
 * Latency of one remote dirty miss on a bare 64-node memory system:
 * node 1 loads a line node 21 holds Modified. Not a table point: it
 * builds no Machine and takes about a millisecond.
 */
Tick
dirtyMissLatency(bool three_hop)
{
    EventQueue eq;
    noc::NetworkConfig nc;
    nc.dimension = 6;
    noc::Network net(eq, nc);
    mem::MemoryConfig mc;
    mc.threeHopForwarding = three_hop;
    mem::MemorySystem mem(eq, net, mc);

    // requester 1, owner 21, home = wherever this page landed; with
    // 64 nodes all three are typically distinct and distant.
    Addr a = mem.addressMap().allocShared(4096);
    bool stored = false;
    mem.controller(21).store(a, 7, [&]() { stored = true; });
    eq.run();

    const Tick start = eq.now();
    std::optional<Tick> done;
    mem.controller(1).load(a, [&](std::uint64_t) { done = eq.now(); });
    eq.run();
    return stored && done ? *done - start : 0;
}

std::string
renderProtocol(const PointResults& run)
{
    std::string out;
    appendf(out, "Remote dirty-miss latency (64 nodes):\n");
    appendf(out, "  hub-and-spoke : %6.0f ns\n",
            static_cast<double>(dirtyMissLatency(false)) / kNanosecond);
    appendf(out, "  three-hop     : %6.0f ns\n\n",
            static_cast<double>(dirtyMissLatency(true)) / kNanosecond);

    appendf(out, "Thrifty-barrier results under both protocols:\n");
    appendf(out, "%-10s %-14s %10s %10s\n", "app", "protocol",
            "T energy", "T time");
    for (const char* name : {"Volrend", "FMM", "Ocean"}) {
        for (bool three_hop : {false, true}) {
            PaperPoint b = paperPoint(name, ConfigKind::Baseline);
            PaperPoint t = paperPoint(name, ConfigKind::Thrifty);
            b.threeHop = t.threeHop = three_hop;
            const auto& base = run(b);
            const auto& thr = run(t);
            appendf(out, "%-10s %-14s %9.1f%% %9.2f%%\n",
                    three_hop ? "" : name,
                    three_hop ? "three-hop" : "hub-and-spoke",
                    energyPct(thr, base), timePct(thr, base));
        }
    }
    appendf(out, "\nThe forwarding style moves intervention latency "
                 "by one traversal but leaves\nthe thrifty barrier's "
                 "energy/performance story unchanged — the "
                 "hub-and-spoke\nsimplification (DESIGN.md §6) is "
                 "sound for this study.\n");
    return out;
}

// ---- Ablation: available sleep states -----------------------------

std::string
renderStates(const PointResults& run)
{
    const std::pair<const char*, power::SleepStateTable> tables[] = {
        {"Halt only", power::SleepStateTable::haltOnly()},
        {"Halt+Sleep2", power::SleepStateTable::haltPlusSleep2()},
        {"all three", power::SleepStateTable::paperDefault()},
    };
    std::string out;
    for (const char* name :
         {"Volrend", "Radix", "FMM", "Barnes", "Water-Nsq"}) {
        const auto& base = run(paperPoint(name, ConfigKind::Baseline));
        appendf(out, "%s\n", name);
        appendf(out, "  %-12s %9s %9s\n", "states", "time", "energy");
        for (const auto& [label, table] : tables) {
            PaperPoint p = paperPoint(name, ConfigKind::Thrifty);
            p.thrifty.states = table;
            const auto& r = run(p);
            appendf(out, "  %-12s %8.1f%% %8.1f%%\n", label,
                    timePct(r, base), energyPct(r, base));
        }
        appendf(out, "\n");
    }
    appendf(out, "Paper reference: 'exploiting multiple sleep states "
                 "is indeed beneficial'; the\napplication benefiting "
                 "most from deeper states is Volrend, whose large\n"
                 "intervals and imbalance let Thrifty match Ideal "
                 "(Section 5.2).\n");
    return out;
}

// ---- Ablation: wake-up policy (Section 3.3) -----------------------

std::string
renderWakeup(const PointResults& run)
{
    std::string out;
    for (const char* name : {"Volrend", "FMM", "Water-Nsq", "Ocean"}) {
        const auto& base = run(paperPoint(name, ConfigKind::Baseline));
        appendf(out, "%s\n", name);
        appendf(out, "  %-10s %9s %9s %11s %12s\n", "policy", "time",
                "energy", "residual", "cutoffs");
        for (auto policy :
             {thrifty::WakeupPolicy::External,
              thrifty::WakeupPolicy::Internal,
              thrifty::WakeupPolicy::Hybrid}) {
            PaperPoint p = paperPoint(name, ConfigKind::Thrifty);
            p.thrifty.wakeup = policy;
            const auto& r = run(p);
            const double resid_us =
                r.sync.residualSpins
                    ? r.sync.residualSpinTicks / r.sync.residualSpins /
                          kMicrosecond
                    : 0.0;
            appendf(out, "  %-10s %8.1f%% %8.1f%% %8.1fus/wk %12llu\n",
                    thrifty::wakeupPolicyName(policy), timePct(r, base),
                    energyPct(r, base), resid_us, ull(r.sync.cutoffs));
        }
        appendf(out, "\n");
    }
    appendf(out, "Expected shape: external pays the full upward "
                 "transition on the critical\npath (slower); internal "
                 "risks late wake-ups on swinging intervals (Ocean);\n"
                 "hybrid gets the best of both (Section 3.3.2).\n");
    return out;
}

// ---- Scaling: savings vs machine size (ours) ----------------------

// Barrier imbalance grows with the thread count (an average thread's
// stall is set by the *maximum* of N compute draws), so larger
// machines waste more spin energy for the thrifty barrier to recover,
// while BIT prediction stays as easy (BIT is thread-independent).
std::string
renderScaling(const PointResults& run)
{
    std::string out;
    appendf(out, "%8s %12s %10s %10s %10s\n", "nodes", "imbalance",
            "T energy", "T time", "sleeps");
    for (unsigned dim : {2u, 3u, 4u, 5u, 6u}) {
        PaperPoint b = paperPoint("Barnes", ConfigKind::Baseline);
        PaperPoint t = paperPoint("Barnes", ConfigKind::Thrifty);
        b.dim = t.dim = dim;
        const auto& base = run(b);
        const auto& thr = run(t);
        appendf(out, "%8u %11.2f%% %9.1f%% %9.2f%% %10llu\n", 1u << dim,
                100.0 * base.imbalance(), energyPct(thr, base),
                timePct(thr, base), ull(thr.sync.sleeps));
    }
    appendf(out, "\nImbalance (and with it the recoverable spin "
                 "energy) grows with the machine:\nenergy-aware "
                 "synchronization matters more, not less, at scale.\n");
    return out;
}

// ---- Robustness: headline averages across workload seeds ----------

std::string
renderSeeds(const PointResults& run)
{
    std::ostringstream artifact;
    std::vector<double> halt_savings, thrifty_savings, thrifty_slowdowns;
    std::string table;
    appendf(table, "%6s %16s %16s %14s\n", "seed", "H saving",
            "T saving", "T slowdown");
    const auto apps = workloads::targetAppNames();
    for (std::uint64_t seed : {1, 2, 3, 5, 8}) {
        CampaignPoint pt;
        pt.campaign = "seeds";
        pt.dim = 6;
        pt.seed = seed;
        pt.protocol = "hub";
        double h_sum = 0.0, t_sum = 0.0, slow_sum = 0.0;
        for (const auto& app : apps) {
            const auto seeded = [&](ConfigKind k) -> const auto& {
                PaperPoint p = paperPoint(app, k);
                p.seed = seed;
                return run(p);
            };
            const auto& base = seeded(ConfigKind::Baseline);
            const auto& halt = seeded(ConfigKind::ThriftyHalt);
            const auto& thr = seeded(ConfigKind::Thrifty);
            for (const auto* r : {&base, &halt, &thr})
                printCampaignJson(artifact, pt, *r);
            const double base_e = base.totalEnergy();
            h_sum += 1.0 - halt.totalEnergy() / base_e;
            t_sum += 1.0 - thr.totalEnergy() / base_e;
            slow_sum += static_cast<double>(thr.execTime) /
                            static_cast<double>(base.execTime) -
                        1.0;
        }
        const double n = static_cast<double>(apps.size());
        halt_savings.push_back(100.0 * h_sum / n);
        thrifty_savings.push_back(100.0 * t_sum / n);
        thrifty_slowdowns.push_back(100.0 * slow_sum / n);
        appendf(table, "%6llu %15.1f%% %15.1f%% %13.2f%%\n", ull(seed),
                halt_savings.back(), thrifty_savings.back(),
                thrifty_slowdowns.back());
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
    std::string summary;
    appendf(summary,
            "\nacross seeds (mean +/- sd):\n"
            "  Thrifty-Halt saving : %5.1f%% +/- %.1f\n"
            "  Thrifty saving      : %5.1f%% +/- %.1f  "
            "(paper ~17%%)\n"
            "  Thrifty slowdown    : %5.2f%% +/- %.2f  "
            "(paper ~2%%)\n",
            hm, hs, tm, ts, sm, ss);
    artifact << summary;
    return artifact.str();
}

} // namespace

harness::SystemConfig
PaperPoint::system() const
{
    harness::SystemConfig sys = harness::SystemConfig::small(dim);
    sys.seed = seed;
    sys.memory.threeHopForwarding = threeHop;
    return sys;
}

std::string
PaperPoint::label() const
{
    const PaperPoint paper = paperPoint(app, kind);
    std::string s = app + "/" + harness::configName(kind);
    if (dim != paper.dim)
        appendf(s, " dim=%u", dim);
    if (seed != paper.seed)
        appendf(s, " seed=%llu", ull(seed));
    if (threeHop)
        s += " three-hop";
    const thrifty::ThriftyConfig& c = thrifty;
    const thrifty::ThriftyConfig& preset = paper.thrifty;
    if (c.states != preset.states) {
        s += " states=";
        for (std::size_t i = 0; i < c.states.size(); ++i)
            s += (i ? "+" : "") + c.states.at(i).name;
    }
    if (c.wakeup != preset.wakeup)
        s += std::string(" wakeup=") + thrifty::wakeupPolicyName(c.wakeup);
    if (c.overpredictionThreshold != preset.overpredictionThreshold)
        appendf(s, " cutoff=%g", c.overpredictionThreshold);
    if (c.underpredictionFilter != preset.underpredictionFilter)
        appendf(s, " filter=%g", c.underpredictionFilter);
    if (c.predictorKind != preset.predictorKind)
        s += " predictor=" + c.predictorKind;
    if (c.oracle != preset.oracle)
        s += " oracle";
    return s;
}

PaperPoint
paperPoint(const std::string& app, harness::ConfigKind kind)
{
    PaperPoint p;
    p.app = app;
    p.kind = kind;
    if (kind != ConfigKind::Baseline)
        p.thrifty = harness::thriftyConfigFor(kind);
    return p;
}

std::size_t
PointTable::add(const PaperPoint& p)
{
    const auto it = std::find(points_.begin(), points_.end(), p);
    if (it != points_.end())
        return static_cast<std::size_t>(it - points_.begin());
    points_.push_back(p);
    return points_.size() - 1;
}

std::size_t
PointTable::indexOf(const PaperPoint& p) const
{
    const auto it = std::find(points_.begin(), points_.end(), p);
    if (it == points_.end())
        throw std::out_of_range("no paper point " + p.label());
    return static_cast<std::size_t>(it - points_.begin());
}

PointResults::PointResults(PointTable* table) : recording_(table)
{
    for (ConfigKind k : kKinds) {
        ExperimentResult r;
        r.config = harness::configName(k);
        r.execTime = 1;
        r.energy.fill(1.0);
        r.time.fill(1);
        r.threads = 1;
        placeholders_.push_back(r);
    }
}

const harness::ExperimentResult&
PointResults::operator()(const PaperPoint& p) const
{
    if (recording_) {
        recording_->add(p);
        return placeholders_.at(static_cast<std::size_t>(p.kind));
    }
    return results_->at(table_->indexOf(p));
}

const std::vector<Artifact>&
paperArtifacts()
{
    static const std::vector<Artifact> artifacts = {
        {"figure5", "Figure 5 — normalized energy consumption", false,
         renderFigure5},
        {"figure6", "Figure 6 — normalized execution time", false,
         renderFigure6},
        {"table2", "Table 2 — applications and barrier imbalance", true,
         renderTable2},
        {"ablation_cutoff",
         "Ablation — overprediction cutoff threshold (Ocean)", true,
         renderCutoff},
        {"ablation_filter",
         "Ablation — underprediction filter under OS interference", true,
         renderFilter},
        {"ablation_predictor",
         "Ablation — BIT predictor family (Section 3.2)", true,
         renderPredictor},
        {"ablation_protocol",
         "Ablation — directory forwarding: hub-and-spoke vs 3-hop", true,
         renderProtocol},
        {"ablation_states", "Ablation — available sleep states", true,
         renderStates},
        {"ablation_wakeup", "Ablation — wake-up policy (Section 3.3)",
         true, renderWakeup},
        {"scaling_nodes", "Scaling — savings vs machine size", true,
         renderScaling},
        {"robustness_seeds",
         "Robustness — headline averages across seeds", true,
         renderSeeds},
    };
    return artifacts;
}

PointTable
paperTable()
{
    PointTable t;
    const PointResults recorder(&t);
    for (const auto& a : paperArtifacts())
        a.render(recorder);
    return t;
}

harness::ExperimentResult
runPaperPoint(const PaperPoint& p, std::size_t index,
              harness::ObsCapture* capture)
{
    harness::RunOptions ro;
    ro.customConfig = &p.thrifty; // equal to the preset unless ablated
    harness::ObsCapture::PointScope scope;
    capture->arm(index, &ro, &scope);
    harness::ExperimentResult r =
        harness::runExperiment(p.system(), paperApp(p.app), p.kind, ro);
    capture->deposit(index, r, &scope, p.label());
    return r;
}

int
runOnlyPaperPoint(const PointTable& table,
                  const harness::CampaignOptions& opts,
                  harness::ObsCapture* capture)
{
    const auto& points = table.points();
    const std::size_t i = static_cast<std::size_t>(opts.onlyPoint);
    if (i >= points.size()) {
        std::cerr << "--only-point " << opts.onlyPoint
                  << " out of range [0, " << points.size() << ")\n";
        return 2;
    }
    std::cerr << "point " << i << ": " << points[i].label() << '\n';
    harness::ExperimentResult r;
    if (!runOnlyPoint(opts.onlyPoint,
                      [&] { r = runPaperPoint(points[i], i, capture); }))
        return 1;
    std::cout << harness::serializeResult(r) << '\n';
    writeCampaignArtifacts(opts, "", *capture);
    return 0;
}

} // namespace bench
} // namespace tb
