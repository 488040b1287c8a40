/**
 * @file
 * Experiment runner: executes one (application, configuration) pair on
 * a fresh machine and collects the measurements that Figures 5/6 and
 * Table 2 are built from.
 */

#ifndef TB_HARNESS_EXPERIMENT_HH_
#define TB_HARNESS_EXPERIMENT_HH_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_spec.hh"
#include "harness/machine.hh"
#include "thrifty/barrier.hh"
#include "thrifty/thrifty_config.hh"
#include "thrifty/thrifty_runtime.hh"
#include "workloads/app_profile.hh"
#include "workloads/synthetic_program.hh"

namespace tb {
namespace harness {

/** The five evaluated configurations of Section 5.1. */
enum class ConfigKind
{
    Baseline,    ///< conventional barriers (B)
    ThriftyHalt, ///< thrifty, Halt only (H)
    OracleHalt,  ///< perfect prediction, Halt only (O)
    Thrifty,     ///< thrifty, all three states (T)
    Ideal,       ///< perfect prediction, all states, no flush (I)
};

/** Long name ("Thrifty-Halt") of a configuration. */
const char* configName(ConfigKind k);

/** One-letter label used in the figures (B/H/O/T/I). */
const char* configLetter(ConfigKind k);

/** Thrifty configuration backing @p k (not valid for Baseline). */
thrifty::ThriftyConfig thriftyConfigFor(ConfigKind k);

/** Measurements from one run. */
struct ExperimentResult
{
    std::string app;
    std::string config;
    /** Wall-clock of the parallel section (last thread finish). */
    Tick execTime = 0;
    /** Machine-wide energy per bucket, joules. */
    std::array<double, power::kNumBuckets> energy{};
    /** Machine-wide CPU-time per bucket, ticks. */
    std::array<Tick, power::kNumBuckets> time{};
    /** Synchronization statistics (and optional trace). */
    thrifty::SyncStats sync;
    /** Participating threads. */
    unsigned threads = 0;
    /** Canonical fault spec of the run (empty: no injection). */
    std::string faultSpec;
    /** Faults injected by kind (empty: no injection). */
    std::vector<std::pair<std::string, std::uint64_t>> faultCounts;

    /** Total faults injected across all kinds. */
    std::uint64_t
    faultsInjected() const
    {
        std::uint64_t t = 0;
        for (const auto& [kind_, n] : faultCounts)
            t += n;
        return t;
    }

    double
    totalEnergy() const
    {
        double t = 0;
        for (double e : energy)
            t += e;
        return t;
    }

    /**
     * Barrier imbalance: aggregate stall time over aggregate thread
     * execution time (the Table 2 metric).
     */
    double
    imbalance() const
    {
        if (execTime == 0 || threads == 0)
            return 0.0;
        return sync.totalStallTicks /
               (static_cast<double>(execTime) * threads);
    }
};

/**
 * BarrierProvider creating Baseline or thrifty barriers on demand,
 * one per static PC, all sharing one runtime.
 */
class ConfigBarrierProvider : public workloads::BarrierProvider
{
  public:
    /**
     * @param machine Machine to build barriers in.
     * @param kind    Which configuration's barriers to produce.
     * @param custom  When non-null, overrides the preset thrifty
     *                configuration (ablations); ignored for Baseline.
     * @param stats   Stats sink shared by all barriers.
     */
    ConfigBarrierProvider(Machine& machine, ConfigKind kind,
                          const thrifty::ThriftyConfig* custom,
                          thrifty::SyncStats& stats);

    thrifty::Barrier& barrierFor(thrifty::BarrierPc pc) override;

    /**
     * Fold every barrier's per-thread stat shards into the shared
     * SyncStats. Call after the machine's queues are drained, before
     * reading the stats.
     */
    void mergeStats();

    /** The shared thrifty runtime (null for Baseline). */
    thrifty::ThriftyRuntime* runtime() { return rt.get(); }

  private:
    Machine& m;
    ConfigKind kind;
    thrifty::SyncStats& stats;
    std::unique_ptr<thrifty::ThriftyRuntime> rt;
    std::map<thrifty::BarrierPc, std::unique_ptr<thrifty::Barrier>>
        barriers;
};

/** Options for one experiment run. */
struct RunOptions
{
    bool trace = false; ///< record the per-departure barrier trace
    /**
     * Arm the protocol invariant checker for this run (forced on;
     * TB_CHECK=ON builds arm it even when false). Violations panic
     * with a protocol trace.
     */
    bool check = false;
    /** Override the preset thrifty configuration (ablations). */
    const thrifty::ThriftyConfig* customConfig = nullptr;
    /**
     * When set, walk all component statistics through this visitor
     * after the run (renderers live in src/obs/stat_writers.hh).
     */
    stats::StatVisitor* statsVisitor = nullptr;
    /**
     * When set, attach this structured-trace sink to the machine
     * (network, cache controllers, event queue) and the thrifty
     * runtime for the duration of the run. Must outlive the call.
     */
    obs::TraceSink* traceSink = nullptr;
    /**
     * Record one BarrierEpisode per completed sleep episode into
     * ExperimentResult::sync.episodes (predicted vs. actual BIT,
     * chosen state, flush cost, wake source).
     */
    bool episodeLedger = false;
    /**
     * When set (and enabled), realize this fault spec against the
     * machine. Unless a custom config is supplied, the thrifty
     * runtime's hardening guard rails are switched on automatically —
     * faults without graceful degradation deadlock by design.
     */
    const fault::FaultSpec* faults = nullptr;
    /**
     * Liveness budget for the checker's barrier/sleep watchdogs, in
     * ticks (0 = end-of-run audits only). Only meaningful when the
     * checker is armed.
     */
    Tick livenessBudget = 0;
    /**
     * Ignored: every simulation runs on one host thread. Kept only
     * because the benchmark harness (benchmark/tb_bench.cc) sets it.
     */
    unsigned simThreads = 1;
};

/**
 * Event-queue streams of the simulation plan for @p sys: nodes/8 for
 * machines of 16+ nodes, else 1 (harness/machine.hh). The stream
 * count IS part of the plan: it decides how equal-tick events tie,
 * and different counts order some barrier bookkeeping differently
 * (see docs/PERFORMANCE.md). Every run uses it, checked, faulted and
 * traced runs included.
 */
unsigned defaultPartitions(const SystemConfig& sys);

/**
 * Run @p app under configuration @p kind on a fresh machine built
 * from @p sys.
 */
ExperimentResult runExperiment(const SystemConfig& sys,
                               const workloads::AppProfile& app,
                               ConfigKind kind,
                               const RunOptions& options = {});

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_EXPERIMENT_HH_
