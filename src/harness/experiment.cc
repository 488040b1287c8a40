#include "harness/experiment.hh"

#include <memory>
#include <utility>

#include "check/protocol_checker.hh"
#include "fault/fault_injector.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "thrifty/conventional_barrier.hh"
#include "thrifty/thrifty_barrier.hh"

namespace tb {
namespace harness {

const char*
configName(ConfigKind k)
{
    switch (k) {
      case ConfigKind::Baseline:    return "Baseline";
      case ConfigKind::ThriftyHalt: return "Thrifty-Halt";
      case ConfigKind::OracleHalt:  return "Oracle-Halt";
      case ConfigKind::Thrifty:     return "Thrifty";
      case ConfigKind::Ideal:       return "Ideal";
    }
    return "?";
}

const char*
configLetter(ConfigKind k)
{
    switch (k) {
      case ConfigKind::Baseline:    return "B";
      case ConfigKind::ThriftyHalt: return "H";
      case ConfigKind::OracleHalt:  return "O";
      case ConfigKind::Thrifty:     return "T";
      case ConfigKind::Ideal:       return "I";
    }
    return "?";
}

thrifty::ThriftyConfig
thriftyConfigFor(ConfigKind k)
{
    switch (k) {
      case ConfigKind::ThriftyHalt:
        return thrifty::ThriftyConfig::thriftyHalt();
      case ConfigKind::OracleHalt:
        return thrifty::ThriftyConfig::oracleHalt();
      case ConfigKind::Thrifty:
        return thrifty::ThriftyConfig::thrifty();
      case ConfigKind::Ideal:
        return thrifty::ThriftyConfig::idealConfig();
      case ConfigKind::Baseline:
        break;
    }
    panic("no thrifty configuration for ", configName(k));
}

ConfigBarrierProvider::ConfigBarrierProvider(
    Machine& machine, ConfigKind k, const thrifty::ThriftyConfig* custom,
    thrifty::SyncStats& sync_stats)
    : m(machine), kind(k), stats(sync_stats)
{
    if (kind != ConfigKind::Baseline) {
        const thrifty::ThriftyConfig cfg =
            custom ? *custom : thriftyConfigFor(kind);
        rt = std::make_unique<thrifty::ThriftyRuntime>(
            m.config().numNodes(), cfg, stats);
    }
}

thrifty::Barrier&
ConfigBarrierProvider::barrierFor(thrifty::BarrierPc pc)
{
    auto it = barriers.find(pc);
    if (it != barriers.end())
        return *it->second;

    std::unique_ptr<thrifty::Barrier> b;
    const std::string name = "barrier" + std::to_string(pc);
    if (kind == ConfigKind::Baseline) {
        b = std::make_unique<thrifty::ConventionalBarrier>(
            m.eventQueue(), pc, m.config().numNodes(), m.memory(),
            stats, name);
    } else {
        b = std::make_unique<thrifty::ThriftyBarrier>(
            m.eventQueue(), pc, *rt, m.memory(), name);
    }
    auto [pos, inserted] = barriers.emplace(pc, std::move(b));
    (void)inserted;
    return *pos->second;
}

void
ConfigBarrierProvider::mergeStats()
{
    // Thrifty barriers share the runtime's ledger, so repeated merges
    // are harmless (a merged shard is left empty); conventional
    // barriers each fold their own ledger.
    for (auto& [pc, b] : barriers)
        b->mergeStats();
}

unsigned
defaultPartitions(const SystemConfig& sys)
{
    return sys.numNodes() >= 16 ? sys.numNodes() / 8 : 1;
}

ExperimentResult
runExperiment(const SystemConfig& sys, const workloads::AppProfile& app,
              ConfigKind kind, const RunOptions& options)
{
    // Declared before the machine: component destructors cancel
    // pending events through the queue's observer, so the checker has
    // to die last.
    std::unique_ptr<check::ProtocolChecker> checker;
    if (options.check || check::checkedByDefault()) {
        check::CheckerConfig ccfg;
        ccfg.numNodes = sys.numNodes();
        ccfg.barrierBudget = options.livenessBudget;
        ccfg.sleepBudget = options.livenessBudget;
        checker = std::make_unique<check::ProtocolChecker>(ccfg);
    }

    std::unique_ptr<fault::FaultInjector> injector;
    if (options.faults && options.faults->enabled())
        injector = std::make_unique<fault::FaultInjector>(*options.faults);

    // Same lifetime rule as the checker: the queue observer must die
    // after the machine.
    std::unique_ptr<obs::TraceQueueObserver> traceObs;

    // Fault injection without graceful degradation deadlocks by
    // design (a dropped wake-up is unrecoverable), so unless the
    // caller supplied an explicit custom configuration, switch the
    // preset's hardening guard rails on for the run.
    thrifty::ThriftyConfig hardened;
    const thrifty::ThriftyConfig* custom = options.customConfig;
    if (injector && !custom && kind != ConfigKind::Baseline) {
        hardened = thriftyConfigFor(kind);
        hardened.hardening.enabled = true;
        custom = &hardened;
    }

    Machine machine(sys, defaultPartitions(sys));
    if (checker)
        machine.attachChecker(*checker);
    if (injector)
        machine.attachFaultHooks(*injector);
    if (options.traceSink) {
        // Chain in front of whatever observer (checker) is installed
        // so tracing composes with invariant checking.
        traceObs = std::make_unique<obs::TraceQueueObserver>(
            *options.traceSink, machine.eventQueue().observer());
        machine.eventQueue().setObserver(traceObs.get());
        machine.attachTraceSink(options.traceSink);
    }

    thrifty::SyncStats sync;
    sync.traceEnabled = options.trace;
    sync.episodesEnabled = options.episodeLedger;

    ConfigBarrierProvider provider(machine, kind, custom, sync);
    if (options.traceSink && provider.runtime())
        provider.runtime()->setTraceSink(options.traceSink);
    workloads::SyntheticProgram program(
        machine.eventQueue(), machine.memory(), machine.threadPtrs(),
        app, provider, sys.seed);

    // Every allocation has happened (program regions and, eagerly,
    // all barrier pages): freeze the address map and backend page
    // table so no event ever mutates their structure mid-run.
    machine.memory().addressMap().seal();

    program.start();
    machine.run();

    provider.mergeStats();
    if (!program.finished())
        panic("experiment deadlocked: ", app.name, " under ",
              configName(kind));
    if (checker)
        checker->finalCheck();

    ExperimentResult r;
    r.app = app.name;
    r.config = configName(kind);
    r.execTime = program.finishTick();
    r.threads = machine.config().numNodes();
    r.sync = std::move(sync);
    if (injector) {
        r.faultSpec = injector->spec().summary();
        r.faultCounts = injector->counters();
    }

    const power::EnergyAccount total = machine.totalEnergy();
    for (std::size_t i = 0; i < power::kNumBuckets; ++i) {
        const auto b = static_cast<power::Bucket>(i);
        r.energy[i] = total.energy(b);
        r.time[i] = total.time(b);
    }
    if (options.statsVisitor)
        machine.visitStats(*options.statsVisitor);
    return r;
}

} // namespace harness
} // namespace tb
