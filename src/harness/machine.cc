#include "harness/machine.hh"

#include <string>

#include "check/protocol_checker.hh"
#include "sim/logging.hh"

namespace tb {
namespace harness {

SystemConfig
SystemConfig::paperDefault()
{
    SystemConfig c;
    c.noc.dimension = 6; // 64 nodes
    return c;
}

SystemConfig
SystemConfig::small(unsigned dimension)
{
    SystemConfig c;
    c.noc.dimension = dimension;
    return c;
}

namespace {

unsigned
checkedPartitions(unsigned partitions, unsigned nodes)
{
    const unsigned parts = partitions == 0 ? 1 : partitions;
    if ((parts & (parts - 1)) != 0 || parts > nodes)
        fatal("machine partitions must be a power of two dividing the "
              "node count; got ", parts, " for ", nodes, " nodes");
    return parts;
}

} // namespace

Machine::Machine(const SystemConfig& config, unsigned partitions)
    : cfg(config),
      // A hop leaving a cluster lands at least one pin-to-pin latency
      // ahead (Network::hopEvent), which makes it the lookahead.
      queues(checkedPartitions(partitions, config.numNodes()),
             config.noc.pinToPin)
{
    const unsigned n = cfg.numNodes();
    const unsigned nodes_per_cluster = n / queues.size();
    binding.clusters = queues.size();
    binding.queues = &queues;
    binding.nodeQueue.resize(n);
    binding.nodeCluster.resize(n);
    for (NodeId i = 0; i < n; ++i) {
        const unsigned c = i / nodes_per_cluster;
        binding.nodeCluster[i] = static_cast<std::uint16_t>(c);
        binding.nodeQueue[i] = &queues.queue(c);
    }

    net = std::make_unique<noc::Network>(eventQueue(), cfg.noc, "noc",
                                         &hooks);
    net->bindPartitions(&binding);
    auto queue_for = [this](NodeId node) -> EventQueue& {
        return *binding.nodeQueue[node];
    };
    mem_ = std::make_unique<mem::MemorySystem>(eventQueue(), *net,
                                               cfg.memory, &hooks,
                                               queue_for);
    cpus.reserve(n);
    threads.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
        EventQueue& q = queue_for(i);
        const std::string prefix = "node" + std::to_string(i);
        cpus.push_back(std::make_unique<cpu::Cpu>(
            q, i, mem_->controller(i), cfg.power, prefix + ".cpu"));
        threads.push_back(std::make_unique<cpu::ThreadContext>(
            q, i, *cpus.back(), mem_->controller(i),
            prefix + ".thread"));
    }
}

void
Machine::attachChecker(check::ProtocolChecker& checker)
{
    if (queues.size() > 1)
        panic("the protocol checker requires a serial machine (its "
              "global bookkeeping assumes one totally-ordered event "
              "stream); build the Machine with partitions = 1");
    checker.bindClock(&eventQueue());
    checker.bindAddressMap(&mem_->addressMap());
    eventQueue().setObserver(&checker);
    hooks.check = &checker;
    hooks.nocAudit = &checker;
}

void
Machine::attachFaultHooks(FaultHooks& fault_hooks)
{
    hooks.faults = &fault_hooks;
    for (NodeId n = 0; n < cfg.numNodes(); ++n)
        cpus[n]->setFaultHooks(&fault_hooks);
}

void
Machine::attachTraceSink(obs::TraceSink* sink)
{
    hooks.trace = sink;
}

std::vector<cpu::ThreadContext*>
Machine::threadPtrs()
{
    std::vector<cpu::ThreadContext*> out;
    out.reserve(threads.size());
    for (auto& t : threads)
        out.push_back(t.get());
    return out;
}

Tick
Machine::run()
{
    queues.run();
    return finalize();
}

Tick
Machine::finalize()
{
    for (auto& c : cpus)
        c->finalize();
    return queues.now();
}

power::EnergyAccount
Machine::totalEnergy() const
{
    power::EnergyAccount total;
    for (const auto& c : cpus)
        total.add(c->energy());
    return total;
}

void
Machine::visitStats(stats::StatVisitor& v)
{
    const auto group = [&v](const std::string& name,
                            const stats::StatGroup& g) {
        v.beginGroup(name);
        g.visit(v);
        v.endGroup();
    };
    group(net->name(), net->statistics());
    for (NodeId n = 0; n < cfg.numNodes(); ++n) {
        group(mem_->controller(n).name(),
              mem_->controller(n).statistics());
        group(mem_->directory(n).name(), mem_->directory(n).statistics());
        group(mem_->dram(n).name(), mem_->dram(n).statistics());
        group(cpus[n]->name(), cpus[n]->statistics());
    }
}

} // namespace harness
} // namespace tb
