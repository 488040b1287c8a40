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

Machine::Machine(const SystemConfig& config, unsigned streams)
    : cfg(config), queue(streams)
{
    const unsigned n = cfg.numNodes();
    net = std::make_unique<noc::Network>(queue, cfg.noc, "noc", &hooks);
    mem_ = std::make_unique<mem::MemorySystem>(queue, *net, cfg.memory,
                                               &hooks);
    cpus.reserve(n);
    threads.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
        const std::string prefix = "node" + std::to_string(i);
        cpus.push_back(std::make_unique<cpu::Cpu>(
            queue, i, mem_->controller(i), cfg.power, prefix + ".cpu"));
        threads.push_back(std::make_unique<cpu::ThreadContext>(
            queue, i, *cpus.back(), mem_->controller(i),
            prefix + ".thread"));
    }
}

EventQueue&
Machine::clusterQueue(unsigned c)
{
    if (c != 0)
        panic("event queue ", c, " out of range: a machine has one");
    return queue;
}

void
Machine::attachChecker(check::ProtocolChecker& checker)
{
    checker.bindClock(&queue);
    checker.bindAddressMap(&mem_->addressMap());
    queue.setObserver(&checker);
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
    queue.run();
    return finalize();
}

Tick
Machine::finalize()
{
    for (NodeId n = 0; n < cfg.numNodes(); ++n)
        cpus[n]->finalize(queue.streamNow(net->streamOf(n)));
    return queue.now();
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
