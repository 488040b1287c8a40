#include "mem/memory_system.hh"

#include <string>

namespace tb {
namespace mem {

MemorySystem::MemorySystem(EventQueue& queue, noc::Network& network,
                           const MemoryConfig& config, const Hooks* hooks)
    : nodes(network.config().nodes()),
      map(nodes),
      fab(network, map, hooks)
{
    // Every allocation pre-faults its backend pages, so the value
    // image never rehashes once the harness seals the map.
    map.bindBackend(&values);
    drams.reserve(nodes);
    directories.reserve(nodes);
    controllers.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        const std::string prefix = "node" + std::to_string(n);
        drams.push_back(std::make_unique<Dram>(queue, config.dram,
                                               prefix + ".dram", hooks));
        directories.push_back(std::make_unique<Directory>(
            queue, n, nodes, fab, values, *drams.back(),
            prefix + ".dir", config.threeHopForwarding, hooks));
        controllers.push_back(std::make_unique<CacheController>(
            queue, n, fab, values, config.controller,
            prefix + ".ctrl", hooks));
        fab.registerDirectory(n, *directories.back());
        fab.registerController(n, *controllers.back());
    }
}

} // namespace mem
} // namespace tb
