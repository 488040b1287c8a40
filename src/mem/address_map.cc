#include "mem/address_map.hh"

#include "mem/backend.hh"
#include "sim/logging.hh"

namespace tb {
namespace mem {

AddressMap::AddressMap(unsigned num_nodes)
    : numNodes(num_nodes)
{
    if (num_nodes == 0)
        fatal("address map needs at least one node");
}

void
AddressMap::seal()
{
    sealed_ = true;
    if (backend)
        backend->seal();
}

Addr
AddressMap::allocPages(std::size_t bytes, bool shared, NodeId fixed_home)
{
    if (bytes == 0)
        fatal("zero-byte allocation");
    if (sealed_)
        panic("allocation after the address map was sealed; workloads "
              "must allocate all memory before the program starts");
    const std::size_t n_pages = (bytes + kPageBytes - 1) / kPageBytes;
    const Addr base = nextPage;
    for (std::size_t i = 0; i < n_pages; ++i) {
        NodeId h = shared
                       ? static_cast<NodeId>(nextSharedHome++ % numNodes)
                       : fixed_home;
        pages.push_back(PageInfo{h, shared});
        nextPage += kPageBytes;
    }
    if (backend)
        backend->ensureRange(base, n_pages * kPageBytes);
    return base;
}

Addr
AddressMap::allocShared(std::size_t bytes)
{
    return allocPages(bytes, true, 0);
}

Addr
AddressMap::allocPrivate(NodeId owner, std::size_t bytes)
{
    if (owner >= numNodes)
        fatal("private allocation for nonexistent node ", owner);
    return allocPages(bytes, false, owner);
}

NodeId
AddressMap::home(Addr a) const
{
    const PageInfo* p = lookup(a);
    if (!p)
        panic("home lookup of unmapped address ", a);
    return p->home;
}

bool
AddressMap::isShared(Addr a) const
{
    const PageInfo* p = lookup(a);
    if (!p)
        panic("isShared lookup of unmapped address ", a);
    return p->shared;
}

bool
AddressMap::isMapped(Addr a) const
{
    return lookup(a) != nullptr;
}

} // namespace mem
} // namespace tb
