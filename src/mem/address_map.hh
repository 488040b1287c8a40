/**
 * @file
 * CC-NUMA page placement and address allocation.
 *
 * Following the paper's setup: "Shared data pages are distributed in a
 * round-robin fashion among the nodes, and private data pages are
 * allocated locally." Workloads allocate regions through this map; the
 * coherence fabric asks it for the home node of every line.
 */

#ifndef TB_MEM_ADDRESS_MAP_HH_
#define TB_MEM_ADDRESS_MAP_HH_

#include <cstddef>
#include <vector>

#include "mem/mem_types.hh"
#include "sim/types.hh"

namespace tb {
namespace mem {

class Backend;

/** Page-granular NUMA placement directory. */
class AddressMap
{
  public:
    /** @param num_nodes number of home nodes in the machine. */
    explicit AddressMap(unsigned num_nodes);

    /**
     * Bind the value backend: every subsequent allocation pre-faults
     * its pages there, so the backend's page table is fully built
     * before the simulation starts (a partitioned run must never
     * rehash it mid-flight).
     */
    void bindBackend(Backend* b) { backend = b; }

    /**
     * Freeze the map (and the bound backend). Further allocations
     * panic — workloads must allocate everything up front, which is
     * what makes lock-free concurrent home() lookups safe.
     */
    void seal();

    /**
     * Allocate @p bytes of shared memory (page-aligned); the pages are
     * homed round-robin across all nodes.
     * @return base address of the region.
     */
    Addr allocShared(std::size_t bytes);

    /**
     * Allocate @p bytes of private memory homed entirely at
     * @p owner's node.
     */
    Addr allocPrivate(NodeId owner, std::size_t bytes);

    /** Home node of the page containing @p a. */
    NodeId home(Addr a) const;

    /** True if @p a lies in a shared region. */
    bool isShared(Addr a) const;

    /** True if @p a has been allocated at all. */
    bool isMapped(Addr a) const;

    /** Total bytes allocated so far (page-rounded). */
    std::size_t allocatedBytes() const { return nextPage - kBaseAddr; }

  private:
    struct PageInfo
    {
        NodeId home;
        bool shared;
    };

    /** Keep address 0 unmapped so it can act as a null value. */
    static constexpr Addr kBaseAddr = kPageBytes;

    Addr allocPages(std::size_t bytes, bool shared, NodeId fixed_home);

    /** Placement of the page holding @p a, or null if unmapped. */
    const PageInfo*
    lookup(Addr a) const
    {
        // Allocation bumps nextPage, so the mapped pages are exactly
        // [kBaseAddr, nextPage) and a page's index is its offset.
        if (a < kBaseAddr)
            return nullptr;
        const std::size_t i = (a - kBaseAddr) / kPageBytes;
        return i < pages.size() ? &pages[i] : nullptr;
    }

    unsigned numNodes;
    Addr nextPage = kBaseAddr;
    unsigned nextSharedHome = 0;
    Backend* backend = nullptr;
    bool sealed_ = false;
    /** Placement of each allocated page, in address order. */
    std::vector<PageInfo> pages;
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_ADDRESS_MAP_HH_
