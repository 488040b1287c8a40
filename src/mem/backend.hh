/**
 * @file
 * Global memory value backend.
 *
 * The simulator moves *timing*, not data, through the network; the
 * coherent value of every word lives here. Loads read the backend when
 * they complete; stores and atomics update it when the directory (the
 * serialization point) grants them. Conflicting accesses to one word
 * are serialized at the line's home directory, so per-word accesses
 * never race even when the machine is partitioned across host threads.
 *
 * Storage is page-granular: the address map pre-faults every allocated
 * page (ensureRange) and then seals the backend before the simulated
 * program starts, so the page table never grows mid-run. The table is
 * a vector indexed by page number, dense because the address map
 * allocates pages with a bump pointer from a low base. That is
 * what makes the image safe under partitioned execution — concurrent
 * partitions touch disjoint words of pre-existing pages, never the map
 * structure itself. The only same-page shared state is the written
 * bitmap, which uses relaxed atomic fetch_or because two causally
 * unrelated stores to different words of one page may land from
 * different host threads.
 */

#ifndef TB_MEM_BACKEND_HH_
#define TB_MEM_BACKEND_HH_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/mem_types.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tb {
namespace mem {

/** Sparse page-granular memory image (zero-initialized). */
class Backend
{
  public:
    /** Read the 64-bit word at @p a (must be 8-byte aligned). */
    std::uint64_t
    read(Addr a) const
    {
        const std::size_t n = pageNumber(a);
        if (n >= pages.size() || !pages[n])
            return 0;
        return pages[n]->w[wordIndex(a)];
    }

    /** Write the 64-bit word at @p a. */
    void
    write(Addr a, std::uint64_t v)
    {
        Page& p = pageFor(a);
        const std::size_t i = wordIndex(a);
        p.w[i] = v;
        p.written[i / 64].fetch_or(std::uint64_t{1} << (i % 64),
                                   std::memory_order_relaxed);
    }

    /** Add @p delta to the word at @p a; returns the *old* value. */
    std::uint64_t
    fetchAdd(Addr a, std::uint64_t delta)
    {
        std::uint64_t old = read(a);
        write(a, old + delta);
        return old;
    }

    /**
     * Pre-fault every page overlapping [@p base, @p base + @p bytes).
     * The address map calls this at allocation time; after seal() it is
     * an error for a write to touch a page that was never faulted.
     */
    void
    ensureRange(Addr base, std::size_t bytes)
    {
        if (sealed_)
            panic("backend ensureRange after seal");
        const std::size_t last = pageNumber(base + (bytes ? bytes - 1 : 0));
        if (last >= pages.size())
            pages.resize(last + 1);
        for (std::size_t n = pageNumber(base); n <= last; ++n)
            if (!pages[n])
                pages[n] = std::make_unique<Page>();
    }

    /**
     * Freeze the page table. Reads of never-faulted pages still return
     * zero; writes to them panic (a sealed map mutation would race with
     * concurrent partition lookups).
     */
    void seal() { sealed_ = true; }

    bool sealed() const { return sealed_; }

    /** Number of distinct words ever written. */
    std::size_t
    footprint() const
    {
        std::size_t n = 0;
        for (const auto& p : pages) {
            if (!p)
                continue;
            for (const auto& bm : p->written)
                n += static_cast<std::size_t>(std::popcount(
                    bm.load(std::memory_order_relaxed)));
        }
        return n;
    }

  private:
    static constexpr std::size_t kWordsPerPage = kPageBytes / 8;

    struct Page
    {
        std::uint64_t w[kWordsPerPage]{};
        std::atomic<std::uint64_t> written[kWordsPerPage / 64];

        Page()
        {
            for (auto& bm : written)
                bm.store(0, std::memory_order_relaxed);
        }
    };

    static std::size_t
    wordIndex(Addr a)
    {
        return static_cast<std::size_t>((a - pageAddr(a)) / 8);
    }

    static std::size_t
    pageNumber(Addr a)
    {
        return static_cast<std::size_t>(a / kPageBytes);
    }

    Page&
    pageFor(Addr a)
    {
        const std::size_t n = pageNumber(a);
        if (n < pages.size() && pages[n])
            return *pages[n];
        if (sealed_)
            panic("write to unfaulted page ", pageAddr(a),
                  " after backend seal");
        if (n >= pages.size())
            pages.resize(n + 1);
        pages[n] = std::make_unique<Page>();
        return *pages[n];
    }

    /** Pages by page number; null where never faulted. */
    std::vector<std::unique_ptr<Page>> pages;
    bool sealed_ = false;
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_BACKEND_HH_
