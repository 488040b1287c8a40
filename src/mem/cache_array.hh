/**
 * @file
 * Set-associative cache tag/state array with true-LRU replacement.
 *
 * Purely structural: no timing, no protocol. The CacheController
 * composes two of these (L1, L2) with the coherence engine and the
 * clocked access latencies from Table 1.
 */

#ifndef TB_MEM_CACHE_ARRAY_HH_
#define TB_MEM_CACHE_ARRAY_HH_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/mem_types.hh"
#include "sim/types.hh"

namespace tb {
namespace mem {

/** Geometry of one cache level. */
struct CacheGeometry
{
    unsigned sizeBytes = 16 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = kLineBytes;

    unsigned
    numSets() const
    {
        return sizeBytes / (assoc * lineBytes);
    }
};

/**
 * Tag + MESI state array, with a one-bit-per-way index of the
 * Modified lines so the sleep flush visits only the dirty ones.
 */
class CacheArray
{
  public:
    /**
     * One way of one set. The state is written only by CacheArray
     * (insert / invalidate / setState), which keeps the Modified index
     * in step with it.
     */
    class Line
    {
      public:
        Addr addr = 0; ///< line-aligned address
        std::uint64_t lru = 0; ///< larger == more recently used

        LineState state() const { return st; }

      private:
        friend class CacheArray;
        LineState st = LineState::Invalid;
    };

    /** Evicted line descriptor returned by insert(). */
    struct Victim
    {
        bool valid = false;
        Addr addr = 0;
        LineState state = LineState::Invalid;
    };

    explicit CacheArray(const CacheGeometry& geometry);

    /** Geometry this array was built with. */
    const CacheGeometry& geometry() const { return geom; }

    /**
     * Look up @p line (line-aligned). Returns the entry or nullptr.
     * Does not touch LRU; call touch() on a real access.
     */
    Line* find(Addr line);
    const Line* find(Addr line) const;

    /** Mark @p entry most-recently used. */
    void touch(Line& entry) { entry.lru = ++lruClock; }

    /**
     * Allocate a way for @p line in state @p st, evicting the LRU
     * victim if the set is full. @p line must not already be present.
     * @return the victim descriptor (valid==false if a free way
     *         existed).
     */
    Victim insert(Addr line, LineState st);

    /** Drop @p line if present. @return true if it was present. */
    bool invalidate(Addr line);

    /** Move the present @p entry to state @p st. */
    void
    setState(Line& entry, LineState st)
    {
        entry.st = st;
        markModified(static_cast<std::size_t>(&entry - lines.data()),
                     st == LineState::Modified);
    }

    /**
     * Visit every Modified line in ascending array index (set-major,
     * then way) — the sleep flush's write-back order. @p fn must not
     * change the array.
     */
    template <typename Fn>
    void
    forEachModified(Fn&& fn) const
    {
        for (std::size_t w = 0; w < modified.size(); ++w) {
            for (std::uint64_t bits = modified[w]; bits != 0;
                 bits &= bits - 1) {
                fn(lines[w * 64 +
                         static_cast<std::size_t>(std::countr_zero(bits))]);
            }
        }
    }

    /** Count of valid lines. */
    unsigned validCount() const;

  private:
    /** Set index via the precomputed shift/mask — the geometry is
     *  validated power-of-two in the constructor, so no division sits
     *  on the lookup path. */
    std::size_t
    setBase(Addr line) const
    {
        return ((line >> lineShift) & setMask) * geom.assoc;
    }

    /** Set or clear way @p i's bit in the Modified index. */
    void
    markModified(std::size_t i, bool dirty)
    {
        std::uint64_t& word = modified[i / 64];
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        word = (word & ~bit) | (dirty ? bit : 0);
    }

    CacheGeometry geom;
    unsigned lineShift = 0;      ///< log2(lineBytes)
    std::size_t setMask = 0;     ///< numSets - 1
    std::vector<Line> lines; ///< numSets * assoc, set-major
    /** Bit i set exactly when lines[i] is Modified. */
    std::vector<std::uint64_t> modified;
    std::uint64_t lruClock = 0;
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_CACHE_ARRAY_HH_
