#include "mem/cache_array.hh"

#include "sim/logging.hh"

namespace tb {
namespace mem {

CacheArray::CacheArray(const CacheGeometry& geometry)
    : geom(geometry)
{
    if (geom.lineBytes == 0 || (geom.lineBytes & (geom.lineBytes - 1)))
        fatal("cache line size must be a power of two");
    if (geom.assoc == 0)
        fatal("cache associativity must be nonzero");
    if (geom.sizeBytes % (geom.assoc * geom.lineBytes) != 0)
        fatal("cache size ", geom.sizeBytes,
              " not divisible into sets of ", geom.assoc, " x ",
              geom.lineBytes, "B lines");
    const unsigned sets = geom.numSets();
    if (sets == 0 || (sets & (sets - 1)))
        fatal("cache set count must be a nonzero power of two, got ",
              sets);
    lines.resize(static_cast<std::size_t>(sets) * geom.assoc);
    modified.assign((lines.size() + 63) / 64, 0);
    while ((1u << lineShift) < geom.lineBytes)
        ++lineShift;
    setMask = sets - 1;
}

CacheArray::Line*
CacheArray::find(Addr line)
{
    const std::size_t base = setBase(line);
    for (unsigned w = 0; w < geom.assoc; ++w) {
        Line& l = lines[base + w];
        if (l.st != LineState::Invalid && l.addr == line)
            return &l;
    }
    return nullptr;
}

const CacheArray::Line*
CacheArray::find(Addr line) const
{
    return const_cast<CacheArray*>(this)->find(line);
}

CacheArray::Victim
CacheArray::insert(Addr line, LineState st)
{
    if (st == LineState::Invalid)
        panic("inserting invalid line");
    if (find(line))
        panic("inserting already-present line ", line);

    const std::size_t base = setBase(line);
    Line* target = nullptr;
    for (unsigned w = 0; w < geom.assoc; ++w) {
        Line& l = lines[base + w];
        if (l.st == LineState::Invalid) {
            target = &l;
            break;
        }
    }

    Victim victim;
    if (!target) {
        // Evict true-LRU.
        target = &lines[base];
        for (unsigned w = 1; w < geom.assoc; ++w) {
            if (lines[base + w].lru < target->lru)
                target = &lines[base + w];
        }
        victim.valid = true;
        victim.addr = target->addr;
        victim.state = target->st;
    }

    target->addr = line;
    setState(*target, st);
    touch(*target);
    return victim;
}

bool
CacheArray::invalidate(Addr line)
{
    Line* l = find(line);
    if (!l)
        return false;
    setState(*l, LineState::Invalid);
    return true;
}

unsigned
CacheArray::validCount() const
{
    unsigned n = 0;
    for (const auto& l : lines) {
        if (l.st != LineState::Invalid)
            ++n;
    }
    return n;
}

} // namespace mem
} // namespace tb
